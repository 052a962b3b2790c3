"""Instrumented dense linear algebra for operation counting.

A `FlopCounter` executes the numpy operation and accumulates real
floating-point operations under one fixed cost model, so a beamformer's
measured cost is a byproduct of running it.  The model counts the
textbook algorithm, not numpy's internal implementation:

==============================  =======================================
operation                       real flops charged
==============================  =======================================
complex multiply-add            8   (4 mul + 4 add)
complex multiply                6
complex add                     2
real-by-complex scaling         2 per entry
matrix-vector (m x n)           8*m*n
matrix-matrix (m x k x n)       8*m*k*n
outer product (m x n)           6*m*n
inner product (n)               8*n
squared norm + sqrt (n)         4*n + 1
Hermitian EVD (n x n)           32*n**3  (~4 n^3 complex multiply-adds)
HPD inverse (n x n)             8*n**3   (n^3 complex multiply-adds)
==============================  =======================================

Conjugation and array allocation are free.  Scalar arithmetic is charged
explicitly by the caller where it matters.  Counters are cheap plain
objects; create one per beamformer invocation (they are not shared
across threads).
"""

from __future__ import annotations

import numpy as np

from . import linalg

EVD_FLOPS_PER_N3 = 32
INV_FLOPS_PER_N3 = 8


class FlopCounter:
    """Executes array math while accumulating a flop count in ``total``."""

    def __init__(self) -> None:
        self.total = 0

    def scalar(self, n_ops: int = 1) -> None:
        """Charge ``n_ops`` flops counted by the caller: scalar arithmetic
        or a composite step."""
        self.total += int(n_ops)

    # -- products ---------------------------------------------------------

    def matvec(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        m, n = a.shape
        self.total += 8 * m * n
        return a @ x

    def vecmat(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        m, n = a.shape
        self.total += 8 * m * n
        return x @ a

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m, k = a.shape
        n = b.shape[1]
        self.total += 8 * m * k * n
        return a @ b

    def outer(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Outer product ``x y^H``."""
        self.total += 6 * x.shape[0] * y.shape[0]
        return np.outer(x, y.conj())

    def outer_plain(self, x: np.ndarray, row: np.ndarray) -> np.ndarray:
        """Outer product ``x row`` without conjugating the row."""
        self.total += 6 * x.shape[0] * row.shape[0]
        return np.outer(x, row)

    def dot(self, x: np.ndarray, y: np.ndarray) -> complex:
        """Inner product ``x^H y``."""
        self.total += 8 * x.shape[0]
        return complex(np.vdot(x, y))

    def dot_plain(self, row: np.ndarray, x: np.ndarray) -> complex:
        """Plain product ``row @ x`` without conjugation."""
        self.total += 8 * row.shape[0]
        return complex(row @ x)

    # -- elementwise ------------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.total += 2 * a.size
        return a + b

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.total += 2 * a.size
        return a - b

    def cscale(self, c: complex, a: np.ndarray) -> np.ndarray:
        self.total += 6 * a.size
        return c * a

    def rscale(self, r: float, a: np.ndarray) -> np.ndarray:
        self.total += 2 * a.size
        return r * a

    def row_rescale(self, d: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Scale row i of ``a`` by the real factor ``d[i]``."""
        self.total += 2 * a.size
        return d[:, None] * a

    def col_rescale(self, a: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Scale column j of ``a`` by the real factor ``d[j]``."""
        self.total += 2 * a.size
        return a * d[None, :]

    def norm(self, x: np.ndarray) -> float:
        self.total += 4 * x.shape[0] + 1
        return float(np.linalg.norm(x))

    # -- factorizations ---------------------------------------------------

    def evd(self, m: np.ndarray) -> linalg.HermitianEvd:
        self.total += EVD_FLOPS_PER_N3 * m.shape[0] ** 3
        return linalg.hermitian_evd(m)

    def inv_hpd(self, m: np.ndarray) -> np.ndarray:
        """Direct HPD inverse, charged at the standard n^3 dense cost."""
        self.total += INV_FLOPS_PER_N3 * m.shape[0] ** 3
        return linalg.inv_hpd(m)
