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
complex scaling                 6 per entry
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
objects; create one per beamformer invocation.

A counter can run a stack of ``points`` problems at once, their arrays
stacked on a leading axis (vectors ``(P, n)``, matrices ``(P, m, n)``,
one factor per point ``(P, 1)`` or ``(P, 1, 1)``).  Products and
factorizations are charged by their trailing (matrix) dimensions and
elementwise operations per point, so ``total`` stays the count of one
point.
"""

from __future__ import annotations

import numpy as np

from . import linalg

EVD_FLOPS_PER_N3 = 32
INV_FLOPS_PER_N3 = 8


class FlopCounter:
    """Executes array math while accumulating a flop count in ``total``."""

    def __init__(self, points: int = 1) -> None:
        self.points = points
        self.total = 0

    def scalar(self, n_ops: int = 1) -> None:
        """Charge ``n_ops`` flops counted by the caller: scalar arithmetic
        or a composite step."""
        self.total += n_ops

    def _per_point(self, out: np.ndarray) -> int:
        return out.size // self.points

    # -- products ---------------------------------------------------------

    def matvec(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        m, n = a.shape[-2:]
        self.total += 8 * m * n
        return np.matvec(a, x)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m, k = a.shape[-2:]
        n = b.shape[-1]
        self.total += 8 * m * k * n
        return a @ b

    def outer(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Outer product ``x y^H``."""
        self.total += 6 * x.shape[-1] * y.shape[-1]
        return x[..., :, None] * y.conj()[..., None, :]

    def dot(self, x: np.ndarray, y: np.ndarray) -> complex | np.ndarray:
        """Inner product ``x^H y``."""
        self.total += 8 * x.shape[-1]
        return np.vecdot(x, y)

    # -- elementwise ------------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = a + b
        self.total += 2 * self._per_point(out)
        return out

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = a - b
        self.total += 2 * self._per_point(out)
        return out

    def scale(self, f: complex | np.ndarray, a: np.ndarray) -> np.ndarray:
        """``f * a`` for a factor ``f`` that broadcasts against ``a``: a
        scalar, one factor per column (a vector) or per row (``d[:, None]``).
        Each entry costs 2 flops for a real factor and 6 for a complex one."""
        out = f * a
        self.total += (6 if np.asarray(f).dtype.kind == "c" else 2) * self._per_point(out)
        return out

    def norm(self, x: np.ndarray) -> float | np.ndarray:
        """Norm of ``x``, or of each vector of a stack."""
        self.total += 4 * x.shape[-1] + 1
        return linalg.vector_norm(x)

    # -- factorizations ---------------------------------------------------

    def evd(self, m: np.ndarray, what: str = "m") -> linalg.HermitianEvd:
        """`linalg.hermitian_evd`, its refusals naming the matrix ``what``."""
        evd = linalg.hermitian_evd(m, what)
        self.total += EVD_FLOPS_PER_N3 * evd.eigenvalues.shape[-1] ** 3
        return evd

    def inv_hpd(self, m: np.ndarray, what: str = "m") -> np.ndarray:
        """Direct HPD inverse, charged at the standard n^3 dense cost; its
        refusals name the matrix ``what``."""
        inverse = linalg.inv_hpd(m, what)
        self.total += INV_FLOPS_PER_N3 * inverse.shape[-1] ** 3
        return inverse
