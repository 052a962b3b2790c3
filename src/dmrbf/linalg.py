"""Dense Hermitian linear algebra with explicit conditioning guards.

Thin wrappers around LAPACK (via numpy) that enforce the contracts the
beamformers rely on: inputs are Hermitian to working precision, inversions
refuse near-singular matrices instead of amplifying noise, and rank
decisions use a single documented cutoff.

All routines operate on complex128 arrays.  Eigenvalues are returned in
descending order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, DimensionError, NumericalError

# Largest tolerated asymmetry, relative to the matrix magnitude.  Inputs are
# symmetrized before the eigensolver runs; anything worse than this is a bug
# in the caller, not roundoff.
HERMITIAN_ATOL = 1e-12

# Eigenvalues below RANK_RTOL * max_eig count as zero in rank decisions.
RANK_RTOL = 1e-12

# check_hpd refuses matrices with min_eig <= HPD_RTOL * max_eig.
HPD_RTOL = 1e-14


class HermitianEvd(NamedTuple):
    """Eigendecomposition ``m = q @ diag(eigenvalues) @ q.conj().T``."""

    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # unitary, columns aligned with eigenvalues


def _as_square_complex(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionError(f"{name} must be a non-empty square matrix, got shape {m.shape}")
    return m


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^H) / 2``, halved before adding so entries near the float
    maximum do not overflow.  Halving multiplies by ``0.5``: numpy divides
    complex by real through the reciprocal, so this returns the division's
    bits (only the sign of an exact zero may differ) at a fraction of its
    cost."""
    return m * 0.5 + m.conj().T * 0.5


def vector_norm(x: np.ndarray) -> float:
    """Euclidean norm of the entries of ``x``, bit for bit
    ``float(np.linalg.norm(x))``.

    The same arithmetic as numpy's (ravel, ``re . re + im . im``, sqrt)
    without its argument dispatch, which at the vector sizes of a scene
    costs more than the sums.
    """
    x = x.ravel(order="K")
    if x.dtype.kind not in "fc":  # numpy's norm sums integers as floats
        x = x.astype(float)
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _symmetrized(m: np.ndarray, name: str) -> np.ndarray:
    """`hermitian_part` of ``m``, refused when ``m`` is not Hermitian up to
    roundoff.  The magnitude that scales the tolerance is only needed when
    there is some asymmetry, which an exactly Hermitian input has not."""
    m_h = m.conj().T
    asym = float(np.abs(m - m_h).max())
    if asym:  # zero for an exactly Hermitian m
        scale = max(1.0, float(np.abs(m).max()))
        if asym > HERMITIAN_ATOL * scale:
            raise DimensionError(
                f"{name} is not Hermitian: max asymmetry {asym:.3e} exceeds "
                f"{HERMITIAN_ATOL:.0e} relative to magnitude {scale:.3e}"
            )
    # hermitian_part(m); m is complex128, so m.conj() is a copy to halve in place
    sym = m * 0.5
    m_h *= 0.5
    sym += m_h
    return sym


def hermitian_evd(m: np.ndarray) -> HermitianEvd:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Parameters
    ----------
    m : ndarray, shape (n, n)
        Hermitian matrix.  Asymmetry up to roundoff is removed by averaging
        with the conjugate transpose; larger asymmetry raises.

    Returns
    -------
    HermitianEvd
        Real eigenvalues in descending order and the matching unitary
        eigenvector matrix.
    """
    m = _as_square_complex(m, "m")
    sym = _symmetrized(m, "m")
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    return HermitianEvd(eigvals[::-1].copy(), eigvecs[:, ::-1].copy())


def check_hpd(evd: HermitianEvd, what: str) -> None:
    """Raise `ConditioningError`, naming ``what``, unless the matrix behind
    ``evd`` is numerically positive definite (``min_eig > 1e-14 * max_eig``);
    inverting a numerically singular matrix amplifies roundoff without bound.
    """
    lo, hi = float(evd.eigenvalues[-1]), float(evd.eigenvalues[0])
    if not (hi > 0.0 and lo > HPD_RTOL * hi):  # NaN fails too
        raise ConditioningError(f"{what} is not numerically positive definite", lo, hi)


def inv_hpd(m: np.ndarray) -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix (guarded by `check_hpd`)."""
    evd = hermitian_evd(m)
    check_hpd(evd, "matrix")
    q = evd.eigenvectors
    return (q * (1.0 / evd.eigenvalues)) @ q.conj().T  # = q / eigenvalues, see hermitian_part
