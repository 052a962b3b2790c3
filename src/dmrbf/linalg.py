"""Dense Hermitian linear algebra with explicit conditioning guards.

Thin wrappers around LAPACK (via numpy) that enforce the contracts the
beamformers rely on: inputs are Hermitian to working precision, inversions
refuse near-singular matrices instead of amplifying noise, and rank
decisions use a single documented cutoff.

All routines operate on complex128 arrays.  Eigenvalues are returned in
descending order.
"""

from __future__ import annotations

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
    maximum do not overflow."""
    return m / 2.0 + m.conj().T / 2.0


def _symmetrized(m: np.ndarray, name: str) -> np.ndarray:
    scale = max(1.0, float(np.abs(m).max()))
    asym = float(np.abs(m - m.conj().T).max())
    if asym > HERMITIAN_ATOL * scale:
        raise DimensionError(
            f"{name} is not Hermitian: max asymmetry {asym:.3e} exceeds "
            f"{HERMITIAN_ATOL:.0e} relative to magnitude {scale:.3e}"
        )
    return hermitian_part(m)


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
    return (q / evd.eigenvalues) @ q.conj().T
