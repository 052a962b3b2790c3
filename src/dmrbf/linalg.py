"""Dense Hermitian linear algebra with explicit conditioning guards.

Thin wrappers around LAPACK (via numpy) that enforce the contracts the
beamformers rely on: inputs are Hermitian to working precision, inversions
refuse near-singular matrices instead of amplifying noise, and rank
decisions use a single documented cutoff.

All routines operate on complex128 arrays.  Eigenvalues are returned in
descending order.  The matrix routines also take a stack of matrices
(leading axes first, as numpy's batched linear algebra does) and treat
each slice exactly as they treat one matrix: same guards, same bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, DimensionError, DomainError, NumericalError

# Largest tolerated asymmetry, relative to the matrix magnitude.  Inputs are
# symmetrized before the eigensolver runs; anything worse than this is a bug
# in the caller, not roundoff.
HERMITIAN_ATOL = 1e-12

# Singular values below RANK_RTOL * the largest count as zero in rank
# decisions; so does a vector's part shorter than RANK_RTOL * its whole.
RANK_RTOL = 1e-12

# check_hpd refuses matrices with min_eig <= HPD_RTOL * max_eig.
HPD_RTOL = 1e-14


class HermitianEvd(NamedTuple):
    """Eigendecomposition ``m = q @ diag(eigenvalues) @ q.conj().T``."""

    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # unitary, columns aligned with eigenvalues


def _as_square_complex(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m)
    if m.dtype.kind not in "iufc":
        raise DomainError(f"{name} must be a numeric array, got dtype {m.dtype}")
    m = m.astype(np.complex128, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimensionError(
            f"{name} must be a non-empty square matrix or a stack of them, got shape {m.shape}"
        )
    return m


def _h(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^H) / 2``, halved before adding so entries near the float
    maximum do not overflow.  Halving multiplies by ``0.5``: numpy divides
    complex by real through the reciprocal, so this returns the division's
    bits (only the sign of an exact zero may differ) at a fraction of its
    cost."""
    return m * 0.5 + _h(m) * 0.5


def vector_norm(x: np.ndarray) -> np.floating | np.ndarray:
    """Euclidean norm of each vector along the last axis of ``x``, bit for
    bit ``np.linalg.norm`` of each.

    The same arithmetic as numpy's (``re . re + im . im`` by BLAS ``ddot``,
    then sqrt) without its argument dispatch, which at the vector sizes of
    a scene costs more than the sums.  ``np.vecdot`` hands each vector of
    a stack to the same ``ddot``, so each norm keeps its bits.  One vector
    is made contiguous first, as numpy's norm ravels it: a BLAS kernel may
    sum a strided vector in another order.
    """
    if x.dtype.kind not in "fc":  # numpy's norm sums integers as floats
        x = x.astype(float)
    if x.ndim == 1:  # ndarray.dot is the cheaper call to the same ddot
        x = x.ravel(order="K")
        sq = x.real.dot(x.real) + x.imag.dot(x.imag)
    else:
        sq = np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag)
    return np.sqrt(sq)


def point_values(x: np.ndarray | np.generic) -> list:
    """The entries of a stack's ``(P,)`` array, or the one value of a
    scene's scalar, as a list of Python scalars."""
    values = x.tolist()
    return values if isinstance(values, list) else [values]


def _symmetrized(m: np.ndarray, name: str) -> np.ndarray:
    """`hermitian_part` of each matrix of ``m``, refused when one has a NaN
    or inf, or is not Hermitian up to roundoff, relative to its own
    magnitude.  Both leave some asymmetry, which an exactly Hermitian
    finite input has not, so it pays for neither test."""
    m_h = _h(m)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        asym = np.abs(m - m_h)
        if asym.any():  # all zero for exactly Hermitian finite matrices
            finite = point_values(np.isfinite(m).all(axis=(-2, -1)))
            asym = point_values(asym.max(axis=(-2, -1)))
            scale = point_values(np.abs(m).max(axis=(-2, -1)))
            for finite_p, asym_p, scale_p in zip(finite, asym, scale):
                if not finite_p:
                    raise DomainError(f"{name} has a NaN or infinite entry")
                scale_p = max(1.0, scale_p)
                if asym_p > HERMITIAN_ATOL * scale_p:
                    raise DimensionError(
                        f"{name} is not Hermitian: max asymmetry {asym_p:.3e} exceeds "
                        f"{HERMITIAN_ATOL:.0e} relative to magnitude {scale_p:.3e}"
                    )
    # hermitian_part(m); m is complex128, so m.conj() is a copy to halve in place
    sym = m * 0.5
    m_h *= 0.5
    sym += m_h
    return sym


def hermitian_evd(m: np.ndarray, what: str = "m") -> HermitianEvd:
    """Eigendecomposition of a Hermitian matrix ``m`` (any numeric
    array-like), or of each of a stack: real eigenvalues, descending, and
    the matching unitary eigenvectors.  Asymmetry up to roundoff is removed
    by averaging with the conjugate transpose; larger asymmetry, a NaN or
    inf entry and a non-numeric or non-square array are refused, naming
    the matrix ``what``."""
    m = _as_square_complex(m, what)
    sym = _symmetrized(m, what)
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalError(f"eigendecomposition did not converge: {exc}") from exc
    return HermitianEvd(eigvals[..., ::-1].copy(), eigvecs[..., ::-1].copy())


def check_hpd(evd: HermitianEvd, what: str) -> None:
    """Raise `ConditioningError`, naming ``what``, unless every matrix behind
    ``evd`` is numerically positive definite (``min_eig > 1e-14 * max_eig``);
    inverting a numerically singular matrix amplifies roundoff without bound.
    The error carries the first refused matrix's extreme eigenvalues.
    """
    lo, hi = evd.eigenvalues[..., -1], evd.eigenvalues[..., 0]
    for lo_p, hi_p in zip(point_values(lo), point_values(hi)):
        if not (hi_p > 0.0 and lo_p > HPD_RTOL * hi_p):  # NaN fails too
            raise ConditioningError(f"{what} is not numerically positive definite", lo_p, hi_p)


def inv_hpd(m: np.ndarray, what: str = "m") -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix, or of each of a
    stack (guarded by `check_hpd`); every refusal names the matrix ``what``."""
    evd = hermitian_evd(m, what)
    check_hpd(evd, what)
    q = evd.eigenvectors
    # = q / eigenvalues, see hermitian_part
    return (q * (1.0 / evd.eigenvalues)[..., None, :]) @ _h(q)
