"""Computational cost of the beamformers: closed form and measured.

``formula_flops`` evaluates the published closed-form operation-count
polynomials exactly as stated, which charge n^3 for an n x n
eigendecomposition and n^3 for an n x n inverse.  ``compute(method,
scene).flops`` is what one run of a beamformer actually spent, counted
in real flops by the instrumented executor (`FlopCounter`) under the cost
model documented in ``counting``: 32n^3 per Hermitian EVD and 8n^3 per
HPD inverse.  Per method the two conventions grow at the same order,
which is what the asymptotic claims rest on, but their ratio is not one
factor across methods, so they can rank methods differently: at
n_a = n_b = n_m = 16 (default config otherwise) the formulas rank WF-MRC
8911 < LC-MMSE 13658 < MMSE 23023, and the counter LC-MMSE 12361 < MMSE
47554 < WF-MRC 136100.
"""

from __future__ import annotations

from .beamformers import Method, as_method
from .errors import DomainError
from .scenario import as_scalar


def _mrc_flops(n_a: int, n_b: int, n_m: int) -> int:
    """Matched filter: one matrix-vector product plus normalization."""
    return 3 * n_a * n_b + 2 * n_b


def _wfmrc_flops(n_a: int, n_b: int, n_m: int) -> int:
    """Whiten-then-match: one EVD plus covariance assembly terms."""
    return (
        n_b**3
        + 4 * n_a**2
        + 7 * n_b**2
        + 5 * n_a * n_b
        + 3 * n_b * n_m
        - 2 * n_a
        - n_b
        - 1
    )


def _max_sr_flops(n_a: int, n_b: int, n_m: int) -> int:
    """Eigenbeamformer: WFMRC plus one extra n_b^2 sweep."""
    return _wfmrc_flops(n_a, n_b, n_m) + n_b**2


def _mmse_flops(n_a: int, n_b: int, n_m: int) -> int:
    """Conventional MMSE: one direct inverse plus covariance assembly."""
    return (
        n_b**3
        + 2 * n_a**2 * n_b
        + 2 * n_b**2 * n_a
        + 7 * n_b**2
        + n_a * n_b
        + 2 * n_b * n_m
        - n_b
        - 1
    )


def _lc_mmse_flops(n_a: int, n_b: int, n_m: int) -> int:
    """Rank-one update chain: quadratic, no cubic term."""
    return (
        36 * n_b**2
        + 12 * n_a * n_b
        + 6 * n_b * n_m
        + 3 * n_a
        + n_m
        - 14 * n_b
        - 6
    )


def _nsp_wfrp_flops(n_a: int, n_b: int, n_m: int) -> int:
    """Null-space projection: projector, two sandwiches and a reduced EVD."""
    return (
        4 * n_b**3
        + n_m**3
        + 4 * n_a**2
        + 7 * n_b**2
        + 4 * n_a * n_b
        + 3 * n_b * n_m
        + 3 * n_m**2
        - 2 * n_a
        - n_m
        - 2
    )


_FORMULAS = {
    Method.MRC: _mrc_flops,
    Method.WFMRC: _wfmrc_flops,
    Method.MAX_SR: _max_sr_flops,
    Method.MMSE: _mmse_flops,
    Method.LC_MMSE: _lc_mmse_flops,
    Method.NSP_WFRP: _nsp_wfrp_flops,
}


def formula_flops(method: Method, n_a: int, n_b: int, n_m: int) -> int:
    """Closed-form operation count of a method at the given array sizes."""
    formula = _FORMULAS[as_method(method)]
    n_a = as_scalar(int, n_a, "n_a")
    n_b = as_scalar(int, n_b, "n_b")
    n_m = as_scalar(int, n_m, "n_m")
    if min(n_a, n_b, n_m) < 1:
        raise DomainError(f"array sizes must be >= 1, got ({n_a}, {n_b}, {n_m})")
    return formula(n_a, n_b, n_m)
