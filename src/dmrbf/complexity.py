"""Computational cost of the beamformers: closed form and measured.

``formula_flops`` evaluates the published closed-form operation-count
polynomials exactly as stated, so its absolute numbers live in that
accounting convention.  ``measured_flops`` runs a beamformer through the
instrumented executor (`FlopCounter`) and reports what the algorithm
actually spent under the cost model documented in ``counting``.  The two
conventions differ by a bounded constant factor; their growth orders
agree, which is what the asymptotic claims rest on.
"""

from __future__ import annotations

from dataclasses import replace

from .beamformers import Method, compute
from .errors import DomainError
from .scenario import ScenarioConfig, build_scene


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
    return (
        n_b**3
        + 4 * n_a**2
        + 8 * n_b**2
        + 5 * n_a * n_b
        + 3 * n_b * n_m
        - 2 * n_a
        - n_b
        - 1
    )


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
    method = Method(method)
    if method not in _FORMULAS:
        raise DomainError(f"no closed-form cost for method {method.value!r}")
    if min(n_a, n_b, n_m) < 1:
        raise DomainError(f"array sizes must be >= 1, got ({n_a}, {n_b}, {n_m})")
    return int(_FORMULAS[method](n_a, n_b, n_m))


def measured_flops(
    method: Method,
    n_a: int = 4,
    n_b: int = 4,
    n_m: int = 4,
    cfg: ScenarioConfig | None = None,
) -> int:
    """Instrumented flop count of one beamformer run at the given sizes.

    The count covers the method's own work given precomputed covariance
    terms; assembling those is shared by all methods and charged to none.
    """
    base = cfg if cfg is not None else ScenarioConfig()
    scene = build_scene(replace(base, n_a=n_a, n_b=n_b, n_m=n_m))
    return compute(method, scene).flops
