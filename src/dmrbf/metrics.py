"""Achievable rates and the secrecy rate of one operating point.

Rates are in bits per channel use.  SINRs are ratios of quadratic forms
in the (unit-norm) receive weights, each read as ``coef |V^H w|^2`` from
the coefficient and thin factor `scenario` keeps for its term: a sum of
squares, so nothing is clipped.  Every point of a stacked `Scene` is
evaluated at once, with the bits each point gets alone.

The SNR knob used by the sweeps is defined at Bob: ``received`` means
``p_a * g_ab / sigma_b2`` (path loss folded in), ``transmit`` means
``p_a / sigma_b2``.  Both noise variances track the same SNR value since
the model keeps them equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import point_values, vector_norm
from .scenario import CovarianceSet, Scene, ScenarioConfig, Term, as_scalar


@dataclass(frozen=True)
class RatePoint:
    """Rates of one (scenario, beamformer) pair; for a stacked `Scene`,
    each field is a ``(P,)`` array, one entry per point (see `at`)."""

    sinr_bob: float | np.ndarray
    sinr_mallory: float | np.ndarray
    rate_bob_bits: float | np.ndarray
    rate_mallory_bits: float | np.ndarray
    secrecy_rate_bits: float | np.ndarray

    def at(self, point: int) -> RatePoint:
        """The rates of one point of a stacked `RatePoint`, as floats."""
        return RatePoint(
            float(self.sinr_bob[point]),
            float(self.sinr_mallory[point]),
            float(self.rate_bob_bits[point]),
            float(self.rate_mallory_bits[point]),
            float(self.secrecy_rate_bits[point]),
        )


def _sinr(
    name: str,
    weights: np.ndarray,
    signal: Term,
    i1: Term,
    i2: Term,
    noise: float | np.ndarray,
) -> np.ndarray:
    """Post-combining SINR ``w^H S w / (w^H I1 w + w^H I2 w + noise)`` at
    unit ``w``, for one point or each of a stack (weights ``(..., n)``,
    terms of factors ``(..., n, k)``, noise ``(...)``); the weights may be
    any numeric array-like, at any finite scale.  Weights that are not
    numbers, of another shape, all zero or not finite are refused, naming
    the argument ``name``.

    Each form is ``coef |V^H w|^2`` (see `Term`), and each point of a
    stack keeps its one-point bits.
    """
    weights, shape = np.asarray(weights), signal.factor.shape[:-1]
    if weights.dtype.kind not in "iufc":
        raise DomainError(f"{name} must be a numeric array, got dtype {weights.dtype}")
    if weights.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {weights.shape}")
    with np.errstate(over="ignore", under="ignore"):  # a norm out of range is rescaled
        nrm = vector_norm(weights)
        if weights.dtype.kind in "fc" and not ((0.0 < nrm) & (nrm < math.inf)).all():
            # as reals: numpy divides complex through the reciprocal (inf at a subnormal)
            parts = np.ascontiguousarray(weights).view(weights.real.dtype)
            big = abs(parts).max(axis=-1, keepdims=True)
            weights = (parts / np.where((0 < big) & (big < math.inf), big, 1)).view(weights.dtype)
            nrm = vector_norm(weights)
    for v in point_values(nrm):
        if not 0.0 < v < math.inf:  # also refuses a NaN norm
            raise DomainError(f"{name} must have a positive, finite norm, got {v}")
    w = weights / nrm[..., None]
    return _power(signal, w) / (_power(i1, w) + _power(i2, w) + noise)


def _power(term: Term, w: np.ndarray) -> np.ndarray:
    """``w^H (coef V V^H) w = coef |V^H w|^2`` of each point."""
    y = np.vecmat(w, term.factor)  # w^H V
    return term.coef * np.vecdot(y, y).real


def sinr_bob(weights: np.ndarray, cov: CovarianceSet, sigma_b2_watt: float) -> float:
    """Bob's post-combining SINR: signal over jamming-plus-noise."""
    return float(_sinr("weights", weights, cov.a, cov.b, cov.d, sigma_b2_watt))


def sinr_mallory(weights: np.ndarray, cov: CovarianceSet, sigma_m2_watt: float) -> float:
    """Mallory's post-combining SINR on the intercepted stream.

    The denominator carries the artificial noise from Alice plus
    Mallory's residual self-interference plus thermal noise.
    """
    return float(_sinr("weights", weights, cov.e, cov.f, cov.r_m, sigma_m2_watt))


def rate_point(scene: Scene, bob_weights: np.ndarray, mallory_weights: np.ndarray) -> RatePoint:
    """Assemble both ends' SINRs and rates and the secrecy rate, the
    nonnegative part of Bob's rate advantage, for a one-point scene
    (weights ``(n,)``), or for every point of a stacked one at once
    (weights ``(P, n)``)."""
    cov = scene.cov
    gb = _sinr("bob_weights", bob_weights, cov.a, cov.b, cov.d, scene.sigma_b2_watt)
    gm = _sinr("mallory_weights", mallory_weights, cov.e, cov.f, cov.r_m, scene.sigma_m2_watt)
    rb = np.log2(1.0 + gb)
    rm = np.log2(1.0 + gm)
    # max(0.0, rb - rm) bit for bit: fmax takes NaN to 0.0 as Python's max
    # does, and adding 0.0 takes -0.0 to 0.0
    sr = np.fmax(0.0, rb - rm) + 0.0
    if scene.sigma_b2_watt.ndim == 0:  # one point: no point axis
        return RatePoint(float(gb), float(gm), float(rb), float(rm), float(sr))
    return RatePoint(gb, gm, rb, rm, sr)


def sigma2_for_snr_db(cfg: ScenarioConfig, snr_db: float) -> float:
    """Noise variance that realizes ``snr_db`` under the config's definition."""
    snr_db = as_scalar(float, snr_db, "snr_db")
    reference = cfg.p_a_watt  # the 'transmit' definition
    if cfg.snr_definition == "received":
        reference *= cfg.path_gain(cfg.d_ab_km)
    try:  # on Python floats, which raise where numpy's would only warn
        sigma2 = reference / 10.0 ** (snr_db / 10.0)
    except OverflowError:  # the power ratio left the float range
        sigma2 = 0.0
    except ZeroDivisionError:  # the power ratio underflowed to zero
        sigma2 = math.inf
    if not math.isfinite(sigma2) or sigma2 <= 0.0:
        raise DomainError(f"snr_db={snr_db} yields unusable noise variance {sigma2}")
    return sigma2
