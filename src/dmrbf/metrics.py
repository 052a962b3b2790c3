"""Achievable rates and the secrecy rate of one operating point.

Rates are in bits per channel use.  SINRs are computed from the
covariance terms as ratios of quadratic forms in the (unit-norm) receive
weights; tiny negative values from roundoff are clipped to zero before
the logarithm.

The SNR knob used by the sweeps is defined at Bob: ``received`` means
``p_a * g_ab / sigma_b2`` (path loss folded in), ``transmit`` means
``p_a / sigma_b2``.  Both noise variances track the same SNR value since
the model keeps them equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .scenario import CovarianceSet, Scene, ScenarioConfig


@dataclass(frozen=True)
class RatePoint:
    """Rates of one (scenario, beamformer) pair."""

    sinr_bob: float
    sinr_mallory: float
    rate_bob_bits: float
    rate_mallory_bits: float
    secrecy_rate_bits: float


def _quad(weights: np.ndarray, m: np.ndarray) -> float:
    """Real quadratic form ``w^H M w``, clipped at zero."""
    return max(0.0, float(np.real(np.vdot(weights, m @ weights))))


def _unit_weights(weights: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(weights))
    if nrm <= 0.0:
        raise DomainError("weights must have positive norm")
    return weights / nrm


def sinr_bob(weights: np.ndarray, cov: CovarianceSet, sigma_b2_watt: float) -> float:
    """Bob's post-combining SINR: signal over jamming-plus-noise."""
    w = _unit_weights(weights)
    num = _quad(w, cov.a)
    den = _quad(w, cov.b) + _quad(w, cov.d) + sigma_b2_watt
    return num / den


def sinr_mallory(weights: np.ndarray, cov: CovarianceSet, sigma_m2_watt: float) -> float:
    """Mallory's post-combining SINR on the intercepted stream.

    The denominator carries the artificial noise from Alice plus
    Mallory's residual self-interference plus thermal noise.
    """
    w = _unit_weights(weights)
    num = _quad(w, cov.e)
    den = _quad(w, cov.f) + _quad(w, cov.r_m) + sigma_m2_watt
    return num / den


def secrecy_rate(rate_bob_bits: float, rate_mallory_bits: float) -> float:
    """Nonnegative part of the rate advantage of the legitimate link."""
    return max(0.0, rate_bob_bits - rate_mallory_bits)


def rate_point(
    scene: Scene, bob_weights: np.ndarray, mallory_weights: np.ndarray
) -> RatePoint:
    """Assemble both ends' rates and the secrecy rate for one scene."""
    gb = sinr_bob(bob_weights, scene.cov, scene.cfg.sigma_b2_watt)
    gm = sinr_mallory(mallory_weights, scene.cov, scene.cfg.sigma_m2_watt)
    rb = float(np.log2(1.0 + gb))
    rm = float(np.log2(1.0 + gm))
    return RatePoint(
        sinr_bob=gb,
        sinr_mallory=gm,
        rate_bob_bits=rb,
        rate_mallory_bits=rm,
        secrecy_rate_bits=secrecy_rate(rb, rm),
    )


def sigma2_for_snr_db(cfg: ScenarioConfig, snr_db: float) -> float:
    """Noise variance that realizes ``snr_db`` under the config's definition."""
    if cfg.snr_definition == "received":
        reference = cfg.p_a_watt * cfg.path_loss.gain(cfg.d_ab_km)
    else:  # 'transmit'
        reference = cfg.p_a_watt
    sigma2 = reference / 10.0 ** (snr_db / 10.0)
    if not np.isfinite(sigma2) or sigma2 <= 0.0:
        raise DomainError(f"snr_db={snr_db} yields unusable noise variance {sigma2}")
    return sigma2
