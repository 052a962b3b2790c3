"""Second-order oracle: the covariances against sampled waveforms.

A waveform simulator built only from the channels and the transmit setup
draws, per symbol, Alice's artificial noise ``z ~ CN(0, I_{n_a})``,
Mallory's jamming symbols ``w ~ CN(0, I_{n_j})`` and thermal noise at both
ends, and forms the interference-plus-noise each end receives:

* Bob:     ``sqrt(g_ab (1 - beta1) p_a) H_ab T_a z + sqrt(g_mb p_m) H_mb T_m w + n_b``
* Mallory: ``sqrt(g_am (1 - beta1) p_a) H_am T_a z + sqrt(rho p_m) H_rsi^H T_m w + n_m``

Their sample covariances must match ``cov.c_nbar`` and
``f + r_m + sigma_m^2 I``, its terms formed from their factors, entry by entry.
An entry of the sample covariance of N circular Gaussian vectors has standard deviation
``sqrt(C_ii C_jj / N)``, so each is allowed ``_SIGMAS`` of those.
"""

import dataclasses

import numpy as np
import pytest

from dmrbf import (
    ScenarioConfig,
    build_channels,
    build_scene,
    build_transmit_setup,
    sigma2_for_snr_db,
)
from conftest import dense_term, link_matrix

_N_SYMBOLS = 10_000
_SIGMAS = 6.0  # the true covariances sit within 3 here; a wrong f or r_m beyond 19
#: Mallory 100 m from Alice and a self-interference factor of 1: at the
#: defaults (4 km, 1e-11) her artificial-noise and self-interference terms
#: sit 2 to 11 orders below the noise, where no feasible sample sees them
_NEAR_EVE = {"d_am_km": 0.1, "rho": 1.0}


def _cn(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _interference_plus_noise(cfg: ScenarioConfig, rng: np.random.Generator):
    """``(n_b, N)`` and ``(n_m, N)`` received interference plus noise."""
    ch = build_channels(cfg)
    setup = build_transmit_setup(cfg, ch)
    an = setup.t_a_an @ _cn(rng, (cfg.n_a, _N_SYMBOLS))
    jam = setup.t_m_an @ _cn(rng, (cfg.n_j, _N_SYMBOLS))
    an_amp = np.sqrt((1.0 - cfg.beta1) * cfg.p_a_watt)
    bob = (
        np.sqrt(ch.ab.gain) * an_amp * (link_matrix(ch.ab) @ an)
        + np.sqrt(ch.mb.gain * cfg.p_m_watt) * (link_matrix(ch.mb) @ jam)
        + np.sqrt(cfg.sigma_b2_watt) * _cn(rng, (cfg.n_b, _N_SYMBOLS))
    )
    eve = (
        np.sqrt(ch.am.gain) * an_amp * (link_matrix(ch.am) @ an)
        + np.sqrt(cfg.rho * cfg.p_m_watt) * (setup.h_m_rsi.conj().T @ jam)
        + np.sqrt(cfg.sigma_m2_watt) * _cn(rng, (cfg.n_m, _N_SYMBOLS))
    )
    return bob, eve


def _assert_sampled(y: np.ndarray, c: np.ndarray, what: str) -> None:
    sample = y @ y.conj().T / y.shape[1]
    diag = np.real(np.diag(c))
    sigmas = np.abs(sample - c) / np.sqrt(np.outer(diag, diag) / y.shape[1])
    assert sigmas.max() <= _SIGMAS, (what, sigmas.max(), np.unravel_index(sigmas.argmax(), c.shape))


@pytest.mark.parametrize("n, n_j", [(4, 1), (16, 4)])
@pytest.mark.parametrize("snr_db", [0.0, 5.0])  # two points of fig4's SNR axis
def test_covariances_match_sampled_interference(n, n_j, snr_db):
    base = ScenarioConfig(n_a=n, n_b=n, n_m=n, n_j=n_j, **_NEAR_EVE)
    sigma2 = sigma2_for_snr_db(base, snr_db)
    cfg = dataclasses.replace(base, sigma_b2_watt=sigma2, sigma_m2_watt=sigma2)
    bob, eve = _interference_plus_noise(cfg, np.random.default_rng(n + int(snr_db)))
    cov = build_scene(cfg).cov
    _assert_sampled(bob, cov.c_nbar, "Bob")
    c_m = dense_term(cov.f) + dense_term(cov.r_m) + cfg.sigma_m2_watt * np.eye(n)
    _assert_sampled(eve, c_m, "Mallory")
