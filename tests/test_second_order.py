"""Waveform oracle: the covariances and bit errors against sampled waveforms.

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

The same waveforms, with Gray-QPSK data sent on Alice's stream, check the
bit errors: each of Bob's methods and Mallory's combiner detects
``w^H y / g`` (``g`` its gain on the stream), and its count of wrong data
bits must pass an exact binomial test against ``qpsk_awgn_ber`` at the
SINR the rates report for it.  There Mallory jams with fig3's strongest
1000 W, so that MRC's count at n = 4 sees Bob's jamming term.
"""

import dataclasses

import numpy as np
import pytest

from dmrbf import (
    RECEIVE_METHODS,
    ScenarioConfig,
    build_channels,
    build_scene,
    build_transmit_setup,
    compute,
    mallory_receiver,
    qpsk_awgn_ber,
    rate_point,
    sigma2_for_snr_db,
)
from dmrbf.ber import config_at
from conftest import binomial_two_sided_p, dense_term, link_matrix

_N_SYMBOLS = 10_000
_BER_SYMBOLS = 40_000
_SIGMAS = 6.0  # the true covariances sit within 3 here; a wrong f or r_m beyond 19
#: Mallory 100 m from Alice and a self-interference factor of 1: at the
#: defaults (4 km, 1e-11) her artificial-noise and self-interference terms
#: sit 2 to 11 orders below the noise, where no feasible sample sees them
_NEAR_EVE = {"d_am_km": 0.1, "rho": 1.0}
#: fig3's strongest jamming: at 10 W MRC's jamming is 0.1-2.5 % of the
#: noise at fig4's 0 and 5 dB, where no feasible count sees it
_LOUD_JAMMER = {"p_m_watt": 1000.0}


def _cn(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _interference_plus_noise(cfg: ScenarioConfig, rng: np.random.Generator, n_symbols: int):
    """``(n_b, N)`` and ``(n_m, N)`` received interference plus noise."""
    ch = build_channels(cfg)
    setup = build_transmit_setup(cfg, ch)
    an = setup.t_a_an @ _cn(rng, (cfg.n_a, n_symbols))
    jam = setup.t_m_an @ _cn(rng, (cfg.n_j, n_symbols))
    an_amp = np.sqrt((1.0 - cfg.beta1) * cfg.p_a_watt)
    bob = (
        np.sqrt(ch.ab.gain) * an_amp * (link_matrix(ch.ab) @ an)
        + np.sqrt(ch.mb.gain * cfg.p_m_watt) * (link_matrix(ch.mb) @ jam)
        + np.sqrt(cfg.sigma_b2_watt) * _cn(rng, (cfg.n_b, n_symbols))
    )
    eve = (
        np.sqrt(ch.am.gain) * an_amp * (link_matrix(ch.am) @ an)
        + np.sqrt(cfg.rho * cfg.p_m_watt) * (setup.h_m_rsi.conj().T @ jam)
        + np.sqrt(cfg.sigma_m2_watt) * _cn(rng, (cfg.n_m, n_symbols))
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
    bob, eve = _interference_plus_noise(cfg, np.random.default_rng(n + int(snr_db)), _N_SYMBOLS)
    cov = build_scene(cfg).cov
    _assert_sampled(bob, cov.c_nbar, "Bob")
    c_m = dense_term(cov.f) + dense_term(cov.r_m) + cfg.sigma_m2_watt * np.eye(n)
    _assert_sampled(eve, c_m, "Mallory")


def _bit_errors(w: np.ndarray, signature: np.ndarray, rx: np.ndarray, bits: np.ndarray) -> int:
    """Wrong Gray-QPSK bits of ``z = w^H rx / (w^H signature)``: the first
    bit is the sign of Re z, the second that of Im z."""
    z = (w.conj() @ rx) / np.vdot(w, signature)
    return int(np.count_nonzero((z.real < 0) != bits[0]) + np.count_nonzero((z.imag < 0) != bits[1]))


@pytest.mark.parametrize("n, n_j", [(4, 1), (16, 4)])
@pytest.mark.parametrize("snr_db", [0.0, 5.0])  # two points of fig4
def test_bit_errors_of_sampled_waveforms_are_binomial_at_the_rates_sinr(n, n_j, snr_db):
    base = ScenarioConfig(n_a=n, n_b=n, n_m=n, n_j=n_j, **_NEAR_EVE, **_LOUD_JAMMER)
    cfg = config_at(base, "snr_db", snr_db)
    rng = np.random.default_rng(100 + n + int(snr_db))
    bob, eve = _interference_plus_noise(cfg, rng, _BER_SYMBOLS)
    bits = rng.integers(0, 2, (2, _BER_SYMBOLS))
    data = ((1 - 2 * bits[0]) + 1j * (1 - 2 * bits[1])) / np.sqrt(2.0)
    ch = build_channels(cfg)
    v_a, amp = build_transmit_setup(cfg, ch).v_a, np.sqrt(cfg.beta1 * cfg.p_a_watt)
    at_bob = np.sqrt(ch.ab.gain) * amp * (link_matrix(ch.ab) @ v_a)
    at_eve = np.sqrt(ch.am.gain) * amp * (link_matrix(ch.am) @ v_a)
    scene = build_scene(cfg)
    eve_w = mallory_receiver(scene).weights
    rows = []
    for method in RECEIVE_METHODS:
        w = compute(method, scene).weights
        rates = rate_point(scene, w, eve_w)
        rows.append((method.value, w, at_bob, bob, rates.sinr_bob))
    rows.append(("mallory", eve_w, at_eve, eve, rates.sinr_mallory))
    for name, w, signature, noise, sinr in rows:
        errors = _bit_errors(w, signature, noise + signature[:, None] * data, bits)
        p = qpsk_awgn_ber(sinr)
        tail = binomial_two_sided_p(errors, 2 * _BER_SYMBOLS, p)
        assert tail > 1e-6, (name, errors, 2 * _BER_SYMBOLS * p)
