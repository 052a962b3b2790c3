"""SINR, achievable rates, secrecy rate, SNR-to-noise conversion."""

import math

import numpy as np
import pytest

from dmrbf import (
    Method,
    ScenarioConfig,
    build_scene,
    compute,
    mallory_receiver,
    rate_point,
    secrecy_rate,
    sigma2_for_snr_db,
    sinr_bob,
    sinr_mallory,
)

from conftest import config_with, random_config


def sinr_oracle(w: np.ndarray, scene) -> float:
    """Plain quadratic-form ratio, written out independently."""
    w = w / np.linalg.norm(w)
    cov = scene.cov
    num = np.vdot(w, cov.a @ w).real
    den = (
        np.vdot(w, cov.b @ w).real
        + np.vdot(w, cov.d @ w).real
        + scene.cfg.sigma_b2_watt
    )
    return num / den


def test_sinr_bob_matches_oracle():
    rng = np.random.default_rng(501)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        w = rng.standard_normal(scene.cfg.n_b) + 1j * rng.standard_normal(
            scene.cfg.n_b
        )
        got = sinr_bob(w, scene.cov, scene.cfg.sigma_b2_watt)
        assert got == pytest.approx(sinr_oracle(w, scene), rel=1e-12)


def test_sinr_ignores_weight_scale():
    scene = build_scene(ScenarioConfig())
    w = compute(Method.MMSE, scene).weights
    a = sinr_bob(w, scene.cov, scene.cfg.sigma_b2_watt)
    b = sinr_bob(5.5j * w, scene.cov, scene.cfg.sigma_b2_watt)
    assert a == pytest.approx(b, rel=1e-12)


def test_rates_and_secrecy():
    assert secrecy_rate(3.0, 1.0) == 2.0
    assert secrecy_rate(1.0, 3.0) == 0.0  # clamped, never negative
    scene = build_scene(ScenarioConfig())
    w = compute(Method.MAX_SR, scene).weights
    s = sinr_bob(w, scene.cov, scene.cfg.sigma_b2_watt)
    pt = rate_point(scene, w, mallory_receiver(scene).weights)
    assert pt.rate_bob_bits == pytest.approx(math.log2(1.0 + s), rel=1e-12)


def test_rate_point_bundle():
    scene = build_scene(ScenarioConfig())
    w_b = compute(Method.MAX_SR, scene).weights
    w_m = mallory_receiver(scene).weights
    pt = rate_point(scene, w_b, w_m)
    assert pt.rate_bob_bits == pytest.approx(math.log2(1 + pt.sinr_bob), rel=1e-12)
    assert pt.rate_mallory_bits == pytest.approx(
        math.log2(1 + pt.sinr_mallory), rel=1e-12
    )
    assert pt.secrecy_rate_bits == max(0.0, pt.rate_bob_bits - pt.rate_mallory_bits)


def test_mallory_rate_grows_as_she_closes_in():
    rates = []
    for d in (4.0, 3.0, 2.0, 1.0):
        scene = build_scene(config_with(d_am_km=d))
        w_b = compute(Method.MRC, scene).weights
        w_m = mallory_receiver(scene).weights
        rates.append(rate_point(scene, w_b, w_m).rate_mallory_bits)
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_bob_rate_falls_with_noise():
    scene_lo = build_scene(config_with(sigma_b2_watt=0.1))
    scene_hi = build_scene(config_with(sigma_b2_watt=10.0))
    w_lo = compute(Method.MMSE, scene_lo).weights
    w_hi = compute(Method.MMSE, scene_hi).weights
    rate_lo = rate_point(scene_lo, w_lo, mallory_receiver(scene_lo).weights).rate_bob_bits
    rate_hi = rate_point(scene_hi, w_hi, mallory_receiver(scene_hi).weights).rate_bob_bits
    assert rate_lo > rate_hi


def test_sigma2_for_snr_received_definition():
    cfg = ScenarioConfig()  # d_ab = 1 km so the path gain is 1
    assert sigma2_for_snr_db(cfg, 15.0) == pytest.approx(10.0 / 10**1.5, rel=1e-12)
    assert sigma2_for_snr_db(cfg, 0.0) == pytest.approx(10.0, rel=1e-12)
    # received SNR folds the A->B path gain into the noise level
    far = config_with(d_ab_km=2.0)
    assert sigma2_for_snr_db(far, 0.0) == pytest.approx(10.0 / 4.0, rel=1e-12)


def test_sigma2_for_snr_transmit_definition():
    near = config_with(snr_definition="transmit", d_ab_km=2.0)
    assert sigma2_for_snr_db(near, 0.0) == pytest.approx(10.0, rel=1e-12)


def test_sinr_mallory_oracle():
    rng = np.random.default_rng(502)
    scene = build_scene(random_config(rng))
    w = rng.standard_normal(scene.cfg.n_m) + 1j * rng.standard_normal(scene.cfg.n_m)
    w = w / np.linalg.norm(w)
    cov = scene.cov
    num = np.vdot(w, cov.e @ w).real
    den = (
        np.vdot(w, cov.f @ w).real
        + np.vdot(w, cov.r_m @ w).real
        + scene.cfg.sigma_m2_watt
    )
    got = sinr_mallory(w, scene.cov, scene.cfg.sigma_m2_watt)
    assert got == pytest.approx(num / den, rel=1e-12)
