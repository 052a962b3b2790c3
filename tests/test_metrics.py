"""SINR, achievable rates, secrecy rate, SNR-to-noise conversion."""

import math
import warnings

import numpy as np
import pytest

from dmrbf import (
    DimensionError,
    DomainError,
    Method,
    ScenarioConfig,
    build_scene,
    compute,
    mallory_receiver,
    rate_point,
    sigma2_for_snr_db,
    sinr_bob,
    sinr_mallory,
    stack_scenes,
)

from conftest import config_with, dense_term, random_config


def sinr_oracle(w: np.ndarray, scene) -> float:
    """Plain quadratic-form ratio, written out independently."""
    w = w / np.linalg.norm(w)
    cov = scene.cov
    num = np.vdot(w, dense_term(cov.a) @ w).real
    den = (
        np.vdot(w, dense_term(cov.b) @ w).real
        + np.vdot(w, dense_term(cov.d) @ w).real
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


@pytest.mark.parametrize("entry", [math.nan, math.inf, 0.0])
def test_weights_without_a_finite_positive_norm_are_refused(entry):
    # a NaN, infinite or zero norm has no unit direction: a typed refusal,
    # never a silent zero SINR or a bare RuntimeWarning
    scene = build_scene(ScenarioConfig())
    bad = np.full(scene.cfg.n_b, entry, dtype=np.complex128)
    good = mallory_receiver(scene).weights
    calls = (
        lambda: rate_point(scene, bad, good),
        lambda: rate_point(scene, compute(Method.MRC, scene).weights, bad),
        lambda: sinr_bob(bad, scene.cov, scene.cfg.sigma_b2_watt),
        lambda: sinr_mallory(bad, scene.cov, scene.cfg.sigma_m2_watt),
    )
    for call in calls:
        with pytest.raises(DomainError, match="weights must have a positive, finite norm"):
            call()


def test_rates_and_secrecy():
    # Mallory much nearer Alice than Bob is: her rate exceeds his, and the
    # secrecy rate is clamped at zero, never negative
    near = build_scene(config_with(d_am_km=0.1, d_ab_km=8.0))
    pt = rate_point(near, compute(Method.MRC, near).weights, mallory_receiver(near).weights)
    assert pt.rate_mallory_bits > pt.rate_bob_bits + 0.4
    assert pt.secrecy_rate_bits == 0.0 and math.copysign(1.0, pt.secrecy_rate_bits) == 1.0
    scene = build_scene(ScenarioConfig())
    w = compute(Method.MAX_SR, scene).weights
    s = sinr_bob(w, scene.cov, scene.cfg.sigma_b2_watt)
    pt = rate_point(scene, w, mallory_receiver(scene).weights)
    assert pt.rate_bob_bits == pytest.approx(math.log2(1.0 + s), rel=1e-12)


@pytest.mark.parametrize(
    "bad",
    [np.array([1 + 1j, 0, 0, 0], dtype=object), np.array(["1"] * 4), np.array([b"1"] * 4)],
    ids=["object", "str", "bytes"],
)
def test_non_numeric_weights_are_refused_by_name(bad):
    # an array numpy cannot take as numbers is a typed refusal naming the
    # argument, not a bare TypeError or ValueError from the norm
    scene = build_scene(ScenarioConfig())
    stack, bads = stack_scenes((scene, scene)), np.stack([bad, bad])
    bob, eve = compute(Method.MRC, scene).weights, mallory_receiver(scene).weights
    bobs, eves = np.stack([bob, bob]), np.stack([eve, eve])
    calls = (
        (lambda: rate_point(scene, bad, eve), "bob_weights"),
        (lambda: rate_point(scene, bob, bad), "mallory_weights"),
        (lambda: rate_point(stack, bads, eves), "bob_weights"),
        (lambda: rate_point(stack, bobs, bads), "mallory_weights"),
        (lambda: sinr_bob(bad, scene.cov, scene.sigma_b2_watt), "weights"),
        (lambda: sinr_mallory(bad, scene.cov, scene.sigma_m2_watt), "weights"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, name in calls:
            with pytest.raises(DomainError, match=f"^{name} must be a numeric array, got "):
                call()


@pytest.mark.parametrize(
    ("huge", "plain"),
    [
        ([1e308, 1e308, 0, 0], [1.0, 1.0, 0, 0]),  # the norm overflows
        ([1e-320, 0, 0, 0], [1.0, 0, 0, 0]),  # the norm underflows to 0
        ([0, 1e308 - 1e308j, 0, 0], [0, 1 - 1j, 0, 0]),  # complex parts
    ],
)
def test_weights_of_any_finite_scale_are_served_as_their_direction(huge, plain):
    # the SINR does not depend on the weights' scale: finite weights whose
    # norm leaves the float range give the rates of the same direction at
    # unit scale, bit for bit, with no numpy warning, alone and stacked
    scene = build_scene(ScenarioConfig())
    eve = mallory_receiver(scene).weights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = rate_point(scene, plain, eve)
        assert rate_point(scene, huge, eve) == want
        assert rate_point(scene, eve, huge) == rate_point(scene, eve, plain)
        assert sinr_bob(huge, scene.cov, scene.sigma_b2_watt) == want.sinr_bob
        assert sinr_mallory(huge, scene.cov, 1.0) == sinr_mallory(plain, scene.cov, 1.0)
        # an ordinary point stacked with a rescaled one keeps its own bits
        ordinary = compute(Method.MMSE, scene).weights
        stack = stack_scenes((scene, scene))
        rates = rate_point(stack, np.stack([ordinary, huge]), np.stack([eve, eve]))
    assert rates.at(0) == rate_point(scene, ordinary, eve)
    assert rates.at(1) == want


@pytest.mark.parametrize("shape", [(3,), (4, 4), (2, 4), ()])
def test_mis_shaped_weights_are_refused_by_name(shape):
    scene = build_scene(ScenarioConfig())
    bad = np.ones(shape, dtype=np.complex128)
    bob, eve = compute(Method.MRC, scene).weights, mallory_receiver(scene).weights
    calls = (
        (lambda: rate_point(scene, bad, eve), "bob_weights"),
        (lambda: rate_point(scene, bob, bad), "mallory_weights"),
        (lambda: sinr_bob(bad, scene.cov, scene.cfg.sigma_b2_watt), "weights"),
        (lambda: sinr_mallory(bad, scene.cov, scene.cfg.sigma_m2_watt), "weights"),
    )
    for call, name in calls:
        with pytest.raises(DimensionError, match=rf"^{name} must have shape \(4,\), got "):
            call()
    # a stack of two wants (2, 4): one point's weights are refused too
    stack = stack_scenes((scene, scene))
    with pytest.raises(DimensionError, match=r"^bob_weights must have shape \(2, 4\), got \(4,\)"):
        rate_point(stack, bob, np.stack([eve, eve]))


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
    # weights given as a list are taken as the array they spell
    axis = rate_point(scene, np.array([1.0, 0.0, 0.0, 0.0]), w_m)
    assert rate_point(scene, [1, 0, 0, 0], w_m) == axis
    assert sinr_bob([1, 0, 0, 0], scene.cov, scene.cfg.sigma_b2_watt) == axis.sinr_bob


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


def test_sigma2_for_an_snr_beyond_the_float_range_is_refused():
    # 10 ** 400 overflows a float; the SNR is refused, not raised bare
    for snr_db in (4000.0, np.float64(4000.0)):  # numpy's power would only warn
        with pytest.raises(DomainError, match="snr_db=4000.0 yields unusable noise variance 0.0"):
            sigma2_for_snr_db(ScenarioConfig(), snr_db)
    # 10 ** -400 underflows to zero: the noise variance is infinite
    with pytest.raises(DomainError, match="snr_db=-4000.0 yields unusable noise variance inf"):
        sigma2_for_snr_db(ScenarioConfig(), -4000.0)
    # an int no float holds, or a string, is refused by name, not raised bare
    with pytest.raises(DomainError, match="^snr_db must fit in a float, got an int of 16610 bits$"):
        sigma2_for_snr_db(ScenarioConfig(), 10**5000)
    with pytest.raises(DomainError, match="^snr_db must be of type float, got '3'$"):
        sigma2_for_snr_db(ScenarioConfig(), "3")


def test_stacked_rate_point_gives_each_point_its_own_bits():
    scenes = [build_scene(config_with(sigma_b2_watt=s, sigma_m2_watt=s)) for s in (0.1, 1.0, 7.0)]
    stack = stack_scenes(scenes)
    eve = mallory_receiver(stack).weights
    for method in (Method.MRC, Method.NSP_WFRP):
        rates = rate_point(stack, compute(method, stack).weights, eve)
        for p, scene in enumerate(scenes):
            one = rate_point(scene, compute(method, scene).weights, mallory_receiver(scene).weights)
            assert rates.at(p) == one  # dataclass equality: bitwise-identical floats


def test_sinr_mallory_oracle():
    rng = np.random.default_rng(502)
    scene = build_scene(random_config(rng))
    w = rng.standard_normal(scene.cfg.n_m) + 1j * rng.standard_normal(scene.cfg.n_m)
    w = w / np.linalg.norm(w)
    cov = scene.cov
    num = np.vdot(w, dense_term(cov.e) @ w).real
    den = (
        np.vdot(w, dense_term(cov.f) @ w).real
        + np.vdot(w, dense_term(cov.r_m) @ w).real
        + scene.cfg.sigma_m2_watt
    )
    got = sinr_mallory(w, scene.cov, scene.cfg.sigma_m2_watt)
    assert got == pytest.approx(num / den, rel=1e-12)
