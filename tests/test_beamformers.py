"""Receive beamformers: directions, equivalences, failure modes."""

import dataclasses

import numpy as np
import pytest

from dmrbf import (
    DegenerateChannelError,
    DegenerateGeometryError,
    FlopCounter,
    Method,
    RECEIVE_METHODS,
    ScenarioConfig,
    UnsupportedScenarioError,
    UpdateSingularityError,
    build_scene,
    compute,
    inv_hpd,
    low_complexity_inverse,
    mallory_receiver,
    max_sr,
    mmse_conventional,
    mmse_low_complexity,
    mrc,
    nsp_max_wfrp,
    wfmrc,
    whitening_filter,
)
from dmrbf.beamformers import _inv_sqrt

from conftest import config_with, random_config, random_hpd

EQUIV4 = (Method.MRC, Method.WFMRC, Method.MAX_SR, Method.MMSE)


def aligned(a: np.ndarray, b: np.ndarray) -> float:
    """|<a, b>| for unit vectors: 1.0 means same direction up to phase."""
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def test_all_weights_unit_norm():
    rng = np.random.default_rng(401)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        for method in RECEIVE_METHODS:
            bf = compute(method, scene)
            assert bf.method is method
            assert abs(np.linalg.norm(bf.weights) - 1.0) <= 1e-10
            assert bf.flops > 0
        eve = mallory_receiver(scene)
        assert abs(np.linalg.norm(eve.weights) - 1.0) <= 1e-10


def test_mrc_matches_receive_signature():
    rng = np.random.default_rng(402)
    for _ in range(10):
        scene = build_scene(random_config(rng))
        u = scene.bob_signal_vector
        assert aligned(mrc(scene).weights, u) >= 1.0 - 1e-12


def test_whitening_filter_sandwich():
    rng = np.random.default_rng(403)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        w = whitening_filter(scene.cov.c_nbar)
        sandwich = w @ scene.cov.c_nbar @ w.conj().T
        assert np.linalg.norm(sandwich - np.eye(scene.cfg.n_b)) <= 1e-10


def test_inv_sqrt_sandwich():
    rng = np.random.default_rng(106)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        m = random_hpd(rng, n, cond=1e4)
        s = _inv_sqrt(FlopCounter(), m, "test matrix")
        assert np.linalg.norm(s - s.conj().T) <= 1e-12 * np.linalg.norm(s)
        assert np.linalg.norm(s @ m @ s - np.eye(n)) <= 1e-10
        assert np.linalg.norm(s @ s - inv_hpd(m)) <= 1e-10 * np.linalg.norm(s @ s)


def test_wfmrc_solves_whitened_system():
    # the lifted weights must be collinear with C^-1 u
    rng = np.random.default_rng(404)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        ref = np.linalg.solve(scene.cov.c_nbar, scene.bob_signal_vector)
        assert aligned(wfmrc(scene).weights, ref) >= 1.0 - 1e-10


def test_equivalent_quartet_collinear():
    # MRC coincides only at zero jamming; the whitened three always do
    rng = np.random.default_rng(405)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        w1 = wfmrc(scene).weights
        w2 = max_sr(scene).weights
        w3 = mmse_conventional(scene).weights
        w4 = mmse_low_complexity(scene).weights
        assert aligned(w1, w2) >= 1.0 - 1e-9
        assert aligned(w1, w3) >= 1.0 - 1e-9
        assert aligned(w3, w4) >= 1.0 - 1e-9


def test_zero_jamming_reduces_to_mrc():
    scene = build_scene(config_with(p_m_watt=0.0, beta1=1.0))
    w_mrc = mrc(scene).weights
    for fn in (wfmrc, max_sr, mmse_conventional, mmse_low_complexity):
        assert aligned(fn(scene).weights, w_mrc) >= 1.0 - 1e-10


def test_strong_jamming_pushes_wfmrc_into_null():
    scene = build_scene(config_with(p_m_watt=1e6))
    h_jam = scene.channels.mb.rx_steering
    assert abs(np.vdot(h_jam, wfmrc(scene).weights)) <= 1e-4


def test_chain_inverse_matches_direct():
    rng = np.random.default_rng(406)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        cfg = scene.cfg
        o_direct = scene.cov.a + scene.cov.c_nbar
        got = low_complexity_inverse(scene)
        ref = np.linalg.inv(o_direct)
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)
        assert cfg.n_b == got.shape[0]


def test_chain_collapses_to_closed_form_without_an_and_jamming():
    # with beta1 = 1 and P_M = 0 only the first level acts, and that level
    # has an explicit Sherman-Morrison closed form to compare against
    scene = build_scene(config_with(beta1=1.0, p_m_watt=0.0))
    cfg = scene.cfg
    sig2 = cfg.sigma_b2_watt
    c1 = scene.channels.ab.gain * cfg.beta1 * cfg.p_a_watt
    u = scene.bob_signal_vector
    uu = np.vdot(u, u).real
    ref = np.eye(cfg.n_b) / sig2 - (
        c1 / (sig2 * sig2 * (1.0 + c1 * uu / sig2))
    ) * np.outer(u, u.conj())
    got = low_complexity_inverse(scene)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_chain_detects_singular_level():
    # beta1 = 1/4 makes the sign-flipped level denominator proportional to
    # sigma^2 + g*(2*beta1 - 1)*P_A = sigma^2 - g*P_A/2, which vanishes for
    # sigma^2 = 5, g = 1, P_A = 10
    cfg = config_with(beta1=0.25, p_a_watt=10.0, sigma_b2_watt=5.0, d_ab_km=1.0)
    scene = build_scene(cfg)
    with pytest.raises(UpdateSingularityError) as exc:
        low_complexity_inverse(scene)
    assert exc.value.level == "L"
    assert "level 'L'" in str(exc.value)
    assert abs(exc.value.denominator) <= 1e-12


_FAR_BOB = {"sigma_b2_watt": 1.7e308, "d_ab_km": 2e16}


@pytest.mark.parametrize(
    "overrides, method, error",
    [
        (_FAR_BOB, Method.WFMRC, DegenerateChannelError),
        (_FAR_BOB, Method.MAX_SR, DegenerateChannelError),
        (_FAR_BOB, Method.MMSE, DegenerateChannelError),
        (_FAR_BOB, Method.NSP_WFRP, DegenerateGeometryError),
        ({"sigma_m2_watt": 8.98846567431158e307}, Method.MALLORY, DegenerateChannelError),
    ],
)
def test_covariance_near_float_max_is_refused_without_overflow(overrides, method, error):
    # symmetrizing these covariances stays finite (a RuntimeWarning fails
    # the suite), but the signal is far below the noise, so the weights
    # vanish and the method must refuse with a typed error, not NaN
    scene = build_scene(config_with(**overrides))
    with pytest.raises(error):
        compute(method, scene)


def test_chain_refuses_underflowing_noise_level():
    # sigma^4 underflows to zero, so the N-level coefficient cannot be formed
    scene = build_scene(config_with(sigma_b2_watt=1e-300))
    with pytest.raises(UpdateSingularityError) as exc:
        low_complexity_inverse(scene)
    assert exc.value.level == "N"


def test_nsp_annihilates_jamming_link():
    rng = np.random.default_rng(407)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        w = nsp_max_wfrp(scene).weights
        h_jam = scene.channels.mb.rx_steering
        assert abs(np.vdot(h_jam, w)) <= 1e-10
        # therefore the whole M->B matrix channel is nulled
        assert np.linalg.norm(scene.channels.mb.matrix.conj().T @ w) <= 1e-10


def test_nsp_needs_multiple_antennas():
    with pytest.raises(UnsupportedScenarioError):
        nsp_max_wfrp(build_scene(config_with(n_b=1)))


def test_nsp_degenerate_when_signal_sits_in_null():
    cfg = config_with(theta_r_ab_deg=45.0, theta_r_mb_deg=45.0)
    with pytest.raises(DegenerateGeometryError):
        nsp_max_wfrp(build_scene(cfg))


def test_noise_scale_invariance_of_directions():
    # scaling sigma_B^2 and P_M together rescales the whole interference
    # covariance, which cannot move any SINR-driven direction
    rng = np.random.default_rng(408)
    for _ in range(5):
        cfg = random_config(rng)
        scene1 = build_scene(cfg)
        scene2 = build_scene(
            dataclasses.replace(
                cfg,
                sigma_b2_watt=cfg.sigma_b2_watt * 37.0,
                p_m_watt=cfg.p_m_watt * 37.0,
            )
        )
        for method in RECEIVE_METHODS:
            w1 = compute(method, scene1).weights
            w2 = compute(method, scene2).weights
            assert aligned(w1, w2) >= 1.0 - 1e-9


def test_mallory_receiver_direction():
    rng = np.random.default_rng(409)
    for _ in range(10):
        scene = build_scene(random_config(rng))
        cov = scene.cov
        c_m = cov.f + cov.r_m + scene.cfg.sigma_m2_watt * np.eye(scene.cfg.n_m)
        ref = np.linalg.solve(c_m, scene.channels.am.matrix @ scene.setup.v_a)
        assert aligned(mallory_receiver(scene).weights, ref) >= 1.0 - 1e-9


def test_compute_dispatch_and_flops():
    scene = build_scene(ScenarioConfig())
    fc = FlopCounter()
    bf = compute(Method.MRC, scene, fc)
    assert fc.total == bf.flops
    assert compute(Method.MALLORY, scene).method is Method.MALLORY
    # a fresh counter per call: two computations do not share state
    assert compute(Method.MRC, scene).flops == bf.flops
