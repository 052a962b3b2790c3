"""Receive beamformers: directions, equivalences, failure modes."""

import dataclasses
import functools
import itertools
import warnings

import numpy as np
import pytest

from dmrbf import (
    ConditioningError,
    ConfigError,
    DegenerateChannelError,
    DegenerateGeometryError,
    DomainError,
    FlopCounter,
    Method,
    NumericalError,
    RECEIVE_METHODS,
    ScenarioConfig,
    UnsupportedScenarioError,
    build_scene,
    compute,
    inv_hpd,
    mallory_receiver,
    sigma2_for_snr_db,
    sinr_bob,
    sinr_mallory,
    stack_scenes,
    whitening_filter,
)
from dmrbf.ber import config_at
from dmrbf.beamformers import _chain_inverse
from dmrbf.scenario import Term
from conftest import (
    closed_form_sinr,
    closed_form_terms,
    config_with,
    dense_term,
    link_matrix,
    loguniform,
    random_config,
    random_hpd,
)

EQUIV4 = (Method.MRC, Method.WFMRC, Method.MAX_SR, Method.MMSE)


def bob_chain(scene, fc: FlopCounter) -> np.ndarray:
    """LC-MMSE's chain: ``c_nbar^{-1}`` from ``b``'s and ``d``'s factors."""
    return _chain_inverse((scene.cov.b, scene.cov.d), scene.sigma_b2_watt, fc)


def aligned(a: np.ndarray, b: np.ndarray) -> float:
    """|<a, b>| for unit vectors: 1.0 means same direction up to phase."""
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def woodbury_solve(terms, sigma2: float, sig: np.ndarray) -> np.ndarray:
    """``c^{-1} sig`` times ``sigma2``, for ``c = sum coef V V^H + sigma2 I``,
    by Woodbury on the terms' factors: no n x n matrix is formed."""
    v = np.concatenate([np.sqrt(t.coef) * t.factor for t in terms], axis=-1)
    small = sigma2 * np.eye(v.shape[-1]) + v.conj().T @ v
    return sig - v @ np.linalg.solve(small, v.conj().T @ sig)


def test_all_weights_unit_norm():
    rng = np.random.default_rng(401)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        for method in RECEIVE_METHODS:
            bf = compute(method, scene)
            assert abs(np.linalg.norm(bf.weights) - 1.0) <= 1e-10
            assert bf.flops > 0
        eve = mallory_receiver(scene)
        assert abs(np.linalg.norm(eve.weights) - 1.0) <= 1e-10


def test_mrc_matches_receive_signature():
    rng = np.random.default_rng(402)
    for _ in range(10):
        scene = build_scene(random_config(rng))
        u = scene.cov.a.factor[..., 0]
        assert aligned(compute(Method.MRC, scene).weights, u) >= 1.0 - 1e-12


def test_whitening_filter_sandwich():
    # W m W^H = I for every covariance of a scene and for random HPD
    # matrices up to condition number 1e4, with W^H W their inverse
    rng = np.random.default_rng(403)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        w = whitening_filter(scene.cov.c_nbar, FlopCounter())
        sandwich = w @ scene.cov.c_nbar @ w.conj().T
        assert np.linalg.norm(sandwich - np.eye(scene.cfg.n_b)) <= 1e-10
    rng = np.random.default_rng(106)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        m = random_hpd(rng, n, cond=1e4)
        w = whitening_filter(m, FlopCounter())
        assert np.linalg.norm(w @ m @ w.conj().T - np.eye(n)) <= 1e-10
        inverse = w.conj().T @ w
        assert np.linalg.norm(inverse - inv_hpd(m)) <= 1e-10 * np.linalg.norm(inverse)
    # a stack whitens each matrix as alone, bit for bit
    stack = np.stack([random_hpd(rng, 5, cond=1e4) for _ in range(3)])
    w = whitening_filter(stack, FlopCounter(3))
    sandwiches = w @ stack @ w.conj().swapaxes(-1, -2)
    assert np.linalg.norm(sandwiches - np.eye(5), axis=(-2, -1)).max() <= 1e-10
    for p, m in enumerate(stack):
        assert w[p].tobytes() == whitening_filter(m, FlopCounter()).tobytes()


def test_max_sr_is_wfmrc_bit_for_bit():
    # for a rank-one signal the max-SINR eigenvector is the whitened
    # matched filter: both run the same arithmetic on the same transform
    rng = np.random.default_rng(410)
    scenes = [build_scene(random_config(rng)) for _ in range(10)]
    stack = stack_scenes([build_scene(config_with(p_m_watt=p)) for p in (0.1, 1.0, 10.0)])
    for scene in (*scenes, stack):
        wfmrc, max_sr = compute(Method.WFMRC, scene), compute(Method.MAX_SR, scene)
        assert max_sr.weights.tobytes() == wfmrc.weights.tobytes()
        assert max_sr.flops == wfmrc.flops


def test_wfmrc_solves_whitened_system():
    # the lifted weights must be collinear with C^-1 u
    rng = np.random.default_rng(404)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        ref = np.linalg.solve(scene.cov.c_nbar, scene.cov.a.factor[..., 0])
        assert aligned(compute(Method.WFMRC, scene).weights, ref) >= 1.0 - 1e-10


def test_equivalent_quartet_collinear():
    # MRC coincides only at zero jamming; the whitened three always do
    rng = np.random.default_rng(405)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        w1 = compute(Method.WFMRC, scene).weights
        w2 = compute(Method.MAX_SR, scene).weights
        w3 = compute(Method.MMSE, scene).weights
        w4 = compute(Method.LC_MMSE, scene).weights
        assert aligned(w1, w2) >= 1.0 - 1e-9
        assert aligned(w1, w3) >= 1.0 - 1e-9
        assert aligned(w3, w4) >= 1.0 - 1e-9


@pytest.mark.parametrize(
    "overrides",
    [{"d_ab_km": 1e150}, {"p_a_watt": 1e-280}, {"d_am_km": 1e150}],
    ids=["d_ab_km", "p_a_watt", "d_am_km"],
)
def test_weak_signals_are_served_by_every_method(overrides):
    # a signal power near the float minimum scales no direction: the four
    # equivalent methods return together, with the same SINR, and so do
    # the others (Mallory's combiner at a distant eavesdropper too)
    scene = build_scene(config_with(**overrides))
    weights = {m: compute(m, scene).weights for m in Method}
    eve = mallory_receiver(scene).weights
    sinrs = [
        sinr_bob(weights[m], scene.cov, scene.cfg.sigma_b2_watt)
        for m in (Method.WFMRC, Method.MAX_SR, Method.MMSE, Method.LC_MMSE)
    ]
    assert min(sinrs) > 0.0
    assert (max(sinrs) - min(sinrs)) / max(sinrs) <= 1e-9
    assert sinr_mallory(eve, scene.cov, scene.cfg.sigma_m2_watt) > 0.0


def test_zero_jamming_reduces_to_mrc():
    scene = build_scene(config_with(p_m_watt=0.0, beta1=1.0))
    w_mrc = compute(Method.MRC, scene).weights
    for method in (Method.WFMRC, Method.MAX_SR, Method.MMSE, Method.LC_MMSE):
        assert aligned(compute(method, scene).weights, w_mrc) >= 1.0 - 1e-10


def test_strong_jamming_pushes_wfmrc_into_null():
    scene = build_scene(config_with(p_m_watt=1e6))
    h_jam = scene.channels.mb.rx_steering
    assert abs(np.vdot(h_jam, compute(Method.WFMRC, scene).weights)) <= 1e-4


def test_chain_inverse_matches_direct():
    # the chain inverts c_nbar; by Sherman-Morrison O^{-1} u is c_nbar^{-1} u
    # over a positive scalar, so the chain's direction is MMSE's
    rng = np.random.default_rng(406)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        got = bob_chain(scene, FlopCounter())
        ref = np.linalg.inv(scene.cov.c_nbar)
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)
        assert got.shape == (scene.cfg.n_b, scene.cfg.n_b)
        # each update subtracts a real multiple of t t^H, so Z stays Hermitian
        # up to the rounding of t_i conj(t_i)'s imaginary part
        assert np.linalg.norm(got - got.conj().T) <= 1e-15 * np.linalg.norm(got)


def test_chain_collapses_to_closed_form_without_an_and_jamming():
    # with beta1 = 1 and one jamming beam only the jamming update acts (b is
    # zero), and c_nbar = sigma^2 I + c v v^H has an explicit
    # Sherman-Morrison inverse to compare against
    scene = build_scene(config_with(beta1=1.0, n_j=1))
    sig2 = scene.cfg.sigma_b2_watt
    c, v = scene.cov.d.coef, scene.cov.d.factor[..., 0]
    vv = np.vdot(v, v).real
    ref = np.eye(scene.n_b) / sig2 - (c / (sig2 * (sig2 + c * vv))) * np.outer(v, v.conj())
    got = bob_chain(scene, FlopCounter())
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_chain_detects_singular_level():
    # with no signal power (beta1 = 0) and noise 1e-9 of g*P_A, Alice's
    # artificial-noise power outweighs noise plus signal, where a chain
    # with a negative update goes singular; c_nbar's chain folds in only nonnegative powers
    # (each denominator is at least 1), so both scenes are served,
    # collinear with c_nbar^{-1} u
    for cfg in (
        config_with(beta1=0.0, sigma_b2_watt=1e-8),
        config_at(config_with(beta1=0.0), "snr_db", 90.0),
    ):
        scene = build_scene(cfg)
        ref = np.linalg.solve(scene.cov.c_nbar, scene.cov.a.factor[..., 0])
        assert aligned(compute(Method.LC_MMSE, scene).weights, ref) >= 1.0 - 1e-12


def _mmse_gap(scene) -> float:
    """Largest entry of LC-MMSE's weights minus MMSE's, phase-aligned."""
    lc, ref = compute(Method.LC_MMSE, scene).weights, compute(Method.MMSE, scene).weights
    phase = np.vdot(ref, lc) / abs(np.vdot(ref, lc))
    return float(np.max(np.abs(lc - phase * ref)))


@pytest.mark.parametrize("n", [2, 4, 16])
def test_chain_serves_the_curve_where_l_before_k_is_singular(n):
    # a chain that folds the signal and artificial-noise powers into one
    # level, sigma^2 I + (c1 - c2) u u^H, goes singular on sigma^2 =
    # (1 - 2 beta1) g P_A |u|^2: under the received SNR, on the curve
    # beta1 = (1 - 1/SNR) / 2.  The chain must serve it and agree with MMSE
    for snr_db in (3.0, 10.0, 20.0):
        snr = 10.0 ** (snr_db / 10.0)
        base = config_with(n_a=n, n_b=n, n_m=n, beta1=(1.0 - 1.0 / snr) / 2.0)
        sigma2 = sigma2_for_snr_db(base, snr_db)
        scene = build_scene(dataclasses.replace(base, sigma_b2_watt=sigma2, sigma_m2_watt=sigma2))
        assert _mmse_gap(scene) <= 1e-12, (n, snr_db)
    # and off the SNR grid: g = 1, P_A = 10, beta1 = 1/4, sigma^2 = 5
    cfg = config_with(n_a=n, n_b=n, n_m=n, beta1=0.25, p_a_watt=10.0, sigma_b2_watt=5.0)
    assert _mmse_gap(build_scene(cfg)) <= 1e-12


_FAR_BOB = {"sigma_b2_watt": 1.7e308, "d_ab_km": 2e16}


@pytest.mark.parametrize(
    "overrides, method, error",
    [
        (_FAR_BOB, Method.WFMRC, DegenerateChannelError),
        (_FAR_BOB, Method.MAX_SR, DegenerateChannelError),
        # the MMSE solve's x is so small beside O that the squares of its
        # backward error underflow: 0 / 0, refused as NaN
        (_FAR_BOB, Method.MMSE, NumericalError),
        (_FAR_BOB, Method.NSP_WFRP, DegenerateChannelError),
        # as MMSE's, Mallory's chain solve's backward error is 0 / 0
        ({"sigma_m2_watt": 8.98846567431158e307}, "mallory", NumericalError),
    ],
)
def test_covariance_near_float_max_is_refused_without_overflow(overrides, method, error):
    # symmetrizing these covariances stays finite (a RuntimeWarning fails
    # the suite), but the signal is far below the noise, so the weights
    # vanish and the method must refuse with a typed error, not NaN
    scene = build_scene(config_with(**overrides))
    with pytest.raises(error):
        if method == "mallory":  # Mallory's combiner, not one of Bob's methods
            mallory_receiver(scene)
        else:
            compute(method, scene)


def test_chain_refuses_underflowing_noise_level():
    # the chain starts from I / sigma^2 = 1e300 I, so an update's t t^H
    # overflows and the inverse is not finite: refused by the chain's one rule
    scene = build_scene(config_with(sigma_b2_watt=1e-300))
    with pytest.raises(NumericalError, match="^rank-one update chain"):
        compute(Method.LC_MMSE, scene)


def test_chain_refuses_overflow_by_name():
    # an artificial-noise power near the float maximum at n_b = 1: the
    # chain must stay finite and serve it, as MMSE and WF-MRC serve it
    cfg = config_with(n_a=1, n_b=1, n_m=2, beta1=0.0, p_a_watt=8.98846567431158e307)
    scene = build_scene(cfg)
    want = compute(Method.MMSE, scene).weights
    for method in (Method.LC_MMSE, Method.WFMRC):
        assert aligned(compute(method, scene).weights, want) >= 1.0 - 1e-12
    # a noise level whose inverse overflows the updates (see the test
    # above) refuses a stack, by the same backward-error rule
    under = build_scene(config_with(sigma_b2_watt=1e-300))
    stack = stack_scenes((build_scene(config_with()), under))
    with pytest.raises(NumericalError, match="^rank-one update chain solves c_nbar x = u"):
        compute(Method.LC_MMSE, stack)


def test_chain_refuses_what_mmse_refuses():
    # near the float maximum the chain stays finite but no longer solves
    # c_nbar x = u; MMSE's direct inverse refuses this scene, and so must the chain
    scene = build_scene(config_with(beta1=0.5, p_a_watt=8.98846567431158e307))
    with pytest.raises(ConditioningError, match="^O is not numerically positive definite"):
        compute(Method.MMSE, scene)
    with pytest.raises(
        NumericalError, match="^rank-one update chain solves c_nbar x = u to backward"
    ):
        compute(Method.LC_MMSE, scene)
    # one such point refuses a stack
    stack = stack_scenes((build_scene(config_with(beta1=0.5)), scene))
    with pytest.raises(NumericalError, match="backward error"):
        compute(Method.LC_MMSE, stack)


@pytest.mark.parametrize("n", [2, 4, 16])
def test_mmse_solves_match_the_closed_form_at_very_high_snr(n):
    # O's condition grows tenfold per 10 dB (8e8 at 90 dB, n = 4), so an
    # unrefined solve loses the direction here: on this grid the direct
    # inverse alone is up to 100 % off, and the chain alone up to 21 % off
    # or refused in 31 of its 48 scenes
    for beta1, snr_db in itertools.product((0.05, 0.45, 0.8, 1.0), (90.0, 100.0, 110.0, 120.0)):
        base = config_with(n_a=n, n_b=n, n_m=n, beta1=beta1)
        scene = build_scene(config_at(base, "snr_db", snr_db))
        want = closed_form_sinr(Method.MMSE, *closed_form_terms(scene))
        for method in (Method.MMSE, Method.LC_MMSE):
            got = sinr_bob(compute(method, scene).weights, scene.cov, scene.sigma_b2_watt)
            assert got == pytest.approx(want, rel=1e-6), (method, n, beta1, snr_db)


def test_nsp_annihilates_jamming_link():
    rng = np.random.default_rng(407)
    for _ in range(20):
        scene = build_scene(random_config(rng))
        w = compute(Method.NSP_WFRP, scene).weights
        h_jam = scene.channels.mb.rx_steering
        assert abs(np.vdot(h_jam, w)) <= 1e-10
        # therefore the whole M->B matrix channel is nulled
        assert np.linalg.norm(link_matrix(scene.channels.mb).conj().T @ w) <= 1e-10


def test_nsp_needs_multiple_antennas():
    with pytest.raises(UnsupportedScenarioError):
        compute(Method.NSP_WFRP, build_scene(config_with(n_b=1)))


def test_nsp_degenerate_when_signal_sits_in_null():
    cfg = config_with(theta_r_ab_deg=45.0, theta_r_mb_deg=45.0)
    with pytest.raises(DegenerateGeometryError):
        compute(Method.NSP_WFRP, build_scene(cfg))


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
        c_m = dense_term(cov.f) + dense_term(cov.r_m) + scene.sigma_m2_watt * np.eye(scene.n_m)
        ref = np.linalg.solve(c_m, link_matrix(scene.channels.am) @ scene.v_a)
        assert aligned(mallory_receiver(scene).weights, ref) >= 1.0 - 1e-9
    # scenes drawn as ROADMAP's scan C draws them (jamming up to 1e14 W, rho
    # up to 1, sigma_m^2 down to 1e-6 W, n_j in {1, 3, n_m - 1}), against a
    # Woodbury solve on the factors of f and r_m: a dense whitening of c_m
    # refused seed 686 and served seeds 2333 and 2652 1.2e-5 and 4.6e-5 off
    for seed in (686, 2333, 2652):
        rng = np.random.default_rng(seed)
        cfg = random_config(rng)
        n_j = int(rng.choice([1, min(3, cfg.n_m - 1), cfg.n_m - 1]))
        scene = build_scene(
            dataclasses.replace(
                cfg,
                n_j=n_j,
                p_m_watt=loguniform(rng, 0.01, 1e14),
                rho=loguniform(rng, 1e-13, 1.0),
                sigma_m2_watt=loguniform(rng, 1e-6, 10.0),
                p_a_watt=loguniform(rng, 0.1, 1e6),
            )
        )
        cov = scene.cov
        e = link_matrix(scene.channels.am) @ scene.v_a
        ref = woodbury_solve((cov.f, cov.r_m), scene.sigma_m2_watt, e)
        assert aligned(mallory_receiver(scene).weights, ref) >= 1.0 - 1e-6, seed


def test_chains_serve_jamming_near_the_float_maximum():
    # at 1e300 W of jamming |c_nbar|_F^2 and |c_m|_F^2 overflow; the solve
    # check takes its backward error at a power-of-two scale of each matrix,
    # so both chains are served and stay on the Woodbury directions
    scene = build_scene(config_with(p_m_watt=1e300))
    cov = scene.cov
    bob = woodbury_solve((cov.b, cov.d), scene.sigma_b2_watt, cov.a.factor[:, 0])
    eve = woodbury_solve((cov.f, cov.r_m), scene.sigma_m2_watt, cov.e.factor[:, 0])
    assert aligned(compute(Method.LC_MMSE, scene).weights, bob) >= 1.0 - 1e-6
    assert aligned(mallory_receiver(scene).weights, eve) >= 1.0 - 1e-6


def test_mallory_covariance_beyond_the_float_range_is_refused_by_name():
    # f + r_m + sigma_m^2 I of finite terms sums past the float maximum: a
    # ConfigError naming sigma_m2_watt, as Bob's c_nbar gets, with no numpy
    # warning on the way, alone and inside a stack
    sizes = {"n_a": 2, "n_b": 2, "n_m": 2}
    huge = config_with(
        **sizes, p_a_watt=1.0, p_m_watt=1.7e308, rho=1.0,
        sigma_b2_watt=1.7e308, sigma_m2_watt=1.7e308,
    )
    scene = build_scene(huge)
    stack = stack_scenes((build_scene(config_with(**sizes)), scene))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (scene, stack):
            with pytest.raises(ConfigError, match="^sigma_m2_watt: ") as caught:
                mallory_receiver(s)
            assert caught.value.field == "sigma_m2_watt"


def test_compute_dispatch_and_flops():
    scene = build_scene(ScenarioConfig())
    bf = compute(Method.MRC, scene)
    # an unknown name is a typed refusal that lists Bob's six methods;
    # Mallory's combiner is not one of them
    valid = "valid names: mrc, wfmrc, max_sr, mmse, lc_mmse, nsp_wfrp$"
    for name in ("foo", "mallory"):
        with pytest.raises(DomainError, match=f"^'{name}' is not a receive method; {valid}"):
            compute(name, scene)
    # a fresh counter per call: two computations do not share state
    assert compute(Method.MRC, scene).flops == bf.flops


def test_stacked_compute_gives_each_point_its_own_bits_and_flops():
    # one stack of scenes that differ in every field but the sizes: each
    # point's weights, flop count and chain inverse are those of its own
    # one-scene call, bit for bit.  With three jamming beams Mallory's chain
    # runs one update per column of the stack's (P, n, 3) factor of r_m
    rng = np.random.default_rng(409)
    runs = {m: functools.partial(compute, m) for m in Method}
    runs["mallory"] = mallory_receiver
    for n_j in (1, 3):
        scenes = [
            build_scene(dataclasses.replace(random_config(rng), n_a=4, n_b=4, n_m=4, n_j=n_j))
            for _ in range(5)
        ]
        stack = stack_scenes(scenes)
        for method, run in runs.items():
            bf = run(stack)
            assert bf.weights.shape == (5, 4)
            for p, scene in enumerate(scenes):
                one = run(scene)
                assert bf.weights[p].tobytes() == one.weights.tobytes(), (method, n_j, p)
                assert bf.flops == one.flops
        inverses = bob_chain(stack, FlopCounter(len(scenes)))
        for p, scene in enumerate(scenes):
            one = bob_chain(scene, FlopCounter())
            assert inverses[p].tobytes() == one.tobytes()


def test_nsp_refuses_a_singular_projected_covariance_by_name():
    # at a noise power of 1e-100 W the rounding dust of b (about 1e-33 W)
    # leaves P N P + sigma^2 h h^H numerically singular: refused as WF-MRC
    # refuses it, alone and inside a stack
    what = "^projected noise covariance is not numerically positive definite"
    scenes = [build_scene(config_with(sigma_b2_watt=s)) for s in (1.0, 1e-100)]
    with pytest.raises(ConditioningError, match=what):
        compute(Method.NSP_WFRP, scenes[1])
    with pytest.raises(ConditioningError, match=what):
        compute(Method.NSP_WFRP, stack_scenes(scenes))
    # near the float maximum too, where WF-MRC, Max-SR and MMSE refuse
    defect = build_scene(config_with(beta1=0.5, p_a_watt=8.98846567431158e307))
    with pytest.raises(ConditioningError, match=what):
        compute(Method.NSP_WFRP, defect)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_nsp_whitens_residual_interference(n):
    # the scenes built have b = 0 (Alice's AN projector nulls H_ab), so give
    # Bob a rank-two residual interference b: NSP's weights must be the
    # projected whitened match unit(P (P N P)^+ P u), N = b + sigma^2 I
    rng = np.random.default_rng(410 + n)
    scenes = []
    for _ in range(4):
        scene = build_scene(dataclasses.replace(random_config(rng), n_a=n, n_b=n, n_m=n))
        z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        coef = np.float64(10.0 ** rng.uniform(-2.0, 2.0) / 2.0)
        scene = dataclasses.replace(scene, cov=dataclasses.replace(scene.cov, b=Term(coef, z)))
        b = dense_term(scene.cov.b)
        h = scene.channels.mb.rx_steering
        proj = np.eye(n) - np.outer(h, h.conj())
        u = scene.cov.a.factor[..., 0]
        noise = proj @ (b + scene.sigma_b2_watt * np.eye(n)) @ proj
        ref = proj @ np.linalg.pinv(noise, rcond=1e-10, hermitian=True) @ proj @ u
        w = compute(Method.NSP_WFRP, scene).weights
        phase = np.vdot(w, ref) / abs(np.vdot(w, ref))
        assert np.max(np.abs(w * phase - ref / np.linalg.norm(ref))) <= 1e-12
        scenes.append(scene)
    stacked = compute(Method.NSP_WFRP, stack_scenes(scenes))
    for p, scene in enumerate(scenes):
        assert stacked.weights[p].tobytes() == compute(Method.NSP_WFRP, scene).weights.tobytes()


def test_a_stack_is_refused_when_any_point_fails():
    # the guard refuses the whole stack; sweep() replays the points to name one
    scenes = [build_scene(config_with(sigma_b2_watt=s)) for s in (1.0, 1e-100)]
    with pytest.raises(ConditioningError, match="^interference-plus-noise covariance"):
        compute(Method.WFMRC, stack_scenes(scenes))
