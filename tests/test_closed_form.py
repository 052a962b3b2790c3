"""Bob's SINR for every method against closed forms of the LoS model.

Every link is rank one and Alice's artificial noise is nulled at Bob, so
Bob's interference-plus-noise covariance is ``sigma^2 I + kappa h h^H``
with ``h`` the Mallory->Bob receive steering vector and
``kappa = g_mb p_m / n_j`` (only the first jamming beam reaches Bob).
With ``gamma = |h_ab^H h_mb|^2`` for the two receive steering vectors
and ``c1 = g_ab beta1 p_a`` the single-interferer SINRs are those of
Van Trees, *Optimum Array Processing*, ch. 6:

* MRC: ``c1 / (kappa gamma + sigma^2)``;
* WF-MRC, Max-SR, MMSE and LC-MMSE (the optimum direction):
  ``(c1 / sigma^2) (1 - kappa gamma / (sigma^2 + kappa))``;
* NSP-WFRP (jamming nulled outright): ``(c1 / sigma^2) (1 - gamma)``.

The paper's comparisons follow as inequalities: NSP-WFRP beats MRC exactly
when ``(1 - gamma) (kappa gamma + sigma^2) > sigma^2``, and as the jamming
power grows the optimum SINR falls toward NSP-WFRP's from above.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from dmrbf import Method, build_scene, compute, mallory_receiver, rate_point, sinr_bob
from dmrbf.ber import config_at

from conftest import (
    closed_form_sinr,
    closed_form_terms,
    config_with,
    dense_term,
    loguniform,
    random_config,
)

OPTIMUM = (Method.WFMRC, Method.MAX_SR, Method.MMSE, Method.LC_MMSE)
ANGLES = ((90.0, 45.0), (60.0, 120.0), (100.0, 30.0))  # (theta_r_ab, theta_r_mb)
P_M = (0.1, 10.0, 1000.0, 1e10)
SNR_DB = (-5.0, 10.0, 25.0)
RTOL = 1e-12


@pytest.mark.parametrize("n", [2, 4, 16, 64])
def test_bob_sinr_matches_closed_form(n):
    checked = 0
    # a Latin square over (angles, p_m): every pair once, every SNR with each
    for n_j, (i, (th_ab, th_mb)), (k, p_m) in itertools.product(
        (1, 3), enumerate(ANGLES), enumerate(P_M)
    ):
        if n_j >= n:
            continue
        snr = SNR_DB[(i + k) % len(SNR_DB)]
        base = config_with(
            n_a=n, n_b=n, n_m=n, n_j=n_j, p_m_watt=p_m,
            theta_r_ab_deg=th_ab, theta_r_mb_deg=th_mb,
        )
        cfg = config_at(base, "snr_db", snr)
        scene = build_scene(cfg)
        ch = scene.channels
        c1, sigma2, kappa, gamma = closed_form_terms(scene)
        h = ch.mb.rx_steering

        # the structure the closed forms rest on
        c2 = ch.ab.gain * (1.0 - cfg.beta1) * cfg.p_a_watt
        assert np.abs(dense_term(scene.cov.b)).max() <= 1e-12 * c2
        d_expected = kappa * np.outer(h, h.conj())
        assert np.abs(dense_term(scene.cov.d) - d_expected).max() <= 1e-12 * kappa

        # the optimum weights come from c_nbar, of condition about kappa /
        # sigma^2: a stable factorization leaves their direction an error of
        # about eps kappa / sigma^2, and the SINR, stationary at its maximum,
        # loses its square (at most 0.63 of it measured, p_m <= 1e10, n <= 64)
        deficit = 4.0 * (np.finfo(float).eps * kappa / sigma2) ** 2
        eve = mallory_receiver(scene).weights
        for method in (Method.MRC, *OPTIMUM, Method.NSP_WFRP):
            got = rate_point(scene, compute(method, scene).weights, eve).sinr_bob
            want = closed_form_sinr(method, c1, sigma2, kappa, gamma)
            low = RTOL + (deficit if method in OPTIMUM else 0.0)
            assert want * (1.0 - low) <= got <= want * (1.0 + RTOL), (
                method, n_j, th_ab, th_mb, p_m, snr, got / want - 1.0,
            )
            checked += 1
    assert checked > 0


def _scene_sinrs(cfg, methods):
    scene = build_scene(cfg)
    eve = mallory_receiver(scene).weights
    _, _, kappa, gamma = closed_form_terms(scene)
    sinrs = [rate_point(scene, compute(m, scene).weights, eve).sinr_bob for m in methods]
    return sinrs, kappa, gamma


@pytest.mark.parametrize("n", [4, 16])
def test_nsp_beats_mrc_exactly_when_the_closed_forms_say(n):
    outcomes = set()
    for (th_ab, th_mb), p_m, snr in itertools.product(
        (*ANGLES, (90.0, 60.0), (90.0, 88.0)), (0.01, 1.0, 100.0), SNR_DB
    ):
        cfg = config_at(
            config_with(
                n_a=n, n_b=n, n_m=n, p_m_watt=p_m,
                theta_r_ab_deg=th_ab, theta_r_mb_deg=th_mb,
            ),
            "snr_db",
            snr,
        )
        (mrc, nsp), kappa, gamma = _scene_sinrs(cfg, (Method.MRC, Method.NSP_WFRP))
        sigma2 = cfg.sigma_b2_watt
        lhs, rhs = (1.0 - gamma) * (kappa * gamma + sigma2), sigma2
        if abs(lhs - rhs) <= 1e-9 * rhs:  # a tie: the two SINRs agree
            assert nsp == pytest.approx(mrc, rel=1e-9)
            outcomes.add("tie")
        else:
            assert (nsp > mrc) == (lhs > rhs), (th_ab, th_mb, p_m, snr)
            outcomes.add(lhs > rhs)
    assert outcomes == {True, False, "tie"}


@pytest.mark.parametrize("n", [4, 16])
def test_optimum_falls_toward_nsp_as_jamming_grows(n):
    # up to kappa / sigma^2 ~ 1e9, where the optimum-minus-NSP gap is about
    # 1e-9 of the SINR: the rates read each term as coef |V^H w|^2, so the
    # jamming the optimum weights leave is not lost in roundoff of kappa
    p_m = 10.0 ** np.arange(-3.0, 11.0)
    for th_ab, th_mb in ((90.0, 45.0), (100.0, 30.0), (90.0, 75.0)):  # all with gamma > 0
        base = config_at(
            config_with(n_a=n, n_b=n, n_m=n, theta_r_ab_deg=th_ab, theta_r_mb_deg=th_mb),
            "snr_db",
            10.0,
        )
        opt, nsp, gaps = [], [], []
        for p in p_m:
            (*optimum, null), _, gamma = _scene_sinrs(
                config_at(base, "p_m_watt", p), (*OPTIMUM, Method.NSP_WFRP)
            )
            assert gamma > 1e-6  # the jammer is seen, so the optimum has room above NSP
            opt.append(max(optimum))
            nsp.append(null)
            gaps.append(min(optimum) - null)
        opt, nsp = np.array(opt), np.array(nsp)
        assert np.all(opt[1:] <= opt[:-1] * (1.0 + RTOL))  # never increases
        assert np.all(np.array(gaps) >= -RTOL * nsp)  # never below NSP
        assert gaps[-1] <= 1e-5 * gaps[0]  # and the optimum approaches it


def test_lc_mmse_serves_jamming_dominated_scenes():
    # random scenes where jamming dominates: p_m log-uniform up to 1e14 W and
    # noise down to 1e-6 W, so kappa / sigma^2 reaches 8e18.  LC-MMSE's
    # chain inverts c_nbar from its factors, so it serves every scene within
    # 1e-6 of the closed form, where the dense optimum solves lose accuracy
    # (ROADMAP's scan B: the first 300 of its 2000 scenes)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(300):
        cfg = dataclasses.replace(
            random_config(rng),
            p_m_watt=loguniform(rng, 0.01, 1e14),
            sigma_b2_watt=loguniform(rng, 1e-6, 10.0),
        )
        scene = build_scene(cfg)
        got = sinr_bob(compute(Method.LC_MMSE, scene).weights, scene.cov, cfg.sigma_b2_watt)
        want = closed_form_sinr(Method.LC_MMSE, *closed_form_terms(scene))
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-6
