"""Acceptance gate: one test per criterion, run with ``pytest -v``.

Each test prints an explicit ``ACCEPTANCE Cn PASS`` line on success (visible
with ``-s``; under default capture the ``-v`` test names serve as the
per-criterion pass/fail lines).  Tolerances are stated inline; none of them
is tuned to the implementation.
"""

import dataclasses
import time

import numpy as np
import pytest

from dmrbf import (
    FlopCounter,
    Method,
    RECEIVE_METHODS,
    ScenarioConfig,
    build_scene,
    build_transmit_setup,
    compute,
    formula_flops,
    mallory_receiver,
    qpsk_awgn_ber,
    rate_point,
    sigma2_for_snr_db,
    sinr_bob,
    sweep,
    whitening_filter,
    wilson_interval,
)
from dmrbf.beamformers import _chain_inverse
from dmrbf.cli import main as cli_main

from conftest import config_with, dense_term, fixed_budget_runs, link_matrix, random_config

EQUIV4 = (Method.WFMRC, Method.MAX_SR, Method.MMSE, Method.LC_MMSE)


@pytest.fixture(scope="module")
def scenarios200():
    rng = np.random.default_rng(20250816)
    return [random_config(rng) for _ in range(200)]


def at_snr(cfg: ScenarioConfig, snr_db: float) -> ScenarioConfig:
    sigma2 = sigma2_for_snr_db(cfg, snr_db)
    return dataclasses.replace(cfg, sigma_b2_watt=sigma2, sigma_m2_watt=sigma2)


def secrecy_rates(cfg: ScenarioConfig) -> dict:
    scene = build_scene(cfg)
    eve = mallory_receiver(scene).weights
    return {
        m.value: rate_point(scene, compute(m, scene).weights, eve).secrecy_rate_bits
        for m in RECEIVE_METHODS
    }


def test_c01_rank_one_chain_matches_direct_inverse(scenarios200):
    # the rank-one chain inverts c_nbar = b + d + sigma^2 I; by
    # Sherman-Morrison O^{-1} = Z - c1 Z u u^H Z / (1 + c1 u^H Z u) for
    # O = c1 u u^H + c_nbar, so O^{-1} u = Z u / (1 + c1 u^H Z u), Z u over a
    # positive scalar: the chain's direction is MMSE's.  Both Z and that
    # O^{-1} are checked against direct inverses, <= 1e-8 relative Frobenius
    # over 200 randomized scenarios, in under 10 s
    t0 = time.perf_counter()
    worst = 0.0
    for cfg in scenarios200:
        scene = build_scene(cfg)
        z = _chain_inverse((scene.cov.b, scene.cov.d), scene.sigma_b2_watt, FlopCounter())
        ref = np.linalg.inv(scene.cov.c_nbar)
        worst = max(worst, np.linalg.norm(z - ref) / np.linalg.norm(ref))
        c1, u = scene.cov.a.coef, scene.cov.a.factor[..., 0]
        zu = z @ u
        o_inv = z - (c1 / (1.0 + c1 * np.vdot(u, zu).real)) * np.outer(zu, zu.conj())
        ref = np.linalg.inv(dense_term(scene.cov.a) + scene.cov.c_nbar)
        worst = max(worst, np.linalg.norm(o_inv - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(f"ACCEPTANCE C1 PASS: worst rel error {worst:.3e} in {elapsed:.2f}s")


def test_c02_four_way_equivalence(scenarios200):
    worst_sinr = worst_sr = 0.0
    for cfg in scenarios200:
        scene = build_scene(cfg)
        eve = mallory_receiver(scene).weights
        sinrs, srs = [], []
        for method in EQUIV4:
            w = compute(method, scene).weights
            sinrs.append(sinr_bob(w, scene.cov, cfg.sigma_b2_watt))
            srs.append(rate_point(scene, w, eve).secrecy_rate_bits)
        worst_sinr = max(worst_sinr, (max(sinrs) - min(sinrs)) / max(sinrs))
        if max(srs) > 0.0:
            worst_sr = max(worst_sr, (max(srs) - min(srs)) / max(srs))
    assert worst_sinr <= 1e-8
    assert worst_sr <= 1e-8
    print(
        f"ACCEPTANCE C2 PASS: SINR spread {worst_sinr:.3e}, SR spread {worst_sr:.3e}"
    )


def test_c03_nsp_flat_while_mrc_collapses():
    base = at_snr(ScenarioConfig(), 15.0)
    grid = (0.1, 1.0, 10.0, 100.0, 1000.0)
    nsp_sr, mrc_sr = [], []
    for p_m in grid:
        rates = secrecy_rates(dataclasses.replace(base, p_m_watt=p_m))
        nsp_sr.append(rates["nsp_wfrp"])
        mrc_sr.append(rates["mrc"])
    span = max(nsp_sr) - min(nsp_sr)
    assert span <= 1e-9
    assert all(b < a for a, b in zip(mrc_sr, mrc_sr[1:]))
    print(
        f"ACCEPTANCE C3 PASS: NSP span {span:.3e} bits, "
        f"MRC falls {mrc_sr[0]:.3f} -> {mrc_sr[-1]:.3f}"
    )


def test_c04_secrecy_rate_ordering_vs_snr():
    cfg = ScenarioConfig()  # P_M = 10 W by default
    margin_20 = None
    for snr in (10.0, 15.0, 20.0, 25.0):
        rates = secrecy_rates(at_snr(cfg, snr))
        four = [rates[k] for k in ("wfmrc", "max_sr", "mmse", "lc_mmse")]
        assert min(four) >= rates["nsp_wfrp"] - 1e-9
        assert rates["nsp_wfrp"] >= rates["mrc"]
        if snr == 20.0:
            margin_20 = min(four) - rates["mrc"]
    assert margin_20 > 0.1
    low = secrecy_rates(at_snr(cfg, -5.0))
    assert low["mrc"] >= low["nsp_wfrp"]
    print(
        f"ACCEPTANCE C4 PASS: ordering holds at 10-25 dB "
        f"(20 dB margin {margin_20:.3f} bits), MRC >= NSP at -5 dB"
    )


def test_c05_max_sr_eigen_optimality(scenarios200):
    rng = np.random.default_rng(42)
    worst_gap = -np.inf
    worst_val = 0.0
    for cfg in scenarios200[:50]:
        scene = build_scene(cfg)
        star = sinr_bob(compute(Method.MAX_SR, scene).weights, scene.cov, cfg.sigma_b2_watt)
        v = rng.standard_normal((cfg.n_b, 1000)) + 1j * rng.standard_normal(
            (cfg.n_b, 1000)
        )
        v /= np.linalg.norm(v, axis=0)
        cov = scene.cov
        num = np.einsum("ij,ij->j", v.conj(), dense_term(cov.a) @ v).real
        den = (
            np.einsum("ij,ij->j", v.conj(), (dense_term(cov.b) + dense_term(cov.d)) @ v).real
            + cfg.sigma_b2_watt
        )
        worst_gap = max(worst_gap, float((num / den).max()) - star)
        # achieved value equals the whitened signature's squared norm
        c1 = scene.channels.ab.gain * cfg.beta1 * cfg.p_a_watt
        u = scene.cov.a.factor[..., 0]
        aa = c1 * np.vdot(u, np.linalg.solve(scene.cov.c_nbar, u)).real
        worst_val = max(worst_val, abs(star - aa) / aa)
    assert worst_gap <= 1e-12  # no random probe beats the claimed optimum
    assert worst_val <= 1e-9
    print(
        f"ACCEPTANCE C5 PASS: best probe gap {worst_gap:.3e}, "
        f"achieved-value error {worst_val:.3e}"
    )


def test_c06_whitening_identity(scenarios200):
    worst = 0.0
    for cfg in scenarios200[:50]:
        scene = build_scene(cfg)
        w = whitening_filter(scene.cov.c_nbar, FlopCounter())
        res = np.linalg.norm(
            w @ scene.cov.c_nbar @ w.conj().T - np.eye(cfg.n_b)
        )
        worst = max(worst, res)
    assert worst <= 1e-9
    print(f"ACCEPTANCE C6 PASS: worst whitening residual {worst:.3e}")


def test_c07_null_space_constraints(scenarios200):
    worst_nsp = worst_an = 0.0
    for cfg in scenarios200[:50]:
        scene = build_scene(cfg)
        w = compute(Method.NSP_WFRP, scene).weights
        worst_nsp = max(
            worst_nsp, np.linalg.norm(link_matrix(scene.channels.mb).conj().T @ w)
        )
        t_a_an = build_transmit_setup(cfg, scene.channels).t_a_an
        worst_an = max(worst_an, np.linalg.norm(link_matrix(scene.channels.ab) @ t_a_an))
    assert worst_nsp <= 1e-10
    assert worst_an <= 1e-10
    print(
        f"ACCEPTANCE C7 PASS: jam-link leakage {worst_nsp:.3e}, "
        f"AN leakage {worst_an:.3e}"
    )


def test_c08_ber_suite():
    n_symbols = 200_000
    # ordering and mutual agreement at 25 dB, P_M = 10 W, shared symbols,
    # at a fixed N on a one-point sweep's generator
    cfg = at_snr(ScenarioConfig(), 25.0)
    runs = fixed_budget_runs(cfg, RECEIVE_METHODS, n_symbols, seed=0)
    four = (Method.WFMRC, Method.MAX_SR, Method.MMSE, Method.LC_MMSE)
    assert max(runs[m].ber for m in four) <= runs[Method.NSP_WFRP].ber
    assert runs[Method.NSP_WFRP].ber <= runs[Method.MRC].ber
    intervals = [wilson_interval(runs[m].n_errors, 2 * n_symbols) for m in four]
    for i in range(len(four)):
        for j in range(i + 1, len(four)):
            assert max(intervals[i][0], intervals[j][0]) <= min(
                intervals[i][1], intervals[j][1]
            )
    # jamming-free MRC against the analytic Gray-QPSK curve at 10 dB,
    # where the error floor is comfortably measurable
    clean = dataclasses.replace(at_snr(ScenarioConfig(), 10.0), p_m_watt=0.0)
    run = fixed_budget_runs(clean, (Method.MRC,), n_symbols, seed=0)[Method.MRC]
    scene = build_scene(clean)
    w_mrc = compute(Method.MRC, scene).weights
    analytic = qpsk_awgn_ber(sinr_bob(w_mrc, scene.cov, clean.sigma_b2_watt))
    assert abs(run.ber - analytic) <= 3.0 * run.ci95_halfwidth
    # full fig4 preset, single-threaded, under a minute
    t0 = time.perf_counter()
    grid = tuple(2.5 * k for k in range(-2, 11))
    reports = sweep(ScenarioConfig(), RECEIVE_METHODS, "snr_db", grid, n_symbols, seed=0)
    elapsed = time.perf_counter() - t0
    assert len(reports) == len(grid) * len(RECEIVE_METHODS)
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE C8 PASS: MRC {run.ber:.3e} vs analytic {analytic:.3e} "
        f"(+-{run.ci95_halfwidth:.1e}), fig4 in {elapsed:.1f}s"
    )


def test_c09_complexity_ordering_and_growth():
    n = 64
    chain = [
        formula_flops(m, n, n, n)
        for m in (
            Method.NSP_WFRP,
            Method.MMSE,
            Method.MAX_SR,
            Method.WFMRC,
            Method.LC_MMSE,
            Method.MRC,
        )
    ]
    assert all(a > b for a, b in zip(chain, chain[1:]))
    bands = {
        Method.MRC: (1.6, 2.4),
        Method.LC_MMSE: (3.4, 4.6),
        Method.WFMRC: (6.5, 9.5),
        Method.MAX_SR: (6.5, 9.5),
        Method.MMSE: (6.5, 9.5),
        Method.NSP_WFRP: (6.5, 9.5),
    }
    ratios = {}
    # double the receive array only; the other ends keep their defaults
    big, small = (build_scene(config_with(n_b=n)) for n in (64, 32))
    for method, (lo, hi) in bands.items():
        ratio = compute(method, big).flops / compute(method, small).flops
        ratios[method.value] = round(ratio, 2)
        assert lo <= ratio <= hi, f"{method.value}: doubling ratio {ratio:.2f}"
    # LC-MMSE stays O(N^2) with every jamming beam Mallory can form: double
    # all three arrays at n_j = n - 1
    big, small = (build_scene(config_with(n_a=n, n_b=n, n_m=n, n_j=n - 1)) for n in (64, 32))
    ratio = compute(Method.LC_MMSE, big).flops / compute(Method.LC_MMSE, small).flops
    ratios["lc_mmse at n_j = n - 1"] = round(ratio, 2)
    lo, hi = bands[Method.LC_MMSE]
    assert lo <= ratio <= hi, f"lc_mmse at n_j = n - 1: doubling ratio {ratio:.2f}"
    print(f"ACCEPTANCE C9 PASS: strict chain at N=64; doubling ratios {ratios}")


def test_c10_byte_identical_csv(tmp_path, capsys):
    cfg_path = tmp_path / "scen.cfg"
    cfg_path.write_text("")
    blobs = {}
    for tag, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / tag
        rc = cli_main(
            [
                "run",
                str(cfg_path),
                "--preset",
                "fig2",
                "--out",
                str(out),
                "--symbols",
                "2000",
                "--seed",
                "7",
                "--workers",
                str(workers),
            ]
        )
        assert rc == 0
        blobs[tag] = (out / "fig2.csv").read_bytes()
    capsys.readouterr()
    assert blobs["a"] == blobs["b"]  # same seed, same bytes
    assert blobs["a"] == blobs["c"]  # worker count cannot leak into results
    print("ACCEPTANCE C10 PASS: byte-identical CSV across runs and workers {1,4}")
