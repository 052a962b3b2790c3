"""Monte-Carlo BER machinery: intervals, rng discipline, detection, sweeps."""

import math

import numpy as np
import pytest

from dmrbf import (
    DegenerateGeometryError,
    DomainError,
    Method,
    RECEIVE_METHODS,
    ScenarioConfig,
    point_rng,
    qpsk_awgn_ber,
    simulate_ber,
    sweep,
    wilson_interval,
)
from dmrbf.ber import count_bit_errors

from conftest import config_with


def test_wilson_interval_basics():
    lo, hi = wilson_interval(5, 100)
    assert 0.0 <= lo < 0.05 < hi <= 1.0
    # zero errors: closed form hi = z^2 / (n + z^2), lo = 0
    z2 = 1.959963984540054**2
    lo0, hi0 = wilson_interval(0, 1000)
    assert lo0 == 0.0
    assert hi0 == pytest.approx(z2 / (1000 + z2), rel=1e-12)
    # all errors mirrors zero errors
    lo1, hi1 = wilson_interval(1000, 1000)
    assert hi1 == 1.0
    assert lo1 == pytest.approx(1.0 - hi0, rel=1e-12)


def test_wilson_interval_shrinks_with_n():
    spans = []
    for n in (100, 10_000, 1_000_000):
        lo, hi = wilson_interval(n // 10, n)
        spans.append(hi - lo)
    assert spans[0] > spans[1] > spans[2]


def test_wilson_interval_rejects_bad_counts():
    with pytest.raises(DomainError):
        wilson_interval(5, 0)
    with pytest.raises(DomainError):
        wilson_interval(11, 10)


def test_qpsk_awgn_reference_curve():
    # Gray-coded QPSK: BER = Q(sqrt(SINR)); Q(3) = 1.349898e-3 (tabulated)
    assert qpsk_awgn_ber(9.0) == pytest.approx(1.349898e-3, rel=1e-5)
    assert qpsk_awgn_ber(0.0) == pytest.approx(0.5, rel=1e-12)
    assert qpsk_awgn_ber(100.0) < 1e-20


def test_point_rng_keying():
    a = point_rng(7, 3).standard_normal(8)
    b = point_rng(7, 3).standard_normal(8)
    c = point_rng(7, 4).standard_normal(8)
    d = point_rng(8, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_count_bit_errors_matches_naive_loop():
    rng = np.random.default_rng(601)
    for _ in range(10):
        n_b, n_sym = int(rng.integers(1, 9)), int(rng.integers(1, 400))
        w = rng.standard_normal(n_b) + 1j * rng.standard_normal(n_b)
        rx = rng.standard_normal((n_b, n_sym)) + 1j * rng.standard_normal(
            (n_b, n_sym)
        )
        sent = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=n_sym) / math.sqrt(
            2
        )
        gain = complex(rng.standard_normal() + 1j * rng.standard_normal())
        naive = 0
        for i in range(n_sym):
            z = sum(w[k].conjugate() * rx[k, i] for k in range(n_b)) / gain
            naive += (z.real < 0.0) != (sent[i].real < 0.0)
            naive += (z.imag < 0.0) != (sent[i].imag < 0.0)
        assert count_bit_errors(w.conj(), rx, gain, sent) == naive


def test_simulate_ber_counts_and_reproducibility():
    cfg = ScenarioConfig()
    runs = simulate_ber(cfg, RECEIVE_METHODS, 4000, seed=5)
    again = simulate_ber(cfg, RECEIVE_METHODS, 4000, seed=5)
    for method in RECEIVE_METHODS:
        r = runs[method]
        assert r.n_symbols == 4000
        assert r.ber == r.n_errors / 8000  # two bits per QPSK symbol
        assert r.ber == again[method].ber
        lo, hi = wilson_interval(r.n_errors, 8000)
        assert r.ci95_halfwidth == pytest.approx((hi - lo) / 2, rel=1e-12)


def test_simulate_ber_zero_errors_at_high_snr():
    cfg = config_with(sigma_b2_watt=1e-6, sigma_m2_watt=1e-6, p_m_watt=0.0)
    runs = simulate_ber(cfg, (Method.MRC,), 2000, seed=0)
    assert runs[Method.MRC].n_errors == 0


def test_simulate_ber_rejects_empty_block():
    with pytest.raises(DomainError):
        simulate_ber(ScenarioConfig(), (Method.MRC,), 0, seed=0)


def test_common_random_numbers_across_methods():
    # the whitened quartet shares one symbol block, so methods with nearly
    # identical weights must see nearly identical error counts
    cfg = ScenarioConfig()
    runs = simulate_ber(cfg, (Method.WFMRC, Method.MAX_SR, Method.MMSE), 20_000, 3)
    counts = [runs[m].n_errors for m in (Method.WFMRC, Method.MAX_SR, Method.MMSE)]
    assert max(counts) - min(counts) <= 2


def test_ber_monotone_in_snr():
    # one Wilson-interval violation is allowed over the grid
    cfg = ScenarioConfig()
    snrs = (0.0, 5.0, 10.0, 15.0)
    reports = sweep(cfg, (Method.MMSE,), "snr_db", snrs, 20_000, seed=1)
    bers = [r.ber for r in reports]
    violations = 0
    for prev, nxt in zip(bers, bers[1:]):
        if nxt.ber > prev.ber and nxt.ber - prev.ber > prev.ci95_halfwidth:
            violations += 1
    assert violations <= 1


def test_sweep_shapes_and_orders():
    cfg = ScenarioConfig()
    methods = (Method.MRC, Method.NSP_WFRP)
    values = (0.1, 10.0)
    reports = sweep(cfg, methods, "p_m_watt", values, 1000, seed=0)
    assert [r.axis_value for r in reports] == [0.1, 0.1, 10.0, 10.0]
    assert [r.method for r in reports] == [Method.MRC, Method.NSP_WFRP] * 2
    assert all(r.axis == "p_m_watt" for r in reports)
    assert all(r.flops_formula > 0 and r.flops_measured > 0 for r in reports)
    assert sweep(cfg, (), "p_m_watt", values, 1000, seed=0) == []


def test_sweep_snr_axis_sets_both_noise_floors():
    # jamming-free MRC so the post-combining SINR has a closed form
    cfg = config_with(p_m_watt=0.0)
    reports = sweep(cfg, (Method.MRC,), "snr_db", (10.0,), 1000, seed=0)
    # at 10 dB with unit path gain the noise floor is P_A / 10, so the
    # post-combining SINR is beta1 * P_A / (P_A / 10) = 9
    pt = reports[0].rates
    assert pt.sinr_bob == pytest.approx(9.0, rel=1e-9)


def test_sweep_workers_do_not_change_results():
    cfg = ScenarioConfig()
    methods = RECEIVE_METHODS
    values = (0.1, 1.0, 10.0, 100.0)
    seq = sweep(cfg, methods, "p_m_watt", values, 4000, seed=9, workers=1)
    par = sweep(cfg, methods, "p_m_watt", values, 4000, seed=9, workers=4)
    assert seq == par  # dataclass equality: bitwise-identical floats


def test_sweep_rejects_unknown_axis():
    with pytest.raises(DomainError):
        sweep(ScenarioConfig(), (Method.MRC,), "distance", (1.0,), 100, seed=0)


def test_sweep_validation():
    cfg = ScenarioConfig()
    with pytest.raises(DomainError, match="at least one axis value"):
        sweep(cfg, (Method.MRC,), "snr_db", (), 10, seed=0)
    with pytest.raises(DomainError, match="strictly increasing"):
        sweep(cfg, (Method.MRC,), "snr_db", (1.0, 1.0), 10, seed=0)
    with pytest.raises(DomainError, match="n_symbols"):
        sweep(cfg, (Method.MRC,), "snr_db", (1.0,), 0, seed=0)


def test_sweep_failure_names_method_and_point():
    # Bob sees Mallory along the signal direction, so the null-space
    # projection removes the signal; the other methods still succeed
    cfg = config_with(theta_r_mb_deg=90.0)
    with pytest.raises(DegenerateGeometryError, match=r"^nsp_wfrp at p_m_watt = 1: "):
        sweep(cfg, (Method.MRC, Method.NSP_WFRP), "p_m_watt", (1.0, 10.0), 100, 0)
    # simulate_ber is a one-point sweep at the config's own jamming power
    with pytest.raises(DegenerateGeometryError, match=r"^nsp_wfrp at p_m_watt = 10: "):
        simulate_ber(cfg, (Method.NSP_WFRP,), 100, seed=0)
