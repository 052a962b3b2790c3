"""Monte-Carlo BER machinery: intervals, rng discipline, detection, sweeps."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from dmrbf import (
    ConditioningError,
    DegenerateChannelError,
    DegenerateGeometryError,
    DmrbfError,
    DomainError,
    Method,
    NumericalError,
    RECEIVE_METHODS,
    ScenarioConfig,
    build_scene,
    compute,
    mallory_receiver,
    point_rng,
    qpsk_awgn_ber,
    rate_point,
    sinr_bob,
    stack_scenes,
    sweep,
    wilson_interval,
)
from dmrbf import ber
from dmrbf.ber import config_at, count_bit_errors
from dmrbf.linalg import HPD_RTOL

from conftest import binomial_two_sided_p, config_with, fixed_budget_runs


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
    # counts are integers: a float or a bool is refused by name
    for args, name in (((1.5, 10), "n_errors"), ((True, 10), "n_errors"), ((1, 10.0), "n_bits")):
        with pytest.raises(DomainError, match=f"^{name} must be of type int, got "):
            wilson_interval(*args)
    assert wilson_interval(np.int64(5), np.int64(100)) == wilson_interval(5, 100)
    # an int no float can hold is refused by name, not as a bare OverflowError
    for args in ((10**400, 10**400), (0, 10**400)):
        with pytest.raises(DomainError, match="^n_bits must fit in a float, got an int of 1329 bits$"):
            wilson_interval(*args)


def test_qpsk_awgn_reference_curve():
    # Gray-coded QPSK: BER = Q(sqrt(SINR)); Q(3) = 1.349898e-3 (tabulated)
    assert qpsk_awgn_ber(9.0) == pytest.approx(1.349898e-3, rel=1e-5)
    assert qpsk_awgn_ber(0.0) == pytest.approx(0.5, rel=1e-12)
    assert qpsk_awgn_ber(100.0) < 1e-20
    with pytest.raises(DomainError) as exc:
        qpsk_awgn_ber(-1.0)
    assert str(exc.value) == "sinr must be >= 0, got -1.0"
    with pytest.raises(DomainError, match="^sinr must be >= 0, got nan$"):
        qpsk_awgn_ber(math.nan)
    with pytest.raises(DomainError, match="^sinr must fit in a float, got an int of 1329 bits$"):
        qpsk_awgn_ber(10**400)
    with pytest.raises(DomainError, match="^sinr must be of type float, got '1'$"):
        qpsk_awgn_ber("1")


def test_point_rng_keying():
    a = point_rng(7, 3).standard_normal(8)
    b = point_rng(7, 3).standard_normal(8)
    c = point_rng(7, 4).standard_normal(8)
    d = point_rng(8, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_count_bit_errors_matches_naive_loop():
    # with the identity factor detector i's outputs are exactly z[i]
    rng = np.random.default_rng(601)
    for _ in range(10):
        rows, n_sym = int(rng.integers(1, 8)), int(rng.integers(1, 400))
        z = rng.standard_normal((rows, n_sym)) + 1j * rng.standard_normal((rows, n_sym))
        got = count_bit_errors(np.eye(rows), z.T)
        assert got.shape == (rows,)
        for row in range(rows):
            naive = 0
            for i in range(n_sym):
                naive += z[row, i].real < -1.0 / math.sqrt(2.0)
                naive += z[row, i].imag < -1.0 / math.sqrt(2.0)
            assert got[row] == naive


def test_reference_symbol_counts_equal_data_symbol_counts():
    # a sign detector errs on s + n exactly when the reference symbol errs
    # on sign(s) n, which has the law of n: data cannot change the count
    rng = np.random.default_rng(602)
    n = rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500))
    s = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], size=500) / math.sqrt(2)
    z = s + n
    data_errors = np.count_nonzero((z.real < 0) != (s.real < 0), axis=1)
    data_errors += np.count_nonzero((z.imag < 0) != (s.imag < 0), axis=1)
    flipped = np.sign(s.real) * n.real + 1j * np.sign(s.imag) * n.imag
    np.testing.assert_array_equal(count_bit_errors(np.eye(3), flipped.T), data_errors)


def _block_count(g: np.ndarray, white: np.ndarray) -> np.ndarray:
    """Each row's count on the whole M x N output block ``g @ white.T``."""
    below = (g @ white.T).view(np.float64) < -1.0 / math.sqrt(2.0)
    return np.count_nonzero(below, axis=1)


def test_per_row_count_equals_block_count():
    # detecting row by row forms no M x N block and counts the same
    rng = np.random.default_rng(604)
    for _ in range(200):
        rows, rank = int(rng.integers(1, 7)), int(rng.integers(1, 3))
        g = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        g *= 10.0 ** rng.uniform(-1.0, 1.0)
        white = rng.standard_normal((int(rng.integers(1, 3000)), 2 * rank))
        white = white.view(np.complex128)
        np.testing.assert_array_equal(count_bit_errors(g, white), _block_count(g, white))


def test_rails_exactly_at_the_threshold():
    # a rail exactly at -1/sqrt(2) is right, one ulp below it is wrong, and
    # factors of 0, 1 and 2 keep every product exact in both counts
    t = -1.0 / math.sqrt(2.0)
    rails = np.array([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), 0.0])
    white = (rails[:, None] + 1j * rails[::-1, None]) * np.array([1.0, 0.5])
    g = np.array([[1, 0], [0, 2], [1, 0], [0, 0]], dtype=np.complex128)
    want = np.array([2, 2, 2, 0])
    np.testing.assert_array_equal(count_bit_errors(g, white), want)
    np.testing.assert_array_equal(_block_count(g, white), want)


@pytest.mark.parametrize("snr_db", [5.0, 7.5, 10.0])
def test_point_working_set_stays_small(snr_db):
    # one point holds one chunk's normals, its radii and one detector row's
    # outputs at a time: at fig4's points, with the budgets fig4 plans at
    # its 200k cap, the tracemalloc peak of a point's draw stays below
    # 0.3 MB (0.58 MB with the M x 4096 output block)
    cfg = config_at(ScenarioConfig(), "snr_db", snr_db)
    scene = build_scene(cfg)
    weights = {m: compute(m, scene).weights for m in RECEIVE_METHODS}
    best = max(sinr_bob(w, scene.cov, scene.cfg.sigma_b2_watt) for w in weights.values())
    n = ber._planned_symbols(qpsk_awgn_ber(best), 200_000)
    assert n > 2 * ber._CHUNK  # several chunks, so one can outlive the next
    fixed_budget_runs(cfg, RECEIVE_METHODS, n, seed=0)  # warm caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fixed_budget_runs(cfg, RECEIVE_METHODS, n, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 300_000, peak


def test_binomial_tail_helper():
    # Binomial(10, 1/2): P(X <= 1) = 11 / 1024
    assert binomial_two_sided_p(1, 10, 0.5) == pytest.approx(22 / 1024, rel=1e-12)
    assert binomial_two_sided_p(9, 10, 0.5) == pytest.approx(22 / 1024, rel=1e-12)
    assert binomial_two_sided_p(5, 10, 0.5) == 1.0
    assert binomial_two_sided_p(0, 10, 0.0) == 1.0


_PLAIN_SNRS = (-5.0, 0.0, 5.0)
# points that draw only the symbols outside the no-error ball, with errors
_CONDITIONED_SNRS = (7.5, 10.0, 12.5)


@pytest.mark.parametrize(
    "overrides, snrs",
    [
        pytest.param({"n_a": 4, "n_b": 4, "n_m": 4}, _PLAIN_SNRS, id="4"),
        pytest.param({"n_a": 16, "n_b": 16, "n_m": 16}, _PLAIN_SNRS, id="16"),
        # rank-one output noise (see test_point_draws_rank_normals_per_symbol)
        pytest.param(
            {"theta_r_mb_deg": 60.0, "theta_t_mb_deg": 60.0}, _PLAIN_SNRS, id="orthogonal"
        ),
        pytest.param({"n_b": 1}, _PLAIN_SNRS, id="n_b1"),
        pytest.param({"n_a": 4, "n_b": 4, "n_m": 4}, _CONDITIONED_SNRS, id="4-ball"),
        pytest.param({"n_a": 16, "n_b": 16, "n_m": 16}, _CONDITIONED_SNRS, id="16-ball"),
        pytest.param(
            {"theta_r_mb_deg": 60.0, "theta_t_mb_deg": 60.0},
            (2.5, 5.0, 7.5),
            id="orthogonal-ball",
        ),
        pytest.param({"n_b": 1}, (2.5, 5.0, 7.5), id="n_b1-ball"),
    ],
)
def test_error_counts_follow_exact_binomial(overrides, snrs):
    # Bob's interference plus noise is circular Gaussian, so each method's
    # errors over N symbols are exactly Binomial(2N, Q(sqrt(SINR))), also
    # when only the symbols outside the no-error ball are drawn; N is fixed
    # at 20000 on each point's own generator, not planned
    cfg = config_with(**overrides)
    # null-space projection needs n_b >= 2
    methods = tuple(m for m in RECEIVE_METHODS if cfg.n_b > 1 or m != Method.NSP_WFRP)
    for i, value in enumerate(snrs):
        scene = build_scene(config_at(cfg, "snr_db", value))
        weights = {m: compute(m, scene).weights for m in methods}
        runs = fixed_budget_runs(scene.cfg, methods, 20_000, 11, i)
        assert list(runs) == list(methods)
        for m, run in runs.items():
            p = qpsk_awgn_ber(sinr_bob(weights[m], scene.cov, scene.cfg.sigma_b2_watt))
            tail = binomial_two_sided_p(run.n_errors, 2 * run.n_symbols, p)
            assert tail > 1e-6, (value, m, run.n_errors, p)


def test_planned_counts_follow_exact_binomial():
    # a planned budget is fixed before any draw, so each count is still
    # exactly Binomial(2N, Q(sqrt(SINR))) at the N that point drew
    reports = []
    for n in (4, 16):
        cfg = config_with(n_a=n, n_b=n, n_m=n)
        snrs = (-5.0, 0.0, 5.0, 7.5, 10.0)
        reports += sweep(cfg, RECEIVE_METHODS, "snr_db", snrs, 100_000, 13)
    assert len({r.ber.n_symbols for r in reports}) > 5  # budgets differ by point
    for r in reports:
        p = qpsk_awgn_ber(r.rates.sinr_bob)
        tail = binomial_two_sided_p(r.ber.n_errors, 2 * r.ber.n_symbols, p)
        assert tail > 1e-6, (r.axis_value, r.method, r.ber.n_symbols, r.ber.n_errors, p)


def test_planned_budget_formula():
    # N = ceil(z^2 (1 - p) / (2 p eps^2)): 76060.88... at p = 0.01, eps = 5 %
    assert ber.BER_REL_HALFWIDTH == 0.05
    assert ber._planned_symbols(0.01, 10**9) == 76_061
    assert ber._planned_symbols(0.01, 50_000) == 50_000
    # that N is the least one whose normal half-width is within eps p
    for p in (0.3, 0.01, 1e-6):
        n = ber._planned_symbols(p, 10**12)
        halfwidth = [1.959963984540054 * math.sqrt(p * (1 - p) / (2 * k)) for k in (n, n - 1)]
        assert halfwidth[0] <= 0.05 * p < halfwidth[1]
    # p = 0, or a p too small for the quotient: the cap
    for p in (0.0, 5e-324, qpsk_awgn_ber(1e4)):
        assert ber._planned_symbols(p, 777) == 777


def test_planned_budget_is_fixed_before_any_draw(monkeypatch):
    # each point fixes its budget before its generator exists, and the
    # budget is the same under every seed
    plan, make_rng = ber._planned_symbols, ber.point_rng
    events = []

    def plan_spy(p, cap):
        events.append(("plan", plan(p, cap)))
        return events[-1][1]

    def rng_spy(seed, index):
        events.append(("rng", index))
        return make_rng(seed, index)

    monkeypatch.setattr(ber, "_planned_symbols", plan_spy)
    monkeypatch.setattr(ber, "point_rng", rng_spy)
    snrs = (-5.0, 5.0, 10.0)
    budgets = []
    for seed in (0, 1, 2):
        events.clear()
        reports = sweep(ScenarioConfig(), RECEIVE_METHODS, "snr_db", snrs, 200_000, seed)
        assert [what for what, _ in events] == ["plan", "rng"] * len(snrs)
        assert [index for _, index in events[1::2]] == [0, 1, 2]
        planned = [n for _, n in events[0::2]]
        drawn = [r.ber.n_symbols for r in reports]
        assert drawn == [n for n in planned for _ in RECEIVE_METHODS]
        budgets.append(planned)
    assert budgets[0] == budgets[1] == budgets[2]
    assert budgets[0][0] < budgets[0][1] < budgets[0][2] == 200_000


def test_planned_point_equals_fixed_budget_run():
    # the budget is sized for the best method's analytic BER, and a planned
    # point's counts are a fixed-budget draw at that N on the point's own generator,
    # and a sweep capped at that N draws the same point
    cfg, seed, snrs, k = ScenarioConfig(), 4, (-5.0, 0.0, 7.5), len(RECEIVE_METHODS)
    planned = sweep(cfg, RECEIVE_METHODS, "snr_db", snrs, 100_000, seed)
    for i, value in enumerate(snrs):
        rows = planned[i * k : (i + 1) * k]
        n = rows[0].ber.n_symbols
        best = qpsk_awgn_ber(max(r.rates.sinr_bob for r in rows))
        assert n == ber._planned_symbols(best, 100_000) < 100_000
        runs = fixed_budget_runs(config_at(cfg, "snr_db", value), RECEIVE_METHODS, n, seed, i)
        assert runs == {r.method: r.ber for r in rows}
        capped = sweep(cfg, RECEIVE_METHODS, "snr_db", snrs, n, seed)
        assert capped[i * k : (i + 1) * k] == rows


@pytest.mark.parametrize("n", [4, 16, 64])
def test_output_root_reproduces_output_noise(n):
    # 2 fold fold^H is the stacked outputs' noise covariance
    # W^H c_nbar W / (g g^H); the rank-r factor G must reproduce it
    scene = build_scene(config_with(n_a=n, n_b=n, n_m=n))
    weights = {m: compute(m, scene).weights for m in RECEIVE_METHODS}
    (g,) = ber._output_roots(stack_scenes((scene,)), {m: w[None] for m, w in weights.items()})
    cfg = scene.cfg
    c1 = scene.channels.ab.gain * cfg.beta1 * cfg.p_a_watt
    w = np.stack(list(weights.values()), axis=1)
    gains = np.sqrt(c1) * (w.conj().T @ scene.cov.a.factor[..., 0])
    want = (w.conj().T @ scene.cov.c_nbar @ w) / np.outer(gains, gains.conj())
    got = 2.0 * (g @ g.conj().T)
    diag = np.real(np.diag(want))
    np.testing.assert_allclose(np.real(np.diag(got)), diag, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * diag.max())


@pytest.mark.parametrize(
    "overrides, rank",
    [
        ({"n_a": 4, "n_b": 4, "n_m": 4}, 2),
        ({"n_a": 16, "n_b": 16, "n_m": 16}, 2),
        ({"n_a": 64, "n_b": 64, "n_m": 64}, 2),
        # Mallory's signature at Bob is orthogonal to Alice's (gamma = 0),
        # so every method's weights are collinear with u
        ({"theta_r_mb_deg": 60.0, "theta_t_mb_deg": 60.0}, 1),
        ({"n_b": 1}, 1),
    ],
)
def test_point_draws_rank_normals_per_symbol(overrides, rank, monkeypatch):
    draw = ber._draw_block
    ranks = []

    def spy(rng, r, n_symbols, shell):
        ranks.append(r)
        return draw(rng, r, n_symbols, shell)

    monkeypatch.setattr(ber, "_draw_block", spy)
    cfg = config_with(**overrides)
    # null-space projection needs n_b >= 2
    methods = tuple(m for m in RECEIVE_METHODS if cfg.n_b > 1 or m != Method.NSP_WFRP)
    # enough symbols that some leave the no-error ball at seed 0: one chunk
    fixed_budget_runs(cfg, methods, 10_000, seed=0)
    assert ranks == [rank]


def test_outside_count_is_binomial(monkeypatch):
    # a conditioned point draws Binomial(N, q) symbols: over many seeds the
    # count has mean N q and variance N q (1 - q); a fixed round(N q) would
    # have no variance at all
    scene = build_scene(config_at(config_with(n_a=4, n_b=4, n_m=4), "snr_db", 10.0))
    weights = {m: compute(m, scene).weights for m in RECEIVE_METHODS}
    (g,) = ber._output_roots(stack_scenes((scene,)), {m: w[None] for m, w in weights.items()})
    assert g.shape[1] == 2
    reach2 = np.max(np.sum(np.abs(g) ** 2, axis=1))
    y0 = (1.0 - ber._BALL_SLACK) / (4.0 * reach2)
    q = math.exp(-y0) * (1.0 + y0)  # P(Gamma(2, 1) > y0)
    assert 0.07 < q < 0.09
    draw = ber._draw_block
    drawn = []

    def spy(rng, r, n_symbols, shell):
        drawn[-1] += n_symbols
        return draw(rng, r, n_symbols, shell)

    monkeypatch.setattr(ber, "_draw_block", spy)
    n, seeds = 2000, 300
    for seed in range(seeds):
        drawn.append(0)
        ber._draw_runs(g, RECEIVE_METHODS, n, point_rng(seed, 0))
    counts = np.array(drawn, dtype=float)
    var = n * q * (1.0 - q)
    assert abs(counts.mean() - n * q) <= 4.0 * math.sqrt(var / seeds)
    assert 0.67 <= counts.var(ddof=1) / var <= 1.33


def _chi2_half_tail(y: float, rank: int) -> float:
    """P(|x|^2 / 2 > y) for x ~ N(0, I_2rank), the Erlang tail."""
    return math.exp(-y) * sum(y**k / math.factorial(k) for k in range(rank))


def test_ball_tail_closed_forms():
    for y0 in (0.0, 0.3, 2.0, 17.5, 700.0):
        assert ber._gamma_tail_terms(y0, 1).sum() == pytest.approx(math.exp(-y0), rel=1e-14)
        want = math.exp(-y0) * (1.0 + y0)
        assert ber._gamma_tail_terms(y0, 2).sum() == pytest.approx(want, rel=1e-14)
        assert ber._gamma_tail_terms(y0, 3).sum() == pytest.approx(_chi2_half_tail(y0, 3))
    # beyond the float range nothing is left, not a NaN
    for y0 in (800.0, math.inf):
        assert ber._gamma_tail_terms(y0, 2).sum() == 0.0


@pytest.mark.parametrize("rank, y0", [(1, 1.5), (2, 2.3), (3, 4.0)])
def test_conditioned_draw_follows_the_chi2_tail(rank, y0):
    # outside the ball |x|^2 / 2 > y0 the radius has the chi-square tail
    # ratio and the direction stays uniform (second moment I / 2r)
    rng = point_rng(603, rank)
    shell = ber._Shell.outside(y0, rank, np.random.Generator(rng.bit_generator.jumped()))
    n = 100_000
    x = ber._draw_block(rng, rank, n, shell).view(np.float64)
    assert x.shape == (n, 2 * rank)
    half_norm2 = np.einsum("ij,ij->i", x, x) / 2.0
    assert half_norm2.min() > y0
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        k = int(np.count_nonzero(half_norm2 > y0 + t))
        p = _chi2_half_tail(y0 + t, rank) / _chi2_half_tail(y0, rank)
        assert binomial_two_sided_p(k, n, p) > 1e-6, (t, k, n * p)
    u = x / np.sqrt(2.0 * half_norm2)[:, None]
    np.testing.assert_allclose(u.T @ u / n, np.eye(2 * rank) / (2 * rank), atol=0.01)


def test_non_finite_stacked_matrix_is_refused():
    scene = build_scene(ScenarioConfig())
    nan_weights = np.full(scene.cfg.n_b, np.nan, dtype=np.complex128)
    with pytest.raises(NumericalError, match="not finite"):
        ber._output_roots(stack_scenes((scene,)), {Method.MRC: nan_weights[None]})


@pytest.mark.parametrize("n_symbols", [65535, 65536, 65537])
def test_chunk_boundaries(n_symbols, monkeypatch):
    # the draws are symbol-major, so the chunks concatenate into one stream
    # and no count depends on the chunk size, whether a point draws every
    # symbol (at 0 dB) or only those outside the no-error ball
    methods = (Method.MRC, Method.NSP_WFRP)
    for cfg in (config_at(ScenarioConfig(), "snr_db", 0.0), config_with(p_m_watt=100.0)):
        monkeypatch.setattr(ber, "_CHUNK", 4096)
        runs = fixed_budget_runs(cfg, methods, n_symbols, seed=2)
        assert all(r.n_symbols == n_symbols for r in runs.values())
        assert all(r.n_errors > 0 for r in runs.values())
        for chunk in (1000, 8191, 65536, 1 << 17):
            monkeypatch.setattr(ber, "_CHUNK", chunk)
            assert fixed_budget_runs(cfg, methods, n_symbols, seed=2) == runs


def test_sweep_counts_and_reproducibility():
    # at the default point every method's BER is low enough that the
    # planned budget is the 4000 cap
    cfg = ScenarioConfig()
    runs = sweep(cfg, RECEIVE_METHODS, "p_m_watt", (cfg.p_m_watt,), 4000, 5)
    again = sweep(cfg, RECEIVE_METHODS, "p_m_watt", (cfg.p_m_watt,), 4000, 5)
    assert [r.method for r in runs] == list(RECEIVE_METHODS)
    for report, repeat in zip(runs, again):
        r = report.ber
        assert r.n_symbols == 4000
        assert r.ber == r.n_errors / 8000  # two bits per QPSK symbol
        assert r.ber == repeat.ber.ber
        lo, hi = wilson_interval(r.n_errors, 8000)
        assert r.ci95_halfwidth == pytest.approx((hi - lo) / 2, rel=1e-12)


def test_zero_errors_at_high_snr_draw_nothing(monkeypatch):
    # no symbol can leave the no-error ball, so nothing is drawn at all
    def no_draw(*_):
        raise AssertionError("a symbol was drawn that cannot err")

    monkeypatch.setattr(ber, "_draw_block", no_draw)
    cfg = config_with(sigma_b2_watt=1e-6, sigma_m2_watt=1e-6, p_m_watt=0.0)
    runs = fixed_budget_runs(cfg, (Method.MRC, Method.MMSE), 200_000, seed=0)
    for run in runs.values():
        assert (run.n_symbols, run.n_errors, run.ber) == (200_000, 0, 0.0)


def test_subnormal_stream_power_draws_every_symbol():
    # beta1 = 5e-324 leaves the stream a subnormal gain, so the detector
    # noise factor's squared reach overflows: there is no no-error ball,
    # every symbol is drawn and about half the bits err, with no warning
    reports = sweep(config_with(beta1=5e-324), RECEIVE_METHODS, "p_m_watt", (1.0,), 64, 0)
    for r in reports:
        assert r.ber.n_symbols == 64
        assert 0.3 <= r.ber.ber <= 0.7, r.method


def test_common_random_numbers_across_methods():
    # the whitened quartet shares one symbol block, so methods with nearly
    # identical weights must see nearly identical error counts
    cfg = ScenarioConfig()
    runs = fixed_budget_runs(cfg, (Method.WFMRC, Method.MAX_SR, Method.MMSE), 20_000, 3)
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


def test_sweep_rejects_unknown_axis():
    with pytest.raises(DomainError):
        sweep(ScenarioConfig(), (Method.MRC,), "distance", (1.0,), 100, seed=0)


def test_sweep_validation(monkeypatch):
    cfg = ScenarioConfig()
    with pytest.raises(DomainError, match="at least one axis value"):
        sweep(cfg, (Method.MRC,), "snr_db", (), 10, seed=0)
    with pytest.raises(DomainError, match="strictly increasing"):
        sweep(cfg, (Method.MRC,), "snr_db", (1.0, 1.0), 10, seed=0)
    # Generator.binomial takes an int64 count: 2**63 is refused, 2**62 runs
    for bad in (0, 2**63, 2**64):
        with pytest.raises(DomainError, match=r"^max_symbols must be in \[1, 2\*\*63\)"):
            sweep(cfg, (Method.MRC,), "snr_db", (25.0,), bad, seed=0)
    # a numpy cap counts as the Python int it holds, not as an int64 that
    # overflows when the symbols are doubled into bits
    for cap in (2**62, np.int64(2**62)):
        (report,) = sweep(cfg, (Method.MRC,), "snr_db", (25.0,), cap, seed=0)
        assert report.ber.n_symbols == 2**62
    # a mistyped argument is refused by name: a fractional seed would key
    # Philox with its truncation, uint64(1.5) == 1, and alias seed 1
    methods, values = (Method.MRC, Method.MMSE), (0.0, 5.0)
    for args, named in (
        ((values, 4000, 1.5), "seed must be of type int, got 1.5"),
        ((values, 1000.5, 0), "max_symbols must be of type int, got 1000.5"),
        ((values, "1000", 0), "max_symbols must be of type int, got '1000'"),
        ((values, 1000, "1"), "seed must be of type int, got '1'"),
        ((values, 1000, True), "seed must be of type int, got True"),
        ((("0",), 1000, 0), r"values must be a sequence of real numbers, got \('0',\)"),
        (((True,), 1000, 0), "values must be a sequence of real numbers"),
        ((np.array(0.0), 1000, 0), "values must be a sequence of real numbers"),
        ((np.zeros((2, 1)), 1000, 0), "values must be a sequence of real numbers"),
        # ints that no float holds, or too long to print, are refused by name
        (((10**400,), 1000, 0), "values must fit in a float, got an int of 1329 bits$"),
        (((0.0, 10**5000), 1000, 0), "values must fit in a float, got an int of 16610 bits$"),
        (
            ((10**5000, "0"), 1000, 0),
            "values must be a sequence of real numbers, got a tuple holding an int of over",
        ),
        ((values, 1000, 10**5000), "seed must fit in a float, got an int of 16610 bits$"),
        ((values, 10**5000, 0), "max_symbols must fit in a float, got an int of 16610 bits$"),
    ):
        with pytest.raises(DomainError, match=f"^{named}"):
            sweep(cfg, methods, "snr_db", *args)
    with pytest.raises(DomainError, match="^values must fit in a float"):
        sweep(cfg, methods, "p_m_watt", (10**400,), 1000, 0)
    # an ndarray of values, and numpy integers, run as their Python equivalents
    expected = sweep(cfg, methods, "snr_db", values, 4000, 1)
    assert sweep(cfg, methods, "snr_db", np.array(values), np.int64(4000), np.uint64(1)) == expected
    # bad method lists and non-finite values are refused before any point
    # runs; a NaN would pass the order check, since every comparison with
    # it is false
    monkeypatch.setattr(ber, "build_scene", lambda *a: pytest.fail("a point ran"))
    for methods, named in (
        (("mallory",), "'mallory' is not a receive method"),
        ((Method.MRC, Method.MRC), "method 'mrc' is requested more than once"),
        (("foo",), "'foo' is not a receive method"),
    ):
        with pytest.raises(DomainError, match=f"^{named}"):
            sweep(cfg, methods, "snr_db", (0.0,), 1000, 0)
    for axis in ("snr_db", "p_m_watt"):
        for values, named in (
            ((0.0, float("nan"), 1.0), "nan"),
            ((1.0, math.inf), "inf"),
            (np.array([-np.inf, 0.0]), "-inf"),
        ):
            with pytest.raises(DomainError, match=f"^values must be finite, got {named}$"):
                sweep(cfg, (Method.MRC,), axis, values, 1000, 0)


def test_sweep_refuses_a_bad_config_or_method_list_by_name(monkeypatch):
    # sweep is the one gate for a run's arguments: a config that is not a
    # ScenarioConfig, and methods that are not a sequence of names, are
    # refused by name before any point runs, never as a bare TypeError or
    # AttributeError, and a str is not iterated name by letter
    monkeypatch.setattr(ber, "build_scene", lambda *a: pytest.fail("a point ran"))
    args = ("snr_db", (0.0,), 1000, 0)
    for cfg, methods, named in (
        (None, (Method.MRC,), "cfg must be a ScenarioConfig, got None$"),
        ({"n_b": 4}, (Method.MRC,), r"cfg must be a ScenarioConfig, got \{'n_b': 4\}$"),
        (ScenarioConfig(), None, "methods must be a sequence of receive methods, got None$"),
        (ScenarioConfig(), "mrc", "methods must be a sequence of receive methods, got 'mrc'$"),
        (ScenarioConfig(), Method.MRC, "methods must be a sequence of receive methods, got <"),
        (ScenarioConfig(), iter(["mrc"]), "methods must be a sequence of receive methods, got <"),
        (ScenarioConfig(), {"mrc"}, r"methods must be a sequence of receive methods, got \{"),
    ):
        with pytest.raises(DomainError, match=f"^{named}"):
            sweep(cfg, methods, *args)


def test_a_numpy_array_size_sweeps_as_its_python_int():
    # an int8 n_b would overflow n_b**2 when the sweep sizes its point stacks
    args = ((Method.MRC, Method.WFMRC), "snr_db", (0.0, 10.0), 2000, 0)
    assert sweep(config_with(n_b=np.int8(100)), *args) == sweep(config_with(n_b=100), *args)


def test_sweep_failure_names_method_and_point():
    # Bob sees Mallory along the signal direction, so the null-space
    # projection removes the signal; the other methods still succeed
    cfg = config_with(theta_r_mb_deg=90.0)
    with pytest.raises(DegenerateGeometryError, match=r"^nsp_wfrp at p_m_watt = 1: "):
        sweep(cfg, (Method.MRC, Method.NSP_WFRP), "p_m_watt", (1.0, 10.0), 100, 0)


def test_a_failing_one_point_group_runs_once(monkeypatch):
    # a group of one point fails with its own named error, so it is not
    # replayed; a group of two is stacked once, then replayed from its first
    # point, which fails again and stops the replay
    build, built = ber.build_scene, []

    def spy(cfg):
        built.append(cfg)
        return build(cfg)

    monkeypatch.setattr(ber, "build_scene", spy)
    cfg, methods = config_with(theta_r_mb_deg=90.0), (Method.MRC, Method.NSP_WFRP)
    for values, scenes in (((1.0,), 1), ((1.0, 10.0), 3)):
        built.clear()
        with pytest.raises(DegenerateGeometryError, match=r"^nsp_wfrp at p_m_watt = 1: "):
            sweep(cfg, methods, "p_m_watt", values, 100, 0)
        assert len(built) == scenes


# fig4 at n = 4, and fig3 at n = 16 with four jamming beams, pinned at 15 dB
_FIG4 = (ScenarioConfig(), "snr_db", tuple(2.5 * k for k in range(-2, 11)))
_FIG3_N16 = (
    config_at(config_with(n_a=16, n_b=16, n_m=16, n_j=4), "snr_db", 15.0),
    "p_m_watt",
    tuple(10.0 ** (-1.0 + 0.5 * k) for k in range(9)),
)


@pytest.mark.parametrize("cfg, axis, values", [_FIG4, _FIG3_N16], ids=["fig4", "fig3_n16"])
def test_stacked_floor_matches_one_point_at_a_time(cfg, axis, values, monkeypatch):
    # the whole sweep in one stack, in stacks of two points (longer than
    # the bound) and one point at a time give the same reports, bit for
    # bit; each point's rates and flops are those of its own scene
    reports = sweep(cfg, RECEIVE_METHODS, axis, values, 2000, 3)
    for entries in (2 * cfg.n_b**2, 1):
        monkeypatch.setattr(ber, "_STACK_ENTRIES", entries)
        assert sweep(cfg, RECEIVE_METHODS, axis, values, 2000, 3) == reports
    for value in values:
        scene = build_scene(config_at(cfg, axis, value))
        eve = mallory_receiver(scene).weights
        for r in (r for r in reports if r.axis_value == value):
            bf = compute(r.method, scene)
            assert r.rates == rate_point(scene, bf.weights, eve)
            assert r.flops_measured == bf.flops


@pytest.mark.parametrize(
    "cfg, methods, axis, values, error, message",
    [
        # point 1 fails at Mallory's combiner, point 2 already in its scene
        (
            ScenarioConfig(),
            RECEIVE_METHODS,
            "snr_db",
            (0.0, 3000.0, 4000.0),
            NumericalError,
            "at snr_db = 3000: rank-one update chain solves c_m x = e to backward error nan",
        ),
        # point 1 fails in WF-MRC's own step, point 2 earlier, at Mallory's:
        # 1e16 W of jamming at 10 dB is the default scene at 1e16 W
        (
            config_with(p_m_watt=1e16),
            (Method.MRC, Method.WFMRC),
            "snr_db",
            (-20.0, 10.0, 3000.0),
            ConditioningError,
            "wfmrc at snr_db = 10: interference-plus-noise covariance is not "
            "numerically positive definite (min eigenvalue {}, max {})",
        ),
    ],
    ids=["scene-after-mallory", "mallory-after-method"],
)
def test_sweep_raises_the_first_failing_point(cfg, methods, axis, values, error, message):
    # the stacked floor fails at the later point's earlier step; the sweep
    # still reports the earlier point, as one point at a time would
    with pytest.raises(error) as exc:
        sweep(cfg, methods, axis, values, 100, 0)
    # and the later point alone fails at Mallory's combiner or in its scene
    with pytest.raises(DmrbfError, match=r"^at \S+ = \d+: "):
        sweep(cfg, methods, axis, values[-1:], 100, 0)
    # the text around the eigenvalues is exact; the smallest eigenvalue at
    # cond ~ 1e15 is roundoff whose digits depend on the BLAS kernel, so
    # the numbers are checked by size: the largest, and the ratio refused
    number = r"(-?\d\.\d{6}e[+-]\d+)"
    got = re.fullmatch(number.join(map(re.escape, message.split("{}"))), str(exc.value))
    assert got, str(exc.value)
    if got.groups():
        lo, hi = map(float, got.groups())
        assert hi == pytest.approx(1.111111e15, rel=1e-6)
        assert lo <= HPD_RTOL * hi


_HEAVY_JAMMING = (1e16, 1e18, 1e20, 1e30)
_HEAVY_METHODS = (Method.MRC, Method.NSP_WFRP, Method.LC_MMSE)


def test_ber_is_binomial_at_the_rates_sinr_under_heavy_jamming():
    # jamming 1e16 W and more over 1 W of noise at 10 dB: the dense c_nbar
    # no longer carries sigma_b2, and a fold of it put NSP-WFRP's and
    # LC-MMSE's counts up to 270 half-widths off; the fold of the factors
    # keeps every count Binomial(2N, Q(sqrt(SINR))) at the rates' SINR
    cfg = config_at(ScenarioConfig(), "snr_db", 10.0)
    for r in sweep(cfg, _HEAVY_METHODS, "p_m_watt", _HEAVY_JAMMING, 200_000, 0):
        want = qpsk_awgn_ber(r.rates.sinr_bob)
        assert abs(r.ber.ber - want) <= 4.0 * r.ber.ci95_halfwidth, (r.axis_value, r.method)


@pytest.mark.parametrize("p_m_watt", [*_HEAVY_JAMMING, 1e300])
def test_output_noise_is_the_noise_the_rates_read(p_m_watt):
    # each output's noise variance diag(G G^H) is 1 / (2 SINR) at the SINR
    # the rates report: one reading of Bob's noise through the weights
    cfg = config_at(config_with(p_m_watt=p_m_watt), "snr_db", 10.0)
    (floor,) = ber._floors(cfg, _HEAVY_METHODS, "p_m_watt", (p_m_watt,))
    sinr = np.array([floor.rates[m].sinr_bob for m in _HEAVY_METHODS])
    var = np.sum(abs(floor.root) ** 2, axis=1)
    np.testing.assert_allclose(2.0 * var * sinr, 1.0, rtol=1e-12, atol=0.0)


def test_output_root_refuses_a_weight_at_right_angles_to_the_signal():
    scene = build_scene(ScenarioConfig())
    u = scene.cov.a.factor[..., 0]
    w = np.roll(u, 1)
    w = w - np.vdot(u, w) / np.vdot(u, u) * u
    weights = {Method.MRC: compute(Method.MRC, scene).weights, Method.MMSE: w}
    with pytest.raises(DegenerateChannelError, match="^mmse: effective complex gain is zero"):
        ber._output_roots(stack_scenes((scene,)), {m: w[None] for m, w in weights.items()})
