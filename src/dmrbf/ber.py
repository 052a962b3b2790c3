"""Monte-Carlo QPSK bit-error simulation and parameter sweeps.

One sweep point draws a single block of symbols, artificial-noise
streams, jamming streams and receiver noise, then evaluates every
requested beamformer on that same block (common random numbers), so
method-to-method BER differences are not masked by draw-to-draw
variance.

Reproducibility contract: point ``i`` of a sweep with seed ``s`` uses a
counter-based Philox generator keyed by ``(s, i)``.  Results therefore
depend neither on the order points are executed in nor on the number of
worker threads, and repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import complexity
from .beamformers import Beamformer, Method, compute, mallory_receiver
from .errors import DegenerateChannelError, DmrbfError, DomainError
from .metrics import RatePoint, rate_point, sigma2_for_snr_db
from .scenario import Scene, ScenarioConfig, build_scene, complex_normal

_WILSON_Z = 1.959963984540054  # two-sided 95 %

#: Gray-mapped QPSK constellation, unit symbol energy.  Both rails carry
#: one bit as the sign, so adjacent symbols differ in exactly one bit.
QPSK_SYMBOLS = np.array(
    [1.0 + 1.0j, 1.0 - 1.0j, -1.0 + 1.0j, -1.0 - 1.0j], dtype=np.complex128
) / np.sqrt(2.0)


@dataclass(frozen=True)
class BerRun:
    """Outcome of one Monte-Carlo BER estimate."""

    method: Method
    n_symbols: int
    n_errors: int
    ber: float
    ci95_halfwidth: float


@dataclass(frozen=True)
class PerformanceReport:
    """All per-method results at one sweep point."""

    axis: str
    axis_value: float
    method: Method
    rates: RatePoint
    ber: BerRun
    flops_formula: int
    flops_measured: int


def wilson_interval(n_errors: int, n_bits: int) -> tuple[float, float]:
    """Wilson score 95 % confidence interval for an error proportion."""
    if n_bits < 1:
        raise DomainError(f"n_bits must be >= 1, got {n_bits}")
    if not 0 <= n_errors <= n_bits:
        raise DomainError(f"n_errors={n_errors} outside [0, {n_bits}]")
    z2 = _WILSON_Z * _WILSON_Z
    p = n_errors / n_bits
    denom = 1.0 + z2 / n_bits
    center = (p + z2 / (2.0 * n_bits)) / denom
    half = (_WILSON_Z / denom) * math.sqrt(
        p * (1.0 - p) / n_bits + z2 / (4.0 * n_bits * n_bits)
    )
    # at p = 0 (resp. 1) the exact bound is 0 (resp. 1); rounding in
    # center - half would otherwise leave ~1e-19 of dust
    lo = 0.0 if n_errors == 0 else max(0.0, center - half)
    hi = 1.0 if n_errors == n_bits else min(1.0, center + half)
    return (lo, hi)


def qpsk_awgn_ber(sinr: float) -> float:
    """Analytic Gray-QPSK bit error rate at a given post-combining SINR."""
    if sinr < 0.0:
        raise DomainError(f"sinr must be >= 0, got {sinr}")
    return 0.5 * math.erfc(math.sqrt(sinr / 2.0))


def count_bit_errors(
    w_conj: np.ndarray, rx: np.ndarray, gain: complex, sent: np.ndarray
) -> int:
    """Bit errors after combining ``rx`` with ``w_conj`` and equalizing.

    ``sent`` holds the transmitted Gray-mapped QPSK symbols; a bit error
    is a sign disagreement on either quadrature rail, so each symbol
    contributes zero, one or two errors.
    """
    z = (w_conj @ rx) / gain
    wrong_i = (z.real < 0.0) != (sent.real < 0.0)
    wrong_q = (z.imag < 0.0) != (sent.imag < 0.0)
    return int(np.count_nonzero(wrong_i)) + int(np.count_nonzero(wrong_q))


def point_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for sweep point ``index`` under ``seed``."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_block(
    rng: np.random.Generator, cfg: ScenarioConfig, n_symbols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Common random numbers for one sweep point, in a fixed draw order."""
    sent = QPSK_SYMBOLS[rng.integers(0, 4, n_symbols)]
    z_a = complex_normal(rng, cfg.n_a, n_symbols)
    z_m = complex_normal(rng, cfg.n_j, n_symbols)
    noise = complex_normal(rng, cfg.n_b, n_symbols)
    return sent, z_a, z_m, noise


def _ber_runs(
    scene: Scene,
    weights: dict[Method, np.ndarray],
    n_symbols: int,
    rng: np.random.Generator,
) -> dict[Method, BerRun]:
    """Estimate BER for several beamformers on one shared symbol block."""
    cfg = scene.cfg
    channels = scene.channels
    sent, z_a, z_m, noise = _draw_block(rng, cfg, n_symbols)

    c1 = channels.ab.gain * cfg.beta1 * cfg.p_a_watt
    c2 = channels.ab.gain * (1.0 - cfg.beta1) * cfg.p_a_watt
    u = scene.bob_signal_vector
    rx = np.sqrt(c1) * np.outer(u, sent)
    rx += np.sqrt(c2) * (channels.ab.matrix @ scene.setup.t_a_an) @ z_a
    rx += np.sqrt(channels.mb.gain * cfg.p_m_watt) * (
        channels.mb.matrix @ scene.setup.t_m_an
    ) @ z_m
    rx += np.sqrt(cfg.sigma_b2_watt) * noise

    runs: dict[Method, BerRun] = {}
    for method, w in weights.items():
        gain = np.sqrt(c1) * complex(np.vdot(w, u))
        if abs(gain) <= 1e-12:
            raise DegenerateChannelError(
                f"{Method(method).value}: effective complex gain is zero; "
                "the stream cannot be equalized"
            )
        n_err = count_bit_errors(w.conj(), rx, gain, sent)
        lo, hi = wilson_interval(n_err, 2 * n_symbols)
        runs[method] = BerRun(
            method=Method(method),
            n_symbols=n_symbols,
            n_errors=n_err,
            ber=n_err / (2.0 * n_symbols),
            ci95_halfwidth=(hi - lo) / 2.0,
        )
    return runs


_AXES = ("snr_db", "p_m_watt")


def config_at(cfg: ScenarioConfig, axis: str, value: float) -> ScenarioConfig:
    """``cfg`` moved to ``value`` on a sweep axis (``snr_db`` sets both
    noise levels)."""
    if axis == "snr_db":
        sigma2 = sigma2_for_snr_db(cfg, value)
        return replace(cfg, sigma_b2_watt=sigma2, sigma_m2_watt=sigma2)
    return replace(cfg, p_m_watt=float(value))  # sweep() admits only _AXES


def _sweep_point(
    cfg: ScenarioConfig,
    methods: tuple[Method, ...],
    axis: str,
    value: float,
    n_symbols: int,
    seed: int,
    index: int,
) -> list[PerformanceReport]:
    method = None  # the method whose own step is running, named on failure
    try:
        scene = build_scene(config_at(cfg, axis, value))
        eve = mallory_receiver(scene)
        bfs: dict[Method, Beamformer] = {}
        for method in methods:
            bfs[method] = compute(method, scene)
        method = None
        weights = {m: bf.weights for m, bf in bfs.items()}
        runs = _ber_runs(scene, weights, n_symbols, point_rng(seed, index))
        rates = {m: rate_point(scene, w, eve.weights) for m, w in weights.items()}
    except DmrbfError as exc:  # same type, message prefixed with where it failed
        who = f"{method.value} " if method is not None else ""
        exc.args = (f"{who}at {axis} = {value:.12g}: {exc}",)
        raise
    return [
        PerformanceReport(
            axis=axis,
            axis_value=float(value),
            method=m,
            rates=rates[m],
            ber=runs[m],
            flops_formula=complexity.formula_flops(m, cfg.n_a, cfg.n_b, cfg.n_m),
            flops_measured=bf.flops,
        )
        for m, bf in bfs.items()
    ]


def sweep(
    cfg: ScenarioConfig,
    methods: tuple[Method, ...],
    axis: str,
    values: tuple[float, ...],
    n_symbols: int,
    seed: int,
    workers: int = 1,
) -> list[PerformanceReport]:
    """Evaluate the requested methods over one axis.

    Returns reports ordered by (axis value, method) following the input
    order.  An empty method list yields an empty report.  ``workers``
    only parallelizes; it cannot change any numerical result.

    The first failure aborts the sweep.  Its error keeps its type; the
    message is prefixed with the axis value and, when one method's own
    step failed, that method.
    """
    if axis not in _AXES:
        raise DomainError(f"axis must be one of {_AXES}, got {axis!r}")
    if not values:
        raise DomainError("sweep needs at least one axis value")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError("axis values must be strictly increasing")
    if n_symbols < 1:
        raise DomainError(f"n_symbols must be >= 1, got {n_symbols}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    methods = tuple(Method(m) for m in methods)
    if not methods:
        return []

    def job(index: int) -> list[PerformanceReport]:
        return _sweep_point(cfg, methods, axis, values[index], n_symbols, seed, index)

    if workers == 1:
        chunks = [job(i) for i in range(len(values))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(job, range(len(values))))
    return [report for chunk in chunks for report in chunk]


def simulate_ber(
    cfg: ScenarioConfig,
    methods: tuple[Method, ...],
    n_symbols: int,
    seed: int,
) -> dict[Method, BerRun]:
    """Standalone BER estimate at one operating point (single block).

    A one-point sweep over ``p_m_watt`` at the config's own value, so it
    draws point 0's stream and fails like a sweep does.
    """
    reports = sweep(cfg, methods, "p_m_watt", (cfg.p_m_watt,), n_symbols, seed)
    return {r.method: r.ber for r in reports}
