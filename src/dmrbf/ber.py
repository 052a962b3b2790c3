"""Monte-Carlo QPSK bit-error simulation and parameter sweeps.

A sweep runs in two stages.  The first, the deterministic floor, builds
every point's scene and then runs each step once over the stack of all
points (a stacked `Scene`, in groups of at most ``_STACK_ENTRIES``
matrix entries): Mallory's combiner, each requested beamformer, both ends'
SINRs and rates, and the factor of the detector outputs' noise
(`_output_roots`).  Each point gets the bits it gets alone.  When a
group of several points fails, its points are replayed one at a time
with the same function, so the first failing point raises its own
error, with its point and method named; a failing one-point group runs
once.  The second stage, the Monte-Carlo draw below, runs per point
(`_sweep_point`), in order.

Every receive beamformer sees Bob's array only through ``w^H rx``, and
everything in ``rx`` except the confidential stream (artificial noise,
jamming and thermal noise) is CN(0, ``c_nbar``).  So the M stacked
detector outputs of a sweep point carry jointly Gaussian noise whose
covariance has rank ``r <= min(M, n_b)``; in the line-of-sight model
every weight lies in span{u, h}, so ``r <= 2``.  A point draws ``r``
complex normals per symbol, maps them onto the outputs by a factor of
that covariance and detects every requested beamformer on the same
draws (common random numbers), so method-to-method BER differences are
not masked by draw-to-draw variance.

Every symbol sent is the reference symbol ``(1 + j) / sqrt(2)``.  Each
output is ``s + n`` with ``n`` circular Gaussian and independent of
``s``; a rail is in error exactly when ``sign(s_rail) n_rail < -1/sqrt(2)``,
and ``sign(s_rail) n_rail`` has the law of ``n_rail``.  So every Gray-QPSK
symbol has the same error law, and with the reference symbol a rail is
wrong exactly when ``n_rail < -1/sqrt(2)``: each method's count is still
exactly Binomial(2N, Q(sqrt(SINR))), with no data to draw, add or
compare (Jeruchim, IEEE JSAC 1984).

Only symbols far out can err.  A symbol's noise is ``x ~ N(0, I_2r)``
and each rail is ``a . x`` with ``|a|`` the norm of its row of the
output factor, so no rail of any method errs while
``|x| < rho = (1/sqrt(2)) / max |a|``.  With ``y0 = rho^2 / 2`` a symbol
leaves that ball with probability ``q = P(Gamma(r, 1) > y0)``.  When
``q`` is small a point draws how many of its N symbols leave it,
``Binomial(N, q)``, and draws only those, conditioned to lie outside:
a uniform direction from ``2r`` normals and ``|x|^2 / 2 = y0 + s`` with
``s`` from the truncated gamma law (`_Shell`).  The symbols inside the
ball add no error, so every count vector keeps its exact law.  A
conditioned symbol costs about 1.75 plain ones, so when ``q`` is above
that break-even, ``_PLAIN_ABOVE``, a point draws all N symbols plainly.

Reproducibility contract: point ``i`` of a sweep with seed ``s`` draws
from a counter-based Philox generator keyed by ``(s, i)``: the
outside count, then the normals, symbol-major; the radii come from
that generator's ``jumped()`` copy, a fixed ``r + 1`` exponentials per
symbol, symbol-major too.  The draw comes in chunks of ``_CHUNK``
symbols, and the floor in stacks of ``_STACK_ENTRIES`` entries; both
only bound memory: the chunks concatenate into one stream, and a
stacked point has the bits of a point alone, so no result depends on
either.  Results do not depend on the order points are drawn in, and
repeated runs are bit-identical.
``RNG_STREAM`` numbers this scheme; CSVs record it.  A point's symbol
budget N (`_planned_symbols`) is fixed from its floor's rates before its
generator is made, so it sets N and leaves the scheme as it is.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import complexity
from .beamformers import Beamformer, Method, as_method, compute, mallory_receiver
from .errors import DegenerateChannelError, DmrbfError, DomainError, NumericalError, shown
from .linalg import RANK_RTOL, vector_norm
from .metrics import RatePoint, rate_point, sigma2_for_snr_db
from .scenario import Scene, ScenarioConfig, admits, as_scalar, build_scene, stack_scenes

_WILSON_Z = 1.959963984540054  # two-sided 95 %

#: Relative 95 % half-width that sizes each point's Monte-Carlo budget.
BER_REL_HALFWIDTH = 0.05

#: Symbols per random draw; the counts do not depend on it.  It sets a
#: point's working set, which holds one chunk's normals, its radii and one
#: detector row's outputs at a time: at 2048, one point's floor and draw at
#: fig4's 5 to 10 dB points peak at 0.11-0.17 MB of tracemalloc, where
#: 4096 with the whole M x chunk output block peaked at 0.58 MB.
_CHUNK = 1 << 11

#: Most entries of one stacked matrix in a sweep's floor: the points are
#: stacked in consecutive groups of ``max(1, _STACK_ENTRIES // n**2)``,
#: ``n`` the largest array size, so 2048 points at n = 4 and 8 at n = 64.
#: Like ``_CHUNK`` it bounds the working set and changes no result.
_STACK_ENTRIES = 1 << 15

#: Version of the Monte-Carlo random stream, written into every CSV.
RNG_STREAM = 6

#: Above this chance of leaving the no-error ball a point draws every
#: symbol plainly: a symbol conditioned to lie outside costs about 1.75
#: plain ones (rank 1 and 2, measured with chunks of 4096), so this is the
#: break-even.
_PLAIN_ABOVE = 0.57

#: The ball is shrunk by this relative amount, far above the rounding of
#: a rail ``a . x``, so no symbol left inside it could err in arithmetic.
_BALL_SLACK = 1e-9

#: A rail of the reference symbol ``(1 + j) / sqrt(2)`` is detected wrong
#: when its noise falls below this.
_RAIL_THRESHOLD = -1.0 / math.sqrt(2.0)


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
    n_bits = as_scalar(int, n_bits, "n_bits")
    n_errors = as_scalar(int, n_errors, "n_errors")
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
    sinr = as_scalar(float, sinr, "sinr")
    if not sinr >= 0.0:  # also refuses NaN
        raise DomainError(f"sinr must be >= 0, got {sinr}")
    return 0.5 * math.erfc(math.sqrt(sinr / 2.0))


def count_bit_errors(g: np.ndarray, white: np.ndarray) -> np.ndarray:
    """Bit errors of each detector on one chunk of white normals.

    Row ``i`` of the factor ``g`` (M x r) maps a symbol's ``r`` complex
    normals, a row of ``white`` (N x r, complex128), onto detector ``i``'s
    output noise, so detector ``i`` sees ``g[i] @ white.T``.  The
    reference symbol ``(1 + j) / sqrt(2)`` was sent at every symbol, so a
    rail is in error when its noise is below ``-1/sqrt(2)``; each symbol
    contributes zero, one or two errors to its row's count.  Each real
    product forms two detectors' four rails from the re/im interleaved
    float view of ``white``, never the M x N block.
    """
    x = np.ascontiguousarray(white).view(np.float64)
    rails = np.empty((len(g), 2, x.shape[1]))  # row i's Re and Im rail
    rails[:, 0, 0::2], rails[:, 0, 1::2] = g.real, -g.imag
    rails[:, 1, 0::2], rails[:, 1, 1::2] = g.imag, g.real
    rails = rails.reshape(-1, x.shape[1])
    counts = np.zeros(len(g), np.int64)
    for start in range(0, len(rails), 4):
        for k, rail in enumerate(rails[start : start + 4] @ x.T, start):
            counts[k // 2] += np.count_nonzero(rail < _RAIL_THRESHOLD)
    return counts


def point_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for sweep point ``index`` under ``seed``."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gamma_tail_terms(y0: float, rank: int) -> np.ndarray:
    """``exp(-y0) y0^m / m!`` for ``m < rank``.

    They sum to ``P(Gamma(rank, 1) > y0)``, the chance that ``|x|^2 / 2``
    of ``x ~ N(0, I_2rank)`` exceeds ``y0``; term ``m`` is the chance that
    exactly ``m`` arrivals of a unit Poisson process fall in ``[0, y0]``.
    """
    terms = np.zeros(rank)
    term = math.exp(-y0)
    for m in range(rank):
        if term == 0.0:  # the rest underflow too (and y0 may be inf)
            break
        terms[m] = term
        term *= y0 / (m + 1)
    return terms


@dataclass(frozen=True)
class _Shell:
    """Law of ``|x|^2 / 2`` for ``x ~ N(0, I_2r)`` given ``|x|^2 / 2 > y0``.

    ``|x|^2 / 2`` is the ``r``-th arrival of a unit Poisson process.  Given
    that it comes after ``y0``, ``m < r`` arrivals fell in ``[0, y0]`` with
    probability ``_gamma_tail_terms(y0, r)[m] / q``, and by memorylessness
    the ``r``-th lies ``y0 + Gamma(r - m, 1)`` out.
    """

    y0: float
    cuts: np.ndarray  # P(Exp(1) >= cuts[j]) = P(m > j), for j < r - 1
    rng: np.random.Generator  # the radii's own stream

    @classmethod
    def outside(cls, y0: float, rank: int, rng: np.random.Generator) -> _Shell:
        """The shell beyond ``y0`` at rank ``r``, its radii drawn from ``rng``."""
        terms = _gamma_tail_terms(y0, rank)
        # used only at q <= _PLAIN_ABOVE, which puts y0 above r - 1 (r <= 6
        # methods): the terms grow with m, the last is the largest and no cut
        # is infinite
        return cls(y0, -np.log1p(-np.cumsum(terms[:-1]) / terms.sum()), rng)

    def radii(self, n_symbols: int) -> np.ndarray:
        """``n_symbols`` conditioned ``|x|``, from ``r + 1`` exponentials each,
        computed in place in the first exponential's column."""
        rank = len(self.cuts) + 1
        e = self.rng.standard_exponential((n_symbols, rank + 1))
        radius = e[:, 0]
        radius += self.y0  # |x|^2 / 2 = y0 + Gamma(r - m, 1), which sums e[:, :r - m]
        for j, cut in enumerate(self.cuts[::-1], 1):  # m < r - j: e[:, r] < cuts[r - j - 1]
            np.add(radius, e[:, j], out=radius, where=e[:, rank] < cut)
        radius *= 2.0
        return np.sqrt(radius, out=radius)


def _draw_block(
    rng: np.random.Generator, rank: int, n_symbols: int, shell: _Shell | None
) -> np.ndarray:
    """One chunk's ``rank`` real-and-imaginary N(0, 1) pairs per symbol, as
    a symbol-major ``(n_symbols, rank)`` complex view (re/im interleaved).

    With a ``shell`` each symbol's normals keep only their direction and
    take their norm from ``shell.radii``: the symbols are conditioned to
    lie outside the ball.
    """
    white = rng.standard_normal((n_symbols, 2 * rank))
    if shell is not None:
        scale = np.sqrt(np.einsum("ij,ij->i", white, white))
        np.divide(shell.radii(n_symbols), scale, out=scale)  # new over old norm
        white *= scale[:, None]
    return white.view(np.complex128)


@np.errstate(over="ignore", invalid="ignore")  # refused by name, not warned about
def _output_roots(stack: Scene, weights: dict[Method, np.ndarray]) -> list[np.ndarray]:
    """Each point's factor ``G`` (M x r) of its stacked detector outputs' noise.

    Each method detects ``y = w^H rx / g``, ``g = sqrt(c1) w^H u``, and all
    of ``rx`` but the stream is CN(0, ``c_nbar``): ``y = s + fold n``, ``n``
    white, ``fold = [sqrt(sigma_b2) W^H | sqrt(coef_b) W^H V_b | sqrt(coef_d)
    W^H V_d] / (sqrt(2) g)`` from ``c_nbar``'s factors and the unit weights
    ``W``, as the rates read them.  The thin SVD ``U S V^H`` of its rows,
    each over its norm, keeps the ``r`` singular values above ``RANK_RTOL *
    s_0``, and ``G = U_r S_r`` times the norms has ``G G^H = fold fold^H``
    up to directions of relative variance ``RANK_RTOL**2`` of each output's
    own: ``r`` white normals per symbol give each output its noise and each
    pair its correlation.

    A weight at right angles to ``u`` (``|w^H u| <= RANK_RTOL |u|``, relative
    so that a weak signal is not mistaken for none) or a zero gain (no stream
    power) cannot equalize the stream and is refused, naming its method.
    """
    a, b, d = stack.cov.a, stack.cov.b, stack.cov.d
    w = np.stack([v / vector_norm(v)[..., None] for v in weights.values()], axis=1)  # as the rates
    along = np.vecmat(w, a.factor[:, None])[..., 0]  # w^H u
    gains = np.sqrt(a.coef)[:, None] * along
    zero = (abs(along) <= RANK_RTOL * vector_norm(a.factor[..., 0])[:, None]) | (gains == 0.0)
    for method, refused in zip(weights, zero.T):
        if refused.any():
            raise DegenerateChannelError(
                f"{Method(method).value}: effective complex gain is zero; "
                "the stream cannot be equalized"
            )
    amps = [np.sqrt(t.coef)[:, None, None] * np.vecmat(w, t.factor[:, None]) for t in (b, d)]
    fold = np.concatenate([np.sqrt(stack.sigma_b2_watt)[:, None, None] * w.conj(), *amps], axis=-1)
    fold /= math.sqrt(2.0) * gains[..., None]
    norms = np.hypot.reduce(abs(fold), axis=-1, keepdims=True)  # no square to overflow
    rows = fold / norms
    if not np.isfinite(rows).all():
        raise NumericalError("stacked detector noise matrix is not finite")
    left, sv, _ = np.linalg.svd(rows, full_matrices=False)
    keep = sv > RANK_RTOL * sv[:, :1]
    return [g[:, k] for g, k in zip(norms * left * sv[:, None, :], keep)]


def _draw_runs(
    g: np.ndarray,
    methods: tuple[Method, ...],
    n_symbols: int,
    rng: np.random.Generator,
) -> dict[Method, BerRun]:
    """Estimate BER for several beamformers on shared symbol chunks.

    Each chunk draws ``r`` white normals per symbol, ``r`` the rank of the
    stacked outputs' noise (``g`` is its M x r factor, see `_output_roots`),
    and every method detects its own row of ``G @ n`` on them; the
    reference symbol is never added, it only sets the detection
    threshold.  When few symbols can leave the no-error ball, only those
    are drawn (see the module docstring).
    """
    rank = g.shape[1]

    # no rail errs while |x| < rho = (1/sqrt 2) / max |a|: y0 = rho^2 / 2;
    # a reach that overflows leaves no ball (y0 = 0), so every symbol is drawn
    with np.errstate(over="ignore"):
        reach2 = float(np.max(np.sum(g.real**2 + g.imag**2, axis=1)))
    y0 = (1.0 - _BALL_SLACK) / (4.0 * reach2) if reach2 > 0.0 else math.inf
    q = float(_gamma_tail_terms(y0, rank).sum())
    n_out, shell = n_symbols, None
    if q <= _PLAIN_ABOVE:
        n_out = int(rng.binomial(n_symbols, q))
        if n_out:
            radii_rng = np.random.Generator(rng.bit_generator.jumped())
            shell = _Shell.outside(y0, rank, radii_rng)

    n_errors = np.zeros(len(methods), dtype=np.int64)
    for start in range(0, n_out, _CHUNK):
        white = _draw_block(rng, rank, min(_CHUNK, n_out - start), shell)
        n_errors += count_bit_errors(g, white)
        del white  # so the next chunk is not drawn beside this one

    runs: dict[Method, BerRun] = {}
    for method, n_err in zip(methods, n_errors.tolist()):
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
    return replace(cfg, p_m_watt=value)  # sweep() admits only _AXES


def _planned_symbols(p: float, cap: int) -> int:
    """Symbols that estimate a BER ``p`` to a relative 95 % half-width.

    ``N = min(cap, ceil(z^2 (1 - p) / (2 p eps^2)))`` with ``eps =
    BER_REL_HALFWIDTH``: the normal half-width of ``k / 2N`` over ``2N``
    bits, ``z sqrt(p (1 - p) / 2N)``, is then at most ``eps * p``
    (Jeruchim, IEEE JSAC 1984).  A ``p`` of 0, or one so small that the
    quotient is not finite, gets ``cap``.
    """
    if p <= 0.0:
        return cap
    scale = _WILSON_Z / BER_REL_HALFWIDTH
    n = scale * scale * (1.0 - p) / (2.0 * p)
    return min(cap, math.ceil(n)) if math.isfinite(n) else cap


class _Floor(NamedTuple):
    """The deterministic part of one sweep point: each requested method's
    rates and measured flops, and the factor of the detector outputs'
    noise (`_output_roots`)."""

    rates: dict[Method, RatePoint]
    flops: dict[Method, int]
    root: np.ndarray


def _floors(
    cfg: ScenarioConfig, methods: tuple[Method, ...], axis: str, values: tuple[float, ...]
) -> list[_Floor]:
    """Every point's floor, each step run once over the stack of all points.

    When a step fails on several points, they are replayed one at a time,
    so the first point that fails raises its own error, as a sweep of
    single points would have met it.  A single point's `DmrbfError` keeps
    its type; its message is prefixed with the point and, when one
    method's own step failed, that method.
    """
    method = None  # the method whose own step is running, named on failure
    try:
        stack = stack_scenes([build_scene(config_at(cfg, axis, value)) for value in values])
        eve = mallory_receiver(stack)
        bfs: dict[Method, Beamformer] = {}
        for method in methods:
            bfs[method] = compute(method, stack)
        method = None
        rates = {m: rate_point(stack, bf.weights, eve.weights) for m, bf in bfs.items()}
        roots = _output_roots(stack, {m: bf.weights for m, bf in bfs.items()})
    except DmrbfError as exc:
        if len(values) > 1:
            for value in values:
                _floors(cfg, methods, axis, (value,))
        else:  # same type, message prefixed with where it failed
            who = f"{method.value} " if method is not None else ""
            exc.args = (f"{who}at {axis} = {values[0]:.12g}: {exc}",)
        raise
    return [
        _Floor(
            {m: r.at(p) for m, r in rates.items()},
            {m: bf.flops for m, bf in bfs.items()},
            root,
        )
        for p, root in enumerate(roots)
    ]


def _sweep_point(
    floor: _Floor,
    formula: dict[Method, int],
    axis: str,
    value: float,
    max_symbols: int,
    seed: int,
    index: int,
) -> list[PerformanceReport]:
    """The Monte-Carlo stage of one point, on its floor."""
    # fixed from the rates before the generator is made, so the budget
    # depends on no draw and every count stays binomial
    best = max(r.sinr_bob for r in floor.rates.values())
    n_symbols = _planned_symbols(qpsk_awgn_ber(best), max_symbols)
    runs = _draw_runs(floor.root, tuple(floor.rates), n_symbols, point_rng(seed, index))
    return [
        PerformanceReport(
            axis=axis,
            axis_value=value,
            method=m,
            rates=rates,
            ber=runs[m],
            flops_formula=formula[m],
            flops_measured=floor.flops[m],
        )
        for m, rates in floor.rates.items()
    ]


def _check_sweep(
    cfg: ScenarioConfig,
    methods: Sequence[Method | str],
    axis: str,
    values: Sequence[float] | np.ndarray,
    max_symbols: int,
    seed: int,
) -> tuple[tuple[Method, ...], tuple[float, ...], int, int]:
    """Raise `DomainError` for any argument `sweep` refuses; return the
    methods as `Method`s, the values as Python floats and ``max_symbols``
    and ``seed`` as Python ints.

    ``values`` may be any sequence of finite real numbers that floats can
    hold, an ndarray included; ``max_symbols`` and ``seed`` must be
    integers (see `as_scalar`).  ``cfg`` must be a `ScenarioConfig`, and
    ``methods`` a sequence that is not a str.
    """
    if not isinstance(cfg, ScenarioConfig):
        raise DomainError(f"cfg must be a ScenarioConfig, got {shown(cfg, repr)}")
    if isinstance(methods, str) or not isinstance(methods, Sequence):
        raise DomainError(
            f"methods must be a sequence of receive methods, got {shown(methods, repr)}"
        )
    if axis not in _AXES:
        raise DomainError(f"axis must be one of {_AXES}, got {shown(axis, repr)}")
    items = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(items, Sequence) or not all(admits(float, v) for v in items):
        raise DomainError(f"values must be a sequence of real numbers, got {shown(values, repr)}")
    points = tuple(as_scalar(float, v, "values") for v in items)
    if not points:
        raise DomainError("sweep needs at least one axis value")
    for point in points:  # before the order check, which a NaN would pass
        if not math.isfinite(point):
            raise DomainError(f"values must be finite, got {point}")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise DomainError("axis values must be strictly increasing")
    max_symbols = as_scalar(int, max_symbols, "max_symbols")
    seed = as_scalar(int, seed, "seed")
    if not 1 <= max_symbols < 2**63:  # Generator.binomial takes an int64 count
        raise DomainError(f"max_symbols must be in [1, 2**63), got {max_symbols}")
    if not 0 <= seed < 2**64:  # point_rng keys Philox with a uint64
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")
    methods = tuple(as_method(m) for m in methods)
    for method in methods:
        if methods.count(method) > 1:
            raise DomainError(f"method {method.value!r} is requested more than once")
    return methods, points, max_symbols, seed


def sweep(
    cfg: ScenarioConfig,
    methods: Sequence[Method | str],
    axis: str,
    values: Sequence[float] | np.ndarray,
    max_symbols: int,
    seed: int,
) -> list[PerformanceReport]:
    """Evaluate the requested methods over one axis.

    Returns reports ordered by (axis value, method) following the input
    order.  Each method must be one of ``RECEIVE_METHODS``, named once; an
    empty method list yields an empty report.  Every argument is checked
    before any point runs, and a bad one is refused by a `DomainError`
    that names it (see `_check_sweep`).

    Each point draws the symbols that give its best method's analytic BER
    a relative 95 % half-width of ``BER_REL_HALFWIDTH``, at most
    ``max_symbols`` (see `_planned_symbols`).  The budget is fixed from
    the point's rates before any draw, so every count stays exactly
    binomial, and ``BerRun.n_symbols`` is the number drawn.

    The first failure aborts the sweep.  Its error keeps its type; the
    message is prefixed with the axis value and, when one method's own
    step failed, that method.
    """
    methods, values, max_symbols, seed = _check_sweep(
        cfg, methods, axis, values, max_symbols, seed
    )
    if not methods:
        return []
    # no axis changes an array size, so each method's closed form is one number
    formula = {m: complexity.formula_flops(m, cfg.n_a, cfg.n_b, cfg.n_m) for m in methods}
    group = max(1, _STACK_ENTRIES // max(cfg.n_a, cfg.n_b, cfg.n_m) ** 2)
    floors = [
        floor
        for start in range(0, len(values), group)
        for floor in _floors(cfg, methods, axis, tuple(values[start : start + group]))
    ]
    return [
        report
        for index, (floor, value) in enumerate(zip(floors, values))
        for report in _sweep_point(floor, formula, axis, value, max_symbols, seed, index)
    ]
