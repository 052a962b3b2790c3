"""Scenario configuration and the quantities derived from it.

A scenario is one operating point of the network: Alice sends a
confidential stream plus projected artificial noise, Mallory eavesdrops
while jamming in full duplex (with residual self-interference after
cancellation), Bob combines across his array.  Everything downstream
(beamformers, rates, bit error simulation) consumes the `Scene` bundle
built here, so the covariance algebra lives in exactly one place.

Configs serialize to a flat ``key = value`` text format with ``#``
comments; unknown keys and malformed values are rejected with the line
number.
"""

from __future__ import annotations

import functools
import math
import typing
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelSet, LosChannel, los_channel, null_projector
from .counting import FlopCounter
from .errors import ConfigError, ConfigParseError, DimensionError, DomainError, shown
from .linalg import hermitian_part, vector_norm


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameter set for one scenario.

    Defaults reproduce the reference operating point used throughout the
    tests: 4-element arrays everywhere, 10 W at Alice with 90 % of it on
    the confidential stream, Mallory at 10 W with one jamming beam, and
    the three links at 90/125/45 degrees over 1/4/3 km.
    """

    n_a: int = 4  # Alice transmit elements
    n_b: int = 4  # Bob receive elements
    n_m: int = 4  # Mallory elements (shared for tx/rx)
    n_j: int = 1  # jamming beams at Mallory, 1 <= n_j <= n_m - 1
    p_a_watt: float = 10.0
    p_m_watt: float = 10.0
    beta1: float = 0.9  # fraction of Alice's power on the confidential stream
    rho: float = 1e-11  # residual self-interference factor at Mallory
    sigma_b2_watt: float = 1.0
    sigma_m2_watt: float = 1.0
    theta_t_ab_deg: float = 90.0
    theta_r_ab_deg: float = 90.0
    theta_t_am_deg: float = 125.0
    theta_r_am_deg: float = 125.0
    theta_t_mb_deg: float = 45.0
    theta_r_mb_deg: float = 45.0
    d_ab_km: float = 1.0
    d_am_km: float = 4.0
    d_mb_km: float = 3.0
    path_alpha: float = 1.0  # power gain at the 1 km reference distance
    path_exponent: float = 2.0
    spacing_over_wavelength: float = 0.5
    snr_definition: str = "received"  # 'received' folds path loss into SNR
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            # an exact Python kind is kept as given, so a config stays cheap to
            # make; an int of an int field is then not checked against the float range
            if type(value) is not kind:
                value = as_scalar(kind, value, functools.partial(ConfigError, name))
                object.__setattr__(self, name, value)
            if kind is float and not math.isfinite(value):
                raise ConfigError(name, f"must be finite, got {value}")
        for name in ("n_a", "n_b", "n_m"):
            n = getattr(self, name)
            if n < 1:
                raise ConfigError(name, f"must be >= 1, got {shown(n)}")
            if n > _MAX_ARRAY_SIZE:
                raise ConfigError(name, f"is too large for an n x n complex matrix, got {shown(n)}")
        if not 1 <= self.n_j <= self.n_m - 1:
            raise ConfigError(
                "n_j",
                f"must lie in {{1, ..., n_m - 1}} = {{1, ..., {shown(self.n_m - 1)}}}, "
                f"got {shown(self.n_j)}",
            )
        for name in ("p_a_watt", "sigma_b2_watt", "sigma_m2_watt"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(name, f"must be > 0, got {getattr(self, name)}")
        if self.p_m_watt < 0.0:  # zero means a jamming-free Mallory
            raise ConfigError("p_m_watt", f"must be >= 0, got {self.p_m_watt}")
        if not 0.0 <= self.beta1 <= 1.0:
            raise ConfigError("beta1", f"must lie in [0, 1], got {self.beta1}")
        if self.rho < 0.0:
            raise ConfigError("rho", f"must be >= 0, got {self.rho}")
        for name in (
            "theta_t_ab_deg",
            "theta_r_ab_deg",
            "theta_t_am_deg",
            "theta_r_am_deg",
            "theta_t_mb_deg",
            "theta_r_mb_deg",
        ):
            angle = getattr(self, name)
            if not 0.0 <= angle <= 180.0:
                raise ConfigError(name, f"must lie in [0, 180] degrees, got {angle}")
        if not self.path_alpha > 0.0:
            raise ConfigError("path_alpha", f"must be > 0, got {self.path_alpha}")
        if self.path_exponent < 0.0:
            raise ConfigError("path_exponent", f"must be >= 0, got {self.path_exponent}")
        for name in ("d_ab_km", "d_am_km", "d_mb_km"):
            try:
                self.path_gain(getattr(self, name))
            except DomainError as exc:
                raise ConfigError(name, str(exc)) from None
        if not self.spacing_over_wavelength > 0.0:
            raise ConfigError(
                "spacing_over_wavelength",
                f"must be > 0, got {self.spacing_over_wavelength}",
            )
        if self.snr_definition not in ("received", "transmit"):
            raise ConfigError(
                "snr_definition",
                f"must be 'received' or 'transmit', got {self.snr_definition!r}",
            )
        if self.rng_seed < 0:
            raise ConfigError("rng_seed", f"must be >= 0, got {shown(self.rng_seed)}")

    def path_gain(self, distance_km: float) -> float:
        """Power-law path gain ``path_alpha / distance_km ** path_exponent``.

        Raises `DomainError` unless ``distance_km`` is a number > 0 whose
        gain is a positive finite float.
        """
        distance_km = as_scalar(float, distance_km, "distance_km")
        if not distance_km > 0.0:
            raise DomainError(f"distance_km must be > 0, got {distance_km}")
        try:  # on Python floats, which raise where numpy's would only warn
            g = self.path_alpha / distance_km**self.path_exponent
        except (OverflowError, ZeroDivisionError):
            g = math.nan  # distance_km ** path_exponent left the float range
        if not 0.0 < g < math.inf:
            raise DomainError(
                f"path gain at distance {distance_km} km (exponent {self.path_exponent}) "
                "is not a positive finite float"
            )
        return g


#: Field name -> declared type (int, float or str), in declaration order.
_FIELD_TYPES: dict[str, type] = typing.get_type_hints(ScenarioConfig)
#: The largest n of an n x n complex128 matrix (16 n^2 bytes) numpy can index.
_MAX_ARRAY_SIZE = math.isqrt(np.iinfo(np.intp).max // 16)
#: Declared type -> the concrete value types a field of it takes (an ABC
#: check such as ``numbers.Real`` costs several times as much per config).
_ACCEPTED: dict[type, tuple[type, ...]] = {
    int: (int, np.integer),
    float: (int, float, np.integer, np.floating),
    str: (str,),
}


def admits(kind: type, value: object) -> bool:
    """Whether a value declared ``kind`` (int, float or str) may be ``value``:
    numpy scalars count as Python ones, and a bool counts as none."""
    return isinstance(value, _ACCEPTED[kind]) and not isinstance(value, bool)


def as_scalar(
    kind: type, value: object, name: str | Callable[[str], Exception]
) -> int | float | str:
    """``value``, declared ``kind`` (int, float or str), as a Python ``kind``.

    The one rule for a scalar argument: `admits` it, and a number must
    fit in a float.  So a numpy scalar is stored and computed with as the
    Python number it holds, never in its own dtype.  A value that breaks
    the rule raises ``DomainError("<name> must be of type <kind>, got …")``
    or ``"… must fit in a float, got …"``; a callable ``name`` instead
    makes the error from the message without the name.
    """
    if admits(kind, value):
        try:
            converted = kind(value)
            if kind is int:
                float(converted)  # an int must fit in a float too
            return converted
        except OverflowError:
            problem = f"must fit in a float, got {shown(value)}"
    else:
        problem = f"must be of type {kind.__name__}, got {shown(value, repr)}"
    raise DomainError(f"{name} {problem}") if isinstance(name, str) else name(problem)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config in the flat ``key = value`` file format."""
    lines = ["# scenario configuration"]
    for name in _FIELD_TYPES:
        lines.append(f"{name} = {getattr(cfg, name)}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat ``key = value`` format; absent keys keep defaults.

    Raises
    ------
    ConfigParseError
        On unknown keys, repeated keys, or values that do not parse;
        the message carries the offending line number.
    ConfigError
        When the parsed values violate a semantic bound.
    """
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {raw.strip()!r}", line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigParseError(f"unknown key {key!r}", line_no)
        if key in values:
            raise ConfigParseError(f"duplicate key {key!r}", line_no)
        if not value:
            raise ConfigParseError(f"empty value for key {key!r}", line_no)
        try:
            values[key] = _FIELD_TYPES[key](value)
        except ValueError as exc:
            raise ConfigParseError(f"bad value for {key!r}: {exc}", line_no) from None
    return ScenarioConfig(**values)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a UTF-8 config file; an empty or comment-only file yields defaults.

    A file that cannot be read or is not UTF-8 raises `DomainError`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


@dataclass(frozen=True)
class TransmitSetup:
    """Transmit-side quantities fixed for one scenario.

    ``v_a`` is Alice's unit-norm precoder for the confidential stream,
    ``t_a_an`` her artificial-noise projector scaled to unit total power
    (``trace(T T^H) = 1``), ``t_m_an`` Mallory's jamming beams with the
    same normalization, and ``h_m_rsi`` the residual self-interference
    channel at Mallory, drawn once per scenario from i.i.d. CN(0, 1).
    """

    v_a: np.ndarray  # (n_a,)
    t_a_an: np.ndarray  # (n_a, n_a)
    t_m_an: np.ndarray  # (n_m, n_j)
    h_m_rsi: np.ndarray  # (n_m, n_m)


def build_channels(cfg: ScenarioConfig) -> ChannelSet:
    """Instantiate the three LoS links from a config."""
    d, gain = cfg.spacing_over_wavelength, cfg.path_gain
    ab = los_channel(cfg.n_b, cfg.n_a, d, cfg.theta_r_ab_deg, cfg.theta_t_ab_deg, gain(cfg.d_ab_km))
    am = los_channel(cfg.n_m, cfg.n_a, d, cfg.theta_r_am_deg, cfg.theta_t_am_deg, gain(cfg.d_am_km))
    mb = los_channel(cfg.n_b, cfg.n_m, d, cfg.theta_r_mb_deg, cfg.theta_t_mb_deg, gain(cfg.d_mb_km))
    return ChannelSet(ab=ab, am=am, mb=mb)


def _orthonormal_extension(first: np.ndarray, n_cols: int) -> np.ndarray:
    """Orthonormal columns whose first column is exactly ``first``."""
    n = first.shape[0]
    basis = np.column_stack([first, np.eye(n, dtype=np.complex128)])
    q, _ = np.linalg.qr(basis)
    cols = q[:, :n_cols].copy()
    cols[:, 0] = first  # QR may flip the phase of its first column
    return cols


def build_transmit_setup(cfg: ScenarioConfig, channels: ChannelSet) -> TransmitSetup:
    """Precoder, noise projectors and the RSI draw for one scenario."""
    v_a = channels.ab.tx_steering.copy()

    proj = null_projector(channels.ab.tx_steering)
    # trace(P P^H) = rank for an orthogonal projector: n_a - 1 here
    power = float(np.vdot(proj, proj).real)
    if power > 1e-12:
        t_a_an = proj / np.sqrt(power)
    else:
        t_a_an = np.zeros_like(proj)  # single-antenna Alice: no AN dimension

    beams = _orthonormal_extension(channels.mb.tx_steering, cfg.n_j)
    t_m_an = beams / np.sqrt(cfg.n_j)

    rng = np.random.default_rng(cfg.rng_seed)
    shape = (cfg.n_m, cfg.n_m)  # i.i.d. CN(0, 1): real parts first, then imaginary
    h_m_rsi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return TransmitSetup(v_a=v_a, t_a_an=t_a_an, t_m_an=t_m_an, h_m_rsi=h_m_rsi)


@dataclass(frozen=True)
class Term:
    """One covariance term ``coef V V^H``, kept as its power ``coef`` >= 0
    and thin factor ``V`` (n x k) only (see `term_matrix`).  The rates read
    ``w^H (coef V V^H) w`` as ``coef |V^H w|^2``, which cannot cancel."""

    coef: np.float64 | np.ndarray
    factor: np.ndarray


def term_matrix(term: Term, fc: FlopCounter | None = None) -> np.ndarray:
    """The matrix ``coef V V^H`` of ``term``, made Hermitian, or of each
    point of a stacked term, charged to ``fc``: the one rule, so a matrix
    has the same bits wherever it is formed.  ``V V^H`` is a matmul, but
    for one column, which is multiplied elementwise as ``np.outer`` does."""
    fc, v = fc or FlopCounter(), term.factor
    one = v.shape[-1] == 1
    gram = fc.outer(v[..., 0], v[..., 0]) if one else fc.matmul(v, v.conj().swapaxes(-1, -2))
    fc.scalar(6 * v.shape[-2] ** 2)  # the Hermitian part: two scalings and an add
    return hermitian_part(fc.scale(term.coef[..., None, None], gram))


def noise_covariance(
    terms: tuple[Term, ...], sigma2: float | np.ndarray, field: str, fc: FlopCounter | None = None
) -> np.ndarray:
    """Every receiver's interference-plus-noise covariance ``sum term_matrix(t)
    + sigma2 I`` (of each point of a stack), charged to ``fc``; a sum past
    the float maximum is refused by a `ConfigError` naming ``field``."""
    fc, n = fc or FlopCounter(), terms[0].factor.shape[-2]
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name, not warned about
        total = functools.reduce(fc.add, (term_matrix(t, fc) for t in terms))
        cov = fc.add(total, fc.scale(np.asarray(sigma2)[..., None, None], np.eye(n)))
    if not np.isfinite(cov).all():
        raise ConfigError(field, "makes an interference-plus-noise covariance that is not finite")
    return cov


@dataclass(frozen=True)
class CovarianceSet:
    """The received signal model, built here and only here: no other
    module forms a coefficient or a factor again.

    At Bob, ``a`` is the stream, ``g_ab beta1 p_a`` on ``u = H_ab v_a``;
    ``b`` the artificial noise (nulled, so zero), ``g_ab (1 - beta1) p_a``,
    and ``d`` the jamming, ``g_mb p_m``, each on the one column spanning
    ``H_ab T_a`` or ``H_mb T_m`` (see `_fixed_terms`).  At Mallory, ``e``
    is the stream, ``g_am beta1 p_a`` on ``H_am v_a``; ``f`` the artificial
    noise, ``g_am (1 - beta1) p_a`` on the one column spanning ``H_am T_a``;
    ``r_m`` the residual self-interference, ``rho p_m`` on ``H_rsi^H T_m``,
    one column per beam.  The one matrix is ``c_nbar = b + d + sigma_b2 I``
    (the model's ``sigma_b2 I + kappa h h^H``), by `noise_covariance`.
    """

    a: Term
    b: Term
    d: Term
    e: Term
    f: Term
    r_m: Term
    c_nbar: np.ndarray


def _term(power_field: str, coef: float, factor: np.ndarray) -> Term:
    """The term ``coef V V^H`` of ``V``: one link's column, or ``r_m``'s
    column per beam.  A `ConfigError` naming ``power_field`` refuses a power or
    matrix that left the float range; the matrix is formed for that only."""
    term = Term(np.float64(coef), factor if factor.ndim == 2 else factor[:, None])
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name, not warned about
        finite = math.isfinite(coef) and np.isfinite(term_matrix(term)).all()
    if not finite:
        raise ConfigError(power_field, f"makes a covariance term (power {coef}) that is not finite")
    return term


def _fixed_terms(
    cfg: ScenarioConfig, channels: ChannelSet, setup: TransmitSetup
) -> dict[str, Term | np.ndarray]:
    """The `CovarianceSet` terms that depend on neither noise power nor
    ``p_m_watt`` (``a``, ``b``, ``e``, ``f``), and the factors ``jam_b``
    (one column) and ``rsi`` (n_m x n_j) of ``d`` and ``r_m``.  A link is
    applied as ``h_rx (h_tx^H x)``, so ``H T`` has the one-column factor
    ``h_rx |T^H h_tx|``: ``b``'s, ``f``'s and ``d``'s.  Coefficients are
    products of Python floats, which do not warn where they overflow."""
    ab, am, mb = channels.ab, channels.am, channels.mb
    beta1, p_a = cfg.beta1, cfg.p_a_watt

    def span(link: LosChannel, t: np.ndarray) -> np.ndarray:
        return link.rx_steering * vector_norm(np.vecmat(link.tx_steering, t))
    u = ab.rx_steering * np.vecdot(ab.tx_steering, setup.v_a)  # Bob-side signal signature
    e_vec = am.rx_steering * np.vecdot(am.tx_steering, setup.v_a)
    return {
        "a": _term("p_a_watt", ab.gain * beta1 * p_a, u),
        "b": _term("p_a_watt", ab.gain * (1.0 - beta1) * p_a, span(ab, setup.t_a_an)),
        "e": _term("p_a_watt", am.gain * beta1 * p_a, e_vec),
        "f": _term("p_a_watt", am.gain * (1.0 - beta1) * p_a, span(am, setup.t_a_an)),
        "jam_b": span(mb, setup.t_m_an),
        "rsi": setup.h_m_rsi.conj().T @ setup.t_m_an,
    }


#: The per-point fields of a `Scene`, read from its config; its powers
#: are the coefficients of its covariance terms.
_POINT_FIELDS = ("sigma_b2_watt", "sigma_m2_watt")


@dataclass(frozen=True, eq=False)  # no equality: the fields are arrays
class Scene:
    """Everything derived from one config at one operating point, or a
    stack of such scenes of one array size (see `stack_scenes`).

    A one-point scene holds its config in ``cfg`` and the config's values
    of `_POINT_FIELDS` as numpy scalars.  A stack of P points has no
    ``cfg``; each array of ``channels``, ``v_a`` (Alice's precoder) and
    ``cov`` gains a leading point axis, and each link's ``gain``, each
    term's ``coef`` and each per-point field is a ``(P,)`` array.  The
    arrays may be shared; do not edit them in place.
    """

    channels: ChannelSet
    v_a: np.ndarray
    cov: CovarianceSet
    sigma_b2_watt: np.float64 | np.ndarray
    sigma_m2_watt: np.float64 | np.ndarray
    cfg: ScenarioConfig | None = None

    n_b = property(lambda self: self.cov.c_nbar.shape[-1])
    n_m = property(lambda self: self.cov.e.factor.shape[-2])
    n_j = property(lambda self: self.cov.r_m.factor.shape[-1])

    def __len__(self) -> int:
        return self.sigma_b2_watt.size  # 1 for a one-point scene


def _stacked(parts: list) -> object:
    """``parts`` (arrays, numbers, or dataclasses of them, all of one
    structure) stacked on a new leading axis."""
    first = parts[0]
    if isinstance(first, np.ndarray):
        if all(p is first for p in parts):  # one array the scenes share: a view
            return np.broadcast_to(first, (len(parts), *first.shape))
        return np.stack(parts)
    if is_dataclass(first):
        return type(first)(*[_stacked([getattr(p, f.name) for p in parts]) for f in fields(first)])
    return np.array(parts, dtype=np.float64)


def stack_scenes(scenes: typing.Sequence[Scene]) -> Scene:
    """One-point scenes stacked on a leading point axis: a `Scene` of
    ``len(scenes)`` points and no ``cfg``.

    Raises `DimensionError` unless there is at least one scene and all
    have one point and the same array sizes and number of jamming beams.
    """
    scenes = tuple(scenes)
    sizes = {(s.v_a.shape[-1], s.n_b, s.n_m, s.n_j) for s in scenes}
    if len(sizes) != 1 or any(s.sigma_b2_watt.ndim for s in scenes):
        raise DimensionError(
            "a scene stack needs one or more scenes of one size and one point each, "
            f"got sizes {sorted(sizes)}"
        )
    return Scene(
        *(_stacked([getattr(s, f.name) for s in scenes]) for f in fields(Scene) if f.name != "cfg")
    )


#: The fields that the memoized part of a scene depends on: all but the
#: noise powers and the jamming power.
_MEMO_FIELDS = tuple(
    name
    for name in _FIELD_TYPES
    if name not in ("sigma_b2_watt", "sigma_m2_watt", "p_m_watt")
)


@dataclass(frozen=True)
class _MemoKey:
    """Memo key of `build_scene`: the ``repr`` of every field in `_MEMO_FIELDS`.

    ``repr`` tells ``-0.0`` from ``0.0``, which compare equal but need not
    give the same bits downstream.  ``cfg`` is not compared; it is the config
    the memoized part is built from on a miss.
    """

    reprs: tuple[str, ...]
    cfg: ScenarioConfig = field(compare=False)


def _freeze(*parts: object) -> None:
    """Make every array in ``parts`` (nested dataclasses and dicts) read-only."""
    for part in parts:
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
        elif isinstance(part, dict):
            _freeze(*part.values())
        elif is_dataclass(part):
            _freeze(*(getattr(part, f.name) for f in fields(part)))


# An SNR sweep varies the noise and a jamming sweep the jamming power at
# one geometry, so one entry serves a whole sweep; a few more let
# alternating geometries (several array sizes) stay cached without holding
# many n^2 arrays.
@functools.lru_cache(maxsize=4)
def _noise_free_scene(
    key: _MemoKey,
) -> tuple[ChannelSet, np.ndarray, dict[str, Term | np.ndarray]]:
    channels = build_channels(key.cfg)
    setup = build_transmit_setup(key.cfg, channels)
    fixed = _fixed_terms(key.cfg, channels, setup)
    _freeze(channels, setup.v_a, fixed)
    return channels, setup.v_a, fixed


@functools.lru_cache(maxsize=4)
def _jamming_terms(key: _MemoKey, p_m_repr: str) -> tuple[Term, Term]:
    """The jamming ``d`` at Bob and the residual self-interference ``r_m``
    at Mallory of ``key.cfg``, whose ``p_m_watt`` has the ``repr``
    ``p_m_repr``: scenes that differ only in their noise share them."""
    cfg, (channels, _, fixed) = key.cfg, _noise_free_scene(key)
    d = _term("p_m_watt", channels.mb.gain * cfg.p_m_watt, fixed["jam_b"])
    return d, _term("rho", cfg.rho * cfg.p_m_watt, fixed["rsi"])


def build_scene(cfg: ScenarioConfig) -> Scene:
    """The scene of one config; its ``cov.c_nbar`` is `noise_covariance`
    of ``b`` and ``d``, one column each, charged to no method.

    Only ``cov.c_nbar`` depends on the noise powers, and only ``cov.d``,
    ``cov.r_m`` and ``cov.c_nbar`` on the jamming power.  The channels,
    ``v_a`` and the other covariance terms are built once per config that
    differs in neither and shared, read-only, by every scene built from
    it, and so are ``d`` and ``r_m`` by scenes that differ only in their
    noise.  A scene keeps none of `build_transmit_setup`'s n x n matrices.
    """
    key = _MemoKey(tuple(repr(getattr(cfg, name)) for name in _MEMO_FIELDS), cfg)
    channels, v_a, fixed = _noise_free_scene(key)
    d, r_m = _jamming_terms(key, repr(cfg.p_m_watt))
    c_nbar = noise_covariance((fixed["b"], d), cfg.sigma_b2_watt, "sigma_b2_watt")
    cov = CovarianceSet(**{k: fixed[k] for k in "abef"}, d=d, r_m=r_m, c_nbar=c_nbar)
    point = (np.float64(getattr(cfg, name)) for name in _POINT_FIELDS)
    return Scene(channels, v_a, cov, *point, cfg)
