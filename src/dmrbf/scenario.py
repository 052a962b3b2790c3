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

import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import (
    ArrayGeometry,
    ChannelSet,
    PathLoss,
    los_channel,
    null_projector,
)
from .errors import ConfigError, ConfigParseError, DomainError
from .linalg import hermitian_part


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
            if kind is float and not math.isfinite(value):
                raise ConfigError(name, f"must be finite, got {value}")
        for name in ("n_a", "n_b", "n_m"):
            if getattr(self, name) < 1:
                raise ConfigError(name, f"must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.n_j <= self.n_m - 1:
            raise ConfigError(
                "n_j",
                f"must lie in {{1, ..., n_m - 1}} = {{1, ..., {self.n_m - 1}}}, "
                f"got {self.n_j}",
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
                self.path_loss.gain(getattr(self, name))
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
            raise ConfigError("rng_seed", f"must be >= 0, got {self.rng_seed}")

    @property
    def path_loss(self) -> PathLoss:
        return PathLoss(alpha_ref=self.path_alpha, exponent=self.path_exponent)


#: Field name -> declared type (int, float or str), in declaration order.
_FIELD_TYPES: dict[str, type] = typing.get_type_hints(ScenarioConfig)


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
    """Read a config file; an empty or comment-only file yields defaults."""
    return parse_config(Path(path).read_text())


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


def complex_normal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """``rows x cols`` i.i.d. CN(0, 1) draws: real parts first, then imaginary."""
    shape = (rows, cols)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def build_channels(cfg: ScenarioConfig) -> ChannelSet:
    """Instantiate the three LoS links from a config."""
    geom_a = ArrayGeometry(cfg.n_a, cfg.spacing_over_wavelength)
    geom_b = ArrayGeometry(cfg.n_b, cfg.spacing_over_wavelength)
    geom_m = ArrayGeometry(cfg.n_m, cfg.spacing_over_wavelength)
    loss = cfg.path_loss
    ab = los_channel(geom_b, geom_a, cfg.theta_r_ab_deg, cfg.theta_t_ab_deg, loss.gain(cfg.d_ab_km))
    am = los_channel(geom_m, geom_a, cfg.theta_r_am_deg, cfg.theta_t_am_deg, loss.gain(cfg.d_am_km))
    mb = los_channel(geom_b, geom_m, cfg.theta_r_mb_deg, cfg.theta_t_mb_deg, loss.gain(cfg.d_mb_km))
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
    power = float(np.real(np.trace(proj @ proj.conj().T)))
    if power > 1e-12:
        t_a_an = proj / np.sqrt(power)
    else:
        t_a_an = np.zeros_like(proj)  # single-antenna Alice: no AN dimension

    beams = _orthonormal_extension(channels.mb.tx_steering, cfg.n_j)
    t_m_an = beams / np.sqrt(cfg.n_j)

    h_m_rsi = complex_normal(np.random.default_rng(cfg.rng_seed), cfg.n_m, cfg.n_m)
    return TransmitSetup(v_a=v_a, t_a_an=t_a_an, t_m_an=t_m_an, h_m_rsi=h_m_rsi)


@dataclass(frozen=True)
class CovarianceSet:
    """Receive-side covariance terms shared by the beamformers and rates.

    At Bob: ``a`` is the confidential-signal term, ``b`` the (projected,
    hence zero-power) artificial noise leakage, ``d`` the jamming term and
    ``c_nbar = b + d + sigma_b2 * I`` the full interference-plus-noise
    covariance.  At Mallory: ``e`` is the intercepted signal term, ``f``
    the artificial-noise term and ``r_m`` the residual self-interference.
    """

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    e: np.ndarray
    f: np.ndarray
    r_m: np.ndarray
    c_nbar: np.ndarray


def build_covariances(
    cfg: ScenarioConfig, channels: ChannelSet, setup: TransmitSetup
) -> CovarianceSet:
    """Assemble all second-order receive statistics for one scenario."""
    g_ab = channels.ab.gain
    g_am = channels.am.gain
    g_mb = channels.mb.gain

    u = channels.ab.matrix @ setup.v_a  # Bob-side signal signature
    a = hermitian_part(g_ab * cfg.beta1 * cfg.p_a_watt * np.outer(u, u.conj()))

    an_b = channels.ab.matrix @ setup.t_a_an
    b = hermitian_part(g_ab * (1.0 - cfg.beta1) * cfg.p_a_watt * (an_b @ an_b.conj().T))

    jam_b = channels.mb.matrix @ setup.t_m_an
    d = hermitian_part(g_mb * cfg.p_m_watt * (jam_b @ jam_b.conj().T))

    e_vec = channels.am.matrix @ setup.v_a
    e = hermitian_part(g_am * cfg.beta1 * cfg.p_a_watt * np.outer(e_vec, e_vec.conj()))

    an_m = channels.am.matrix @ setup.t_a_an
    f = hermitian_part(g_am * (1.0 - cfg.beta1) * cfg.p_a_watt * (an_m @ an_m.conj().T))

    rsi = setup.h_m_rsi.conj().T @ setup.t_m_an
    r_m = hermitian_part(cfg.rho * cfg.p_m_watt * (rsi @ rsi.conj().T))

    c_nbar = b + d + cfg.sigma_b2_watt * np.eye(cfg.n_b)
    return CovarianceSet(a=a, b=b, d=d, e=e, f=f, r_m=r_m, c_nbar=c_nbar)


@dataclass(frozen=True)
class Scene:
    """Everything derived from one config at one operating point."""

    cfg: ScenarioConfig
    channels: ChannelSet
    setup: TransmitSetup
    cov: CovarianceSet

    @property
    def bob_signal_vector(self) -> np.ndarray:
        """Signature of the confidential stream at Bob's array."""
        return self.channels.ab.matrix @ self.setup.v_a


def build_scene(cfg: ScenarioConfig) -> Scene:
    channels = build_channels(cfg)
    setup = build_transmit_setup(cfg, channels)
    cov = build_covariances(cfg, channels, setup)
    return Scene(cfg=cfg, channels=channels, setup=setup, cov=cov)
