"""Receive beamforming for directional-modulation networks under jamming.

A simulation library and CLI that builds the legitimate, eavesdropping
and jamming links of a three-node network, computes six receive
beamformers at the legitimate receiver, and compares them by secrecy
rate, Monte-Carlo bit error rate and computational cost.
"""

from .beamformers import (
    Beamformer,
    METHOD_LABELS,
    Method,
    RECEIVE_METHODS,
    compute,
    mallory_receiver,
    whitening_filter,
)
from .ber import (
    BerRun,
    PerformanceReport,
    point_rng,
    qpsk_awgn_ber,
    sweep,
    wilson_interval,
)
from .channel import ChannelSet, LosChannel
from .complexity import formula_flops
from .counting import FlopCounter
from .errors import (
    ConditioningError,
    ConfigError,
    ConfigParseError,
    DegenerateChannelError,
    DegenerateGeometryError,
    DimensionError,
    DmrbfError,
    DomainError,
    NumericalError,
    UnsupportedScenarioError,
)
from .linalg import HermitianEvd, hermitian_evd, inv_hpd
from .metrics import (
    RatePoint,
    rate_point,
    sigma2_for_snr_db,
    sinr_bob,
    sinr_mallory,
)
from .scenario import (
    CovarianceSet,
    Scene,
    ScenarioConfig,
    TransmitSetup,
    build_channels,
    build_scene,
    build_transmit_setup,
    load_config,
    parse_config,
    serialize_config,
    stack_scenes,
)

__version__ = "0.1.0"

__all__ = [
    "Beamformer",
    "BerRun",
    "ChannelSet",
    "ConditioningError",
    "ConfigError",
    "ConfigParseError",
    "CovarianceSet",
    "DegenerateChannelError",
    "DegenerateGeometryError",
    "DimensionError",
    "DmrbfError",
    "DomainError",
    "FlopCounter",
    "HermitianEvd",
    "LosChannel",
    "METHOD_LABELS",
    "Method",
    "NumericalError",
    "PerformanceReport",
    "RECEIVE_METHODS",
    "RatePoint",
    "Scene",
    "ScenarioConfig",
    "TransmitSetup",
    "UnsupportedScenarioError",
    "build_channels",
    "build_scene",
    "build_transmit_setup",
    "compute",
    "formula_flops",
    "hermitian_evd",
    "inv_hpd",
    "load_config",
    "mallory_receiver",
    "parse_config",
    "point_rng",
    "qpsk_awgn_ber",
    "rate_point",
    "serialize_config",
    "sigma2_for_snr_db",
    "sinr_bob",
    "sinr_mallory",
    "stack_scenes",
    "sweep",
    "whitening_filter",
    "wilson_interval",
]
