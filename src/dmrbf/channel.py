"""Uniform linear array geometry, steering vectors and LoS channels.

Angles are measured in degrees from the array axis (broadside at 90) and
must lie in [0, 180]; outside that range the direction is ambiguous for a
linear array, so it is rejected rather than wrapped.

A line-of-sight link is rank one: the normalized channel matrix is the
outer product of the receive and transmit steering vectors, and the large
scale power gain is kept as a separate scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array with spacing given in carrier wavelengths."""

    n_elements: int
    spacing_over_wavelength: float = 0.5

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise DomainError(f"n_elements must be >= 1, got {self.n_elements}")
        if not self.spacing_over_wavelength > 0.0:
            raise DomainError(
                f"spacing_over_wavelength must be > 0, got {self.spacing_over_wavelength}"
            )


@dataclass(frozen=True)
class PathLoss:
    """Power-law path loss ``gain = alpha_ref / distance_km ** exponent``.

    ``alpha_ref`` is the power gain at the 1 km reference distance.
    """

    alpha_ref: float = 1.0
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if not self.alpha_ref > 0.0:
            raise DomainError(f"alpha_ref must be > 0, got {self.alpha_ref}")
        if self.exponent < 0.0:
            raise DomainError(f"exponent must be >= 0, got {self.exponent}")

    def gain(self, distance_km: float) -> float:
        if not distance_km > 0.0:
            raise DomainError(f"distance_km must be > 0, got {distance_km}")
        try:
            g = self.alpha_ref / distance_km**self.exponent
        except (OverflowError, ZeroDivisionError):
            g = math.nan  # distance_km ** exponent left the float range
        if not 0.0 < g < math.inf:
            raise DomainError(
                f"path gain at distance {distance_km} km (exponent {self.exponent}) "
                "is not a positive finite float"
            )
        return g


@dataclass(frozen=True)
class LosChannel:
    """Rank-one LoS link.

    ``matrix`` maps transmit-side vectors to the receive side (apply as
    ``matrix @ s``) and has unit squared Frobenius norm; ``gain`` carries
    the path power gain separately, so the received signal is
    ``sqrt(gain) * matrix @ s``.
    """

    gain: float
    rx_steering: np.ndarray  # (n_rx,) unit-norm
    tx_steering: np.ndarray  # (n_tx,) unit-norm
    matrix: np.ndarray  # (n_rx, n_tx) = rx_steering outer tx_steering^H


def steering(geometry: ArrayGeometry, angle_deg: float) -> np.ndarray:
    """Array response of a ULA toward ``angle_deg``.

    Element n (1-based) carries phase ``2*pi*psi(n)`` with
    ``psi(n) = -(n - (N+1)/2) * (d/lambda) * cos(angle)``; the vector is
    scaled by ``1/sqrt(N)`` so its Euclidean norm is exactly one.
    """
    if not 0.0 <= angle_deg <= 180.0:
        raise DomainError(f"angle_deg must lie in [0, 180], got {angle_deg}")
    n = geometry.n_elements
    idx = np.arange(1, n + 1, dtype=np.float64)
    psi = -(idx - (n + 1) / 2.0) * geometry.spacing_over_wavelength * np.cos(
        np.deg2rad(angle_deg)
    )
    return np.exp(2j * np.pi * psi) / np.sqrt(n)


def los_channel(
    rx_geometry: ArrayGeometry,
    tx_geometry: ArrayGeometry,
    rx_angle_deg: float,
    tx_angle_deg: float,
    gain: float,
) -> LosChannel:
    """Rank-one LoS channel between two ULAs."""
    if not gain > 0.0:
        raise DomainError(f"gain must be > 0, got {gain}")
    h_rx = steering(rx_geometry, rx_angle_deg)
    h_tx = steering(tx_geometry, tx_angle_deg)
    matrix = np.outer(h_rx, h_tx.conj())
    return LosChannel(gain=float(gain), rx_steering=h_rx, tx_steering=h_tx, matrix=matrix)


@dataclass(frozen=True)
class ChannelSet:
    """The three links of the network: legitimate, eavesdrop, jamming."""

    ab: LosChannel  # Alice -> Bob
    am: LosChannel  # Alice -> Mallory
    mb: LosChannel  # Mallory -> Bob


def null_projector(a: np.ndarray) -> np.ndarray:
    """Orthogonal projector ``I - a a^H`` onto the complement of unit ``a``.

    A LoS link is rank one, so with ``a`` its unit transmit steering
    vector this is the null space of the link (artificial noise shaped by
    it arrives with zero power), and with ``a`` its unit receive steering
    vector, weights drawn from its range annihilate anything arriving
    along the link.
    """
    return np.eye(a.shape[0]) - np.outer(a, a.conj())
