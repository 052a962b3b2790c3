"""Steering vectors and line-of-sight channels of uniform linear arrays.

Internal to the package: every array size, spacing, angle and path gain
these functions take comes from a checked `ScenarioConfig`, so they
check none of them again.  Angles are measured in degrees from the array
axis (broadside at 90) and spacings in carrier wavelengths.

A line-of-sight link is rank one: the normalized channel matrix is the
outer product ``h_rx h_tx^H`` of the receive and transmit steering
vectors, and the large scale power gain is kept as a separate scalar.  No
matrix is formed: a link is applied to a transmit vector ``x`` as
``h_rx (h_tx^H x)``, an inner product and a scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LosChannel:
    """Rank-one LoS link ``H = rx_steering tx_steering^H``, of unit
    Frobenius norm, kept as its two steering vectors: it maps a transmit
    vector ``s`` to ``rx_steering * (tx_steering^H s)``.  ``gain`` carries
    the path power gain separately, so the received signal is
    ``sqrt(gain) H s``.
    """

    gain: float
    rx_steering: np.ndarray  # (n_rx,) unit-norm
    tx_steering: np.ndarray  # (n_tx,) unit-norm


def steering(n: int, spacing_over_wavelength: float, angle_deg: float) -> np.ndarray:
    """Response of an ``n``-element ULA toward ``angle_deg``.

    Element k (1-based) carries phase ``2*pi*psi(k)`` with
    ``psi(k) = -(k - (n+1)/2) * (d/lambda) * cos(angle)``; the vector is
    scaled by ``1/sqrt(n)`` so its Euclidean norm is exactly one.
    """
    idx = np.arange(1, n + 1, dtype=np.float64)
    psi = -(idx - (n + 1) / 2.0) * spacing_over_wavelength * np.cos(np.deg2rad(angle_deg))
    return np.exp(2j * np.pi * psi) / np.sqrt(n)


def los_channel(
    n_rx: int,
    n_tx: int,
    spacing_over_wavelength: float,
    rx_angle_deg: float,
    tx_angle_deg: float,
    gain: float,
) -> LosChannel:
    """Rank-one LoS channel between two ULAs of one element spacing."""
    h_rx = steering(n_rx, spacing_over_wavelength, rx_angle_deg)
    h_tx = steering(n_tx, spacing_over_wavelength, tx_angle_deg)
    return LosChannel(gain=gain, rx_steering=h_rx, tx_steering=h_tx)


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
    along the link.  A stack of vectors ``(..., n)`` gives a stack of
    projectors.
    """
    return np.eye(a.shape[-1]) - a[..., :, None] * a.conj()[..., None, :]
