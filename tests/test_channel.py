"""Steering vectors, line-of-sight channels, path loss, projectors."""

import cmath
import math

import numpy as np
import pytest

from dmrbf import (
    ArrayGeometry,
    DomainError,
    PathLoss,
    build_channels,
    los_channel,
    null_projector,
    steering,
)

from conftest import config_with


def steering_oracle(n: int, angle_deg: float, spacing: float) -> np.ndarray:
    """Scalar reference: one cmath.exp per element, no vectorization."""
    out = np.empty(n, dtype=complex)
    for idx in range(n):
        elem = idx + 1
        psi = -(elem - (n + 1) / 2) * spacing * math.cos(math.radians(angle_deg))
        out[idx] = cmath.exp(1j * 2 * math.pi * psi) / math.sqrt(n)
    return out


def test_steering_matches_scalar_oracle():
    rng = np.random.default_rng(201)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        angle = float(rng.uniform(0.0, 180.0))
        spacing = float(rng.uniform(0.05, 1.0))
        got = steering(ArrayGeometry(n, spacing), angle)
        assert np.allclose(got, steering_oracle(n, angle, spacing), atol=1e-14)


def test_steering_unit_norm():
    rng = np.random.default_rng(202)
    for _ in range(300):
        n = int(rng.integers(1, 33))
        v = steering(ArrayGeometry(n), float(rng.uniform(0.0, 180.0)))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_steering_broadside_is_real():
    # cos(90 deg) = 0, so every phase vanishes
    v = steering(ArrayGeometry(4), 90.0)
    assert np.allclose(v, np.full(4, 0.5), atol=1e-15)


def test_steering_mirror_angles_conjugate():
    rng = np.random.default_rng(203)
    for _ in range(50):
        n = int(rng.integers(1, 17))
        angle = float(rng.uniform(0.0, 90.0))
        a = steering(ArrayGeometry(n), angle)
        b = steering(ArrayGeometry(n), 180.0 - angle)
        assert np.allclose(b, a.conj(), atol=1e-13)


def test_steering_domain_checks():
    with pytest.raises(DomainError):
        steering(ArrayGeometry(4), -0.5)
    with pytest.raises(DomainError):
        steering(ArrayGeometry(4), 180.5)
    with pytest.raises(DomainError):
        ArrayGeometry(0)
    with pytest.raises(DomainError):
        ArrayGeometry(4, 0.0)


def test_los_channel_rank_one_unit_frobenius():
    rng = np.random.default_rng(204)
    for _ in range(50):
        n_r = int(rng.integers(1, 9))
        n_t = int(rng.integers(1, 9))
        ch = los_channel(
            rx_angle_deg=float(rng.uniform(0, 180)),
            tx_angle_deg=float(rng.uniform(0, 180)),
            gain=float(10.0 ** rng.uniform(-3, 0)),
            rx_geometry=ArrayGeometry(n_r),
            tx_geometry=ArrayGeometry(n_t),
        )
        assert ch.matrix.shape == (n_r, n_t)
        assert abs(np.linalg.norm(ch.matrix) - 1.0) <= 1e-12
        sv = np.linalg.svd(ch.matrix, compute_uv=False)
        assert sv[0] >= 1.0 - 1e-12
        if min(n_r, n_t) > 1:
            assert sv[1] <= 1e-12
        ref = np.outer(ch.rx_steering, ch.tx_steering.conj())
        assert np.allclose(ch.matrix, ref, atol=1e-14)


def test_path_loss_values_and_checks():
    pl = PathLoss(alpha_ref=1.0, exponent=2.0)
    assert pl.gain(1.0) == 1.0
    assert pl.gain(4.0) == pytest.approx(1 / 16, rel=1e-15)
    assert PathLoss(2.0, 3.0).gain(2.0) == pytest.approx(0.25, rel=1e-15)
    with pytest.raises(DomainError):
        pl.gain(0.0)
    with pytest.raises(DomainError):
        PathLoss(-1.0, 2.0)
    # distance ** exponent leaving the float range is a domain error,
    # not a bare ZeroDivisionError or OverflowError
    with pytest.raises(DomainError, match="distance 1e-200 km"):
        pl.gain(1e-200)
    with pytest.raises(DomainError, match="distance 4.0 km"):
        PathLoss(1.0, 1e300).gain(4.0)


def test_build_channels_uses_config_geometry():
    cfg = config_with(n_a=8, n_b=4, n_m=2, n_j=1, d_ab_km=2.0)
    chans = build_channels(cfg)
    assert chans.ab.matrix.shape == (4, 8)
    assert chans.am.matrix.shape == (2, 8)
    assert chans.mb.matrix.shape == (4, 2)
    assert chans.ab.gain == pytest.approx(cfg.path_loss.gain(2.0), rel=1e-15)


def _assert_orthogonal_projector(proj: np.ndarray, a: np.ndarray) -> None:
    assert np.linalg.norm(proj @ proj - proj) <= 1e-12
    assert np.linalg.norm(proj - proj.conj().T) <= 1e-13
    assert np.linalg.norm(proj @ a) <= 1e-12
    assert np.trace(proj).real == pytest.approx(a.size - 1, abs=1e-12)


def test_null_projector_of_alice_transmit_steering():
    rng = np.random.default_rng(205)
    for _ in range(30):
        cfg = config_with(
            theta_t_ab_deg=float(rng.uniform(0, 180)),
            theta_r_ab_deg=float(rng.uniform(0, 180)),
        )
        ch = build_channels(cfg).ab
        proj = null_projector(ch.tx_steering)
        _assert_orthogonal_projector(proj, ch.tx_steering)
        # artificial noise sent through the projector never reaches Bob
        assert np.linalg.norm(ch.matrix @ proj) <= 1e-12


def test_null_projector_of_bob_jamming_steering():
    rng = np.random.default_rng(206)
    for _ in range(30):
        cfg = config_with(
            theta_t_mb_deg=float(rng.uniform(0, 180)),
            theta_r_mb_deg=float(rng.uniform(0, 180)),
        )
        ch = build_channels(cfg).mb
        proj = null_projector(ch.rx_steering)
        _assert_orthogonal_projector(proj, ch.rx_steering)
        # weights in the projector's range never see the jamming link
        assert np.linalg.norm(proj @ ch.matrix) <= 1e-12
