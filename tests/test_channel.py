"""Steering vectors, line-of-sight channels, path gain, projectors."""

import cmath
import math

import numpy as np
import pytest

import dmrbf
from dmrbf import DomainError, ScenarioConfig, build_channels
from dmrbf.channel import los_channel, null_projector, steering

from conftest import config_with, link_matrix


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
        got = steering(n, spacing, angle)
        assert np.allclose(got, steering_oracle(n, angle, spacing), atol=1e-14)


def test_steering_unit_norm():
    rng = np.random.default_rng(202)
    for _ in range(300):
        n = int(rng.integers(1, 33))
        v = steering(n, 0.5, float(rng.uniform(0.0, 180.0)))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_steering_broadside_is_real():
    # cos(90 deg) = 0, so every phase vanishes
    v = steering(4, 0.5, 90.0)
    assert np.allclose(v, np.full(4, 0.5), atol=1e-15)


def test_steering_mirror_angles_conjugate():
    rng = np.random.default_rng(203)
    for _ in range(50):
        n = int(rng.integers(1, 17))
        angle = float(rng.uniform(0.0, 90.0))
        a = steering(n, 0.5, angle)
        b = steering(n, 0.5, 180.0 - angle)
        assert np.allclose(b, a.conj(), atol=1e-13)


def test_los_channel_rank_one_unit_frobenius():
    rng = np.random.default_rng(204)
    for _ in range(50):
        n_r = int(rng.integers(1, 9))
        n_t = int(rng.integers(1, 9))
        ch = los_channel(
            rx_angle_deg=float(rng.uniform(0, 180)),
            tx_angle_deg=float(rng.uniform(0, 180)),
            gain=float(10.0 ** rng.uniform(-3, 0)),
            n_rx=n_r,
            n_tx=n_t,
            spacing_over_wavelength=0.5,
        )
        assert ch.rx_steering.shape == (n_r,) and ch.tx_steering.shape == (n_t,)
        matrix = link_matrix(ch)
        assert abs(np.linalg.norm(matrix) - 1.0) <= 1e-12
        sv = np.linalg.svd(matrix, compute_uv=False)
        assert sv[0] >= 1.0 - 1e-12
        if min(n_r, n_t) > 1:
            assert sv[1] <= 1e-12


def test_path_gain_values_and_checks():
    cfg = ScenarioConfig()  # path_alpha 1, path_exponent 2
    assert cfg.path_gain(1.0) == 1.0
    assert cfg.path_gain(4.0) == pytest.approx(1 / 16, rel=1e-15)
    assert config_with(path_alpha=2.0, path_exponent=3.0).path_gain(2.0) == pytest.approx(
        0.25, rel=1e-15
    )
    with pytest.raises(DomainError):
        cfg.path_gain(0.0)
    # distance ** exponent leaving the float range is a domain error,
    # not a bare ZeroDivisionError or OverflowError
    with pytest.raises(DomainError, match="distance 1e-200 km"):
        cfg.path_gain(1e-200)
    steep = config_with(path_exponent=1e300, d_am_km=1.0, d_mb_km=1.0)  # every gain is 1
    with pytest.raises(DomainError, match="distance 4.0 km"):
        steep.path_gain(4.0)
    # an int no float holds, or a string, is refused by name, not raised bare
    with pytest.raises(DomainError, match="^distance_km must fit in a float, got an int of 16610 bits$"):
        cfg.path_gain(-(10**5000))
    with pytest.raises(DomainError, match="^distance_km must be of type float, got 'x'$"):
        cfg.path_gain("x")


def test_build_channels_uses_config_geometry():
    cfg = config_with(n_a=8, n_b=4, n_m=2, n_j=1, d_ab_km=2.0)
    chans = build_channels(cfg)
    assert link_matrix(chans.ab).shape == (4, 8)
    assert link_matrix(chans.am).shape == (2, 8)
    assert link_matrix(chans.mb).shape == (4, 2)
    assert chans.ab.gain == pytest.approx(cfg.path_gain(2.0), rel=1e-15)


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
        assert np.linalg.norm(link_matrix(ch) @ proj) <= 1e-12


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
        assert np.linalg.norm(proj @ link_matrix(ch)) <= 1e-12


def test_star_import_binds_the_public_names_only():
    namespace: dict = {}
    exec("from dmrbf import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(dmrbf.__all__)
    # of the channel layer, only the types of `Scene.channels` are public
    layer = vars(dmrbf.channel).items()
    own = {n for n, v in layer if getattr(v, "__module__", "") == "dmrbf.channel"}
    assert own & namespace.keys() == {"ChannelSet", "LosChannel"}
