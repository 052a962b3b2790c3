"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np

from dmrbf import ArrayGeometry, ScenarioConfig, steering


def loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def random_config(rng: np.random.Generator, sizes=(2, 4, 8)) -> ScenarioConfig:
    """Random but well-posed scenario.

    beta1 stays in [0.55, 0.95] so every denominator in the rank-one update
    chain is bounded away from zero (the L-level one is proportional to
    sigma^2 + g*(2*beta1 - 1)*P_A, positive whenever beta1 > 1/2), and the
    desired and jamming receive signatures at Bob are re-drawn until they are
    not nearly collinear, which would starve the null-space projection.
    """
    n_a = int(rng.choice(sizes))
    n_b = int(rng.choice(sizes))
    n_m = int(rng.choice(sizes))
    while True:
        theta_r_ab = float(rng.uniform(5.0, 175.0))
        theta_r_mb = float(rng.uniform(5.0, 175.0))
        h_sig = steering(ArrayGeometry(n_b), theta_r_ab)
        h_jam = steering(ArrayGeometry(n_b), theta_r_mb)
        if abs(np.vdot(h_jam, h_sig)) < 0.99:
            break
    return ScenarioConfig(
        n_a=n_a,
        n_b=n_b,
        n_m=n_m,
        n_j=1,
        p_a_watt=loguniform(rng, 0.1, 100.0),
        p_m_watt=loguniform(rng, 0.01, 1000.0),
        beta1=float(rng.uniform(0.55, 0.95)),
        rho=loguniform(rng, 1e-13, 1e-9),
        sigma_b2_watt=loguniform(rng, 0.01, 10.0),
        sigma_m2_watt=loguniform(rng, 0.01, 10.0),
        theta_t_ab_deg=float(rng.uniform(5.0, 175.0)),
        theta_r_ab_deg=theta_r_ab,
        theta_t_am_deg=float(rng.uniform(5.0, 175.0)),
        theta_r_am_deg=float(rng.uniform(5.0, 175.0)),
        theta_t_mb_deg=float(rng.uniform(5.0, 175.0)),
        theta_r_mb_deg=theta_r_mb,
        d_ab_km=float(rng.uniform(0.5, 5.0)),
        d_am_km=float(rng.uniform(0.5, 5.0)),
        d_mb_km=float(rng.uniform(0.5, 5.0)),
        rng_seed=int(rng.integers(0, 2**31 - 1)),
    )


def config_with(**overrides) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), **overrides)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def random_hpd(rng: np.random.Generator, n: int, cond: float = 100.0) -> np.ndarray:
    """Hermitian positive definite with eigenvalues spanning [1/cond, 1]."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    lam = 10.0 ** np.linspace(-np.log10(cond), 0.0, n)
    m = (q * lam) @ q.conj().T
    return (m + m.conj().T) / 2
