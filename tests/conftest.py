"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from dmrbf import Method, ScenarioConfig, point_rng
from dmrbf import ber
from dmrbf.channel import steering


def loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def random_config(rng: np.random.Generator, sizes=(2, 4, 8)) -> ScenarioConfig:
    """Random but well-posed scenario.

    beta1 stays in [0.55, 0.95], so the stream carries most of Alice's power
    (the range every seeded test has drawn its scenes from, kept so they do
    not move), and the desired and jamming receive signatures at Bob are
    re-drawn until they are not nearly collinear, which would starve the
    null-space projection.
    """
    n_a = int(rng.choice(sizes))
    n_b = int(rng.choice(sizes))
    n_m = int(rng.choice(sizes))
    while True:
        theta_r_ab = float(rng.uniform(5.0, 175.0))
        theta_r_mb = float(rng.uniform(5.0, 175.0))
        h_sig = steering(n_b, 0.5, theta_r_ab)
        h_jam = steering(n_b, 0.5, theta_r_mb)
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


def link_matrix(link) -> np.ndarray:
    """The dense n_rx x n_tx matrix ``h_rx h_tx^H`` of a rank-one LoS link."""
    return np.outer(link.rx_steering, link.tx_steering.conj())


def dense_term(term) -> np.ndarray:
    """The matrix ``coef V V^H`` of a covariance term, or of each point of a
    stacked one, formed here from the term's factor and power rather than
    by ``dmrbf``.  The arithmetic is the scene's: ``V V^H`` by a matmul, or
    elementwise for a factor of one column (as ``np.outer`` forms it),
    times the power, then its Hermitian part by halves.  So each term's
    matrix has the scene's bits."""
    v = term.factor
    if v.shape[-1] == 1:
        col = v[..., 0]
        gram = col[..., :, None] * col.conj()[..., None, :]
    else:
        gram = v @ v.conj().swapaxes(-1, -2)
    m = np.asarray(term.coef)[..., None, None] * gram
    return m * 0.5 + m.conj().swapaxes(-1, -2) * 0.5


def closed_form_terms(scene) -> tuple[float, float, float, float]:
    """``(c1, sigma2, kappa, gamma)`` of a one-point scene for
    `closed_form_sinr`: the stream power ``g_ab beta1 p_a``, Bob's noise,
    the jamming power per beam ``g_mb p_m / n_j`` and ``|h_ab^H h_mb|^2``
    for the two receive steering vectors."""
    cfg, ch = scene.cfg, scene.channels
    return (
        ch.ab.gain * cfg.beta1 * cfg.p_a_watt,
        cfg.sigma_b2_watt,
        ch.mb.gain * cfg.p_m_watt / cfg.n_j,
        abs(np.vdot(ch.ab.rx_steering, ch.mb.rx_steering)) ** 2,
    )


def closed_form_sinr(method, c1: float, sigma2: float, kappa: float, gamma: float) -> float:
    """Bob's SINR for ``method`` in the LoS model, where Alice's artificial
    noise is nulled at Bob and only one jamming beam reaches him (derived
    in ``test_closed_form.py``'s docstring); the four optimum methods share
    one value."""
    if method == Method.MRC:
        return c1 / (kappa * gamma + sigma2)
    if method == Method.NSP_WFRP:
        return (c1 / sigma2) * (1.0 - gamma)
    return (c1 / sigma2) * (1.0 - kappa * gamma / (sigma2 + kappa))


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


def fixed_budget_runs(cfg: ScenarioConfig, methods, n_symbols: int, seed: int, index: int = 0):
    """The Monte-Carlo draw at exactly ``n_symbols`` symbols on sweep point
    ``index``'s generator, with ``cfg`` already moved to that point: the
    sweep's own floor of a one-point sweep at the config's ``p_m_watt``.

    A sweep plans each point's budget and may draw fewer; tests of the
    draw itself pin N here.
    """
    (floor,) = ber._floors(cfg, tuple(methods), "p_m_watt", (cfg.p_m_watt,))
    return ber._draw_runs(floor.root, tuple(methods), n_symbols, point_rng(seed, index))


def _log_binom_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided tail of Binomial(n, p) at ``k`` (twice the smaller
    one-sided tail, capped at 1)."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    # the pmf falls monotonically away from the mode, so sum the tail
    # beyond k outward and stop once the terms no longer count
    step = -1 if k <= n * p else 1
    tail, j = 0.0, k
    while 0 <= j <= n:
        term = math.exp(_log_binom_pmf(j, n, p))
        tail += term
        if term < 1e-17 * tail:
            break
        j += step
    return min(1.0, 2.0 * tail)
