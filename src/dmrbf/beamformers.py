"""Receive beamformers for Bob's array, plus the eavesdropper's combiner.

Six ways to combine the array outputs against jamming plus noise,
spanning the cost/performance trade:

* ``mrc``      -- matched filter on the signal signature, ignores jamming.
* ``wfmrc``    -- whiten interference-plus-noise, then matched filter.
* ``max_sr``   -- SINR-optimal eigenbeamformer (rank-one shortcut, no
  general eigensolver).
* ``mmse``     -- conventional MMSE via one direct HPD inverse.
* ``lc_mmse``  -- the same MMSE weights through a five-level chain of
  rank-one inverse updates; no general inverse is ever formed.
* ``nsp_wfrp`` -- project the jamming link out of the array first, then
  whiten what remains and match to the projected signal.

All returned weight vectors are unit norm.  Every builder threads its
arithmetic through a `FlopCounter`, so ``Beamformer.flops`` is the
measured cost of the algorithm that actually ran (given precomputed
covariances; building those is charged to no method).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import null_projector
from .counting import FlopCounter
from .errors import (
    ConditioningError,
    DegenerateChannelError,
    DegenerateGeometryError,
    UnsupportedScenarioError,
    UpdateSingularityError,
)
from .linalg import RANK_RTOL, check_hpd
from .scenario import Scene

_NORM_EPS = 1e-12  # vectors shorter than this cannot be normalized
_SM_DEN_EPS = 1e-12  # rank-one update denominators below this are singular


class Method(str, Enum):
    """Receive beamforming schemes (values double as CLI/CSV names)."""

    MRC = "mrc"
    WFMRC = "wfmrc"
    MAX_SR = "max_sr"
    MMSE = "mmse"
    LC_MMSE = "lc_mmse"
    NSP_WFRP = "nsp_wfrp"
    MALLORY = "mallory"  # the eavesdropper's own combiner, not Bob's


#: Bob's six schemes, in presentation order.
RECEIVE_METHODS: tuple[Method, ...] = (
    Method.MRC,
    Method.WFMRC,
    Method.MAX_SR,
    Method.MMSE,
    Method.LC_MMSE,
    Method.NSP_WFRP,
)

METHOD_LABELS: dict[Method, str] = {
    Method.MRC: "MRC",
    Method.WFMRC: "WF-MRC",
    Method.MAX_SR: "Max-SR",
    Method.MMSE: "MMSE",
    Method.LC_MMSE: "LC-MMSE",
    Method.NSP_WFRP: "NSP-WFRP",
    Method.MALLORY: "eavesdropper",
}


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm receive weights and the measured cost of computing them."""

    method: Method
    weights: np.ndarray
    flops: int


def _unit(fc: FlopCounter, x: np.ndarray, err: Exception) -> np.ndarray:
    nrm = fc.norm(x)
    if not _NORM_EPS < nrm < math.inf:  # also refuses a NaN norm
        raise err
    fc.scalar()  # reciprocal
    return fc.rscale(1.0 / nrm, x)


def whitening_filter(c_nbar: np.ndarray, fc: FlopCounter | None = None) -> np.ndarray:
    """Whitening transform ``W`` with ``W @ c_nbar @ W^H = I``.

    Built as ``diag(eigenvalues)**-0.5 @ Q^H`` from the eigendecomposition
    of the (positive definite) interference-plus-noise covariance.
    """
    fc = fc or FlopCounter()
    evd = fc.evd(c_nbar)
    check_hpd(evd, "interference-plus-noise covariance")
    return fc.row_rescale(1.0 / np.sqrt(evd.eigenvalues), evd.eigenvectors.conj().T)


def _inv_sqrt(fc: FlopCounter, c: np.ndarray, what: str) -> np.ndarray:
    """Hermitian ``c**-0.5`` assembled from the EVD (counted)."""
    evd = fc.evd(c)
    check_hpd(evd, what)
    half = fc.col_rescale(evd.eigenvectors, 1.0 / np.sqrt(evd.eigenvalues))
    return fc.matmul(half, evd.eigenvectors.conj().T)


def _whiten_match(
    fc: FlopCounter, sig: np.ndarray, cov: np.ndarray, power: float, what: str
) -> np.ndarray:
    """Max-SINR direction for the rank-one signal ``power * sig sig^H`` in
    the interference-plus-noise ``cov`` (named ``what`` in errors).

    Whitening by ``cov**-0.5`` leaves a rank-one signal covariance, so its
    dominant eigenvector is written down directly as ``a / ||a||`` instead
    of calling a general eigensolver; ``cov**-0.5`` lifts it back.
    """
    s = _inv_sqrt(fc, cov, what)
    fc.scalar(3)
    a = fc.rscale(np.sqrt(power), fc.matvec(s, sig))
    v_dom = _unit(fc, a, DegenerateChannelError(f"whitened signal has zero norm ({what})"))
    w = fc.matvec(s, v_dom)
    return _unit(fc, w, DegenerateChannelError(f"whitened direction is zero ({what})"))


def mrc(scene: Scene, fc: FlopCounter | None = None) -> Beamformer:
    """Matched filter on the confidential stream's receive signature."""
    fc = fc or FlopCounter()
    u = fc.matvec(scene.channels.ab.matrix, scene.setup.v_a)
    w = _unit(fc, u, DegenerateChannelError("signal signature at Bob has zero norm"))
    return Beamformer(Method.MRC, w, fc.total)


def wfmrc(scene: Scene, fc: FlopCounter | None = None) -> Beamformer:
    """Whitening-filter MRC: matched filter in the whitened domain.

    The intermediate matched filter lives on the whitened channel
    ``W @ u``; lifting it back with ``W^H`` gives weights collinear with
    ``c_nbar^{-1} @ u``, which are returned renormalized.
    """
    fc = fc or FlopCounter()
    u = fc.matvec(scene.channels.ab.matrix, scene.setup.v_a)
    w_wf = whitening_filter(scene.cov.c_nbar, fc)
    matched = fc.matvec(w_wf, u)
    matched = _unit(
        fc, matched, DegenerateChannelError("whitened signal signature has zero norm")
    )
    w = fc.matvec(w_wf.conj().T, matched)
    w = _unit(fc, w, DegenerateChannelError("whitened matched filter lifts to zero"))
    return Beamformer(Method.WFMRC, w, fc.total)


def max_sr(scene: Scene, fc: FlopCounter | None = None) -> Beamformer:
    """SINR-optimal beamformer via the whiten-then-match construction."""
    fc = fc or FlopCounter()
    cfg = scene.cfg
    u = fc.matvec(scene.channels.ab.matrix, scene.setup.v_a)
    c1 = scene.channels.ab.gain * cfg.beta1 * cfg.p_a_watt
    w = _whiten_match(fc, u, scene.cov.c_nbar, c1, "interference-plus-noise covariance")
    return Beamformer(Method.MAX_SR, w, fc.total)


def _mmse(scene: Scene, fc: FlopCounter, o_inv: np.ndarray, method: Method) -> Beamformer:
    """MMSE weights ``sqrt(c1) * O^{-1} u`` from a receive-covariance inverse."""
    cfg = scene.cfg
    u = fc.matvec(scene.channels.ab.matrix, scene.setup.v_a)
    c1 = scene.channels.ab.gain * cfg.beta1 * cfg.p_a_watt
    fc.scalar(3)
    w = fc.rscale(np.sqrt(c1), fc.matvec(o_inv, u))
    w = _unit(fc, w, DegenerateChannelError("MMSE weights have zero norm"))
    return Beamformer(method, w, fc.total)


def mmse_conventional(scene: Scene, fc: FlopCounter | None = None) -> Beamformer:
    """MMSE weights through one direct inverse of the receive covariance."""
    fc = fc or FlopCounter()
    o_inv = fc.inv_hpd(fc.add(scene.cov.a, scene.cov.c_nbar))
    return _mmse(scene, fc, o_inv, Method.MMSE)


def _rank_one_update(
    fc: FlopCounter,
    z_inv: np.ndarray,
    col: np.ndarray,
    row: np.ndarray,
    level: str,
) -> np.ndarray:
    """Inverse of ``Z + col @ row`` from ``Z^{-1}`` (Sherman-Morrison)."""
    t = fc.matvec(z_inv, col)
    den = 1.0 + fc.dot_plain(row, t)
    fc.scalar()
    if abs(den) <= _SM_DEN_EPS:
        raise UpdateSingularityError(level, den)
    r = fc.vecmat(row, z_inv)
    fc.scalar()
    upd = fc.cscale(1.0 / den, fc.outer_plain(t, r))
    return fc.sub(z_inv, upd)


def low_complexity_inverse(scene: Scene, fc: FlopCounter | None = None) -> np.ndarray:
    """Receive-covariance inverse via the five-level rank-one chain.

    Starts from the closed-form inverse of noise plus signal term, then
    folds in the artificial-noise terms (three rank-one updates, one of
    them with a negative coefficient) and the jamming term (one update
    per jamming beam).  No general matrix inverse is formed at any point.

    Raises
    ------
    UpdateSingularityError
        If any update denominator falls below 1e-12 in modulus; the error
        names the level (N, M, L, K or O) that became singular.
    """
    fc = fc or FlopCounter()
    cfg = scene.cfg
    channels = scene.channels
    sig2 = cfg.sigma_b2_watt
    c1 = channels.ab.gain * cfg.beta1 * cfg.p_a_watt
    c2 = channels.ab.gain * (1.0 - cfg.beta1) * cfg.p_a_watt
    fc.scalar(4)

    u = fc.matvec(channels.ab.matrix, scene.setup.v_a)
    # signal-plus-noise level: closed-form Sherman-Morrison of sigma^2 I + A
    uu = fc.dot(u, u).real
    den_n = 1.0 + c1 * uu / sig2
    fc.scalar(3)
    if abs(den_n) <= _SM_DEN_EPS:
        raise UpdateSingularityError("N", den_n)
    scale = sig2 * sig2 * den_n
    if not scale > 0.0:  # sigma^4 underflows to zero for tiny noise
        raise UpdateSingularityError("N", scale)
    coef = -c1 / scale
    fc.scalar(3)
    z_inv = fc.add(
        fc.rscale(1.0 / sig2, np.eye(cfg.n_b)),
        fc.rscale(coef, fc.outer(u, u)),
    )

    # artificial-noise levels: the projector expands into three rank-one
    # terms along the same receive signature (coefficients +1, -2, +1)
    s = fc.matvec(channels.ab.matrix, channels.ab.tx_steering)
    row = channels.ab.rx_steering.conj()
    for level, coeff in (("M", c2), ("L", -2.0 * c2), ("K", c2)):
        fc.scalar()
        z_inv = _rank_one_update(fc, z_inv, fc.rscale(coeff, s), row, level)

    # jamming level: one rank-one update per jamming beam
    g_jam = channels.mb.gain * cfg.p_m_watt
    fc.scalar()
    for j in range(cfg.n_j):
        beam = fc.matvec(channels.mb.matrix, scene.setup.t_m_an[:, j])
        z_inv = _rank_one_update(fc, z_inv, fc.rscale(g_jam, beam), beam.conj(), "O")
    return z_inv


def mmse_low_complexity(scene: Scene, fc: FlopCounter | None = None) -> Beamformer:
    """MMSE weights using the rank-one update chain for the inverse."""
    fc = fc or FlopCounter()
    return _mmse(scene, fc, low_complexity_inverse(scene, fc), Method.LC_MMSE)


def nsp_max_wfrp(scene: Scene, fc: FlopCounter | None = None) -> Beamformer:
    """Null-space projection followed by a pseudo-whitened matched filter.

    Bob's weights are confined to the orthogonal complement of the
    jamming link's receive signature, so the jamming term vanishes from
    his output identically, independent of the jamming power.  Within
    that subspace the remaining noise is whitened through the reduced
    (pseudo-) whitening transform and the projected signal is matched.
    """
    fc = fc or FlopCounter()
    cfg = scene.cfg
    if cfg.n_b < 2:
        raise UnsupportedScenarioError(
            "null-space projection needs n_b >= 2 (one dimension is spent on the null)"
        )
    proj = null_projector(scene.channels.mb.rx_steering)
    fc.scalar(8 * cfg.n_b * cfg.n_b)  # rank-one projector assembly

    u = fc.matvec(scene.channels.ab.matrix, scene.setup.v_a)
    noise = fc.add(scene.cov.b, fc.rscale(cfg.sigma_b2_watt, np.eye(cfg.n_b)))
    c_proj = fc.matmul(fc.matmul(proj, noise), proj)

    evd = fc.evd(c_proj)
    hi = float(evd.eigenvalues[0])
    if not hi > 0.0:  # also refuses NaN
        raise ConditioningError("projected noise covariance vanished", 0.0, hi)
    keep = evd.eigenvalues > RANK_RTOL * hi
    w_red = fc.row_rescale(
        1.0 / np.sqrt(evd.eigenvalues[keep]), evd.eigenvectors[:, keep].conj().T
    )

    u_proj = fc.matvec(proj, u)
    matched = fc.matvec(w_red, u_proj)
    matched = _unit(
        fc,
        matched,
        DegenerateGeometryError(
            "signal signature lies inside the nulled jamming subspace"
        ),
    )
    w = fc.matvec(proj, fc.matvec(w_red.conj().T, matched))
    w = _unit(fc, w, DegenerateGeometryError("projected weights have zero norm"))
    return Beamformer(Method.NSP_WFRP, w, fc.total)


def mallory_receiver(scene: Scene, fc: FlopCounter | None = None) -> Beamformer:
    """Mallory's own max-SINR combiner for intercepting the stream.

    Same whiten-then-match construction as ``max_sr``, applied to the
    eavesdropper's covariance: artificial noise received from Alice plus
    residual self-interference plus thermal noise.
    """
    fc = fc or FlopCounter()
    cfg = scene.cfg
    e = fc.matvec(scene.channels.am.matrix, scene.setup.v_a)
    c_m = fc.add(
        fc.add(scene.cov.f, scene.cov.r_m),
        fc.rscale(cfg.sigma_m2_watt, np.eye(cfg.n_m)),
    )
    c_e = scene.channels.am.gain * cfg.beta1 * cfg.p_a_watt
    w = _whiten_match(fc, e, c_m, c_e, "eavesdropper covariance")
    return Beamformer(Method.MALLORY, w, fc.total)


_BUILDERS = {
    Method.MRC: mrc,
    Method.WFMRC: wfmrc,
    Method.MAX_SR: max_sr,
    Method.MMSE: mmse_conventional,
    Method.LC_MMSE: mmse_low_complexity,
    Method.NSP_WFRP: nsp_max_wfrp,
    Method.MALLORY: mallory_receiver,
}


def compute(method: Method, scene: Scene, fc: FlopCounter | None = None) -> Beamformer:
    """Build the requested beamformer for one scene."""
    return _BUILDERS[Method(method)](scene, fc)
