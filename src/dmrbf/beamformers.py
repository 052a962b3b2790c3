"""Receive beamformers for Bob's array, plus the eavesdropper's combiner.

Six ways to combine the array outputs against jamming plus noise,
spanning the cost/performance trade:

* ``mrc``      -- matched filter on the signal signature, ignores jamming.
* ``wfmrc``    -- whiten interference-plus-noise, then matched filter.
* ``max_sr``   -- SINR-optimal eigenbeamformer; for a rank-one signal it
  is WF-MRC's whitened matched filter, so it runs WF-MRC's builder.
* ``mmse``     -- conventional MMSE: one direct HPD inverse, refined twice.
* ``lc_mmse``  -- MMSE's direction as ``c_nbar^{-1} u``, the inverse built
  by two rank-one updates in O(n^2), one for each of ``c_nbar``'s terms;
  both MMSE builders share one refusal rule.
* ``nsp_wfrp`` -- project the jamming link out of the array first, then
  whiten what remains and match to the projected signal.

``wfmrc``, ``max_sr``, ``nsp_wfrp`` and Mallory's combiner share one
transform, ``W = diag(eigenvalues)**-0.5 @ Q^H`` from their covariance's
EVD, and one match, ``W^H unit(W s)``.

``compute(method, scene)`` runs one of them, and ``mallory_receiver(scene)``
Mallory's combiner, on a fresh `FlopCounter`, so ``Beamformer.flops`` is
the measured cost of that one call, with the matrices it forms from the
scene's factors: `term_matrix`, and `noise_covariance` for every
interference-plus-noise covariance (``c_nbar``, built with the scene, is
charged to no method).  All returned weight vectors are unit norm.

Every builder takes a `Scene` of one point or a stacked `Scene`, its
arrays stacked on a leading point axis, and runs all its points at once:
numpy's batched products and eigensolvers treat each slice exactly as
one matrix, so each point gets the weights (bit for bit) and the flop
count it gets alone.  A guard refuses the whole stack when any point
fails it, before the arithmetic it protects.  A one-point scene has no
point axis, so the same builder runs it without stacking.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import LosChannel, null_projector
from .counting import FlopCounter
from .errors import (
    DegenerateChannelError,
    DegenerateGeometryError,
    DomainError,
    NumericalError,
    UnsupportedScenarioError,
    shown,
)
from .linalg import RANK_RTOL, check_hpd, point_values, vector_norm
from .scenario import Scene, noise_covariance, term_matrix

_NORM_EPS = 1e-12  # vectors shorter than this cannot be normalized
# largest backward error of an MMSE solve; the solves served on 2000 random
# scenes, with jamming up to 1e14 W and noise down to 1e-6 W, and on 1953
# scenes up to 120 dB SNR (README's scans B and A) measured at most 1e-13
_BACKWARD_ERROR_BOUND = 1e-6


class Method(str, Enum):
    """Bob's receive beamforming schemes (values double as CLI/CSV names)."""

    MRC = "mrc"
    WFMRC = "wfmrc"
    MAX_SR = "max_sr"
    MMSE = "mmse"
    LC_MMSE = "lc_mmse"
    NSP_WFRP = "nsp_wfrp"


#: Bob's six schemes, in presentation order.
RECEIVE_METHODS: tuple[Method, ...] = tuple(Method)


def as_method(name: object) -> Method:
    """``name``, a `Method` or its value, as a `Method`; any other is
    refused with one `DomainError` that lists the valid names."""
    try:
        return Method(name)
    except ValueError:
        names = ", ".join(m.value for m in Method)
        raise DomainError(
            f"{shown(name, repr)} is not a receive method; valid names: {names}"
        ) from None


METHOD_LABELS: dict[Method, str] = {
    Method.MRC: "MRC",
    Method.WFMRC: "WF-MRC",
    Method.MAX_SR: "Max-SR",
    Method.MMSE: "MMSE",
    Method.LC_MMSE: "LC-MMSE",
    Method.NSP_WFRP: "NSP-WFRP",
}


@dataclass(frozen=True)
class Beamformer:
    """Unit-norm receive weights and the measured cost of computing them.

    For a stacked `Scene` of P points, ``weights`` is ``(P, n)``, one row
    per point, and ``flops`` still one int: products are charged by their
    matrix sizes, so every point of a stack costs what it costs alone.
    """

    weights: np.ndarray
    flops: int


def _unit(fc: FlopCounter, x: np.ndarray, what: str) -> np.ndarray:
    """Each vector of ``x`` scaled to unit norm; a zero, huge or NaN norm
    raises, naming ``what``."""
    nrm = fc.norm(x)
    for v in point_values(nrm):
        if not _NORM_EPS < v < math.inf:  # also refuses a NaN norm
            raise DegenerateChannelError(what)
    fc.scalar()  # reciprocal
    return fc.scale((1.0 / nrm)[..., None], x)


def whitening_filter(
    cov: np.ndarray, fc: FlopCounter, what: str = "interference-plus-noise covariance"
) -> np.ndarray:
    """Whitening transform ``W = diag(eigenvalues)**-0.5 @ Q^H`` with
    ``W @ cov @ W^H = I`` (of each matrix of a stack), from the EVD of
    ``cov``; every refusal of ``cov``, as malformed or as not positive
    definite, names it ``what``."""
    evd = fc.evd(cov, what)
    check_hpd(evd, what)
    q_h = evd.eigenvectors.conj().swapaxes(-1, -2)
    return fc.scale((1.0 / np.sqrt(evd.eigenvalues))[..., :, None], q_h)


def _whiten_match(fc: FlopCounter, sig: np.ndarray, cov: np.ndarray, what: str) -> np.ndarray:
    """Max-SINR direction for a rank-one signal along ``sig`` in the
    interference-plus-noise ``cov`` (named ``what`` in errors).

    Any ``W`` with ``W cov W^H = I`` leaves a rank-one signal covariance
    whose dominant eigenvector is ``W sig`` normalized, so no eigensolver
    runs; ``W^H`` lifts it to ``W^H W sig = cov^{-1} sig`` (Van Trees,
    *Optimum Array Processing*, 2002, §6.2): WF-MRC's arithmetic.  The
    signal's power would only scale ``W sig``, so it is not applied.
    """
    w_wf = whitening_filter(cov, fc, what)
    matched = _unit(fc, fc.matvec(w_wf, sig), f"whitened signal has zero norm ({what})")
    w = fc.matvec(w_wf.conj().swapaxes(-1, -2), matched)
    return _unit(fc, w, f"whitened direction is zero ({what})")


def _apply_link(fc: FlopCounter, link: LosChannel, x: np.ndarray) -> np.ndarray:
    """The rank-one ``link`` applied to ``x`` as ``h_rx (h_tx^H x)``, no matvec."""
    return fc.scale(fc.dot(link.tx_steering, x)[..., None], link.rx_steering)


def _signature(scene: Scene, fc: FlopCounter) -> np.ndarray:
    """The confidential stream's receive signature ``u`` at Bob (counted)."""
    return _apply_link(fc, scene.channels.ab, scene.v_a)


def _mrc(scene: Scene, fc: FlopCounter) -> np.ndarray:
    """Matched filter on the confidential stream's receive signature."""
    return _unit(fc, _signature(scene, fc), "signal signature at Bob has zero norm")


def _whitened_mrc(scene: Scene, fc: FlopCounter) -> np.ndarray:
    """WF-MRC, and Max-SR: for a rank-one signal the max-SINR eigenvector
    is the whitened matched filter (see `_whiten_match`)."""
    u = _signature(scene, fc)
    return _whiten_match(fc, u, scene.cov.c_nbar, "interference-plus-noise covariance")


def _chain_inverse(scene: Scene, fc: FlopCounter) -> np.ndarray:
    """``c_nbar^{-1}`` by two rank-one updates; no general inverse is
    formed.

    Starts from the noise's ``I / sigma_b2`` and folds in one symmetric
    Sherman-Morrison update for each of ``cov.b`` and ``cov.d``, whose
    factors are one column ``v`` each: with ``t = Z v``, the inverse of
    ``Z^{-1} + coef v v^H`` is ``Z - coef / (1 + coef v^H t) t t^H``
    (Hager, *SIAM Review* 31, 1989).  ``coef >= 0`` and ``Z`` is positive
    definite, so each denominator is at least 1 in exact arithmetic.  An
    overflow is not refused here: it leaves the inverse non-finite, and
    the caller's backward-error rule refuses it.
    """
    fc.scalar()  # reciprocal
    z = fc.scale((1.0 / scene.sigma_b2_watt)[..., None, None], np.eye(scene.n_b))
    for term in (scene.cov.b, scene.cov.d):
        v = term.factor[..., 0]
        t = fc.matvec(z, v)
        den = 1.0 + term.coef * fc.dot(v, t).real
        fc.scalar(3)
        upd = fc.scale((term.coef / den)[..., None, None], fc.outer(t, t))
        z = fc.sub(z, upd)
    return z


def _check_solve(m: np.ndarray, x: np.ndarray, u: np.ndarray, what: str) -> None:
    """Both MMSE builders' one refusal: a `NumericalError` naming ``what``
    unless ``x`` solves ``m x = u`` to a normwise backward error
    ``|m x - u| / (|m|_F |x| + |u|)`` of at most 1e-6, with a finite
    denominator (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, §7.1).  A singular or overflowing inverse leaves ``x`` inaccurate
    or non-finite, so it is refused too.  The rule bounds the solve, not
    the SINR.  Uncharged, O(n^2): a guard, not part of the method."""
    r = np.matvec(m, x) - u
    # |m|_F |x| + |u| from squared norms; if it overflows, refuse
    m_f2 = np.vecdot(m, m).real.sum(axis=-1)
    den = np.sqrt(m_f2 * np.vecdot(x, x).real) + np.sqrt(np.vecdot(u, u).real)
    eta = np.sqrt(np.vecdot(r, r).real) / den
    for v, d in zip(point_values(eta), point_values(den)):
        if not (v <= _BACKWARD_ERROR_BOUND and d < math.inf):  # also refuses NaN
            raise NumericalError(f"{what} to backward error {v:.3e}")


# an overflow, in the solve or in its check, is refused by name below, not
# warned about
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _mmse(scene: Scene, fc: FlopCounter) -> np.ndarray:
    """MMSE direction ``x = O^{-1} u`` for the receive covariance
    ``O = A + c_nbar``: ``x = Z u`` for a direct HPD inverse ``Z`` of ``O``,
    refined by ``x <- x + Z (u - O x)`` (Higham, ch. 12), and refused by
    `_check_solve` against ``O x = u``.  The MMSE weights' factor
    ``sqrt(c1)`` is not applied: normalizing undoes it.
    """
    u = _signature(scene, fc)
    o = fc.add(term_matrix(scene.cov.a, fc), scene.cov.c_nbar)
    z = fc.inv_hpd(o, "O")
    x = fc.matvec(z, u)
    for _ in range(2):  # the fewest steps that serve 120 dB SNR within 1e-6
        x = fc.add(x, fc.matvec(z, fc.sub(u, fc.matvec(o, x))))
    _check_solve(o, x, u, "direct inverse solves O x = u")
    return _unit(fc, x, "MMSE weights have zero norm")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # as `_mmse`
def _lc_mmse(scene: Scene, fc: FlopCounter) -> np.ndarray:
    """MMSE direction as ``c_nbar^{-1} u``, from `_chain_inverse`.

    ``O = A + c_nbar`` with ``A = c1 u u^H``, so by Sherman-Morrison
    ``O^{-1} u = c_nbar^{-1} u / (1 + c1 u^H c_nbar^{-1} u)``, a positive
    scalar multiple that normalizing undoes; folding ``A`` into the chain
    would only add cancellation.  Refused by `_check_solve` against
    ``c_nbar x = u``.
    """
    u = _signature(scene, fc)
    x = fc.matvec(_chain_inverse(scene, fc), u)
    _check_solve(scene.cov.c_nbar, x, u, "rank-one update chain solves c_nbar x = u")
    return _unit(fc, x, "LC-MMSE weights have zero norm")


def _nsp_max_wfrp(scene: Scene, fc: FlopCounter) -> np.ndarray:
    """Null-space projection followed by a whitened matched filter.

    Bob's weights are confined to the orthogonal complement of the
    jamming link's receive signature ``h``, so the jamming term vanishes
    from his output identically, independent of the jamming power.  Within
    that subspace the projected signal ``P u`` is matched to the noise
    ``P N P`` (``P`` the projector, ``N = b + sigma^2 I``) by `_whiten_match`
    on ``C = P N P + sigma^2 h h^H``.  ``C`` is block diagonal over the range
    of ``P`` and ``span{h}``, and ``P u`` lies in the first, so
    ``C^{-1} P u = (P N P)^+ P u``: the nulled direction, filled at the
    noise level, keeps ``C`` positive definite without moving the weights.
    """
    n_b = scene.n_b
    if n_b < 2:
        raise UnsupportedScenarioError(
            "null-space projection needs n_b >= 2 (one dimension is spent on the null)"
        )
    h = scene.channels.mb.rx_steering
    proj = null_projector(h)
    fc.scalar(8 * n_b * n_b)  # rank-one projector assembly

    u = _signature(scene, fc)
    noise = noise_covariance((scene.cov.b,), scene.sigma_b2_watt, "sigma_b2_watt", fc)
    sig2 = scene.sigma_b2_watt[..., None, None]
    c_proj = fc.add(fc.matmul(fc.matmul(proj, noise), proj), fc.scale(sig2, fc.outer(h, h)))

    u_proj = fc.matvec(proj, u)
    # uncharged: a guard, not part of the method; relative, so a small
    # scale is not mistaken for a signal inside the null
    if (vector_norm(u_proj) <= RANK_RTOL * vector_norm(u)).any():
        raise DegenerateGeometryError(
            "signal signature lies inside the nulled jamming subspace"
        )
    w = _whiten_match(fc, u_proj, c_proj, "projected noise covariance")
    return _unit(fc, fc.matvec(proj, w), "projected weights have zero norm")


def _mallory(scene: Scene, fc: FlopCounter) -> np.ndarray:
    """Mallory's own max-SINR combiner for intercepting the stream.

    Same whiten-then-match construction as ``_whitened_mrc``, applied to the
    eavesdropper's covariance, `noise_covariance` of the artificial noise
    received from Alice (``f``) and the residual self-interference
    (``r_m``), at ``sigma_m2_watt``, which names its refusal.
    """
    e = _apply_link(fc, scene.channels.am, scene.v_a)
    c_m = noise_covariance((scene.cov.f, scene.cov.r_m), scene.sigma_m2_watt, "sigma_m2_watt", fc)
    return _whiten_match(fc, e, c_m, "eavesdropper covariance")


_BUILDERS = {
    Method.MRC: _mrc,
    Method.WFMRC: _whitened_mrc,
    Method.MAX_SR: _whitened_mrc,
    Method.MMSE: _mmse,
    Method.LC_MMSE: _lc_mmse,
    Method.NSP_WFRP: _nsp_max_wfrp,
}


def _run(builder: Callable[[Scene, FlopCounter], np.ndarray], scene: Scene) -> Beamformer:
    """``builder``'s weights for ``scene``, with the flops it spent on a
    fresh `FlopCounter` (one point's count, for a stack too)."""
    fc = FlopCounter(len(scene))
    return Beamformer(builder(scene, fc), fc.total)


def compute(method: Method, scene: Scene) -> Beamformer:
    """Build the requested beamformer for one scene, counting its flops
    afresh, or for every point of a stack at once.

    A stacked scene's `Beamformer` holds every point's weights, each with
    the bits of its own one-point call, and the flop count each point
    spends alone.
    """
    return _run(_BUILDERS[as_method(method)], scene)


def mallory_receiver(scene: Scene) -> Beamformer:
    """Mallory's own max-SINR combiner, run as `compute` runs Bob's."""
    return _run(_mallory, scene)
