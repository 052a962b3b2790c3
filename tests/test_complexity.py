"""Closed-form flop polynomials and the instrumented counter."""

import numpy as np
import pytest

from dmrbf import (
    DomainError,
    FlopCounter,
    Method,
    RECEIVE_METHODS,
    ScenarioConfig,
    build_scene,
    compute,
    formula_flops,
    measured_flops,
)


def test_formula_values_at_common_size():
    # hand-evaluated polynomials at N_A = N_B = N_M = 4
    assert formula_flops(Method.MRC, 4, 4, 4) == 56
    assert formula_flops(Method.WFMRC, 4, 4, 4) == 355
    assert formula_flops(Method.MAX_SR, 4, 4, 4) == 371
    assert formula_flops(Method.MMSE, 4, 4, 4) == 475
    assert formula_flops(Method.LC_MMSE, 4, 4, 4) == 818
    assert formula_flops(Method.NSP_WFRP, 4, 4, 4) == 642


def test_formula_rejects_bad_input():
    with pytest.raises(DomainError):
        formula_flops(Method.MALLORY, 4, 4, 4)
    with pytest.raises(DomainError):
        formula_flops(Method.MRC, 0, 4, 4)


def test_quadratic_vs_cubic_crossover():
    # the rank-one chain undercuts the direct MMSE inverse from modest
    # sizes, but its 36 n^2 constant only beats the leaner cubic schemes
    # once n clears ~36; at n = 4 it is actually the more expensive route
    assert formula_flops(Method.LC_MMSE, 4, 4, 4) > formula_flops(Method.MMSE, 4, 4, 4)
    for n in (16, 64, 256):
        lc = formula_flops(Method.LC_MMSE, n, n, n)
        assert lc < formula_flops(Method.MMSE, n, n, n)
    for n in (64, 256):
        lc = formula_flops(Method.LC_MMSE, n, n, n)
        assert lc < formula_flops(Method.WFMRC, n, n, n)
        assert lc < formula_flops(Method.NSP_WFRP, n, n, n)


def test_measured_counts_are_deterministic():
    for method in RECEIVE_METHODS:
        a = measured_flops(method)
        assert a == measured_flops(method)
        assert a > 0


def test_measured_equals_compute_flops():
    scene = build_scene(ScenarioConfig())
    for method in RECEIVE_METHODS:
        assert measured_flops(method) == compute(method, scene).flops


def test_mrc_measured_value_frozen():
    # the matched filter at (4, 4) is one 4x4 matvec, one norm and one
    # rescale under the counter's cost model (8 per complex multiply-add);
    # the others are pinned so a refactor cannot move any count silently
    frozen = {
        Method.MRC: 154,
        Method.WFMRC: 2516,
        Method.MAX_SR: 3039,
        Method.MMSE: 837,
        Method.LC_MMSE: 3003,
        Method.NSP_WFRP: 3910,
        Method.MALLORY: 3135,
    }
    assert {m: measured_flops(m) for m in frozen} == frozen


def test_measured_tracks_formula_loosely():
    # the closed forms count a leaner abstract schedule (e.g. a cubic-term
    # inverse at n^3) than the instrumented EVD-based implementation, so
    # measured counts sit above the formulas by a bounded constant factor
    for method in RECEIVE_METHODS:
        ratio = measured_flops(method) / formula_flops(method, 4, 4, 4)
        assert 1.0 <= ratio <= 10.0


def test_counter_primitive_costs():
    rng = np.random.default_rng(701)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    fc = FlopCounter()
    fc.matvec(a, x)
    assert fc.total == 8 * 3 * 5
    fc = FlopCounter()
    fc.dot(x, x)
    assert fc.total == 8 * 5
    fc = FlopCounter()
    fc.outer(x, x)
    assert fc.total == 6 * 25
    fc = FlopCounter()
    fc.norm(x)
    assert fc.total == 4 * 5 + 1
    fc = FlopCounter()
    fc.evd(np.eye(3, dtype=complex))
    assert fc.total == 32 * 27
    fc = FlopCounter()
    fc.inv_hpd(np.eye(3, dtype=complex))
    assert fc.total == 8 * 27

