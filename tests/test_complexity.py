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
    mallory_receiver,
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
    valid = "valid names: mrc, wfmrc, max_sr, mmse, lc_mmse, nsp_wfrp$"
    for name in ("mallory", "foo"):
        with pytest.raises(DomainError, match=f"^'{name}' is not a receive method; {valid}"):
            formula_flops(name, 4, 4, 4)
    with pytest.raises(DomainError):
        formula_flops(Method.MRC, 0, 4, 4)
    # sizes are integers: a float or a bool is refused by name, not rounded
    for sizes, name in (((4.5, 4, 4), "n_a"), ((4, True, 4), "n_b"), ((4, 4, 4.0), "n_m")):
        with pytest.raises(DomainError, match=f"^{name} must be of type int, got "):
            formula_flops(Method.MRC, *sizes)
    assert formula_flops(Method.MRC, np.int64(4), 4, 4) == formula_flops(Method.MRC, 4, 4, 4)
    # a numpy size counts as the Python int it holds: n_b**3 does not wrap in int8
    assert formula_flops("mmse", 4, np.int8(100), 4) == formula_flops("mmse", 4, 100, 4) == 1154299


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
    scene = build_scene(ScenarioConfig())
    for method in RECEIVE_METHODS:
        a = compute(method, scene).flops
        assert a == compute(method, build_scene(ScenarioConfig())).flops
        assert a > 0


def test_mrc_measured_value_frozen():
    # the matched filter applies the rank-one A->B link as an inner product
    # and a complex scaling (8 n_a + 6 n_b), then one norm and one rescale,
    # under the counter's cost model (8 per complex multiply-add).  Each
    # other method and Mallory apply one link the same way.  All are pinned
    # at n_a = n_b = n_m = n so a refactor cannot move any count silently.
    # Max-SR, MMSE, LC-MMSE and Mallory apply no power factor before
    # normalizing, which would cost 2n + 3 more each.  Max-SR runs WF-MRC's
    # arithmetic, so the two counts are equal.  LC-MMSE's chain starts from
    # I / sigma^2 (2n^2 + 1) and runs two updates, one for b's one column
    # and one for d's, each a matvec, an inner product, three scalar
    # operations, an outer product, a scaling and a subtraction
    # (18n^2 + 8n + 3), then one matvec (8n^2); it reads its powers and
    # beams from the scene's model, so it pays for neither.  The scene
    # keeps its terms as factors, and a builder pays for the term matrices
    # it reads: an outer product, a scaling by the power and a Hermitian
    # part (14n^2) for each one-column term: A for MMSE, b for NSP-WFRP, f
    # for Mallory, and Mallory's r_m at one beam.  With more beams r_m takes
    # a matmul in place of the outer product (8 n_j n^2 + 8n^2), so its
    # count is the only one that depends on n_j.  MMSE forms O = A + c_nbar
    # (2n^2) and refines its solve twice (32n^2 + 8n).
    order = (
        Method.MRC,
        Method.WFMRC,
        Method.MAX_SR,
        Method.MMSE,
        Method.LC_MMSE,
        Method.NSP_WFRP,
        "mallory",
    )
    frozen = {  # (n, n_j): counts in the order above, Mallory's combiner last
        (4, 1): (82, 2444, 2444, 1522, 889, 4326, 2988),
        (16, 1): (322, 136100, 136100, 47554, 12361, 215046, 144804),
        (64, 1): (1282, 8464004, 8464004, 2328322, 190729, 12871686, 8603268),
        (4, 3): (82, 2444, 2444, 1522, 889, 4326, 3276),
        (16, 3): (322, 136100, 136100, 47554, 12361, 215046, 149412),
    }
    for (n, n_j), counts in frozen.items():
        scene = build_scene(ScenarioConfig(n_a=n, n_b=n, n_m=n, n_j=n_j))
        measured = [compute(m, scene).flops for m in order[:-1]]
        measured.append(mallory_receiver(scene).flops)
        assert dict(zip(order, measured)) == dict(zip(order, counts)), (n, n_j)


@pytest.mark.parametrize("n", [4, 16])
def test_lc_mmse_measured_flops_do_not_depend_on_the_jamming_beams(n):
    # every beam reaches Bob along the jamming link's one column, so the
    # chain runs its two updates at any n_j: O(n^2) at n_j = n - 1 too
    counts = {}
    for n_j in (1, 3, n - 1):
        scene = build_scene(ScenarioConfig(n_a=n, n_b=n, n_m=n, n_j=n_j))
        counts[n_j] = compute(Method.LC_MMSE, scene).flops
    assert len(set(counts.values())) == 1, counts


def test_measured_tracks_formula_loosely():
    # the closed forms count a leaner abstract schedule (e.g. a cubic-term
    # inverse at n^3) than the instrumented EVD-based implementation, so at
    # n = 4 measured counts sit above the formulas, by a factor that differs
    # between methods.  That does not hold at every size: the formulas
    # charge each link a general matvec, the builders an inner product and
    # a scaling of the rank-one link, so at n = 16 MRC measures 322 flops
    # against its formula's 800
    scene = build_scene(ScenarioConfig())
    for method in RECEIVE_METHODS:
        ratio = compute(method, scene).flops / formula_flops(method, 4, 4, 4)
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
    # scaling charges per entry by the factor's type: 2 real, 6 complex
    d = rng.standard_normal(5)
    for f, want, cost in (
        (d, a * d[None, :], 2 * 15),
        (d[:3, None], d[:3, None] * a, 2 * 15),
        (2.5, 2.5 * a, 2 * 15),
        (1.5 - 0.5j, (1.5 - 0.5j) * a, 6 * 15),
    ):
        fc = FlopCounter()
        assert np.array_equal(fc.scale(f, a), want)
        assert fc.total == cost
    fc = FlopCounter()
    fc.evd(np.eye(3, dtype=complex))
    assert fc.total == 32 * 27
    fc = FlopCounter()
    fc.inv_hpd(np.eye(3, dtype=complex))
    assert fc.total == 8 * 27

