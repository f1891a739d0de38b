"""Inequality verdicts: closed-form margins, hypotheses, conditions."""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np
import pytest

from fuzzyint import (
    CheckResult,
    ConstFunction,
    DistortedLebesgue,
    FiniteFunction,
    FiniteMonotoneMeasure,
    InputError,
    PowerFunction,
    PwlFunction,
    TheoremInstance,
    THEOREM_IDS,
    affine,
    check_H_boundedness,
    check_scalar_condition,
    counting_measure,
    custom_op,
    h_max,
    h_min,
    h_prod,
    h_table,
    h_wmean,
    identity,
    max_op,
    min_op,
    power,
    probsum_op,
    prod_op,
    smallest_op,
    verify,
    verify_op_properties,
)
from fuzzyint import inequalities as ineq
from fuzzyint import integrals
from fuzzyint.ops import nearest_index
from fuzzyint.serialize import dumps_17g
from conftest import fresh_stores, rng_of, random_measure

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
LEB = DistortedLebesgue(identity())


def make(tid, op, m, fns, **kw):
    return TheoremInstance(tid, op, m, fns, **kw)


# ---------------------------------------------------------------------------
# product-form families on closed-form instances
# ---------------------------------------------------------------------------


def test_chebyshev_lattice_case_is_exact():
    m = counting_measure(3, normalized=True)
    f = FiniteFunction((0.2, 0.5, 0.8))
    g = FiniteFunction((0.1, 0.4, 0.9))
    v = verify(make("chebyshev", min_op(1.0), m, [f, g], star=min_op(1.0)))
    assert v.holds and v.hypotheses_met
    assert v.tol == 0.0
    assert v.margin >= 0.0
    assert v.direction == ">="


def test_chebyshev_swap_symmetry_for_commutative_star():
    rng = rng_of(211)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = random_measure(rng, n)
        base = sorted(float(x) for x in rng.uniform(0.0, 1.0, n))
        bump = sorted(float(x) for x in rng.uniform(0.0, 1.0, n))
        f, g = FiniteFunction(tuple(base)), FiniteFunction(tuple(bump))
        a = verify(make("chebyshev", min_op(1.0), m, [f, g], star=prod_op(1.0)))
        b = verify(make("chebyshev", min_op(1.0), m, [g, f], star=prod_op(1.0)))
        assert a.holds and b.holds
        assert a.margin == b.margin


def test_holder_product_pair_reaches_equality():
    # the sufficient scalar condition is one-sided and this pairing misses
    # it, yet the conclusion still holds with an exactly tight margin:
    # sufficient, not necessary, and the verdict reports both facts
    v = verify(make(
        "holder", prod_op(1.0), LEB,
        [PowerFunction(1.0), PowerFunction(1.0)],
        star=prod_op(1.0), exponents={"p": 2.0, "q": 2.0},
    ))
    assert v.holds
    assert v.lhs == pytest.approx(4.0 / 27.0, abs=1e-9)
    assert v.margin == pytest.approx(0.0, abs=1e-9)
    assert not v.hypothesis_report.check("scalar_condition").passed
    assert not v.hypotheses_met


def test_minkowski_min_star_collapses_to_equality():
    v = verify(make(
        "minkowski", min_op(1.0), LEB,
        [PowerFunction(1.0), ConstFunction(1.0)],
        star=min_op(1.0), exponents={"s": 2.0},
    ))
    assert v.holds
    assert v.lhs == pytest.approx(GOLDEN, abs=1e-9)
    assert v.margin == pytest.approx(0.0, abs=1e-9)


def test_sub_unit_inner_exponents_break_the_bound():
    v = verify(make(
        "star_general", min_op(), LEB,
        [PowerFunction(1.0), ConstFunction(1.0)],
        star=min_op(),
        exponents={"xi0": 1.0, "xi1": 0.5, "xi2": 0.5,
                   "omega0": 1.0, "omega1": 1.0, "omega2": 1.0},
    ))
    assert not v.holds
    assert v.margin == pytest.approx(0.5 - GOLDEN, abs=1e-8)
    assert not v.hypotheses_met
    assert "hypotheses_unmet" in v.notes
    exp = v.hypothesis_report.check("exponent_condition")
    assert not exp.passed


def test_unit_exponents_satisfy_the_range_condition():
    v = verify(make(
        "star_general", min_op(), LEB,
        [PowerFunction(1.0), ConstFunction(1.0)],
        star=min_op(),
        exponents={"xi0": 1.0, "xi1": 1.0, "xi2": 1.0,
                   "omega0": 1.0, "omega1": 1.0, "omega2": 1.0},
    ))
    assert v.hypothesis_report.check("exponent_condition").passed
    assert v.holds


# ---------------------------------------------------------------------------
# single-function families
# ---------------------------------------------------------------------------


def test_convex_power_transform_bound():
    v = verify(make("jensen", min_op(), LEB, [PowerFunction(1.0)], phi=[power(2.0)]))
    assert v.holds and v.hypotheses_met
    assert v.lhs == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-9)
    assert v.rhs == pytest.approx(0.25, abs=1e-12)


def test_reverse_transform_bound_flips_direction():
    v = verify(make("rev_jensen", max_op(1.0), LEB, [PowerFunction(1.0)], phi=[power(2.0)]))
    assert v.direction == "<="
    assert v.holds
    assert v.lhs == pytest.approx(0.25, abs=1e-12)
    assert v.rhs == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-9)


def test_transform_pair_orders_by_pulled_back_values():
    v = verify(make("thm33", min_op(), LEB, [PowerFunction(1.0)],
                    phi=[power(2.0), power(1.0)]))
    assert v.holds
    assert v.lhs == pytest.approx(GOLDEN, abs=1e-9)
    assert v.rhs == pytest.approx(0.5, abs=1e-12)

    r = verify(make("rev_transform", max_op(1.0), LEB, [PowerFunction(1.0)],
                    phi=[power(1.0), power(2.0)]))
    assert r.holds and r.direction == "<="
    assert r.lhs == pytest.approx(0.5, abs=1e-12)
    assert r.rhs == pytest.approx(GOLDEN, abs=1e-9)


def test_moment_order_comparison():
    v = verify(make("lyapunov", min_op(), LEB, [PowerFunction(1.0)],
                    exponents={"r": 1.0, "s": 2.0}))
    assert v.holds
    assert v.lhs == pytest.approx(GOLDEN, abs=1e-9)
    assert v.rhs == pytest.approx(0.5, abs=1e-12)


def test_moment_orders_must_be_positive():
    with pytest.raises(InputError):
        verify(make("lyapunov", min_op(), LEB, [PowerFunction(1.0)],
                    exponents={"r": 0.0, "s": 1.0}))


# ---------------------------------------------------------------------------
# n-ary families
# ---------------------------------------------------------------------------


def test_nary_lattice_aggregation_exact():
    m = counting_measure(3, normalized=True)
    fs = [FiniteFunction((0.2, 0.5, 0.8)), FiniteFunction((0.1, 0.4, 0.9))]
    v = verify(make("thm31", min_op(), m, fs, H=h_min(2),
                    u=[power(1.0)] * 3, psi=[power(1.0)] * 2))
    assert v.holds and v.tol == 0.0 and v.margin == 0.0

    w = verify(make("thm32", min_op(), m, fs, H=h_min(2),
                    exponents={"xi": (1.0, 1.0, 1.0), "omega": (1.0, 1.0, 1.0)}))
    assert w.holds and w.tol == 0.0 and w.margin == 0.0


def test_nary_aggregations_evaluate():
    assert h_min(3)((0.4, 0.2, 0.9)) == 0.2
    assert h_max(2)((0.4, 0.2)) == 0.4
    assert h_prod(2)((0.5, 0.4)) == 0.2
    assert h_wmean((0.25, 0.75))((0.4, 0.8)) == pytest.approx(0.7)


def test_aggregation_boundedness_reports():
    assert check_H_boundedness(h_min(2), "above_by_min").passed
    assert not check_H_boundedness(h_max(2), "above_by_min").passed
    assert check_H_boundedness(h_max(2), "below_by_max").passed
    with pytest.raises(InputError):
        check_H_boundedness(h_min(2), "sideways")


@pytest.mark.parametrize(
    "build",
    [
        lambda k: ineq.NaryOp("min", k),
        lambda k: h_prod(k),
        lambda k: h_wmean([1.0] * k),
        lambda k: h_table((0.0, 1.0), [0.0] * 2**k, k),
    ],
    ids=["min", "prod", "wmean", "table"],
)
def test_aggregation_arity_is_bounded(build):
    # the scalar-condition grid of an n-ary family grows with the arity
    assert build(ineq.MAX_ARITY).arity == ineq.MAX_ARITY
    with pytest.raises(InputError, match=f"at most arity {ineq.MAX_ARITY}"):
        build(ineq.MAX_ARITY + 1)


def test_arity_mismatch_rejected():
    m = counting_measure(2, normalized=True)
    fs = [FiniteFunction((0.2, 0.5))]
    with pytest.raises(InputError):
        verify(make("thm32", min_op(), m, fs, H=h_min(2),
                    exponents={"xi": (1.0, 1.0), "omega": (1.0, 1.0)}))


def test_single_function_family_reports_the_integral_error_for_a_non_function():
    # at arity 1 there is nothing to combine, so the carrier error is the
    # integral's, not the aggregation's
    m = counting_measure(2, normalized=True)
    with pytest.raises(InputError, match="finite measures pair with finite functions"):
        verify(make("jensen", min_op(), m, [(0.2, 0.5)]))


# ---------------------------------------------------------------------------
# hypothesis diagnostics
# ---------------------------------------------------------------------------


def test_non_comonotone_pair_is_flagged_but_still_judged():
    m = counting_measure(2, normalized=True)
    f = FiniteFunction((0.1, 0.9))
    g = FiniteFunction((0.8, 0.2))
    v = verify(make("chebyshev", min_op(1.0), m, [f, g], star=min_op(1.0)))
    como = v.hypothesis_report.check("comonotone")
    assert not como.passed and como.witness is not None
    assert not v.hypotheses_met
    assert isinstance(v.margin, float)  # judged anyway


def test_oversized_total_breaks_product_contraction():
    big = FiniteMonotoneMeasure(2, (0.0, 1.0, 1.0, 2.0))
    f = FiniteFunction((0.3, 0.6))
    g = FiniteFunction((0.2, 0.7))
    v = verify(make("chebyshev", prod_op(), big, [f, g], star=min_op()))
    assert not v.hypothesis_report.check("measure_contraction").passed
    ok = verify(make("chebyshev", prod_op(), counting_measure(2, normalized=True),
                     [f, g], star=min_op()))
    assert ok.hypothesis_report.check("measure_contraction").passed


def test_reverse_family_needs_normalized_measure():
    f = FiniteFunction((0.3, 0.6))
    g = FiniteFunction((0.2, 0.7))
    half = FiniteMonotoneMeasure(2, (0.0, 0.25, 0.25, 0.5))
    v = verify(make("rev_chebyshev", max_op(1.0), half, [f, g], star=max_op(1.0)))
    assert not v.hypothesis_report.check("measure_normalized").passed
    w = verify(make("rev_chebyshev", max_op(1.0), counting_measure(2, normalized=True),
                    [f, g], star=max_op(1.0)))
    assert w.hypothesis_report.check("measure_normalized").passed
    assert w.holds and w.direction == "<="


def test_skip_hypotheses_still_reports_margin():
    m = counting_measure(2, normalized=True)
    f = FiniteFunction((0.1, 0.9))
    g = FiniteFunction((0.8, 0.2))
    v = verify(make("chebyshev", min_op(1.0), m, [f, g], star=min_op(1.0)),
               skip_hypotheses=True)
    assert v.hypothesis_report.checks == ()
    assert isinstance(v.margin, float)


# ---------------------------------------------------------------------------
# scalar sufficient conditions
# ---------------------------------------------------------------------------


def test_power_transform_meets_min_condition():
    rep = check_scalar_condition("jensen", min_op(1.0), phi=(power(2.0),))
    assert rep.passed


def test_affine_shift_fails_min_condition_with_witness():
    rep = check_scalar_condition("jensen", min_op(1.0), phi=(affine(1.0, 0.2),))
    assert not rep.passed
    bad = [c for c in rep.checks if not c.passed][0]
    assert bad.witness is not None


def test_condition_respects_data_box():
    # the product pair satisfies the two-function condition on the unit box
    rep = check_scalar_condition(
        "chebyshev", min_op(1.0), star=prod_op(1.0), hi_data=1.0, hi_measure=1.0
    )
    assert rep.passed


@pytest.mark.parametrize(
    "tid, kw, needle",
    [
        ("thm32", {"H": h_min(2), "exponents": {"xi": (1.0, 1.0)}}, "one xi and omega"),
        ("thm42_h", {"H": h_min(2), "exponents": {"omega": 2.0}}, "must be sequences"),
        ("thm32", {"H": h_min(2), "exponents": {"xi": (1.0, -1.0, 1.0)}}, "positive"),
        ("lyapunov", {"exponents": {"r": 0.0, "s": 1.0}}, "must be positive"),
        # a name the family does not read would otherwise read as 1
        ("seminormed_general", {"star": min_op(1.0), "exponents": {"lam": 2.0}}, "no exponent lam$"),
        ("chebyshev", {"star": min_op(1.0), "exponents": {"p": 1.0, "xi1": 1.0}}, "no exponent p, xi1$"),
        ("thm32", {"H": h_min(2), "exponents": {"xi1": 0.5}}, "thm32 reads no exponent xi1$"),
    ],
)
def test_condition_exponents_are_validated_as_verify_does(tid, kw, needle):
    with pytest.raises(InputError, match=needle):
        check_scalar_condition(tid, min_op(1.0), **kw)


@pytest.mark.parametrize("tid", ["jensen", "rev_jensen"])
def test_condition_reads_a_missing_phi_as_the_identity_as_verify_does(tid):
    op = min_op(1.0) if tid == "jensen" else max_op(1.0)
    rep = check_scalar_condition(tid, op)
    assert rep.passed
    v = verify(make(tid, op, counting_measure(3, normalized=True), [FiniteFunction((0.2, 0.5, 0.8))]))
    assert v.holds and v.hypotheses_met and v.margin == 0.0


@pytest.mark.parametrize(
    "tid, kw, needle",
    [
        ("thm31", {"H": h_min(2)}, "need n\\+1 outer transforms and n reindexings"),
        ("thm41", {"H": h_min(2), "u": (identity(),) * 3}, "need n\\+1 outer transforms"),
        ("thm33", {"phi": (power(2.0),)}, "transform comparison needs two transforms"),
        ("rev_transform", {}, "transform comparison needs two transforms"),
        ("chebyshev", {}, "two-function families need a pointwise operation"),
        ("thm32", {}, "n-ary families need an aggregation"),
    ],
)
def test_condition_checks_its_inputs_as_verify_does(tid, kw, needle):
    with pytest.raises(InputError, match=needle):
        check_scalar_condition(tid, min_op(1.0), **kw)


def test_condition_results_are_cached_across_verifies():
    # two instances in the same snapped data box share one grid sweep
    m1 = counting_measure(3, normalized=True)
    m2 = counting_measure(2, normalized=True)
    v1 = verify(make("jensen", min_op(1.0), m1,
                     [FiniteFunction((0.2, 0.5, 0.8))], phi=[power(2.0)]))
    v2 = verify(make("jensen", min_op(1.0), m2,
                     [FiniteFunction((0.3, 0.9))], phi=[power(2.0)]))
    assert v1.hypothesis_report.check("scalar_condition") is v2.hypothesis_report.check(
        "scalar_condition"
    )


def _side_keys():
    return list(ineq._stores.get().get(ineq._interval_integral.__wrapped__, ()))


# interval instances built around a zero of either sign; the two of a pair
# are equal, so their sides share cache keys
_SIGNED_ZERO_CASES = {
    "const": lambda z: make(
        "chebyshev", min_op(1.0), LEB, [ConstFunction(z), PowerFunction(2.0)], star=min_op(1.0)
    ),
    "pwl": lambda z: make(
        "chebyshev", prod_op(), LEB,
        [PwlFunction((0.0, 0.5, 1.0), (z, 0.25, 1.0)), PowerFunction(0.5)], star=min_op(),
    ),
    "pwl-reverse": lambda z: make(
        "rev_chebyshev", max_op(1.0), LEB,
        [PwlFunction((0.0, 0.5, 1.0), (z, z, 0.75)), PowerFunction(1.5)], star=max_op(1.0),
    ),
    "pwl-transformed": lambda z: make(
        "jensen", min_op(), LEB, [PwlFunction((0.0, 1.0), (z, 0.5))], phi=[power(2.0)]
    ),
    "affine-distortion": lambda z: make(
        "chebyshev", smallest_op(0.5), DistortedLebesgue(affine(0.5, z)),
        [PowerFunction(0.5), PowerFunction(2.0)], star=min_op(),
    ),
}


@pytest.mark.parametrize("first", [0.0, -0.0], ids=("first+0", "first-0"))
@pytest.mark.parametrize("case", sorted(_SIGNED_ZERO_CASES))
def test_warm_side_integrals_give_the_cold_verdict_for_either_sign_of_zero(case, first):
    build = _SIGNED_ZERO_CASES[case]
    second = -first

    def cold(z):
        with fresh_stores():
            return dumps_17g(verify(build(z)).to_json())

    want = cold(second)
    with fresh_stores():
        verify(build(first))
        warmed = _side_keys()
        assert warmed
        # the second sign reads every side from the first's entries
        assert dumps_17g(verify(build(second)).to_json()) == want
        assert _side_keys() == warmed
        assert dumps_17g(verify(build(first)).to_json()) == cold(first)


def test_finite_verdicts_add_no_side_integral_to_the_cache():
    inst = make("chebyshev", min_op(1.0), counting_measure(3, normalized=True),
                [FiniteFunction((0.2, 0.5, 0.8)), FiniteFunction((0.1, 0.4, 0.9))], star=min_op(1.0))
    with fresh_stores() as stores:
        verify(inst, skip_hypotheses=True)
        assert not stores
        verify(inst)
        assert stores and not _side_keys()


def test_a_side_that_cannot_hash_is_integrated_uncached():
    # a pwl built from lists is a valid function with no hash
    def build(pwl):
        return make("chebyshev", min_op(1.0), LEB, [pwl, PowerFunction(2.0)], star=min_op(1.0))

    listed = PwlFunction([0.0, 0.5, 1.0], [0.0, 0.25, 1.0])
    with fresh_stores():
        got = dumps_17g(verify(build(listed)).to_json())
        assert len(_side_keys()) == 1
        assert got == dumps_17g(verify(build(PwlFunction((0.0, 0.5, 1.0), (0.0, 0.25, 1.0)))).to_json())


def test_an_interval_left_side_that_is_a_function_reads_its_side_integral(monkeypatch):
    runs = []
    optimize = integrals._optimize
    monkeypatch.setattr(integrals, "_optimize", lambda *args: runs.append(args) or optimize(*args))

    def integrations(inst):
        runs.clear()
        with fresh_stores():
            verify(inst)
        return len(runs)

    # min(x², x) is x² itself, so the left side is the first side's integral
    inst = make("chebyshev", min_op(1.0), LEB, [PowerFunction(2.0), PowerFunction(1.0)], star=min_op(1.0))
    assert integrations(inst) == 2
    # a finite left side is integrated afresh, as each finite side is
    finite = make("chebyshev", min_op(1.0), counting_measure(2, normalized=True),
                  [FiniteFunction((0.04, 1.0)), FiniteFunction((0.2, 1.0))], star=min_op(1.0))
    assert integrations(finite) == 3


# ---------------------------------------------------------------------------
# verdict mechanics
# ---------------------------------------------------------------------------


def test_verdict_serializes_with_complete_fields():
    v = verify(make("jensen", min_op(), LEB, [PowerFunction(1.0)], phi=[power(2.0)]))
    d = v.to_json()
    for key in ("theorem", "holds", "direction", "lhs", "rhs", "margin",
                "tol", "hypotheses_met", "hypothesis_report", "notes"):
        assert key in d


def test_theorem_catalog_is_closed():
    assert "chebyshev" in THEOREM_IDS and "rev_chebyshev" in THEOREM_IDS
    with pytest.raises(InputError):
        make("unknown_family", min_op(), LEB, [PowerFunction(1.0)])


def test_probsum_star_reverse_bound_holds():
    m = counting_measure(3, normalized=True)
    f = FiniteFunction((0.2, 0.5, 0.8))
    g = FiniteFunction((0.1, 0.4, 0.9))
    v = verify(make("rev_chebyshev", max_op(1.0), m, [f, g], star=probsum_op()))
    assert v.holds and v.direction == "<="


def test_decreasing_table_aggregation_is_flagged_with_its_witness():
    H = h_table((0.0, 0.25), (1, 0, 0, 0))
    inst = make(
        "thm32", min_op(), counting_measure(2, normalized=True),
        [FiniteFunction((0.2, 0.5)), FiniteFunction((0.1, 0.4))], H=H,
    )
    check = verify(inst).hypothesis_report.check("aggregator_nondecreasing")
    assert not check.passed
    assert check.witness == (0.0, 0.0, 0, 0.25)


def test_dip_between_table_nodes_fails_the_monotonicity_check():
    # (a + b)/2 on 21 nodes, except H(0.05, 0.05) = 0 below H(0, 0.05) = 0.025
    nodes = [i / 20 for i in range(21)]
    values = [(a + b) / 2 for a in nodes for b in nodes]
    values[21 + 1] = 0.0
    inst = make(
        "thm32", min_op(), counting_measure(2, normalized=True),
        [FiniteFunction((0.2, 1.0)), FiniteFunction((0.1, 0.9))], H=h_table(nodes, values),
    )
    check = verify(inst).hypothesis_report.check("aggregator_nondecreasing")
    assert not check.passed
    assert check.witness == (0.0, 0.05, 0, 0.05)


def _table_walk(H):
    """Witness of the first drop of H from a cell reachable from [0, inf) to its axis successor."""
    nodes = H.nodes
    for cell in itertools.product(range(nearest_index(nodes, 0.0), len(nodes)), repeat=H.arity):
        args = tuple(nodes[j] for j in cell)
        for i, j in enumerate(cell):
            if j + 1 < len(nodes):
                bumped = args[:i] + (nodes[j + 1],) + args[i + 1 :]
                if H(bumped) < H(args) - 1e-12:
                    return args + (i, nodes[j + 1])
    return None


def test_table_monotonicity_agrees_with_a_walk_of_its_cells():
    rng = rng_of(26)
    fails = negative = 0
    with fresh_stores():
        for _ in range(300):
            k, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            nodes = sorted({round(float(x), 2) for x in rng.uniform(-0.5, 1.5, n)})
            # monotone along every axis, then one entry lowered in about half the tables
            steps = [np.cumsum(rng.integers(0, 3, len(nodes)) / 4.0) for _ in range(k)]
            values = reduce(np.add.outer, steps)
            if rng.random() < 0.5:
                values.flat[int(rng.integers(values.size))] -= float(rng.integers(1, 4)) / 4.0
            H = h_table(nodes, values.ravel().tolist(), k)
            want = _table_walk(H)
            check = ineq._check_H_nondecreasing(H)
            assert (check.passed, check.witness) == (want is None, want)
            fails += want is not None
            negative += nodes[0] < 0.0
    assert 50 < fails < 250 and negative > 100


def test_fold_and_wmean_aggregations_pass_without_a_call(monkeypatch):
    calls = []
    monkeypatch.setattr(ineq.NaryOp, "__call__", lambda H, args: calls.append(args))
    with fresh_stores():
        for k in range(1, ineq.MAX_ARITY + 1):
            for H in (h_min(k), h_max(k), h_prod(k), h_wmean([1.0] * k)):
                check = ineq._check_H_nondecreasing(H)
                assert check == CheckResult("aggregator_nondecreasing", True)
    assert calls == []


def test_binary_aggregation_fails_with_its_op_witness():
    bad = custom_op(lambda a, b: a * (1.0 - b), 0.0, 1.0)
    want = verify_op_properties(bad, ("nondecreasing",)).check("nondecreasing")
    check = ineq._check_H_nondecreasing(ineq.NaryOp("binary", op=bad))
    assert not check.passed and want.witness is not None
    assert check.witness == want.witness


def test_infinite_integrals_fail_the_finiteness_check():
    f = FiniteFunction((math.inf, 1.0))
    v = verify(make("chebyshev", prod_op(), counting_measure(2), [f, f], star=min_op()))
    assert v.lhs == v.rhs == math.inf
    check = v.hypothesis_report.check("finite_integrals")
    assert not check.passed
    assert check.witness == (math.inf,)
