"""Binary operation semantics, declared-flag verification, domination."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyint import (
    GridSpec,
    INF,
    InputError,
    check_distributivity,
    check_domination,
    custom_op,
    drastic_op,
    eval_op,
    greatest_op,
    luk_conorm_op,
    lukasiewicz_op,
    max_op,
    min_op,
    power,
    probsum_op,
    prod_op,
    smallest_op,
    sum_op,
    table_op,
    xmul,
)
from fuzzyint.ops import verify_op_properties

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# pointwise semantics
# ---------------------------------------------------------------------------


def test_min_prod_max_sum_values():
    assert eval_op(min_op(), 0.3, 0.7) == 0.3
    assert eval_op(prod_op(), 0.5, 0.4) == 0.2
    assert eval_op(max_op(), 0.3, 0.7) == 0.7
    assert eval_op(sum_op(), 0.3, 0.7) == 1.0


def test_prod_zero_times_inf_is_zero():
    assert eval_op(prod_op(), 0.0, INF) == 0.0
    assert eval_op(prod_op(), INF, 0.0) == 0.0
    assert xmul(0.0, INF) == 0.0


def test_lukasiewicz_pair():
    # t-norm max(a+b-1, 0) and its conorm min(a+b, 1)
    assert eval_op(lukasiewicz_op(), 0.7, 0.6) == pytest.approx(0.3, abs=1e-15)
    assert eval_op(lukasiewicz_op(), 0.3, 0.6) == 0.0
    assert eval_op(luk_conorm_op(), 0.7, 0.6) == 1.0
    assert eval_op(luk_conorm_op(), 0.3, 0.4) == pytest.approx(0.7, abs=1e-15)


def test_drastic_product():
    assert eval_op(drastic_op(), 1.0, 0.4) == 0.4
    assert eval_op(drastic_op(), 0.4, 1.0) == 0.4
    assert eval_op(drastic_op(), 0.9, 0.9) == 0.0


def test_probabilistic_sum():
    assert eval_op(probsum_op(), 0.5, 0.5) == 0.75
    assert eval_op(probsum_op(), 0.0, 0.3) == 0.3
    assert eval_op(probsum_op(), 1.0, 0.3) == 1.0


def test_smallest_with_neutral_branches():
    op = smallest_op(1.0)
    # both below the neutral: annihilated
    assert eval_op(op, 0.9, 0.99) == 0.0
    # one side at or above the neutral: the other side passes through
    assert eval_op(op, 1.0, 0.4) == 0.4
    assert eval_op(op, 0.4, 1.5) == 0.4
    # both at or above: max
    assert eval_op(op, 1.2, 1.5) == 1.5
    assert eval_op(op, 1.0, 1.0) == 1.0


def test_greatest_with_neutral_branches():
    op = greatest_op(1.0)
    assert eval_op(op, 0.0, 5.0) == 0.0
    assert eval_op(op, 1.0, 0.4) == 0.4
    # both at or below the neutral: pinned to min by the neutral row
    assert eval_op(op, 0.5, 0.5) == 0.5
    assert eval_op(op, 0.5, 1.5) == 1.5
    # both strictly above: unconstrained, so the top
    assert eval_op(op, 1.2, 1.5) == INF


def test_neutral_element_identity_row():
    for op in (min_op(1.0), prod_op(1.0), smallest_op(1.0), lukasiewicz_op()):
        for b in (0.0, 0.25, 0.8, 1.0):
            assert eval_op(op, op.neutral, b) == b
            assert eval_op(op, b, op.neutral) == b
    for op in (max_op(1.0), probsum_op(), luk_conorm_op()):
        for b in (0.0, 0.25, 0.8, 1.0):
            assert eval_op(op, op.neutral, b) == b


def test_arguments_outside_domain_rejected():
    with pytest.raises(InputError):
        eval_op(min_op(1.0), 1.2, 0.5)
    with pytest.raises(InputError):
        eval_op(prod_op(), -0.1, 0.5)
    with pytest.raises(InputError):
        eval_op(prod_op(), float("nan"), 0.5)


# ---------------------------------------------------------------------------
# declared flags hold on the grid
# ---------------------------------------------------------------------------

ALL_STANDARD = [
    min_op(),
    min_op(1.0),
    prod_op(),
    prod_op(1.0),
    smallest_op(1.0),
    smallest_op(0.5),
    greatest_op(1.0),
    lukasiewicz_op(),
    drastic_op(),
    max_op(1.0),
    max_op(),
    sum_op(),
    probsum_op(),
    luk_conorm_op(),
]


@pytest.mark.parametrize("op", ALL_STANDARD, ids=lambda o: f"{o.kind}-cap{o.cap}")
def test_declared_flags_verified(op):
    rep = verify_op_properties(op)
    assert rep.passed, [c for c in rep.checks if not c.passed]


def test_prod_associativity_not_tripped_by_roundoff():
    # (0.04 * 0.04) * 0.12 and 0.04 * (0.04 * 0.12) differ in the last ulp
    rep = verify_op_properties(prod_op(1.0), properties=("associative",))
    assert rep.passed


def test_false_declaration_caught():
    bad = custom_op(lambda a, b: max(a, b), neutral=0.0, cap=1.0,
                    flags=("nondecreasing", "bounded_above_by_min"))
    rep = verify_op_properties(bad)
    assert not rep.passed
    failed = rep.check("bounded_above_by_min")
    assert failed.witness is not None
    a, b = failed.witness[:2]
    assert max(a, b) > min(a, b)


def test_table_op_interpolates_and_checks():
    nodes = (0.0, 0.5, 1.0)
    vals = tuple(min(a, b) for a in nodes for b in nodes)
    op = table_op(nodes, vals, neutral=1.0, cap=1.0,
                  flags=("nondecreasing", "commutative"))
    assert eval_op(op, 0.5, 1.0) == 0.5
    assert verify_op_properties(op, grid=GridSpec(cap=1.0, n=5)).passed


@given(a=unit, b=unit, c=unit)
@settings(max_examples=60, deadline=None)
def test_prod_monotone_in_each_argument(a, b, c):
    lo, hi = sorted((b, c))
    assert eval_op(prod_op(1.0), a, lo) <= eval_op(prod_op(1.0), a, hi)


@given(a=unit, b=unit)
@settings(max_examples=60, deadline=None)
def test_semicopulas_sit_between_drastic_and_min(a, b):
    lo = eval_op(drastic_op(), a, b)
    hi = eval_op(min_op(1.0), a, b)
    for op in (prod_op(1.0), lukasiewicz_op()):
        v = eval_op(op, a, b)
        assert lo - 1e-12 <= v <= hi + 1e-12


# ---------------------------------------------------------------------------
# domination and distributivity
# ---------------------------------------------------------------------------


def test_min_dominates_every_tnorm_on_grid():
    for t in (prod_op(1.0), lukasiewicz_op(), drastic_op(), min_op(1.0)):
        assert check_domination(min_op(1.0), t).passed


def test_prod_does_not_dominate_min():
    rep = check_domination(prod_op(1.0), min_op(1.0))
    assert not rep.passed
    w = rep.checks[0].witness
    assert w is not None
    a, b, c, d = w
    lhs = eval_op(prod_op(1.0), eval_op(min_op(1.0), a, b), eval_op(min_op(1.0), c, d))
    rhs = eval_op(min_op(1.0), eval_op(prod_op(1.0), a, c), eval_op(prod_op(1.0), b, d))
    assert lhs < rhs


def test_power_is_distributive_over_min_and_prod():
    # monotone phi commutes with min; x^p splits over products
    for ph in (power(2.0), power(0.5), power(3.0)):
        assert check_distributivity(ph, min_op(1.0), "sub").passed
        assert check_distributivity(ph, min_op(1.0), "super").passed
        assert check_distributivity(ph, prod_op(1.0), "sub").passed


def test_affine_shift_fails_subdistributivity_over_prod():
    ph = lambda x: x + 0.1
    rep = check_distributivity(ph, prod_op(1.0), "sub")
    assert not rep.passed
    x, y = rep.checks[0].witness
    assert (eval_op(prod_op(1.0), x, y) + 0.1) > (min(x + 0.1, 1.0)) * (min(y + 0.1, 1.0)) or True
    # witness recomputes as a genuine failure
    lhs = eval_op(prod_op(1.0), x, y) + 0.1
    rhs = eval_op(prod_op(1.0), min(x + 0.1, 1.0), min(y + 0.1, 1.0))
    assert lhs > rhs + 1e-12


def test_invalid_factory_arguments():
    with pytest.raises(InputError):
        smallest_op(0.0)
    with pytest.raises(InputError):
        smallest_op(-1.0)
    with pytest.raises(InputError):
        table_op((0.0, 1.0), (0.0, 0.0, 0.0), neutral=1.0)


@pytest.mark.parametrize("cap", [0.0, 0.5, 1.5, 2.0, math.nan])
def test_cap_other_than_one_or_inf_is_refused(cap):
    # the grids, the contraction check and the integrals know only the two
    with pytest.raises(InputError, match="op cap must be 1 or inf"):
        min_op(cap)


def test_infinite_cap_grid_includes_absorbing_row():
    rep = verify_op_properties(prod_op(), properties=("annihilator_zero",))
    assert rep.passed
    assert math.isinf(prod_op().cap)


def test_nondecreasing_check_finds_a_drop_along_the_second_argument():
    # nondecreasing in a, decreasing in b: only the second sweep sees it
    op = custom_op(lambda a, b: a * (1 - b), 0.0, 1.0, ["nondecreasing"])
    check = verify_op_properties(op).check("nondecreasing")
    assert not check.passed
    assert check.witness == (0.01, 0.0, 0.01)
