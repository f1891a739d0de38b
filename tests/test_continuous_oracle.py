"""The continuous carrier against an independent oracle: the finite sandwich.

Split [0, 1] into n equal cells and let f_lo and f_hi be the step
functions that take, on each cell, the least and the greatest value of f
there.  Every integral here is monotone in f, so

    I(f_lo) <= I(f) <= I(f_hi).

Under m = g∘λ both bounds are exact step-function computations, written
here in numpy without the package's evaluators, profiles, optimiser or
op kernels:

    forward:  max over values v_k of  v_k ⊙ g(#{v >= v_k} / n)
    reverse:  min over t in {0} ∪ v of  t ⊕ g(#{v > t} / n)

A cell's least and greatest value lie at its ends or, for a piecewise
linear part, at a node inside it; every continuous function kind is a
nondecreasing map of such parts, so those points suffice.

The drawn cases cover forward min, prod, lukasiewicz and drastic, and
reverse max, probsum and luk_conorm.  Every miss known is kept below as
a strict xfail: three of the smallest and greatest pseudo-multiplications,
which jump inside a span, against their closed forms, and four drawn
cases against their sandwiches.  A fifth drawn case, drastic-full-level,
passes and is kept as a plain test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzyint import (
    CappedFunction,
    ConstFunction,
    DistortedLebesgue,
    FlooredFunction,
    LatticeCombo,
    PowerFunction,
    PwlFunction,
    TransformedFunction,
    affine,
    compose,
    drastic_op,
    greatest_op,
    luk_conorm_op,
    lukasiewicz_op,
    max_op,
    min_op,
    power,
    probsum_op,
    prod_op,
    semiconormed_integral,
    smallest_op,
    universal_integral,
)

CELLS = 4000
# float noise in the package's level lengths and in the bounds themselves
SLACK = 1e-9

# kind -> the op on arrays of thresholds a and level measures b
ARRAY_OPS = {
    "min": np.minimum,
    "prod": np.multiply,
    "lukasiewicz": lambda a, b: np.maximum(0.0, a + b - 1.0),
    "drastic": lambda a, b: np.where(b == 1.0, a, np.where(a == 1.0, b, 0.0)),
    "max": np.maximum,
    "probsum": lambda a, b: a + b - a * b,
    "luk_conorm": lambda a, b: np.minimum(1.0, a + b),
}
FORWARD_OPS = (min_op(1.0), min_op(), prod_op(1.0), prod_op(), lukasiewicz_op(), drastic_op())
REVERSE_OPS = (max_op(1.0), max_op(), probsum_op(), luk_conorm_op())


# ---------------------------------------------------------------------------
# the sandwich
# ---------------------------------------------------------------------------


def _transformed(t, v):
    """The monotone transform t applied to the array v."""
    if t.kind == "power":
        return v**t.p
    if t.kind == "affine":
        return t.a * v + t.b
    for part in t.parts:  # compose applies its parts in order
        v = _transformed(part, v)
    return v


def values(f, x):
    """f at the points of the array x, for every continuous function kind."""
    if isinstance(f, ConstFunction):
        return np.full(x.shape, f.c)
    if isinstance(f, PowerFunction):
        return f.coef * x**f.p
    if isinstance(f, PwlFunction):
        return np.interp(x, f.xs, f.ys)
    if isinstance(f, CappedFunction):
        return np.minimum(values(f.base, x), f.cap_value)
    if isinstance(f, FlooredFunction):
        return np.maximum(values(f.base, x), f.floor_value)
    if isinstance(f, LatticeCombo):
        pick = np.minimum if f.kind == "min" else np.maximum
        return pick(*(values(p, x) for p in f.parts))
    return _transformed(f.transform, values(f.base, x))


def _pwl_nodes(f):
    """x of every piecewise linear node inside f's structure."""
    if isinstance(f, PwlFunction):
        return f.xs
    if isinstance(f, (CappedFunction, FlooredFunction, TransformedFunction)):
        return _pwl_nodes(f.base)
    if isinstance(f, LatticeCombo):
        return tuple(x for p in f.parts for x in _pwl_nodes(p))
    return ()


def cell_bounds(f, n=CELLS):
    """(f_lo, f_hi): the least and the greatest value of f on each cell."""
    ends = values(f, np.arange(n + 1) / n)
    lo = np.minimum(ends[:-1], ends[1:])
    hi = np.maximum(ends[:-1], ends[1:])
    nodes = np.asarray(_pwl_nodes(f), dtype=float)
    cells = np.minimum((nodes * n).astype(int), n - 1)
    at_nodes = values(f, nodes)
    np.minimum.at(lo, cells, at_nodes)
    np.maximum.at(hi, cells, at_nodes)
    return lo, hi


def _measure_of_counts(g, counts, n):
    """g(count / n) for each count, g called once per distinct count."""
    distinct, inv = np.unique(counts, return_inverse=True)
    return np.array([g.apply(int(c) / n) for c in distinct])[inv]


def step_forward(op, g, v):
    """sup over t of t ⊙ g(λ{v >= t}) for the step function v on n cells."""
    s = np.sort(v)
    counts = len(s) - np.searchsorted(s, s, side="left")
    return max(0.0, float(np.max(op(s, _measure_of_counts(g, counts, len(s))))))


def step_reverse(op, g, v):
    """inf over t of t ⊕ g(λ{v > t}) for the step function v on n cells."""
    s = np.sort(v)
    t = np.concatenate(([0.0], s))
    counts = len(s) - np.searchsorted(s, t, side="right")
    return float(np.min(op(t, _measure_of_counts(g, counts, len(s)))))


def sandwich(op, g, f, reverse):
    """[I(f_lo), I(f_hi)] for the array op under m = g∘λ."""
    lo, hi = cell_bounds(f)
    step = step_reverse if reverse else step_forward
    return step(op, g, lo), step(op, g, hi)


def test_sandwich_brackets_a_known_integral():
    # f(x) = x under λ: forward min is the fixed point 1/2, reverse max is 1/2 too
    f, g = PowerFunction(1.0), power(1.0)
    lo, hi = sandwich(np.minimum, g, f, reverse=False)
    assert lo <= 0.5 <= hi and hi - lo <= 1.0 / CELLS
    lo, hi = sandwich(np.maximum, g, f, reverse=True)
    assert lo <= 0.5 <= hi and hi - lo <= 1.0 / CELLS


# ---------------------------------------------------------------------------
# drawn profiles
# ---------------------------------------------------------------------------

unit_st = st.integers(0, 20).map(lambda k: k / 20)
positive_st = st.integers(1, 20).map(lambda k: k / 20)
exponent_st = st.integers(2, 60).map(lambda k: k / 20)  # 0.1, ..., 3.0


@st.composite
def pwl_st(draw, monotone):
    k = draw(st.integers(1, 4))
    inner = sorted(draw(st.sets(st.integers(1, 19), min_size=k - 1, max_size=k - 1)))
    xs = (0.0,) + tuple(i / 20 for i in inner) + (1.0,)
    ys = draw(st.lists(unit_st, min_size=len(xs), max_size=len(xs)))
    return PwlFunction(xs, tuple(sorted(ys)) if monotone else tuple(ys))


def base_st(monotone):
    return st.one_of(
        st.builds(PowerFunction, exponent_st, positive_st),
        pwl_st(monotone),
    )


def function_st():
    """Every continuous kind, with values in [0, 1]."""
    return st.one_of(
        st.builds(ConstFunction, unit_st),
        base_st(monotone=False),
        st.builds(CappedFunction, base_st(monotone=False), unit_st),
        st.builds(FlooredFunction, base_st(monotone=False), unit_st),
        st.builds(
            LatticeCombo,
            st.sampled_from(("min", "max")),
            st.tuples(base_st(monotone=True), base_st(monotone=True)),
        ),
        st.builds(
            TransformedFunction, base_st(monotone=False), exponent_st.map(power)
        ),
    )


# g(1) = 1 keeps cap-1 ops in their domain; a slope stretches the rest
distortion_st = exponent_st.map(power)
stretch_st = st.integers(5, 40).map(lambda k: k / 20)

ORACLE = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _stretched(op, g, stretch):
    # an unbounded op also meets measures with g(1) != 1
    return g if op.cap == 1.0 else compose(affine(stretch), g)


@given(st.sampled_from(FORWARD_OPS), distortion_st, stretch_st, function_st())
@ORACLE
def test_forward_integral_meets_the_sandwich(op, g, stretch, f):
    g = _stretched(op, g, stretch)
    got = universal_integral(op, DistortedLebesgue(g), f)
    lo, hi = sandwich(ARRAY_OPS[op.kind], g, f, reverse=False)
    assert lo - SLACK - got.tol <= got.value <= hi + SLACK + got.tol, (lo, got.value, hi)


@given(st.sampled_from(REVERSE_OPS), distortion_st, stretch_st, function_st())
@ORACLE
def test_reverse_integral_meets_the_sandwich(op, g, stretch, f):
    g = _stretched(op, g, stretch)
    got = semiconormed_integral(op, DistortedLebesgue(g), f)
    lo, hi = sandwich(ARRAY_OPS[op.kind], g, f, reverse=True)
    assert lo - SLACK - got.tol <= got.value <= hi + SLACK + got.tol, (lo, got.value, hi)


# ---------------------------------------------------------------------------
# known misses of the threshold search, against closed forms
# ---------------------------------------------------------------------------

def _smallest(e):
    def op(a, b):
        return np.where(
            (a < e) & (b < e), 0.0, np.where((a >= e) & (b >= e), np.maximum(a, b), np.minimum(a, b))
        )

    return op


def _greatest(e):
    def op(a, b):
        return np.where(
            (a == 0.0) | (b == 0.0),
            0.0,
            np.where(
                (a <= e) & (b <= e),
                np.minimum(a, b),
                np.where((a > e) & (b > e), math.inf, np.maximum(a, b)),
            ),
        )

    return op


# name -> (op, the op on arrays, distortion, function, closed-form sup)
MISSES = {
    # {f >= t} has length 1 - (4t)^(1/4), squared by g; the smallest op
    # gives t while that reaches 1/2, so the sup is where it equals 1/2
    "smallest-jump": (
        smallest_op(0.5),
        _smallest(0.5),
        power(2.0),
        PowerFunction(4.0, 0.25),
        0.25 * (1.0 - 2.0**-0.5) ** 4,
    ),
    # the level measure tends to 1 > e as t -> 0+, so the greatest op
    # approaches max(t, 1) = 1 there, a sup that is not attained
    "greatest-near-zero": (
        greatest_op(0.5),
        _greatest(0.5),
        power(2.0),
        PowerFunction(4.0, 0.25),
        1.0,
    ),
    # past the neutral mark t = 1/2 the op is max(t, (1 - t)^0.8) while
    # the level measure stays >= 1/2, that is up to t = 1 - 0.5^1.25
    "smallest-past-neutral": (
        smallest_op(0.5),
        _smallest(0.5),
        power(0.8),
        PowerFunction(1.0),
        1.0 - 0.5**1.25,
    ),
}


@pytest.mark.xfail(strict=True, reason="the threshold search misses a sup inside a span")
@pytest.mark.parametrize("name", MISSES)
def test_threshold_search_finds_the_closed_form(name):
    op, _, g, f, want = MISSES[name]
    got = universal_integral(op, DistortedLebesgue(g), f)
    assert math.isclose(got.value, want, rel_tol=0.0, abs_tol=SLACK)


@pytest.mark.parametrize("name", MISSES)
def test_closed_forms_lie_in_the_sandwich(name):
    _, array_op, g, f, want = MISSES[name]
    lo, hi = sandwich(array_op, g, f, reverse=False)
    assert lo - SLACK <= want <= hi + SLACK


# Drawn cases the package missed; all but drastic-full-level are still
# outside their sandwiches by far more than SLACK.  The first two pull
# thresholds below 0.063 back to 0, the candidate of f's flat zero piece, so
# the level counts that piece.  In the third, {f >= 0.05} is all of [0, 1],
# and the drastic op reaches 0.05 only if that level measures exactly 1, not
# 0.9999999999999999.  In the last two the optimum is a peak narrower than
# the spacing of the search's seeds, 0.0044 apart: lukasiewicz is positive
# only for t below about 0.0012, and luk_conorm drops under 1 only for t
# within about 0.0013 of 1.
FLAT_ZERO = TransformedFunction(PwlFunction((0.0, 0.05, 1.0), (0.55, 0.0, 0.0)), power(0.1))
DRAWN_MISSES = {
    "transformed-flat-zero-min": (min_op(1.0), power(1.0), FLAT_ZERO),
    "transformed-flat-zero-prod": (prod_op(1.0), power(1.0), FLAT_ZERO),
    "drastic-full-level": (
        drastic_op(),
        power(1.0),
        PwlFunction((0.0, 0.1, 0.2, 0.9, 1.0), (0.8, 0.05, 0.7, 0.1, 1.0)),
    ),
    "lukasiewicz-narrow-peak": (lukasiewicz_op(), power(0.75), PowerFunction(0.75, 0.15)),
    "luk-conorm-narrow-dip": (luk_conorm_op(), power(1.4), PwlFunction((0.0, 1.0), (0.85, 1.0))),
}


OUTSIDE = pytest.mark.xfail(strict=True, reason="the package's integral lies outside the sandwich")


@pytest.mark.parametrize(
    "name",
    [n if n == "drastic-full-level" else pytest.param(n, marks=OUTSIDE) for n in DRAWN_MISSES],
)
def test_drawn_miss_meets_the_sandwich(name):
    op, g, f = DRAWN_MISSES[name]
    reverse = op in REVERSE_OPS
    integral = semiconormed_integral if reverse else universal_integral
    got = integral(op, DistortedLebesgue(g), f)
    lo, hi = sandwich(ARRAY_OPS[op.kind], g, f, reverse)
    assert lo - SLACK <= got.value <= hi + SLACK
