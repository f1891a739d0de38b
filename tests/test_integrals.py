"""Integral evaluators against closed forms and brute-force oracles."""

from __future__ import annotations

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyint import (
    BinaryOp,
    CappedFunction,
    ConstFunction,
    DistortedLebesgue,
    FiniteFunction,
    FiniteMonotoneMeasure,
    FlooredFunction,
    InputError,
    LatticeCombo,
    PowerFunction,
    PwlFunction,
    TransformedFunction,
    affine,
    compose,
    counting_measure,
    custom_op,
    drastic_op,
    eval_at,
    eval_op,
    identity,
    luk_conorm_op,
    lukasiewicz_op,
    max_op,
    min_op,
    power,
    probsum_op,
    prod_op,
    semiconormed_integral,
    seminormed_integral,
    shilkret,
    smallest_e_integral,
    smallest_op,
    sugeno,
    sum_op,
    survival,
    table_op,
    universal_integral,
)
from fuzzyint import ops
from fuzzyint.integrals import _optimize
from fuzzyint.measures import SurvivalProfile
from fuzzyint.ops import KIND_GREATEST, KIND_SMALLEST
from conftest import random_finite_function, random_measure, rng_of

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # fixed point of t = 1 - t**2


# ---------------------------------------------------------------------------
# brute-force finite oracles (independent of the survival machinery)
# ---------------------------------------------------------------------------


def weak_mask_measure(m, vals, t):
    mask = 0
    for i, v in enumerate(vals):
        if v >= t:
            mask |= 1 << i
    return m.table[mask]


def strict_mask_measure(m, vals, t):
    mask = 0
    for i, v in enumerate(vals):
        if v > t:
            mask |= 1 << i
    return m.table[mask]


def brute_forward(op, m, f):
    vals = f.values
    cands = set(vals) | {0.0}
    if math.isfinite(op.neutral):
        cands.add(op.neutral)
    cands = {t for t in cands if t <= max(vals)}
    return max(eval_op(op, t, weak_mask_measure(m, vals, t)) for t in cands)


def brute_reverse(op, m, f):
    vals = f.values
    cands = set(vals) | {0.0}
    return min(eval_op(op, t, strict_mask_measure(m, vals, t)) for t in cands)


# ---------------------------------------------------------------------------
# finite carrier: exactness against the oracles
# ---------------------------------------------------------------------------


def test_sugeno_matches_threshold_oracle_on_random_instances():
    rng = rng_of(101)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        res = sugeno(m, f)
        assert res.exact and res.tol == 0.0
        assert float(res) == brute_forward(min_op(), m, f)


def test_shilkret_matches_threshold_oracle_on_random_instances():
    rng = rng_of(103)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        assert float(shilkret(m, f)) == brute_forward(prod_op(), m, f)


def test_smallest_neutral_op_matches_oracle():
    rng = rng_of(107)
    op = smallest_op(1.0)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        assert float(universal_integral(op, m, f)) == brute_forward(op, m, f)


def test_reverse_integrals_match_oracle():
    rng = rng_of(109)
    for op in (max_op(1.0), probsum_op()):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = random_measure(rng, n)
            f = random_finite_function(rng, n)
            assert float(semiconormed_integral(op, m, f)) == brute_reverse(op, m, f)


def test_seminormed_agrees_with_unbounded_twin_on_unit_data():
    rng = rng_of(113)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        assert float(seminormed_integral(min_op(1.0), m, f)) == float(sugeno(m, f))
        assert float(seminormed_integral(prod_op(1.0), m, f)) == float(shilkret(m, f))


def test_seminormed_supports_lukasiewicz():
    m = counting_measure(2, normalized=True)
    f = FiniteFunction((0.6, 0.9))
    got = float(seminormed_integral(lukasiewicz_op(), m, f))
    assert got == brute_forward(lukasiewicz_op(), m, f)


def test_step_function_integrates_to_op_of_level_and_measure():
    # c on a subset A, zero elsewhere: the integral is exactly c (op) m(A)
    rng = rng_of(127)
    for op in (min_op(), prod_op(), smallest_op(1.0)):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = random_measure(rng, n)
            mask = int(rng.integers(1, 1 << n))
            c = float(rng.uniform(0.05, 1.0))
            vals = tuple(c if (mask >> i) & 1 else 0.0 for i in range(n))
            got = float(universal_integral(op, m, FiniteFunction(vals)))
            assert got == eval_op(op, c, m.value(mask))


def _marks(op, profile):
    marks = {0.0, profile.t_max}
    marks.update(profile.candidates)
    if op.kind in (KIND_SMALLEST, KIND_GREATEST) and math.isfinite(op.neutral):
        if 0.0 < op.neutral < profile.t_max:
            marks.add(op.neutral)
    return sorted(v for v in marks if 0.0 <= v <= profile.t_max)


def _marks_loop(op, profile, minimize):
    """The reference finite optimiser: a sorted mark set, each mark's level
    queried through the profile's weak or strict function."""
    level = profile.strict if minimize else profile.weak
    better = operator.lt if minimize else operator.gt
    marks = _marks(op, profile)
    best = None
    for v in marks:
        y = op.kernel(v, level(v))
        if best is None or better(y, best):
            best = y
    if best is None:
        best = 0.0
    return best, len(marks), True


def _outcome(fn):
    # repr tells -0.0 from 0.0 and compares NaN equal to NaN
    try:
        return "ok", repr(fn())
    except Exception as exc:
        return type(exc), str(exc)


_FIXED_OPS = (
    min_op(1.0), min_op(), prod_op(1.0), prod_op(), max_op(1.0), max_op(), sum_op(1.0), sum_op(),
    lukasiewicz_op(), drastic_op(), probsum_op(), luk_conorm_op(),
    custom_op(lambda a, b: a * b - a * 0.25, 1.0),
    table_op((0.0, 0.5, 1.0), (0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 0.0, 0.5, 1.0), 1.0),
    BinaryOp("no_such_kind", neutral=1.0),
)


@st.composite
def finite_case_st(draw):
    n = draw(st.integers(1, 6))
    values = draw(st.lists(
        st.one_of(st.sampled_from((-0.0, 0.0, 0.25, 0.5, 1.0, 3.0, math.inf)), st.floats(0.0, 2.0)),
        min_size=n, max_size=n,
    ))
    table = list(random_measure(rng_of(draw(st.integers(0, 2**32 - 1))), n, draw(st.booleans())).table)
    top = draw(st.sampled_from((None, 2.5, math.inf)))
    if top is not None:
        table[-1] = top
    if draw(st.booleans()):
        table[0] = -0.0
    cands = sorted(set(values))
    # neutrals at, between and beyond the candidates, and ones no mark takes
    neutral = draw(st.one_of(
        st.sampled_from(cands),
        st.sampled_from([a + (b - a) / 2.0 for a, b in zip(cands, cands[1:])] or [0.5]),
        st.sampled_from((cands[0] / 2.0, cands[-1] + 1.0, math.inf, 0.0, -0.0, -1.0, math.nan)),
    ))
    op = draw(st.one_of(
        st.sampled_from(_FIXED_OPS),
        st.sampled_from((KIND_SMALLEST, KIND_GREATEST)).map(lambda k: BinaryOp(k, neutral=neutral)),
    ))
    m = FiniteMonotoneMeasure(n, tuple(table))
    return op, survival(m, FiniteFunction(tuple(values))), draw(st.booleans())


@given(finite_case_st())
@settings(max_examples=1500, deadline=None, derandomize=True)
def test_finite_optimiser_reads_the_sweep_as_the_marks_loop_queried_it(case):
    op, profile, minimize = case
    got = _outcome(lambda: _optimize(op, profile, 1e-12, minimize))
    assert got == _outcome(lambda: _marks_loop(op, profile, minimize))


def _span_loop(op, profile, tol, minimize):
    """The reference interval optimiser: the marks loop, then every span
    seeded and sharpened with each threshold evaluated as
    op.kernel(t, level(t)) and compared by operator.lt or gt.  A span's
    ends are marks, already counted, so it counts its 33 interior seeds."""
    level = profile.strict if minimize else profile.weak
    better = operator.lt if minimize else operator.gt
    kern = op.kernel
    best, evals, _ = _marks_loop(op, profile, minimize)
    if profile.exact:
        return best, evals, True
    bracket = max(tol / 8.0, 1e-14)
    finite_marks = [v for v in _marks(op, profile) if math.isfinite(v)]
    for i in range(1, len(finite_marks)):
        lo, hi = finite_marks[i - 1], finite_marks[i]
        if not hi > lo:
            continue
        step = (hi - lo) / 34.0
        seg_best_t, seg_best_y = lo, kern(lo, level(lo))
        for k in range(1, 34):
            t = lo + step * k
            y = kern(t, level(t))
            if better(y, seg_best_y):
                seg_best_t, seg_best_y = t, y
        y_hi = kern(hi, level(hi))
        evals += 33
        if better(y_hi, seg_best_y):
            seg_best_t, seg_best_y = hi, y_hi
        if better(seg_best_y, best):
            best = seg_best_y
        a = max(lo, seg_best_t - step)
        b = min(hi, seg_best_t + step)
        while b - a > bracket:
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            y1, y2 = kern(m1, level(m1)), kern(m2, level(m2))
            evals += 2
            if better(y1, best):
                best = y1
            if better(y2, best):
                best = y2
            if better(y2, y1) or y1 == y2:
                if m1 == a:
                    break
                a = m1
            else:
                if m2 == b:
                    break
                b = m2
    return best, evals, False


_OP_KINDS = (
    ops.KIND_MIN, ops.KIND_PROD, KIND_SMALLEST, KIND_GREATEST, ops.KIND_LUKASIEWICZ,
    ops.KIND_DRASTIC, ops.KIND_MAX, ops.KIND_SUM, ops.KIND_PROBSUM, ops.KIND_LUK_CONORM,
)


@st.composite
def interval_op_st(draw):
    cap = draw(st.sampled_from((1.0, math.inf)))
    neutral = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0)))
    kind = draw(st.sampled_from(_OP_KINDS + ("fn", "signed_zero", "table", "no_such_kind")))
    if kind == "fn":
        return BinaryOp(ops.KIND_CUSTOM, neutral, cap, fn=lambda a, b: a * b - a * 0.25)
    if kind == "signed_zero":
        # every value ties, so the first zero found must be the one kept
        return BinaryOp(ops.KIND_CUSTOM, neutral, cap, fn=lambda a, b: (a - b) * 0.0)
    if kind == "table":
        return table_op((0.0, 0.5, 1.0), (0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 0.0, 0.5, 1.0), neutral, cap)
    return BinaryOp(kind, neutral, cap)


power_fn_st = st.builds(
    PowerFunction,
    st.one_of(st.sampled_from((0.25, 0.5, 0.85, 1.0, 2.0)), st.floats(0.2, 4.0)),
    # an int coef or node value is a mark the kernel would pass on as a float
    st.sampled_from((0.5, 1.0, 1, 1.5, 2.5)),
)


@st.composite
def pwl_fn_st(draw, nondecreasing=False):
    inner = draw(st.lists(st.sampled_from((0.125, 0.25, 0.5, 0.75)), unique=True, max_size=3))
    xs = (0.0, *sorted(inner), 1.0)
    ys = draw(st.lists(st.sampled_from((0.0, 0, 0.125, 0.5, 0.9, 1.0, 1, 1.75)),
                       min_size=len(xs), max_size=len(xs)))
    return PwlFunction(xs, tuple(sorted(ys) if nondecreasing else ys))


part_fn_st = st.one_of(power_fn_st, pwl_fn_st(nondecreasing=True))


@st.composite
def interval_fn_st(draw):
    kind = draw(st.sampled_from(("const", "power", "pwl", "capped", "floored", "lattice", "transformed")))
    if kind == "const":
        return ConstFunction(draw(st.sampled_from((0.0, 0.5, 1.0, 1, 1.5))))
    if kind == "power":
        return draw(power_fn_st)
    if kind == "pwl":
        return draw(pwl_fn_st())
    if kind == "capped":
        return CappedFunction(draw(part_fn_st), draw(st.sampled_from((0.25, 0.6, 1.0, 2.0))))
    if kind == "floored":
        return FlooredFunction(draw(part_fn_st), draw(st.sampled_from((0.125, 0.5, 1.25))))
    if kind == "lattice":
        parts = draw(st.lists(part_fn_st, min_size=2, max_size=3))
        return LatticeCombo(draw(st.sampled_from(("min", "max"))), tuple(parts))
    t = draw(st.sampled_from((power(0.5), power(2.0), affine(2.0, 0.25), compose(power(1.5), affine(0.5)))))
    return TransformedFunction(draw(part_fn_st), t)


distortion_st = st.one_of(
    st.just(identity()),
    st.sampled_from((0.5, 1.35, 2.0)).map(power),
    # slopes above 1 give m(X) > 1, past a cap-1 op's cap
    st.sampled_from((0.5, 1.5, 3.0)).map(affine),
)


@given(interval_op_st(), interval_fn_st(), distortion_st,
       st.sampled_from((1e-12, 1e-9, 1e-6)), st.booleans())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_span_search_evaluates_as_the_kernel_loop(op, f, g, tol, minimize):
    profile = survival(DistortedLebesgue(g), f)
    got = _outcome(lambda: _optimize(op, profile, tol, minimize))
    assert got == _outcome(lambda: _span_loop(op, profile, tol, minimize))


@given(interval_op_st(), interval_fn_st(), distortion_st, st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_span_search_queries_one_level_per_counted_evaluation(op, f, g, minimize):
    # a span's ends are marks, queried once, in the marks loop
    profile = survival(DistortedLebesgue(g), f)
    queries = 0

    def counted(level):
        def query(t):
            nonlocal queries
            queries += 1
            return level(t)

        return query

    profile.weak, profile.strict = counted(profile.weak), counted(profile.strict)
    try:
        _, evals, _ = _optimize(op, profile, 1e-9, minimize)
    except InputError:
        return
    assert queries == evals


def test_span_search_raises_the_kernel_error_for_a_level_past_the_cap():
    # m(X) = 2 under a cap-1 op: the kernel refuses the level at t = 0
    profile = survival(DistortedLebesgue(affine(2.0)), PowerFunction(0.85))
    for op in (min_op(1.0), prod_op(1.0), lukasiewicz_op()):
        expected = _outcome(lambda: _span_loop(op, profile, 1e-12, False))
        assert expected == (InputError, "value 2.0 outside [0, 1.0]")
        assert _outcome(lambda: _optimize(op, profile, 1e-12, False)) == expected
    # a level that leaves [0, 1] inside a span only, where no mark sees it
    for bad in (2.0, math.nan, -0.5):
        def weak(t, bad=bad):
            return bad if 0.0 < t < 1.0 else 0.5
        profile = SurvivalProfile(weak, weak, (0.0, 1.0), 1.0, False)
        expected = _outcome(lambda: _span_loop(min_op(1.0), profile, 1e-12, False))
        assert expected == (InputError, f"value {bad!r} outside [0, 1.0]")
        assert _outcome(lambda: _optimize(min_op(1.0), profile, 1e-12, False)) == expected


# ---------------------------------------------------------------------------
# unit-interval carrier: closed forms
# ---------------------------------------------------------------------------


def test_threshold_min_closed_forms_on_lebesgue():
    leb = DistortedLebesgue(identity())
    assert float(sugeno(leb, PowerFunction(1.0))) == pytest.approx(0.5, abs=1e-12)
    # t = 1 - sqrt(t)  =>  t = (3 - sqrt(5)) / 2
    want = (3.0 - math.sqrt(5.0)) / 2.0
    assert float(sugeno(leb, PowerFunction(2.0))) == pytest.approx(want, abs=1e-9)
    # t = 1 - t^2  =>  the golden ratio conjugate
    assert float(sugeno(leb, PowerFunction(0.5))) == pytest.approx(GOLDEN, abs=1e-9)
    assert float(sugeno(leb, ConstFunction(0.73))) == pytest.approx(0.73, abs=1e-12)


def test_threshold_product_closed_forms_on_lebesgue():
    leb = DistortedLebesgue(identity())
    # max of t(1-t) is 1/4
    assert float(shilkret(leb, PowerFunction(1.0))) == pytest.approx(0.25, abs=1e-12)
    # max of t(1-t^2) is 2/(3*sqrt(3))
    want = 2.0 / (3.0 * math.sqrt(3.0))
    assert float(shilkret(leb, PowerFunction(0.5))) == pytest.approx(want, abs=1e-9)


def test_distorted_square_threshold_min():
    # weak(t) = (1-t)^2; fixed point solves t^2 - 3t + 1 = 0
    m = DistortedLebesgue(power(2.0))
    want = (3.0 - math.sqrt(5.0)) / 2.0
    assert float(sugeno(m, PowerFunction(1.0))) == pytest.approx(want, abs=1e-9)


def test_reverse_closed_forms_on_lebesgue():
    leb = DistortedLebesgue(identity())
    # inf of max(t, 1-t) is 1/2
    assert float(semiconormed_integral(max_op(1.0), leb, PowerFunction(1.0))) == pytest.approx(
        0.5, abs=1e-9
    )
    # inf of max(t, 1-t^2) sits at the golden ratio conjugate
    assert float(semiconormed_integral(max_op(1.0), leb, PowerFunction(0.5))) == pytest.approx(
        GOLDEN, abs=1e-9
    )


def test_smallest_neutral_closed_form_cases():
    leb = DistortedLebesgue(identity())
    # f = x: level measure at 1 is 0 and the essential infimum is 0
    assert float(smallest_e_integral(leb, PowerFunction(1.0), 1.0)) == 0.0
    # f = sqrt(x): still exactly 0, no refinement residue
    assert float(smallest_e_integral(leb, PowerFunction(0.5), 1.0)) == 0.0
    # a ramp bounded away from zero keeps its floor
    ramp = PwlFunction((0.0, 1.0), (0.4, 1.0))
    assert float(smallest_e_integral(leb, ramp, 1.0)) == 0.4
    # at e = 0.5 the level measure wins: length of {ramp >= 0.5} is 5/6
    got = float(smallest_e_integral(leb, ramp, 0.5))
    assert got == pytest.approx(5.0 / 6.0, abs=1e-12)
    # the sup reaches t = 3, where both t and m({f >= 3}) = 0.6 are at
    # least e, so the op takes their max; no essential infimum enters
    m = FiniteMonotoneMeasure(2, (0.0, 0.6, 0.0, 1.0))
    assert float(smallest_e_integral(m, FiniteFunction((3.0, 0.1)), 0.5)) == 3.0
    # both t and the level stay below e = 0.75, so every pairing is 0
    m = FiniteMonotoneMeasure(1, (0.0, 0.6471895115742501))
    assert float(smallest_e_integral(m, FiniteFunction((0.58,)), 0.75)) == 0.0
    # f = 2x: at t = 1 the level is 1/2, so t (op) level = max(1, 1/2) = 1
    got = float(smallest_e_integral(leb, PowerFunction(1.0, 2.0), 0.5))
    assert got == pytest.approx(1.0, abs=1e-9)


def test_declared_tolerance_is_honored_on_continuous_cases():
    leb = DistortedLebesgue(identity())
    for tol in (1e-6, 1e-9, 1e-12):
        res = sugeno(leb, PowerFunction(0.5), tol=tol)
        assert res.tol == tol
        assert abs(float(res) - GOLDEN) <= tol


# ---------------------------------------------------------------------------
# independent dense-sampling oracle for the continuous carrier
# ---------------------------------------------------------------------------


def sampled_forward(op, distortion, f, t_grid, x_samples):
    fx = np.array([eval_at(f, float(x)) for x in x_samples])
    best = 0.0
    for t in t_grid:
        frac = float(np.mean(fx >= t))
        w = distortion.apply(frac)
        best = max(best, eval_op(op, float(t), w))
    return best


def test_continuous_values_agree_with_dense_sampling():
    xs = np.linspace(0.0, 1.0, 200001)
    ts = np.linspace(0.0, 1.0, 2001)
    cases = [
        (identity(), PowerFunction(1.0)),
        (identity(), PowerFunction(0.5)),
        (power(2.0), PowerFunction(1.0)),
        (identity(), PwlFunction((0.0, 0.5, 1.0), (0.1, 0.8, 0.9))),
    ]
    for g, f in cases:
        m = DistortedLebesgue(g)
        for op in (min_op(), prod_op()):
            got = float(universal_integral(op, m, f))
            ref = sampled_forward(op, g, f, ts, xs)
            # ref errs by a t-grid cell plus the level-fraction bias
            assert got == pytest.approx(ref, abs=1e-3)


# ---------------------------------------------------------------------------
# input guards
# ---------------------------------------------------------------------------


def test_forward_integral_requires_zero_annihilator():
    with pytest.raises(InputError):
        universal_integral(max_op(1.0), counting_measure(2), FiniteFunction((0.5, 0.5)))


def test_seminormed_rejects_unbounded_ops_and_data():
    m = counting_measure(2, normalized=True)
    with pytest.raises(InputError):
        seminormed_integral(min_op(), m, FiniteFunction((0.5, 0.5)))
    with pytest.raises(InputError):
        seminormed_integral(min_op(1.0), m, FiniteFunction((0.5, 1.5)))
    with pytest.raises(InputError):
        seminormed_integral(min_op(1.0), counting_measure(2), FiniteFunction((0.5, 0.5)))


def test_reverse_integral_requires_zero_neutral():
    with pytest.raises(InputError):
        semiconormed_integral(min_op(1.0), counting_measure(2, normalized=True),
                              FiniteFunction((0.5, 0.5)))
    with pytest.raises(InputError):
        smallest_e_integral(counting_measure(2), FiniteFunction((0.5, 0.5)), 0.0)


def test_transform_argument_integrates_composite():
    leb = DistortedLebesgue(identity())
    direct = float(sugeno(leb, PowerFunction(2.0)))
    # the profile of transform(f) is composed from the profile of f
    f = TransformedFunction(PowerFunction(1.0), power(2.0))
    composed = float(universal_integral(min_op(), leb, f))
    assert composed == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_integrals_refuse_a_tolerance_the_search_cannot_reach(tol):
    m, f = DistortedLebesgue(power(1.35)), PowerFunction(0.85)
    integrals = (
        lambda: universal_integral(prod_op(), m, f, tol),
        lambda: sugeno(m, f, tol),
        lambda: shilkret(m, f, tol),
        lambda: smallest_e_integral(m, f, 0.5, tol),
        lambda: seminormed_integral(min_op(1.0), m, f, tol),
        lambda: semiconormed_integral(max_op(1.0), m, f, tol),
    )
    for integral in integrals:
        with pytest.raises(InputError, match=r"tol must be a finite number > 0, got"):
            integral()
    # the finite carrier needs no refinement, yet takes the same rule
    with pytest.raises(InputError):
        sugeno(counting_measure(2), FiniteFunction((0.5, 0.25)), tol)
    res = sugeno(m, f)
    assert res.tol == 1e-12 and res.candidates == 169
