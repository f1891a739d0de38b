"""Scalar kernels against the per-call dispatch they replace.

The reference functions below are the previous scalar code paths: the
if-chain of ``eval_op`` over op kinds, ``MonotoneTransform.apply`` over
transform kinds, ``eval_at`` over function types, the threshold
optimiser that evaluated every threshold through ``eval_op``, the power
and lattice level functions of the interval profiles, and the
comonotonicity sort-walk without its linear shortcut.  The new code must
give the same result bits, or raise the same error with the same
message.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzyint import (
    BinaryOp,
    CappedFunction,
    ConstFunction,
    DistortedLebesgue,
    FlooredFunction,
    InputError,
    LatticeCombo,
    MonotoneTransform,
    PowerFunction,
    PwlFunction,
    TransformedFunction,
    affine,
    compose,
    custom_op,
    eval_at,
    eval_op,
    greatest_op,
    identity,
    is_comonotone,
    is_countermonotone,
    lukasiewicz_op,
    luk_conorm_op,
    max_op,
    min_op,
    power,
    probsum_op,
    prod_op,
    smallest_op,
    sum_op,
    survival,
    table_op,
)
from fuzzyint import functions, integrals, ops
from fuzzyint.measures import _lattice_level
from fuzzyint.ops import INF, as_extvalue, nearest_index, xmul

# ---------------------------------------------------------------------------
# reference code paths
# ---------------------------------------------------------------------------


def ref_eval_op(op, a, b):
    a = as_extvalue(a, op.cap)
    b = as_extvalue(b, op.cap)
    k = op.kind
    if k == ops.KIND_MIN:
        return a if a <= b else b
    if k == ops.KIND_PROD:
        return xmul(a, b)
    if k == ops.KIND_SMALLEST:
        e = op.neutral
        if a < e and b < e:
            return 0.0
        if a >= e and b >= e:
            return a if a >= b else b
        return a if a <= b else b
    if k == ops.KIND_GREATEST:
        e = op.neutral
        if a == 0.0 or b == 0.0:
            return 0.0
        if a <= e and b <= e:
            return a if a <= b else b
        if a > e and b > e:
            return INF
        return a if a >= b else b
    if k == ops.KIND_LUKASIEWICZ:
        return max(0.0, a + b - 1.0)
    if k == ops.KIND_DRASTIC:
        if b == 1.0:
            return a
        if a == 1.0:
            return b
        return 0.0
    if k == ops.KIND_MAX:
        return a if a >= b else b
    if k == ops.KIND_SUM:
        return a + b
    if k == ops.KIND_PROBSUM:
        return a + b - a * b
    if k == ops.KIND_LUK_CONORM:
        return min(1.0, a + b)
    if k == ops.KIND_CUSTOM:
        if op.fn is not None:
            return float(op.fn(a, b))
        if op.table_nodes:
            i = nearest_index(op.table_nodes, a)
            j = nearest_index(op.table_nodes, b)
            return op.table_values[i * len(op.table_nodes) + j]
        raise InputError("custom op needs fn or table")
    raise InputError(f"unknown op kind {k!r}")


def ref_apply(t, x):
    if t.kind == "identity":
        return float(x)
    if t.kind == "power":
        if x == INF:
            return INF
        return float(x) ** t.p
    if t.kind == "affine":
        if x == INF:
            return INF
        return t.a * float(x) + t.b
    y = float(x)
    for part in t.parts:
        y = ref_apply(part, y)
    return y


def ref_eval_at(f, x):
    if isinstance(f, ConstFunction):
        return f.c
    if isinstance(f, PowerFunction):
        return f.coef * float(x) ** f.p
    if isinstance(f, PwlFunction):
        xs, ys = f.xs, f.ys
        if x <= 0.0:
            return ys[0]
        if x >= 1.0:
            return ys[-1]
        for i in range(1, len(xs)):
            if x <= xs[i]:
                w = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
                return ys[i - 1] + w * (ys[i] - ys[i - 1])
        return ys[-1]
    if isinstance(f, CappedFunction):
        return min(ref_eval_at(f.base, x), f.cap_value)
    if isinstance(f, FlooredFunction):
        return max(ref_eval_at(f.base, x), f.floor_value)
    if isinstance(f, LatticeCombo):
        vals = [ref_eval_at(p, x) for p in f.parts]
        return min(vals) if f.kind == "min" else max(vals)
    if isinstance(f, TransformedFunction):
        return ref_apply(f.transform, ref_eval_at(f.base, x))
    raise InputError(f"cannot evaluate {type(f).__name__}")


def ref_power_level(distortion, f, t, strict):
    coef, p = f.coef, f.p

    def length(t):
        if t <= 0.0:
            return 1.0
        if t >= coef:
            return 0.0
        return 1.0 - (t / coef) ** (1.0 / p)

    if strict and t == 0.0:
        return ref_apply(distortion, 1.0)
    return ref_apply(distortion, length(t))


def ref_optimize(op, profile, tol, minimize):
    level = profile.strict if minimize else profile.weak
    better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)

    evals = 0

    def h(t):
        nonlocal evals
        evals += 1
        return ref_eval_op(op, t, level(t))

    marks = {0.0, profile.t_max}
    marks.update(profile.candidates)
    if op.kind in (ops.KIND_SMALLEST, ops.KIND_GREATEST) and math.isfinite(op.neutral):
        if 0.0 < op.neutral < profile.t_max:
            marks.add(op.neutral)
    marks = sorted(v for v in marks if 0.0 <= v <= profile.t_max)

    best = None
    at_mark = {}
    for v in marks:
        y = at_mark[v] = h(v)
        if best is None or better(y, best):
            best = y
    if best is None:
        best = 0.0

    if profile.exact:
        return best, evals, True

    bracket = max(tol / 8.0, 1e-14)
    finite_marks = [v for v in marks if math.isfinite(v)]
    for i in range(1, len(finite_marks)):
        lo, hi = finite_marks[i - 1], finite_marks[i]
        if not hi > lo:
            continue
        step = (hi - lo) / 34.0
        # a span's ends are marks, evaluated once, above
        seg_best_t, seg_best_y = lo, at_mark[lo]
        for k in range(1, 34):
            t = lo + step * k
            y = h(t)
            if better(y, seg_best_y):
                seg_best_t, seg_best_y = t, y
        y_hi = at_mark[hi]
        if better(y_hi, seg_best_y):
            seg_best_t, seg_best_y = hi, y_hi
        if better(seg_best_y, best):
            best = seg_best_y
        a = max(lo, seg_best_t - step)
        b = min(hi, seg_best_t + step)
        while b - a > bracket:
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            y1, y2 = h(m1), h(m2)
            if better(y1, best):
                best = y1
            if better(y2, best):
                best = y2
            if better(y2, y1) or y1 == y2:
                a = m1
            else:
                b = m2
    return best, evals, False


def ref_comonotone_vectors(fv, gv):
    # the walk as it was, except that a group now starts at j = i + 1: with
    # j = i a nan in f never joined its own group and the walk looped forever
    order = sorted(range(len(fv)), key=lambda i: (fv[i], gv[i]))
    best_idx = -1
    best_g = -INF
    i = 0
    while i < len(order):
        j = i + 1
        while j < len(order) and fv[order[j]] == fv[order[i]]:
            j += 1
        for idx in order[i:j]:
            if best_idx >= 0 and gv[idx] < best_g:
                return False, (best_idx, idx)
        for idx in order[i:j]:
            if gv[idx] > best_g:
                best_idx, best_g = idx, gv[idx]
        i = j
    return True, None


def discordant(fv, gv, i, j):
    """(f_i - f_j)(g_i - g_j) < 0, read on [0, inf] without inf - inf."""
    return (fv[i] < fv[j] and gv[i] > gv[j]) or (fv[j] < fv[i] and gv[j] > gv[i])


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def bits(v):
    """A float by its IEEE bits (so -0.0 and nan payloads count), else repr."""
    if type(v) is float:
        return ("float", struct.pack("<d", v))
    return (type(v).__name__, repr(v))


def outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return ("raised", type(exc), str(exc))
    if isinstance(out, tuple):
        return tuple(bits(v) for v in out)
    return bits(out)


EXAMPLES = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# ---------------------------------------------------------------------------
# op kernels
# ---------------------------------------------------------------------------

BUILTIN_KINDS = (
    ops.KIND_MIN,
    ops.KIND_PROD,
    ops.KIND_SMALLEST,
    ops.KIND_GREATEST,
    ops.KIND_LUKASIEWICZ,
    ops.KIND_DRASTIC,
    ops.KIND_MAX,
    ops.KIND_SUM,
    ops.KIND_PROBSUM,
    ops.KIND_LUK_CONORM,
)
TABLE_NODES = (0.0, 0.25, 0.5, 1.0)


def _ratio(a, b):
    return a / b  # ZeroDivisionError at b = 0, which the kernel must pass on


CUSTOM_OPS = (
    table_op(
        TABLE_NODES,
        [min(a, b) * (1.0 if a + b < 1.5 else 0.5) for a in TABLE_NODES for b in TABLE_NODES],
        neutral=1.0,
        name="table",
    ),
    custom_op(lambda a, b: math.sqrt(a * b), neutral=1.0, cap=1.0, name="geo"),
    custom_op(_ratio, neutral=1.0, name="ratio"),
    BinaryOp(ops.KIND_CUSTOM, neutral=1.0, cap=1.0, name="empty"),
    BinaryOp("nosuchkind", neutral=0.0),
)


def arg_st(op):
    specials = [math.nan, -0.0, -1.0, -1e-300, 0.0, 0, 1, 2, 0.25, 0.5, op.neutral, op.cap, INF]
    if math.isfinite(op.cap):
        specials += [op.cap + 0.5, math.nextafter(op.cap, INF), math.nextafter(op.cap, 0.0)]
    base = st.one_of(
        st.sampled_from(specials),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-2, 4),
    )
    return st.tuples(base, st.booleans()).map(
        lambda xw: np.float64(xw[0]) if xw[1] and isinstance(xw[0], float) else xw[0]
    )


@st.composite
def op_case(draw, kind, cap):
    if kind is None:
        op = draw(st.sampled_from(CUSTOM_OPS))
    else:
        op = BinaryOp(kind, neutral=draw(st.sampled_from((0.0, 0.5, 1.0, cap))), cap=cap)
    return op, draw(arg_st(op)), draw(arg_st(op))


@pytest.mark.parametrize(
    "kind, cap",
    [(k, c) for k in BUILTIN_KINDS for c in (1.0, INF)] + [(None, None)],
    ids=lambda v: "custom" if v is None else str(v),
)
@settings(EXAMPLES, max_examples=100)
@given(data=st.data())
def test_op_kernel_matches_the_kind_dispatch(kind, cap, data):
    op, a, b = data.draw(op_case(kind, cap))
    expected = outcome(ref_eval_op, op, a, b)
    assert outcome(eval_op, op, a, b) == expected
    assert outcome(op.kernel, a, b) == expected
    assert outcome(op, a, b) == expected


@pytest.mark.parametrize("op", CUSTOM_OPS, ids=lambda op: op.label())
def test_incomplete_and_raising_customs_fail_as_before(op):
    for a, b in ((0.5, 0.0), (2.0, 0.5), (0.5, math.nan), (0.25, 0.5)):
        assert outcome(eval_op, op, a, b) == outcome(ref_eval_op, op, a, b)


def test_kernel_field_is_invisible_to_equality_hash_and_repr():
    a, b = min_op(1.0), min_op(1.0)
    assert a == b and hash(a) == hash(b) and a.kernel is not b.kernel and a.core is not b.core
    assert "kernel" not in repr(a) and "core" not in repr(a)
    assert {a: 1}[b] == 1
    widened = dataclasses.replace(a, cap=INF)
    assert widened.cap == INF and widened.kernel(2.0, 3.0) == 2.0
    # core is the arithmetic alone: no cap check
    assert a.core(2.0, 3.0) == 2.0
    with pytest.raises(InputError, match=r"value 2.0 outside \[0, 1.0\]"):
        a.kernel(2.0, 3.0)


@pytest.mark.parametrize("op", CUSTOM_OPS[:1] + (min_op(1.0), smallest_op(0.5), probsum_op()))
def test_ops_pickle_and_rebuild_their_kernel(op):
    back = pickle.loads(pickle.dumps(op))
    assert back == op
    assert outcome(back.kernel, 0.3, 0.6) == outcome(ref_eval_op, op, 0.3, 0.6)


# ---------------------------------------------------------------------------
# transform kernels
# ---------------------------------------------------------------------------

exponent_st = st.integers(6, 50).map(lambda k: k / 20)  # 0.05 lattice on [0.3, 2.5]
quarter_st = st.integers(1, 8).map(lambda k: k / 4)  # 0.25, ..., 2.0
transform_st = st.one_of(
    st.just(identity()),
    exponent_st.map(power),
    st.tuples(exponent_st, quarter_st).map(lambda ab: affine(*ab)),
    st.tuples(exponent_st, exponent_st).map(lambda pa: compose(power(pa[0]), affine(pa[1]))),
    st.tuples(exponent_st, quarter_st, exponent_st).map(
        lambda v: compose(power(v[0]), affine(1.0, v[1]), power(v[2]))
    ),
)
point_st = st.one_of(
    st.sampled_from((0.0, -0.0, 0, 1, 0.5, 1.0, 2.5, INF, math.nan, -1.0)),
    st.floats(min_value=0.0, max_value=4.0),
)


@EXAMPLES
@given(transform_st, point_st, st.booleans())
def test_transform_kernel_matches_the_kind_dispatch(t, x, as_numpy):
    if as_numpy and isinstance(x, float):
        x = np.float64(x)
    expected = outcome(ref_apply, t, x)
    assert outcome(t.apply, x) == expected
    assert outcome(t, x) == expected
    assert outcome(t.kernel, x) == expected


def test_transform_kernel_is_invisible_to_equality_and_repr():
    assert power(2.0) == power(2.0) and hash(power(2.0)) == hash(power(2.0))
    assert "kernel" not in repr(compose(power(2.0), affine(2.0)))
    with pytest.raises(InputError):
        MonotoneTransform("power", p=0.0)
    t = compose(power(2.0), affine(2.0, 0.5))
    back = pickle.loads(pickle.dumps(t))
    assert back == t and bits(back.apply(0.3)) == bits(ref_apply(t, 0.3))


# ---------------------------------------------------------------------------
# continuous functions, samplers and profiles
# ---------------------------------------------------------------------------

coef_st = st.sampled_from((0.5, 0.75, 1.0, 1.5, 2.5))
power_fn_st = st.builds(PowerFunction, exponent_st, coef_st)


@st.composite
def pwl_st(draw):
    inner = draw(st.lists(st.sampled_from((0.125, 0.25, 0.5, 0.75)), unique=True, max_size=3))
    xs = (0.0, *sorted(inner), 1.0)
    steps = draw(st.lists(st.sampled_from((0.0, 0.125, 0.25, 0.5)), min_size=len(xs), max_size=len(xs)))
    ys = tuple(float(v) for v in np.cumsum(steps))
    return PwlFunction(xs, ys)


simple_fn_st = st.one_of(power_fn_st, pwl_st())


@st.composite
def continuous_fn_st(draw):
    kind = draw(st.sampled_from(("const", "power", "pwl", "capped", "floored", "lattice", "transformed")))
    if kind == "const":
        return ConstFunction(draw(st.sampled_from((0.0, 0.5, 1.0, 1.5))))
    if kind == "power":
        return draw(power_fn_st)
    if kind == "pwl":
        return draw(pwl_st())
    if kind == "capped":
        return CappedFunction(draw(simple_fn_st), draw(quarter_st))
    if kind == "floored":
        return FlooredFunction(draw(simple_fn_st), draw(st.sampled_from((0.125, 0.25, 0.5))))
    if kind == "lattice":
        parts = draw(st.lists(simple_fn_st, min_size=2, max_size=3))
        return LatticeCombo(draw(st.sampled_from(("min", "max"))), tuple(parts))
    t = draw(transform_st.filter(lambda t: t.kind != "identity"))
    return TransformedFunction(draw(simple_fn_st), t)


distortion_st = st.one_of(st.just(identity()), exponent_st.map(power))
sample_st = st.one_of(
    st.sampled_from((0.0, -0.0, 0, 1, 1.0, 0.5, 0.25, 0.125, 0.75)),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(0, 256).map(lambda i: i / 256),
)


@EXAMPLES
@given(continuous_fn_st(), sample_st)
def test_sampler_and_eval_at_match_the_type_dispatch(f, x):
    expected = outcome(ref_eval_at, f, x)
    assert outcome(eval_at, f, x) == expected
    assert outcome(functions._sampler(f), x) == expected


threshold_st = st.one_of(
    st.sampled_from((0.0, -0.0, -0.5, 0.5, 1.0, 1.5, 2.5, 3.0, INF, math.nan)),
    st.floats(min_value=0.0, max_value=3.0),
)


@EXAMPLES
@given(power_fn_st, distortion_st, threshold_st)
def test_power_profile_levels_match_the_length_formula(f, g, t):
    prof = survival(DistortedLebesgue(g), f)
    assert outcome(prof.weak, t) == outcome(ref_power_level, g, f, t, False)
    assert outcome(prof.strict, t) == outcome(ref_power_level, g, f, t, True)


@EXAMPLES
@given(st.lists(simple_fn_st, min_size=2, max_size=3), st.sampled_from(("min", "max")),
       distortion_st, threshold_st)
def test_lattice_profile_levels_pick_as_builtin_min_and_max(parts, kind, g, t):
    m = DistortedLebesgue(g)
    prof = survival(m, LatticeCombo(kind, tuple(parts)))
    part_profiles = [survival(m, p) for p in parts]
    pick = min if kind == "min" else max
    assert outcome(prof.weak, t) == bits(pick(p.weak(t) for p in part_profiles))
    assert outcome(prof.strict, t) == bits(pick(p.strict(t) for p in part_profiles))


def test_lattice_level_ties_keep_the_first_part():
    for kind, pick in (("min", min), ("max", max)):
        for k in (2, 3):
            for vs in itertools.product((0.0, -0.0, 1.0, math.nan), repeat=k):
                level = _lattice_level(kind, tuple(lambda t, v=v: v for v in vs))
                assert bits(level(0.5)) == bits(pick(vs)), (kind, vs)


# ---------------------------------------------------------------------------
# the threshold optimiser
# ---------------------------------------------------------------------------

FORWARD_OPS = (
    min_op(),
    prod_op(),
    smallest_op(0.5),
    greatest_op(0.5),
    min_op(1.0),
    prod_op(1.0),
    lukasiewicz_op(),
    CUSTOM_OPS[0],
    CUSTOM_OPS[1],
)
REVERSE_OPS = (max_op(), sum_op(), probsum_op(), luk_conorm_op(), max_op(1.0))


@st.composite
def optimiser_case(draw):
    minimize = draw(st.booleans())
    op = draw(st.sampled_from(REVERSE_OPS if minimize else FORWARD_OPS))
    f = draw(continuous_fn_st())
    g = draw(distortion_st)
    tol = draw(st.sampled_from((1e-12, 1e-9, 1e-6)))
    return op, survival(DistortedLebesgue(g), f), tol, minimize


@EXAMPLES
@given(optimiser_case())
def test_optimiser_matches_the_eval_op_loop(case):
    op, profile, tol, minimize = case
    expected = outcome(ref_optimize, op, profile, tol, minimize)
    assert outcome(integrals._optimize, op, profile, tol, minimize) == expected


def test_cap_one_op_on_data_above_one_raises_as_before():
    profile = survival(DistortedLebesgue(power(1.5)), PowerFunction(0.5, 2.5))
    for op in (min_op(1.0), prod_op(1.0), lukasiewicz_op()):
        expected = outcome(ref_optimize, op, profile, 1e-12, False)
        assert expected[0] == "raised" and "outside [0, 1.0]" in expected[2]
        assert outcome(integrals._optimize, op, profile, 1e-12, False) == expected


def test_ternary_search_stops_when_its_bracket_cannot_shrink():
    # the optimum of t * m({4000 x >= t}) is at t = 2000, where one ulp
    # (2.3e-13) is wider than the 1.25e-13 bracket; the search used to
    # repeat the same (a, b) forever there
    profile = survival(DistortedLebesgue(identity()), PowerFunction(1.0, 4000.0))
    value, evals, exact = integrals._optimize(prod_op(), profile, 1e-12, False)
    assert value == pytest.approx(1000.0, rel=1e-12) and not exact and evals < 1000


# ---------------------------------------------------------------------------
# comonotonicity
# ---------------------------------------------------------------------------

VALUES = (0.0, 0.25, 0.5, 1.0, 2.0, INF, math.nan)


def sorted_nan_last(v):
    return sorted(x for x in v if x == x) + [x for x in v if x != x]


@st.composite
def vector_pair(draw):
    values = st.sampled_from(VALUES if draw(st.booleans()) else VALUES[:-1])
    n = draw(st.integers(0, 10))
    fv = draw(st.lists(values, min_size=n, max_size=n))
    gv = draw(st.lists(values, min_size=n, max_size=n))
    order = draw(st.sampled_from(("as drawn", "f sorted", "g sorted", "both sorted")))
    if order in ("f sorted", "both sorted"):
        fv = sorted_nan_last(fv)
    if order in ("g sorted", "both sorted"):
        gv = sorted_nan_last(gv)
    return fv, gv


@settings(max_examples=400, deadline=None)
@given(vector_pair())
def test_comonotone_vectors_match_the_walk_and_the_definition(pair):
    fv, gv = pair
    got = functions._comonotone_vectors(fv, gv)
    assert got == ref_comonotone_vectors(fv, gv)
    if any(x != x for x in fv + gv):
        return  # the walk's answer on nan is pinned above, not the definition's
    pairs = [(i, j) for i in range(len(fv)) for j in range(i + 1, len(fv))]
    assert got[0] == (not any(discordant(fv, gv, i, j) for i, j in pairs))
    if not got[0]:
        assert discordant(fv, gv, *got[1])


def test_nan_in_f_ends_the_walk():
    assert functions._comonotone_vectors([math.nan, 0.5, math.nan], [0.0, 1.0, 0.5]) == (
        ref_comonotone_vectors([math.nan, 0.5, math.nan], [0.0, 1.0, 0.5])
    )


@st.composite
def descending_fn_st(draw):
    """A pwl with a descending piece, bare or under a cap, floor or transform."""
    inner = draw(st.lists(st.sampled_from((0.125, 0.25, 0.5, 0.75)), unique=True, max_size=3))
    xs = (0.0, *sorted(inner), 1.0)
    ys = draw(
        st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0)), min_size=len(xs), max_size=len(xs)).filter(
            lambda ys: any(b < a for a, b in zip(ys, ys[1:]))
        )
    )
    f = PwlFunction(xs, tuple(ys))
    wrap = draw(st.sampled_from(("bare", "capped", "floored", "transformed")))
    if wrap == "capped":
        return CappedFunction(f, draw(quarter_st))
    if wrap == "floored":
        return FlooredFunction(f, draw(st.sampled_from((0.125, 0.25, 0.5))))
    if wrap == "transformed":
        return TransformedFunction(f, draw(transform_st.filter(lambda t: t.kind != "identity")))
    return f


interval_fn_st = st.one_of(continuous_fn_st(), descending_fn_st())


def ref_paired(f, g, samples=257):
    xs = [i / (samples - 1) for i in range(samples)]
    return [ref_eval_at(f, x) for x in xs], [ref_eval_at(g, x) for x in xs], xs


@EXAMPLES
@given(interval_fn_st, interval_fn_st)
def test_interval_comonotonicity_matches_the_sampled_walk(f, g):
    # nondecreasing pairs are answered by structure, the others by samples;
    # either way the verdict and witness are the sampled walk's
    fv, gv, xs = ref_paired(f, g)
    for check, gs in ((is_comonotone, gv), (is_countermonotone, [-v for v in gv])):
        ok, w = ref_comonotone_vectors(fv, gs)
        expected = (True, None) if ok else (False, (xs[w[0]], xs[w[1]]))
        assert check(f, g) == expected
    if functions.is_nondecreasing_on_unit(f) and functions.is_nondecreasing_on_unit(g):
        assert ref_comonotone_vectors(fv, gv) == (True, None)
