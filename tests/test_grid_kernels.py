"""Grid certificates evaluated as arrays, against the loops they replace.

The reference functions below are the node-by-node loops the grid checks
in ops and inequalities used to run.  On the same grid, each array check
must return the same CheckResult (compared by repr, so a numpy scalar
leaking into a witness fails) or raise the same error with the same
message.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzyint import (
    InputError,
    GridSpec,
    affine,
    check_domination,
    check_scalar_condition,
    compose,
    custom_op,
    drastic_op,
    eval_grid,
    eval_op,
    greatest_op,
    h_max,
    h_min,
    h_prod,
    h_table,
    h_wmean,
    identity,
    lukasiewicz_op,
    luk_conorm_op,
    max_op,
    min_op,
    power,
    probsum_op,
    prod_op,
    smallest_op,
    sum_op,
    table_op,
)
from fuzzyint import inequalities as ineq
from fuzzyint import ops
from fuzzyint.ops import (
    FLAG_ANNIHILATOR,
    FLAG_ASSOCIATIVE,
    FLAG_BOUNDED_BY_MAX,
    FLAG_BOUNDED_BY_MIN,
    FLAG_COMMUTATIVE,
    FLAG_NEUTRAL,
    FLAG_NONDECREASING,
    CheckResult,
    GridEval,
    default_grid,
    nearest_index,
    nearest_indices,
)

SLACK = 1e-12

# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def ref_nearest_index(nodes, x):
    best, bd = 0, math.inf
    for i, t in enumerate(nodes):
        d = abs(t - x)
        # a tie of rounded distances goes to the node next to x, the lower of the two around it
        if d < bd or (d == bd < math.inf and t < x):
            best, bd = i, d
    return best


def ref_differ(x, y):
    if x == y:
        return False
    return not abs(x - y) <= SLACK


def ref_nondecreasing(op, nodes):
    for b in nodes:
        prev = None
        for a in nodes:
            cur = eval_op(op, a, b)
            if prev is not None and cur < prev[1] - SLACK:
                return CheckResult(FLAG_NONDECREASING, False, (prev[0], a, b))
            prev = (a, cur)
    for a in nodes:
        prev = None
        for b in nodes:
            cur = eval_op(op, a, b)
            if prev is not None and cur < prev[1] - SLACK:
                return CheckResult(FLAG_NONDECREASING, False, (a, prev[0], b))
            prev = (b, cur)
    return CheckResult(FLAG_NONDECREASING, True)


def ref_annihilator(op, nodes):
    for a in nodes:
        if eval_op(op, a, 0.0) > SLACK:
            return CheckResult(FLAG_ANNIHILATOR, False, (a, 0.0))
        if eval_op(op, 0.0, a) > SLACK:
            return CheckResult(FLAG_ANNIHILATOR, False, (0.0, a))
    return CheckResult(FLAG_ANNIHILATOR, True)


def ref_neutral(op, e, nodes):
    if e > op.cap:
        return CheckResult(FLAG_NEUTRAL, False, (e,), "neutral outside domain")
    for a in nodes:
        if ref_differ(eval_op(op, a, e), a):
            return CheckResult(FLAG_NEUTRAL, False, (a, e))
        if ref_differ(eval_op(op, e, a), a):
            return CheckResult(FLAG_NEUTRAL, False, (e, a))
    return CheckResult(FLAG_NEUTRAL, True)


def ref_bounded_by_min(op, nodes):
    for a in nodes:
        for b in nodes:
            if eval_op(op, a, b) > min(a, b) + SLACK:
                return CheckResult(FLAG_BOUNDED_BY_MIN, False, (a, b))
    return CheckResult(FLAG_BOUNDED_BY_MIN, True)


def ref_bounded_by_max(op, nodes):
    for a in nodes:
        for b in nodes:
            if eval_op(op, a, b) < max(a, b) - SLACK:
                return CheckResult(FLAG_BOUNDED_BY_MAX, False, (a, b))
    return CheckResult(FLAG_BOUNDED_BY_MAX, True)


def ref_commutative(op, nodes):
    for a in nodes:
        for b in nodes:
            if ref_differ(eval_op(op, a, b), eval_op(op, b, a)):
                return CheckResult(FLAG_COMMUTATIVE, False, (a, b))
    return CheckResult(FLAG_COMMUTATIVE, True)


def ref_associative(op, nodes):
    thin = ops._thin(nodes, 26)
    for a in thin:
        for b in thin:
            ab = eval_op(op, a, b)
            for c in thin:
                left = eval_op(op, ab, c)
                right = eval_op(op, a, eval_op(op, b, c))
                if ref_differ(left, right):
                    return CheckResult(FLAG_ASSOCIATIVE, False, (a, b, c))
    return CheckResult(FLAG_ASSOCIATIVE, True, detail=f"thinned to {len(thin)} nodes")


def ref_domination(dominant, dominated, nodes):
    for a in nodes:
        for b in nodes:
            for c in nodes:
                for d in nodes:
                    left = eval_op(dominant, eval_op(dominated, a, b), eval_op(dominated, c, d))
                    right = eval_op(dominated, eval_op(dominant, a, c), eval_op(dominant, b, d))
                    if left < right - 1e-12:
                        return CheckResult("domination", False, (a, b, c, d))
    return CheckResult("domination", True)


_pow, _pinv = ineq._pow, ineq._pinv


def ref_two_function(op, star, xi, om, reverse, dnodes, cnodes):
    xi0, xi1, xi2 = xi
    om0, om1, om2 = om

    def ev(x, c):
        return eval_op(op, min(x, op.cap), c)

    for a in dnodes:
        for b in dnodes:
            sab = eval_op(star, min(a, star.cap), min(b, star.cap))
            for c in cnodes:
                lhs = _pow(ev(_pow(sab, xi0), c), om0)
                r1 = eval_op(
                    star, min(_pow(ev(_pow(a, xi1), c), om1), star.cap), min(b, star.cap)
                )
                r2 = eval_op(
                    star, min(a, star.cap), min(_pow(ev(_pow(b, xi2), c), om2), star.cap)
                )
                if reverse:
                    if lhs > min(r1, r2) + SLACK:
                        return CheckResult("scalar_condition", False, (a, b, c))
                elif lhs < max(r1, r2) - SLACK:
                    return CheckResult("scalar_condition", False, (a, b, c))
    return CheckResult("scalar_condition", True)


def ref_single(tid, op, phi, exps, dnodes, cnodes):
    def ev(x, c):
        return eval_op(op, min(x, op.cap), c)

    for a in dnodes:
        for c in cnodes:
            if tid == "jensen":
                bad = ev(phi[0].apply(a), c) < phi[0].apply(ev(a, c)) - SLACK
            elif tid == "rev_jensen":
                bad = phi[0].apply(ev(a, c)) > ev(phi[0].apply(a), c) + SLACK
            elif tid in ("thm33", "rev_transform"):
                lhs = _pinv(phi[0], ev(phi[0].apply(a), c))
                rhs = _pinv(phi[1], ev(phi[1].apply(a), c))
                bad = lhs < rhs - SLACK if tid == "thm33" else lhs > rhs + SLACK
            elif tid == "lyapunov":
                r, s = exps
                lhs = _pow(ev(_pow(a, s), c), 1.0 / s)
                rhs = _pow(ev(_pow(a, r), c), 1.0 / r)
                bad = lhs < rhs - SLACK
            else:
                raise InputError(f"no scalar condition for {tid}")
            if bad:
                return CheckResult("scalar_condition", False, (a, c))
    return CheckResult("scalar_condition", True)


def ref_H(H, args):
    if H.kind == "binary":
        x, y = args
        return eval_op(H.op, min(x, H.op.cap), min(y, H.op.cap))
    if H.kind == "min":
        return min(args)
    if H.kind == "max":
        return max(args)
    if H.kind == "prod":
        out = 1.0
        for a in args:
            out = ops.xmul(out, a)
        return out
    if H.kind == "wmean":
        return sum(w * a for w, a in zip(H.weights, args)) / sum(H.weights)
    idx = 0
    for a in args:
        idx = idx * len(H.nodes) + ref_nearest_index(H.nodes, a)
    return H.values[idx]


def ref_nary(tid, op, H, u, psi, xi, om, reverse, dnodes, cnodes):
    n = H.arity
    transformed = tid in ("thm31", "thm41")

    def ev(x, c):
        return eval_op(op, min(x, op.cap), c)

    for args in itertools.product(dnodes, repeat=n):
        base = tuple(psi[i].apply(args[i]) for i in range(n)) if transformed else args
        hval = ref_H(H, base)
        for c in cnodes:
            if transformed:
                lhs = _pinv(u[0], ev(u[0].apply(hval), c))
            else:
                lhs = _pow(ev(_pow(hval, xi[0]), c), om[0])
            best = None
            for i in range(n):
                if transformed:
                    repl = psi[i].apply(_pinv(u[i + 1], ev(u[i + 1].apply(args[i]), c)))
                else:
                    repl = _pow(ev(_pow(args[i], xi[i + 1]), c), om[i + 1])
                side = ref_H(H, base[:i] + (repl,) + base[i + 1 :])
                if best is None:
                    best = side
                else:
                    best = min(best, side) if reverse else max(best, side)
            if lhs > best + SLACK if reverse else lhs < best - SLACK:
                return CheckResult("scalar_condition", False, args + (c,))
    return CheckResult("scalar_condition", True)


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the error itself is the outcome compared
        return f"{type(exc).__name__}: {exc}"


def same(ref, new, *args):
    expected = outcome(ref, *args)
    assert outcome(new, *args) == expected
    return expected


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def _geo(a, b):
    return math.sqrt(a * b)


TABLE_NODES = (0.0, 0.25, 0.5, 1.0)
BUILTIN_OPS = (
    min_op(1.0),
    min_op(),
    prod_op(1.0),
    prod_op(),
    smallest_op(0.5),
    smallest_op(1.0),
    greatest_op(0.5),
    lukasiewicz_op(),
    drastic_op(),
    max_op(1.0),
    max_op(),
    sum_op(1.0),
    sum_op(),
    probsum_op(),
    luk_conorm_op(),
)
TABLE_OP = table_op(
    TABLE_NODES,
    [min(a, b) * (1.0 if a + b < 1.5 else 0.5) for a in TABLE_NODES for b in TABLE_NODES],
    neutral=1.0,
    name="table",
)
FN_OP = custom_op(_geo, neutral=1.0, cap=1.0, name="geo")
ALL_OPS = BUILTIN_OPS + (TABLE_OP, FN_OP)

ops_st = st.sampled_from(ALL_OPS)
exponent_st = st.integers(6, 50).map(lambda k: k / 20)  # 0.05 lattice on [0.3, 2.5]
quarter_st = st.integers(1, 8).map(lambda k: k / 4)  # 0.25, 0.5, ..., 2.0
transform_st = st.one_of(
    st.just(identity()),
    exponent_st.map(power),
    st.tuples(exponent_st, quarter_st).map(lambda ab: affine(*ab)),
    st.tuples(exponent_st, exponent_st).map(lambda pa: compose(power(pa[0]), affine(pa[1]))),
)


@st.composite
def aggregation_st(draw, arity):
    kinds = ("min", "max", "prod", "wmean", "table") + (("binary",) if arity == 2 else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "binary":
        return ineq.NaryOp("binary", op=draw(ops_st))
    if kind == "min":
        return h_min(arity)
    if kind == "max":
        return h_max(arity)
    if kind == "prod":
        return h_prod(arity)
    if kind == "wmean":
        return h_wmean(draw(st.lists(quarter_st, min_size=arity, max_size=arity)))
    nodes = (0.0, 0.5, 1.0, 1.5)
    size = len(nodes) ** arity
    values = draw(st.lists(quarter_st, min_size=size, max_size=size))
    return h_table(nodes, values, arity)


def grid(hi, n):
    return ineq._range_nodes(hi, n)


EXAMPLES = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.label() + str(op.cap))
def test_eval_grid_equals_eval_op_on_default_grid(op):
    nodes = default_grid(op, n=21).nodes()
    assert 0.0 in nodes and (op.cap != math.inf or math.inf in nodes)
    assert op.neutral in nodes or not math.isfinite(op.neutral)
    x = np.asarray(nodes)
    got = eval_grid(op, x[:, None], x[None, :])
    want = np.array([[eval_op(op, a, b) for b in nodes] for a in nodes])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.label() + str(op.cap))
def test_eval_grid_raises_at_the_first_rejected_pair(op):
    # (0.25, 2.0) is rejected on cap 1 only; (nan, 0.5) on every cap
    a = np.array([[0.5, 0.25], [math.nan, 0.5]])
    b = np.array([[0.5, 2.0], [0.5, -1.0]])
    pairs = zip(a.ravel().tolist(), b.ravel().tolist())
    want = outcome(lambda: [eval_op(op, x, y) for x, y in pairs])
    assert want.startswith("InputError")
    assert outcome(eval_grid, op, a, b) == want


def test_eval_grid_rejects_like_eval_op_for_incomplete_custom_ops():
    broken = ops.BinaryOp(ops.KIND_CUSTOM, neutral=1.0)
    unknown = ops.BinaryOp("nosuch", neutral=1.0)
    for op in (broken, unknown):
        assert outcome(eval_grid, op, np.zeros(2), 0.5) == outcome(eval_op, op, 0.0, 0.5)


LATTICE = tuple(k / 20 for k in range(6, 61))


def test_grid_powers_are_scalar_powers_bit_for_bit():
    # numpy's SIMD power differs from ** in the last ulp on some of these
    nodes = grid(1.0, 13) + grid(2.0, 13) + (math.inf,)
    x = np.asarray(nodes)
    for e in LATTICE + tuple(1.0 / e for e in LATTICE):
        want = np.array([_pow(v, e) for v in nodes])
        ex = {"xi": (e, e), "omega": (e, e)}
        _, (side, _), *_ = ineq._form("thm32", 1, None, h_min(1), (), (), (), ex)
        for m in side:  # the inner power transform and the outer power
            assert ineq._tmap(GridEval(), m, x).tobytes() == want.tobytes()
        t = power(e)
        want = np.array([t.apply(v) for v in nodes])
        assert GridEval().map(t.apply, x).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# nearest-node lookup
# ---------------------------------------------------------------------------


def test_nearest_node_tie_goes_to_the_lower_node():
    nodes = (0.0, 0.25, 0.5, 1.0)
    mids = (0.125, 0.375, 0.75)
    for i, x in enumerate(mids):
        assert nearest_index(nodes, x) == i
        assert ref_nearest_index(nodes, x) == i
    assert nearest_indices(nodes, np.array(mids)).tolist() == [0, 1, 2]
    for x in (-1.0, math.inf, -math.inf, math.nan):
        assert nearest_index(nodes, x) == ref_nearest_index(nodes, x)
    assert nearest_indices(nodes, np.array([2.0, math.inf, math.nan])).tolist() == [3, 0, 0]
    # rounded distances tie over several lower nodes: the one next to x wins, so the
    # index never falls back as x grows, even where every distance rounds to x
    nodes = (0.0, 1e-300, 1.0)
    assert ref_nearest_index(nodes, 0.5) == nearest_index(nodes, 0.5) == 1
    assert nearest_indices(nodes, np.array([0.5, 0.75])).tolist() == [1, 2]
    assert ref_nearest_index(nodes, 1e17) == nearest_index(nodes, 1e17) == 2
    assert nearest_indices(nodes, np.array([1e17])).tolist() == [2]


finite_st = st.floats(-1e3, 1e3, allow_nan=False)


@given(
    st.lists(finite_st, min_size=1, max_size=8, unique=True).map(sorted),
    st.lists(st.one_of(finite_st, st.sampled_from((math.inf, -math.inf, math.nan))), max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_nearest_node_lookups_match_the_linear_scan(nodes, xs):
    nodes = tuple(nodes)
    xs = xs + [(s + t) / 2.0 for s, t in zip(nodes, nodes[1:])]
    want = [ref_nearest_index(nodes, x) for x in xs]
    assert [nearest_index(nodes, x) for x in xs] == want
    assert nearest_indices(nodes, np.array(xs, dtype=float)).tolist() == want
    # nondecreasing in finite x, which the table rule of H's monotonicity rests on
    sorted_idx = [nearest_index(nodes, x) for x in sorted(x for x in xs if math.isfinite(x))]
    assert sorted_idx == sorted(sorted_idx)


def test_table_nodes_must_increase():
    with pytest.raises(InputError):
        table_op((0.0, 1.0, 0.5), [0.0] * 9, neutral=1.0)
    with pytest.raises(InputError):
        h_table((0.0, 0.0), [0.0] * 4)
    with pytest.raises(InputError):
        h_table((), ())


# ---------------------------------------------------------------------------
# op property checks and domination
# ---------------------------------------------------------------------------

PROPERTY_CHECKS = (
    (ref_nondecreasing, ops._check_nondecreasing),
    (ref_annihilator, ops._check_annihilator),
    (ref_bounded_by_min, ops._check_bounded_by_min),
    (ref_bounded_by_max, ops._check_bounded_by_max),
    (ref_commutative, ops._check_commutative),
    (ref_associative, ops._check_associative),
)


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.label() + str(op.cap))
def test_property_checks_match_loops_on_default_grid(op):
    nodes = default_grid(op).nodes()
    for ref, new in PROPERTY_CHECKS:
        same(ref, new, op, nodes)
    same(ref_neutral, ops._check_neutral, op, op.neutral, nodes)


cap_st = st.sampled_from((1.0, math.inf))


@given(ops_st, cap_st, st.integers(2, 30), quarter_st, st.lists(quarter_st, max_size=2), quarter_st)
@EXAMPLES
def test_property_checks_match_loops_on_drawn_grids(op, cap, n, hi, extra, e):
    # hi and extra may leave a cap-1 domain: the loops then raise mid-way
    nodes = GridSpec(cap=cap, n=n, hi=hi, extra=tuple(extra)).nodes()
    for ref, new in PROPERTY_CHECKS:
        same(ref, new, op, nodes)
    same(ref_neutral, ops._check_neutral, op, e, nodes)


def _domination_check(dominant, dominated):
    return check_domination(dominant, dominated).checks[0]


def test_domination_matches_loop_on_default_grid():
    for dominant, dominated in ((min_op(1.0), prod_op(1.0)), (prod_op(1.0), min_op(1.0))):
        nodes = ops._thin(GridSpec(cap=1.0, n=21, hi=1.0).nodes(), 21)
        want = outcome(ref_domination, dominant, dominated, nodes)
        assert outcome(_domination_check, dominant, dominated) == want


@given(ops_st, ops_st, cap_st, st.integers(2, 7), quarter_st)
@EXAMPLES
def test_domination_matches_loop_on_drawn_grids(dominant, dominated, cap, n, hi):
    nodes = ops._thin(GridSpec(cap=cap, n=n, hi=hi).nodes(), 21)
    want = outcome(ref_domination, dominant, dominated, nodes)
    assert outcome(ops._check_domination, dominant, dominated, nodes) == want


# ---------------------------------------------------------------------------
# scalar conditions
# ---------------------------------------------------------------------------

exps_st = st.tuples(exponent_st, exponent_st, exponent_st)


def ids_of_arity(arity):
    """The statement ids of one function count, in catalog order."""
    return tuple(tid for tid, stmt in ineq.STATEMENTS.items() if stmt.arity == arity)


def nary_condition(tid, op, H, u, psi, xi, om, reverse, dnodes, cnodes):
    """The n-ary condition on the form of family tid at the arity of H.

    Only the transform families read u and psi, and only the power ones xi and om.
    """
    stmt = ineq.STATEMENTS[tid]
    ex = {"xi": xi, "omega": om} if stmt.exponents else {}
    if "u" not in stmt.fields:
        u = psi = ()
    _, sides, pre, _, _ = ineq._form(tid, H.arity, None, H, u, psi, (), ex)
    return ineq._nary_condition(op, H, sides, pre, reverse, dnodes, cnodes)


def binary_condition(op, star, xi, om, reverse, dnodes, cnodes):
    """A two-function condition: the n-ary one at arity 2 with H = star."""
    ex = dict(zip(ineq.STATEMENTS["star_general"].exponents, xi + om))
    H, sides, pre, _, _ = ineq._form("star_general", 2, star, None, (), (), (), ex)
    return ineq._nary_condition(op, H, sides, pre, reverse, dnodes, cnodes)


def single_condition(tid, op, phi, exps, dnodes, cnodes):
    """A single-function condition: the n-ary one on the family's form at arity 1.

    Only lyapunov reads exps, as its orders r and s, and only the others phi.
    """
    stmt = ineq.STATEMENTS[tid]
    ex = dict(zip(stmt.exponents, exps))
    if "phi" not in stmt.fields:
        phi = ()
    H, sides, pre, _, _ = ineq._form(tid, 1, None, None, (), (), phi, ex)
    return ineq._nary_condition(op, H, sides, pre, stmt.reverse, dnodes, cnodes)


@given(ops_st, ops_st, exps_st, exps_st, st.booleans(), quarter_st, quarter_st)
@EXAMPLES
def test_two_function_condition_matches_loop(op, star, xi, om, reverse, hi_d, hi_m):
    args = (op, star, xi, om, reverse, grid(hi_d, 13), grid(hi_m, 13))
    same(ref_two_function, binary_condition, *args)


def test_two_function_condition_clamps_like_the_nary_one():
    # data above a cap-1 op: the inner op argument is clamped to the cap
    # in both forms, so neither raises "outside [0, 1.0]"
    cheb = check_scalar_condition("chebyshev", min_op(1.0), star=min_op(1.0), hi_data=2.0)
    nary = check_scalar_condition("thm32", min_op(1.0), H=h_min(2), hi_data=2.0)
    assert cheb.passed and nary.passed
    assert cheb.grid == nary.grid


@given(
    st.sampled_from(ids_of_arity(1)),
    ops_st,
    st.tuples(transform_st, transform_st),
    st.tuples(exponent_st, exponent_st),
    quarter_st,
    quarter_st,
)
@EXAMPLES
def test_single_condition_matches_loop(tid, op, phi, exps, hi_d, hi_m):
    same(ref_single, single_condition, tid, op, phi, exps, grid(hi_d, 21), grid(hi_m, 21))


@pytest.mark.parametrize(
    "r, s, expected",
    [
        # (4 c)**1000 overflows for large c, but a node fails before it
        (1.0, 0.001, "CheckResult(name='scalar_condition', passed=False, witness=(0.05, 0.2)"),
        # lhs == rhs everywhere, so the loop reaches the overflow
        (0.001, 0.001, "OverflowError: "),
    ],
    ids=["node-fails-first", "overflow-first"],
)
def test_single_condition_replays_grid_power_errors(r, s, expected):
    # the grid power raises on some values, so GridEval.map falls back to
    # one call per value and flags the ones that raised
    args = ("lyapunov", prod_op(), (), (r, s), grid(1.0, 21), grid(4.0, 21))
    assert same(ref_single, single_condition, *args).startswith(expected)


@st.composite
def nary_case(draw):
    arity = draw(st.sampled_from((2, 3)))
    tid = draw(st.sampled_from(ids_of_arity(None)))
    H = draw(aggregation_st(arity))
    u = draw(st.lists(transform_st, min_size=arity + 1, max_size=arity + 1))
    psi = draw(st.lists(transform_st, min_size=arity, max_size=arity))
    xi = draw(st.lists(exponent_st, min_size=arity + 1, max_size=arity + 1))
    om = draw(st.lists(exponent_st, min_size=arity + 1, max_size=arity + 1))
    # full 13-node axes at arity 2; the arity-3 loop is too slow for that
    n = 13 if arity == 2 else draw(st.integers(2, 7))
    return tid, H, tuple(u), tuple(psi), tuple(xi), tuple(om), n


@given(ops_st, nary_case(), st.booleans(), quarter_st, quarter_st)
@EXAMPLES
def test_nary_condition_matches_loop(op, case, reverse, hi_d, hi_m):
    tid, H, u, psi, xi, om, n = case
    args = (tid, op, H, u, psi, xi, om, reverse, grid(hi_d, n), grid(hi_m, n))
    same(ref_nary, nary_condition, *args)


# ---------------------------------------------------------------------------
# aggregation bounds and measure contraction
# ---------------------------------------------------------------------------


def ref_H_boundedness(H, mode):
    grid = [i / 10.0 for i in range(11)]
    name = f"bounded_{mode}"
    for args in itertools.product(grid, repeat=H.arity):
        v = ref_H(H, args)
        if mode == "above_by_min" and v > min(args) + SLACK:
            return ops.PropertyReport((CheckResult(name, False, args),), {"n": len(grid)})
        if mode == "below_by_max" and v < max(args) - SLACK:
            return ops.PropertyReport((CheckResult(name, False, args),), {"n": len(grid)})
    return ops.PropertyReport((CheckResult(name, True),), {"n": len(grid)})


@given(
    st.sampled_from((2, 3)).flatmap(aggregation_st),
    st.sampled_from(("above_by_min", "below_by_max")),
)
@EXAMPLES
def test_H_boundedness_matches_loop(H, mode):
    same(ref_H_boundedness, ineq.check_H_boundedness, H, mode)


def ref_contraction(op, total):
    nodes = grid(1.0 if op.cap == 1.0 else 2.0, 41)
    if op.cap == math.inf:
        nodes += (math.inf,)
    for b in nodes:
        if eval_op(op, b, total) > b + SLACK:
            return CheckResult("measure_contraction", False, (b, total))
    return CheckResult("measure_contraction", True)


def uncached_contraction(op, total):
    return ineq._contraction_check.__wrapped__(op, total)


# totals above a cap of 1, and nan, make every evaluation raise
total_st = st.one_of(quarter_st, st.sampled_from((0.0, 0.3, math.inf, math.nan)))


@given(ops_st, total_st)
@EXAMPLES
def test_contraction_matches_loop(op, total):
    same(ref_contraction, uncached_contraction, op, total)
