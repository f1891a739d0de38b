"""Verification of integral inequality families.

Every family compares two integral expressions built from the same data,
and each is written once, as sides.  A side is ``outer(∫ inner(f))``: a
transform of the integrand, the instance's integral, and a map of the
value.  A family of n functions and aggregation H has one side for
``∫ H(pre(f))`` on the left, and one per function ``f_i`` on the right,
which is ``H(pre_i(outer_i(∫ inner_i f_i)))``.  The two-function families
are at arity 2 with H = ⋆ (kind ``binary``), and the single-function
families (thm33, jensen, rev_jensen, lyapunov, rev_transform) at arity 1
with H the identity.  Each statement is one row of :data:`STATEMENTS`.
:func:`_form` derives H, sides and pre, by one of three side rules, and
one verdict body evaluates them:

- transform sides ``(t, pinv t)``: thm31 and thm41 take them from the
  transforms u and their pre maps from psi, and thm33 and rev_transform
  are the same family at arity 1, with their two transforms phi;
- power sides ``(x ↦ x**xi, v ↦ v**omega)``, with identity pre maps:
  thm32, thm42_h and the two-function families, and lyapunov, the power
  family at arity 1 with xi = (s, r) and omega = (1/s, 1/r).  A family's
  exponents are read by the names in its row, and any other name, or a
  star, H, u, psi or phi that the statement does not read, is refused;
- Jensen's pair ``(phi, id), (id, phi)`` of jensen and rev_jensen.

The aggregations min, max and prod, and H = ⋆, are one computation: a
left fold of a BinaryOp ``H.op`` over the arguments.  The right side
folds the op's scalar kernel, the scalar condition folds
:meth:`GridEval.op`, and the combined integrand ``H(f_1, ..., f_n)``
folds ``pointwise_combine(H.op, ·, ·)``, so the arithmetic of those
aggregations lives in :mod:`~fuzzyint.ops` alone.  Only the weighted
mean and the table aggregation compute here.

A verdict evaluates the sides with the scalar integral; the scalar
sufficient condition of a family (the per-threshold inequality coupling
the aggregation to the integral op) evaluates the same sides on a finite
grid, with the integral replaced by ``x ⊙ c`` for a measure value c.  A
verdict records both sides, the signed margin, whether the inequality
holds at the instance tolerance, and a hypothesis report: every
precondition of the family is grid-checked and the verdict is flagged
when any fails, but both sides are always evaluated so
hypothesis-violating regimes can be studied deliberately.

Campaigns reuse pure results heavily, so scalar conditions (per
parameter set), op reports, measure contractions, the monotonicity of H
and, on the unit interval, each function's side integral (by value,
since drawn functions and measures recur) are memoised by
:func:`_memo`; a hit returns the result of the first computation,
evaluation count included.  Each memoised function keeps its own newest
``_CACHE_LIMIT`` results, oldest out first, since drawn exponents make a
new condition on nearly every trial.  The stores belong to the running
campaign; calls outside one share a module default.

A scalar condition, the bound of H by min or max and the measure
contraction are each one :func:`~fuzzyint.ops.grid_check`: the grid is
evaluated as arrays, one broadcast per step of the check, the witness is
the first failing node in the order of a loop over the grid, and an
out-of-domain evaluation raises only where that loop would have reached
it.  The exponent range is a loop, and the monotonicity of H is decided
from its kind, a table's by comparing its adjacent stored entries.
Every condition clamps the arguments of an op, ⋆ included, to that op's
cap before evaluating it.  Powers and transforms on a grid are the
scalar functions applied to each distinct value, so they are bit for bit
the ones the verdicts use.  The threshold optimiser and the verdicts
themselves keep the scalar op kernels.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import partial, reduce, wraps
from typing import Mapping, Sequence

import numpy as np

from .ops import (
    INF,
    BinaryOp,
    CheckResult,
    FLAG_NONDECREASING,
    GridEval,
    InputError,
    KIND_MAX,
    KIND_MIN,
    PropertyReport,
    check_table_nodes,
    eval_op,  # not called here; perfbench/tracer.py counts calls at this binding
    grid_check,
    max_grid,
    max_op,
    min_grid,
    min_op,
    nearest_index,
    nearest_indices,
    prod_op,
    sum_op,
    verify_op_properties,
)
from . import functions
from .functions import (
    IDENTITY,
    FiniteFunction,
    MonotoneTransform,
    affine,
    apply_transform,
    is_comonotone,
    is_continuous,
    is_identity,
    power,
    sup_value,
)
from .measures import DistortedLebesgue, FiniteMonotoneMeasure, Measure
from .integrals import (
    IntegralResult,
    semiconormed_integral,
    seminormed_integral,
    universal_integral,
)

# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    """One statement's facts: its function count arity (1, 2 under a
    pointwise ⋆, or None for n under an aggregation H), its side rule
    ("power", "transform" or "jensen"), whether it is reversed (``<=``,
    semiconormed), the exponent names its power sides read, and the data
    range of its exponent hypothesis: "data" (the functions' largest
    value), "unit" or "" for none.  fields, derived from these, are the
    instance fields among star, H, u, psi and phi that it reads."""

    arity: int | None
    sides: str
    reverse: bool = False
    exponents: tuple[str, ...] = ()
    exponent_range: str = ""
    fields: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.arity == 2:
            fields = ("star",)
        elif self.arity is None:
            fields = ("H", "u", "psi") if self.sides == "transform" else ("H",)
        else:
            fields = () if self.sides == "power" else ("phi",)
        object.__setattr__(self, "fields", frozenset(fields))


_STAR_GENERAL = ("xi0", "xi1", "xi2", "omega0", "omega1", "omega2")
_SEMINORMED = ("alpha", "beta", "gamma", "lambda", "upsilon", "tau")

# every statement, by id; THEOREM_IDS is its keys, in this order
STATEMENTS = {
    "thm31": Statement(None, "transform"),
    "thm32": Statement(None, "power", False, ("xi", "omega"), "data"),
    "thm41": Statement(None, "transform", True),
    "thm42_h": Statement(None, "power", True, ("xi", "omega"), "data"),
    "chebyshev": Statement(2, "power"),
    "holder": Statement(2, "power", False, ("p", "q")),
    "minkowski": Statement(2, "power", False, ("s",)),
    "star_general": Statement(2, "power", False, _STAR_GENERAL, "data"),
    "seminormed_general": Statement(2, "power", False, _SEMINORMED, "unit"),
    "rev_chebyshev": Statement(2, "power", True),
    "rev_holder": Statement(2, "power", True, ("p", "q")),
    "rev_minkowski": Statement(2, "power", True, ("k",)),
    "rev_seminormed": Statement(2, "power", True, _SEMINORMED, "unit"),
    "thm33": Statement(1, "transform"),
    "jensen": Statement(1, "jensen"),
    "rev_jensen": Statement(1, "jensen", True),
    "lyapunov": Statement(1, "power", False, ("r", "s")),
    "rev_transform": Statement(1, "transform", True),
}
THEOREM_IDS = tuple(STATEMENTS)

_SCALAR_SLACK = 1e-12


# ---------------------------------------------------------------------------
# memoised results
# ---------------------------------------------------------------------------

# the most results one memoised function keeps
_CACHE_LIMIT = 4096
# {function: OrderedDict of its results by argument tuple}; a campaign sets
# its own stores, and every call outside one shares this default
_stores: ContextVar[dict] = ContextVar("memo_stores", default={})


def _memo(fn):
    """fn with its results kept by argument tuple in the current stores.

    Each memoised function has its own store, which drops its oldest
    result to admit one beyond _CACHE_LIMIT, so one function's results
    never push out another's.  A hit is not moved to the end, since that
    would hash its key again, and frozen-dataclass hashes run in Python.
    Arguments that cannot hash, such as a pwl built from lists, are
    computed uncached.
    """

    @wraps(fn)
    def memoised(*args):
        stores = _stores.get()
        store = stores.get(fn)
        if store is None:
            store = stores[fn] = OrderedDict()
        try:
            hit = store.get(args)
        except TypeError:
            return fn(*args)
        if hit is None:
            hit = fn(*args)
            if len(store) >= _CACHE_LIMIT:
                store.popitem(last=False)
            store[args] = hit
        return hit

    return memoised


# ---------------------------------------------------------------------------
# n-ary aggregations
# ---------------------------------------------------------------------------


# the BinaryOp each named aggregation folds, built from its kind
_FOLDS = {"min": min_op, "max": max_op, "prod": prod_op}
# the largest arity k an aggregation takes: the scalar-condition grid of an
# n-ary family has 6**6 = 46,656 nodes at k = 5 and 5**7 = 78,125 at k = 6;
# raise the bound only with a measurement of that grid
MAX_ARITY = 5


@dataclass(frozen=True)
class NaryOp:
    """Aggregation H of n nonnegative arguments.

    The kinds min, max, prod and ``binary`` are one computation: a left
    fold of the BinaryOp ``op`` over the arguments, each clamped to
    op.cap.  For min, max and prod, op is min_op(), max_op() or prod_op(),
    built from the kind.  For ``binary`` it is the pointwise operation ⋆
    of two arguments, which carries the two-function families through the
    n-ary core; that kind is internal and has no JSON form.  The other two
    kinds have no op: a weighted arithmetic mean, and an explicit table
    over a small grid with nearest-node lookup.
    """

    kind: str
    arity: int = 2
    weights: tuple[float, ...] = ()
    nodes: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    op: BinaryOp | None = None

    def __post_init__(self):
        if self.kind not in ("min", "max", "prod", "wmean", "table", "binary"):
            raise InputError(f"unknown aggregation kind {self.kind!r}")
        if self.arity < 1:
            raise InputError("aggregation needs arity >= 1")
        if self.arity > MAX_ARITY:
            raise InputError(f"aggregation takes at most arity {MAX_ARITY}")
        if self.kind == "binary" and (self.arity != 2 or self.op is None):
            raise InputError("binary aggregation needs arity 2 and an operation")
        if self.kind in _FOLDS:
            object.__setattr__(self, "op", _FOLDS[self.kind]())
        elif self.kind != "binary" and self.op is not None:
            raise InputError(f"a {self.kind} aggregation takes no operation")
        if self.kind == "wmean":
            if len(self.weights) != self.arity:
                raise InputError("weighted mean needs one weight per argument")
            if any(w < 0.0 for w in self.weights) or sum(self.weights) <= 0.0:
                raise InputError("weights must be nonnegative with positive sum")
        if self.kind == "table":
            check_table_nodes(self.nodes)
            if len(self.values) != len(self.nodes) ** self.arity:
                raise InputError("table needs len(nodes)**arity values")

    def __call__(self, args: Sequence[float]) -> float:
        if len(args) != self.arity:
            raise InputError(f"aggregation expects {self.arity} arguments")
        if self.op is not None:
            kernel, cap = self.op.kernel, self.op.cap
            out = min(args[0], cap)
            for a in args[1:]:
                out = kernel(out, min(a, cap))
            return out
        if self.kind == "wmean":
            total = sum(self.weights)
            return sum(w * a for w, a in zip(self.weights, args)) / total
        idx = 0
        for a in args:
            idx = idx * len(self.nodes) + nearest_index(self.nodes, a)
        return self.values[idx]

    def eval_grid(self, g: GridEval, args: Sequence[np.ndarray]) -> np.ndarray:
        """H over broadcast arrays, element for element equal to __call__.

        The fold evaluates op through g, so its errors are replayed in the
        order of the grid's loop.
        """
        op = self.op
        if op is not None:
            if op.cap < INF:  # a clamp to inf changes no value
                args = [min_grid(a, op.cap) for a in args]
            out = args[0]
            for a in args[1:]:
                out = g.op(op, out, a)
            return out
        if self.kind == "wmean":
            total = sum(self.weights)
            out = 0.0
            for w, a in zip(self.weights, args):
                out = out + w * a
            return out / total
        idx = 0
        for a in args:
            idx = idx * len(self.nodes) + nearest_indices(self.nodes, a)
        return np.asarray(self.values, dtype=float)[idx]


# H of a single-function family: min of one argument under an infinite cap
_H_IDENTITY = NaryOp("min", 1)


def h_min(arity: int = 2) -> NaryOp:
    return NaryOp("min", arity)


def h_max(arity: int = 2) -> NaryOp:
    return NaryOp("max", arity)


def h_prod(arity: int = 2) -> NaryOp:
    return NaryOp("prod", arity)


def h_wmean(weights: Sequence[float]) -> NaryOp:
    return NaryOp("wmean", len(weights), tuple(float(w) for w in weights))


def h_table(nodes: Sequence[float], values: Sequence[float], arity: int = 2) -> NaryOp:
    return NaryOp(
        "table", arity, nodes=tuple(float(x) for x in nodes), values=tuple(float(v) for v in values)
    )


def check_H_boundedness(H: NaryOp, mode: str) -> PropertyReport:
    """Grid check of H <= min (mode 'above_by_min') or H >= max on 0, 0.1, ..., 1."""
    if mode not in ("above_by_min", "below_by_max"):
        raise InputError("mode must be 'above_by_min' or 'below_by_max'")
    grid = tuple(i / 10.0 for i in range(11))

    def fail(g, *xs):
        v = H.eval_grid(g, xs)
        if mode == "above_by_min":
            return v > reduce(min_grid, xs) + _SCALAR_SLACK
        return v < reduce(max_grid, xs) - _SCALAR_SLACK

    check = grid_check(f"bounded_{mode}", (grid,) * H.arity, fail)
    return PropertyReport((check,), {"n": len(grid)})


@_memo
def _check_H_nondecreasing(H: NaryOp) -> CheckResult:
    """Whether H is nondecreasing on [0, inf)^k, decided from its kind.

    min, max and prod fold a nondecreasing op over clamped arguments, and
    a wmean has nonnegative weights, so they pass; ``binary`` is as
    monotone as its op.  A table is a step function of nearest_index,
    which is nondecreasing in finite x, so it is nondecreasing exactly
    when each pair of axis-adjacent entries from nearest_index(nodes, 0)
    up is ordered.  The witness is the lower cell's nodes, the axis and
    the next node, of the first drop in a loop over cells, then axes.
    """
    name = "aggregator_nondecreasing"
    if H.kind == "binary":
        check = verify_op_properties(H.op, (FLAG_NONDECREASING,)).checks[0]
        return CheckResult(name, check.passed, check.witness)
    if H.kind != "table":
        return CheckResult(name, True)
    k, lo = H.arity, nearest_index(H.nodes, 0.0)
    v = np.asarray(H.values, dtype=float).reshape((len(H.nodes),) * k)[(slice(lo, None),) * k]
    drops = np.zeros(v.shape + (k,), dtype=bool)
    for i in range(k):
        pre = (slice(None),) * i
        lower, upper = pre + (slice(None, -1),), pre + (slice(1, None),)
        drops[lower + (Ellipsis, i)] = v[upper] < v[lower] - _SCALAR_SLACK
    if not drops.any():
        return CheckResult(name, True)
    *cell, i = np.unravel_index(int(np.argmax(drops)), drops.shape)
    witness = tuple(H.nodes[lo + j] for j in cell)
    return CheckResult(name, False, witness + (int(i), H.nodes[lo + cell[i] + 1]))


# ---------------------------------------------------------------------------
# instances and verdicts
# ---------------------------------------------------------------------------


class _Exponents(tuple):
    """Exponents in their frozen form: (name, float or tuple of floats)
    pairs sorted by name.  The type marks a value that needs no freezing."""

    __slots__ = ()


def _freeze_exponents(exponents) -> _Exponents:
    if exponents is None:
        return _Exponents()
    if isinstance(exponents, Mapping):
        items = exponents.items()
    else:
        items = exponents
    out = []
    for k, v in sorted(items):
        if isinstance(v, (list, tuple)):
            out.append((str(k), tuple(float(x) for x in v)))
        else:
            out.append((str(k), float(v)))
    return _Exponents(out)


@dataclass(frozen=True)
class TheoremInstance:
    """One inequality family applied to concrete data.

    functions, u, psi and phi may be given as any iterables and are kept
    as tuples; exponents may be a mapping, pairs or None, and are kept
    frozen as sorted (name, value) pairs, a list of numbers as a tuple of
    floats.  So equal data makes equal, hashable instances with one digest.
    """

    theorem_id: str
    op: BinaryOp
    measure: Measure
    functions: tuple
    star: BinaryOp | None = None
    H: NaryOp | None = None
    u: tuple[MonotoneTransform, ...] = ()
    psi: tuple[MonotoneTransform, ...] = ()
    phi: tuple[MonotoneTransform, ...] = ()
    exponents: tuple = _Exponents()

    def __post_init__(self):
        if self.theorem_id not in STATEMENTS:
            raise InputError(f"unknown theorem id {self.theorem_id!r}")
        # a field already in normal form is neither rebuilt nor reassigned:
        # shrinking replaces an instance once per candidate
        if not (type(self.functions) is type(self.u) is type(self.psi) is type(self.phi) is tuple):
            for name in ("functions", "u", "psi", "phi"):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.functions:
            raise InputError("instance needs at least one function")
        if type(self.exponents) is not _Exponents:
            object.__setattr__(self, "exponents", _freeze_exponents(self.exponents))

    def exponent(self, name: str, default: float = 1.0):
        for k, v in self.exponents:
            if k == name:
                return v
        return default


@dataclass(frozen=True)
class InequalityVerdict:
    """Outcome of one verification."""

    theorem_id: str
    lhs: float
    rhs: float
    direction: str  # ">=" or "<="
    margin: float  # lhs - rhs
    holds: bool
    tol: float
    hypotheses_met: bool
    hypothesis_report: PropertyReport
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "direction": self.direction,
            "margin": self.margin,
            "holds": self.holds,
            "tol": self.tol,
            "hypotheses_met": self.hypotheses_met,
            "hypothesis_report": self.hypothesis_report.to_json(),
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# family forms: sides outer(∫ inner(f))
# ---------------------------------------------------------------------------

def _pinv(t: MonotoneTransform, y: float) -> float:
    """Pseudo-inverse: values below t(0) pull back to 0."""
    if y <= t.at_zero():
        return 0.0
    return t.invert(y)


def _pow(x: float, e: float) -> float:
    if x == INF:
        return INF
    return x**e


def _outer_pow(e: float):
    # _pow rather than power(e): an infinite exponent gives e = 0
    return IDENTITY if e == 1.0 else partial(_pow, e=e)


def _form(tid: str, n: int, star, H, u, psi, phi, ex: Mapping):
    """(H, sides, pre, xi, omega) of a statement of n functions.

    lhs = outer_0(∫ inner_0(H(pre(f)))) and rhs = H(pre_i(outer_i(∫ inner_i f_i))),
    where sides holds the (inner, outer) of each integral, lhs first, by
    the statement's side rule in STATEMENTS.  A missing phi of jensen
    reads as the identity, and rev_jensen reverses jensen's pair.  Power
    sides read ex under the statement's exponent names, a missing name
    as 1: chebyshev and its reverse have all exponents 1, holder's p, q
    give xi = (1, p, q) and omega its reciprocals, and the root-mean
    exponent s (k in reverse) gives xi = s and omega = 1/s throughout.
    An exponent name, or a star, H, u, psi or phi, that the statement
    does not read is an InputError.  xi and omega are empty where the
    sides are not powers.  The form reads no measure and no function value.
    """
    stmt = STATEMENTS[tid]
    unread = ex.keys() - stmt.exponents
    if unread:
        raise InputError(f"{tid} reads no exponent {', '.join(sorted(unread))}")
    for name, given in (("star", star), ("H", H), ("u", u), ("psi", psi), ("phi", phi)):
        if given and name not in stmt.fields:
            raise InputError(f"{tid} reads no {name}")
    pre = (IDENTITY,) * n
    if stmt.arity == 1:
        if n != 1:
            raise InputError("single-function families need exactly one function")
        H = _H_IDENTITY
    elif stmt.arity == 2:
        if n != 2:
            raise InputError("two-function families need exactly two functions")
        if star is None:
            raise InputError("two-function families need a pointwise operation")
        H = NaryOp("binary", op=star)
    else:
        if H is None:
            raise InputError("n-ary families need an aggregation")
        if H.arity != n:
            raise InputError("aggregation arity must match the function count")
    if stmt.sides == "jensen":
        t = phi[0] if phi else IDENTITY
        sides = ((t, IDENTITY), (IDENTITY, t))
        return H, sides[::-1] if stmt.reverse else sides, pre, (), ()
    if stmt.sides == "transform":
        if stmt.arity is None:
            if len(u) != n + 1 or len(psi) != n:
                raise InputError("need n+1 outer transforms and n reindexings")
            transforms, pre = u, tuple(psi)
        else:
            if len(phi) != 2:
                raise InputError("transform comparison needs two transforms")
            transforms = phi
        return H, tuple((t, partial(_pinv, t)) for t in transforms), pre, (), ()

    names = stmt.exponents
    if stmt.arity is None:
        xi, om = [ex.get(k, (1.0,) * (n + 1)) for k in names]
        if not (isinstance(xi, tuple) and isinstance(om, tuple)):
            raise InputError("n-ary exponents must be sequences " + ", ".join(names))
        if len(xi) != n + 1 or len(om) != n + 1:
            raise InputError("need one xi and omega per function plus the outer pair")
        vals = xi + om
    else:
        vals = tuple([ex.get(k, 1.0) for k in names])
        for k, v in zip(names, vals):
            if isinstance(v, tuple):
                raise InputError(f"exponent {k} must be a number")
    for v in vals:
        if not v > 0.0:
            raise InputError("exponents must be positive")
    if tid in ("holder", "rev_holder"):
        p, q = vals
        if not (p >= 1.0 and q >= 1.0):
            raise InputError("conjugate exponents need p, q >= 1")
        xi, om = (1.0, p, q), (1.0, 1.0 / p, 1.0 / q)
    elif tid in ("minkowski", "rev_minkowski"):
        xi, om = vals * 3, (1.0 / vals[0],) * 3
    elif tid == "lyapunov":
        r, s = vals
        xi, om = (s, r), (1.0 / s, 1.0 / r)
    elif not vals:  # chebyshev and rev_chebyshev
        xi = om = (1.0,) * (n + 1)
    else:
        xi, om = vals[: n + 1], vals[n + 1 :]
    return H, tuple([(power(x), _outer_pow(w)) for x, w in zip(xi, om)]), pre, xi, om


def _tapply(t, v: float) -> float:
    return v if t is IDENTITY else t(v)


# ---------------------------------------------------------------------------
# scalar condition checks
# ---------------------------------------------------------------------------


def _range_nodes(hi: float, n: int) -> tuple[float, ...]:
    if not (hi > 0.0 and math.isfinite(hi)):
        hi = 1.0
    return tuple(hi * i / (n - 1) for i in range(n))


def _tmap(g: GridEval, t, x):
    """t over a grid array; the identity leaves x as it is."""
    if t is IDENTITY:
        return x
    return g.map(t.kernel if isinstance(t, MonotoneTransform) else t, x)


def _grid_side(g: GridEval, op: BinaryOp, x, c, inner, outer):
    """outer(inner(x) ⊙ c) over the grid: map inner, then op, then map outer."""
    return _tmap(g, outer, g.op(op, min_grid(_tmap(g, inner, x), op.cap), c))


def _fails(lhs, rhs, reverse: bool):
    if reverse:
        return lhs > rhs + _SCALAR_SLACK
    return lhs < rhs - _SCALAR_SLACK


def _nary_condition(
    op: BinaryOp, H: NaryOp, sides, pre, reverse: bool, dnodes, cnodes
) -> CheckResult:
    n = H.arity

    def fail(g, *xs):
        args, c = xs[:n], xs[n]
        base = [_tmap(g, t, x) for t, x in zip(pre, args)]
        lhs = _grid_side(g, op, H.eval_grid(g, base), c, *sides[0])
        rhs = []
        for i in range(n):
            repl = _tmap(g, pre[i], _grid_side(g, op, args[i], c, *sides[i + 1]))
            rhs.append(H.eval_grid(g, base[:i] + [repl] + base[i + 1 :]))
        return _fails(lhs, reduce(min_grid if reverse else max_grid, rhs), reverse)

    return grid_check("scalar_condition", (dnodes,) * n + (cnodes,), fail)


def check_scalar_condition(
    condition_id: str,
    op: BinaryOp,
    star: BinaryOp | None = None,
    H: NaryOp | None = None,
    u: Sequence[MonotoneTransform] = (),
    psi: Sequence[MonotoneTransform] = (),
    phi: Sequence[MonotoneTransform] = (),
    exponents=None,
    hi_data: float | None = None,
    hi_measure: float | None = None,
) -> PropertyReport:
    """Grid check of the per-threshold condition of one family.

    condition ids coincide with the theorem catalog.  Every condition is
    the n-ary one on the family's form: a two-function condition at arity
    2 with H = star (kind ``binary``) and the family's exponent vectors, a
    single-function one at arity 1 with H the identity.  Every op
    argument, star's included, is clamped to that op's cap before
    evaluation.  The grid spans [0, hi_data] for function values and
    [0, hi_measure] for measure values, defaulting to the op domain
    (capped at 2 when unbounded).  A single-function grid has 21 nodes per axis, the others
    30000 ** (1 / (arity + 1)) rounded and kept within 5 to 13.  Slack
    1e-12 absorbs float noise from powers.  Exponents are read and refused
    as verify reads and refuses them.
    """
    ex = dict(_freeze_exponents(exponents))
    cap = op.cap if star is None else min(op.cap, star.cap)
    if hi_data is None:
        hi_data = 1.0 if cap == 1.0 else 2.0
    if hi_measure is None:
        hi_measure = 1.0 if op.cap == 1.0 else 2.0
    stmt = STATEMENTS.get(condition_id)
    if stmt is None:
        raise InputError(f"unknown condition id {condition_id!r}")
    if stmt.arity == 1:
        arity, n = 1, 21
    else:
        arity = H.arity if stmt.arity is None and H is not None else 2
        n = min(13, max(5, int(round(30000 ** (1.0 / (arity + 1))))))
    H, sides, pre, _, _ = _form(condition_id, arity, star, H, u, psi, phi, ex)
    dnodes, cnodes = _range_nodes(hi_data, n), _range_nodes(hi_measure, n)
    check = _nary_condition(op, H, sides, pre, stmt.reverse, dnodes, cnodes)
    meta = {"nodes": len(dnodes), "hi_data": hi_data, "hi_measure": hi_measure, "slack": _SCALAR_SLACK}
    return PropertyReport((check,), meta)


@_memo
def _scalar_condition(tid, op, star, H, u, psi, phi, exponents, hi_data, hi_measure) -> CheckResult:
    """The one check of check_scalar_condition; a campaign's instances share it."""
    rep = check_scalar_condition(
        tid, op, star, H, u, psi, phi, exponents, hi_data=hi_data, hi_measure=hi_measure
    )
    return rep.checks[0]


# ---------------------------------------------------------------------------
# integral routing and combination
# ---------------------------------------------------------------------------

_PSUM = sum_op()


def _integral(reverse: bool, op: BinaryOp, measure: Measure, g) -> IntegralResult:
    """The integral of g: semiconormed in reverse, else seminormed under cap 1, else universal."""
    if reverse:
        return semiconormed_integral(op, measure, g)
    if op.cap == 1.0:
        return seminormed_integral(op, measure, g)
    return universal_integral(op, measure, g)


# a side integral on the unit interval, memoised by value: drawn interval
# functions and measures come from small lattices, so the same side recurs
# across trials.  A finite table is drawn afresh each trial and integrates
# exactly for less than hashing it costs, so it is not memoised
_interval_side = _memo(_integral)


def _combine_nary(H: NaryOp, funcs: Sequence) -> object:
    """H(f_1, ..., f_n) pointwise, as one function on the functions' carrier.

    A kind with an op folds ``pointwise_combine(H.op, ·, ·)`` over the
    functions, as H folds op over its arguments, but without the clamp to
    op.cap: a value beyond it is rejected.  On a finite carrier a weighted
    mean or a table is evaluated row by row; on the unit interval a
    weighted mean is a sum of scaled functions, and a table is rejected.
    """
    finite = all(isinstance(f, FiniteFunction) for f in funcs)
    if finite:
        if any(f.n != funcs[0].n for f in funcs):
            raise InputError("carrier size mismatch")
    elif len(funcs) > 1 and not all(is_continuous(f) for f in funcs):
        raise InputError("cannot mix carriers in an aggregation")
    if H.op is not None:
        out = funcs[0]
        for f in funcs[1:]:
            # called through the module, so a wrapper installed on it is seen
            out = functions.pointwise_combine(H.op, out, f)
        return out
    if finite:
        return FiniteFunction(tuple(H(row) for row in zip(*(f.values for f in funcs))))
    if H.kind == "wmean":
        # NaryOp refuses weights without a positive sum, so out is set
        total = sum(H.weights)
        out = None
        for w, f in zip(H.weights, funcs):
            if w > 0.0:
                term = apply_transform(affine(w / total, 0.0), f)
                out = term if out is None else functions.pointwise_combine(_PSUM, out, term)
        return out
    raise InputError("table aggregations need a finite carrier")


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


@_memo
def _op_report(op: BinaryOp) -> PropertyReport:
    return verify_op_properties(op)


@_memo
def _summary_check(name: str, op: BinaryOp) -> CheckResult:
    """The one check, named name, that sums up op's property report."""
    rep = _op_report(op)
    if rep.passed:
        return CheckResult(name, True)
    failing = [c for c in rep.checks if not c.passed]
    return CheckResult(name, False, failing[0].witness, ", ".join(c.name for c in failing))


@_memo
def _contraction_check(op: BinaryOp, total: float) -> CheckResult:
    nodes = _range_nodes(1.0 if op.cap == 1.0 else 2.0, 41)
    if op.cap == INF:
        nodes += (INF,)

    def fail(g, b, m):
        return g.op(op, b, m) > b + _SCALAR_SLACK

    return grid_check("measure_contraction", (nodes, (total,)), fail)


def _normalized_check(total: float) -> CheckResult:
    ok = abs(total - 1.0) <= 1e-9
    return CheckResult("measure_normalized", ok, None if ok else (total,))


def _exponent_range_check(products: Sequence[float], dmax: float, want_ge: bool) -> CheckResult:
    """Grid check of x**(1/(xi*om)) >= x (or <=) over the data range."""
    hi = dmax if dmax > 0.0 else 1.0
    name = "exponent_condition"
    for prod in products:
        if prod <= 0.0:
            return CheckResult(name, False, (prod,), "nonpositive exponent product")
        inv = 1.0 / prod
        for i in range(101):
            x = hi * i / 100.0
            lhs = x**inv
            if want_ge and lhs < x - _SCALAR_SLACK:
                return CheckResult(name, False, (x, prod))
            if not want_ge and lhs > x + _SCALAR_SLACK:
                return CheckResult(name, False, (x, prod))
    return CheckResult(name, True)


def _comonotone_check(funcs: Sequence) -> CheckResult:
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            ok, wit = is_comonotone(funcs[i], funcs[j])
            if not ok:
                return CheckResult("comonotone", False, (i, j) + tuple(wit))
    return CheckResult("comonotone", True)


def _finiteness_check(results: Sequence[IntegralResult]) -> CheckResult:
    for r in results:
        if not math.isfinite(r.value):
            return CheckResult("finite_integrals", False, (r.value,))
    return CheckResult("finite_integrals", True)


def _data_max(funcs: Sequence) -> float:
    out = 0.0
    for f in funcs:
        s = sup_value(f)
        if math.isfinite(s):
            out = max(out, s)
    return out


# ---------------------------------------------------------------------------
# family evaluators
# ---------------------------------------------------------------------------


def _lattice_tol(inst: TheoremInstance, form, results: Sequence[IntegralResult]) -> float:
    """0 for pure-lattice finite instances, else 1e-9 plus refine slack."""
    H, _, _, xi, om = form
    lattice = isinstance(inst.measure, FiniteMonotoneMeasure)
    lattice &= inst.op.kind in (KIND_MIN, KIND_MAX)
    lattice &= H.op is not None and H.op.kind in (KIND_MIN, KIND_MAX)
    lattice &= all(x == 1.0 for x in xi + om)
    for t in inst.u + inst.psi + inst.phi:
        lattice &= is_identity(t)
    if lattice:
        return 0.0
    return 1e-9 + sum(r.tol for r in results)


def _mk_verdict(inst, form, rev: bool, lhs, rhs, checks, results, tol) -> InequalityVerdict:
    if tol is None:
        tol = _lattice_tol(inst, form, results)
    # inf on both sides compares as equal rather than as nan
    margin = 0.0 if lhs == rhs else lhs - rhs
    report = PropertyReport(tuple(checks), {"tol": tol})
    met = report.passed
    return InequalityVerdict(
        theorem_id=inst.theorem_id,
        lhs=lhs,
        rhs=rhs,
        direction="<=" if rev else ">=",
        margin=margin,
        holds=margin <= tol if rev else margin >= -tol,
        tol=tol,
        hypotheses_met=met,
        hypothesis_report=report,
        notes=() if met else ("hypotheses_unmet",),
    )


def _measure_checks(inst: TheoremInstance) -> list[CheckResult]:
    """Normalised under a cap-1 op and for the reverse two- and one-function
    statements; none for the reverse n-ary ones above cap 1; else the contraction."""
    stmt, op, total = STATEMENTS[inst.theorem_id], inst.op, inst.measure.total
    if op.cap == 1.0 or (stmt.reverse and stmt.arity is not None):
        return [_normalized_check(total)]
    return [] if stmt.reverse else [_contraction_check(op, total)]


def _snap_up(x: float) -> float:
    """Round a range bound up to the next 0.25 step for cache reuse.

    Checking the condition on the enlarged box is conservative: a pass
    covers the true data range, a fail can only overreport unmet
    hypotheses, never hide a violation.
    """
    return max(0.25, math.ceil(x * 4.0 - 1e-9) / 4.0)


def _instance_form(inst: TheoremInstance):
    """The _form of inst's family, at the arity of its function count."""
    n = len(inst.functions)
    ex = dict(inst.exponents)
    return _form(inst.theorem_id, n, inst.star, inst.H, inst.u, inst.psi, inst.phi, ex)


def _verdict(inst: TheoremInstance, form, tol, skip_hypotheses: bool) -> InequalityVerdict:
    """The verdict of inst, whose family form (see _form) is form."""
    tid = inst.theorem_id
    stmt = STATEMENTS[tid]
    H, sides, pre, xi, om = form
    combined = _combine_nary(H, tuple(map(apply_transform, pre, inst.functions)))
    rev = stmt.reverse
    r_lhs = _integral(rev, inst.op, inst.measure, apply_transform(sides[0][0], combined))
    lhs = _tapply(sides[0][1], r_lhs.value)
    side = _interval_side if isinstance(inst.measure, DistortedLebesgue) else _integral
    parts = []
    results = [r_lhs]
    for t, f, (inner, outer) in zip(pre, inst.functions, sides[1:]):
        r_i = side(rev, inst.op, inst.measure, apply_transform(inner, f))
        results.append(r_i)
        parts.append(_tapply(t, _tapply(outer, r_i.value)))
    rhs = H(tuple(parts))

    checks: list[CheckResult] = []
    if not skip_hypotheses:
        data_max = _data_max(inst.functions)
        hi_data = _snap_up(data_max)
        checks.append(_summary_check("op_properties", inst.op))
        if stmt.arity == 2:
            checks.append(_summary_check("star_properties", H.op))
        elif stmt.arity is None:
            checks.append(_check_H_nondecreasing(H))
        if stmt.arity != 1:
            checks.append(_comonotone_check(inst.functions))
        checks.extend(_measure_checks(inst))
        if stmt.exponent_range:
            span = data_max if stmt.exponent_range == "data" else 1.0
            prods = tuple(x * w for x, w in zip(xi[1:], om[1:]))
            checks.append(_exponent_range_check(prods, span, not rev))
        cond = (tid, inst.op, inst.star, inst.H, inst.u, inst.psi, inst.phi, inst.exponents)
        checks.append(_scalar_condition(*cond, hi_data, _snap_up(inst.measure.total)))
        checks.append(_finiteness_check(results))
    return _mk_verdict(inst, form, rev, lhs, rhs, checks, tuple(results), tol)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def verify(
    inst: TheoremInstance, tol: float | None = None, skip_hypotheses: bool = False
) -> InequalityVerdict:
    """Evaluate one instance and return its verdict.

    tol None applies the default policy: 0 for finite lattice-only
    instances, otherwise 1e-9 plus the refinement tolerances of the
    integrals involved.
    """
    return _verdict(inst, _instance_form(inst), tol, skip_hypotheses)
