"""Verification of integral inequality families.

Every family compares two integral expressions built from the same data,
and each is written once, as sides.  A side is ``outer(∫ inner(f))``: a
transform of the integrand, the instance's integral, and a map of the
value.  A single-function family (thm33, jensen, rev_jensen, lyapunov,
rev_transform) has one side on the left and one on the right.  An n-ary
family of aggregation H has one side for ``∫ H(pre(f))`` on the left,
and one per function ``f_i`` on the right, which is
``H(pre_i(outer_i(∫ inner_i f_i)))``.  The transform families thm31 and
thm41 take their sides from the transforms u and their pre maps from
psi.  Every other family is a power family: its sides are ``(x ↦ x**xi,
v ↦ v**omega)`` and its pre maps are the identity.  The two-function
families are the power families at arity 2 with H = ⋆ (kind
``binary``): chebyshev has all exponents 1, holder, minkowski and their
reverses derive xi and omega from p, q, s or k, and star_general and the
seminormed families read all six.

A verdict evaluates the sides with the scalar integral; the scalar
sufficient condition of a family (the per-threshold inequality coupling
the aggregation to the integral op) evaluates the same sides on a finite
grid, with the integral replaced by ``x ⊙ c`` for a measure value c.  A
verdict records both sides, the signed margin, whether the inequality
holds at the instance tolerance, and a hypothesis report: every
precondition of the family is grid-checked and the verdict is flagged
when any fails, but both sides are always evaluated so
hypothesis-violating regimes can be studied deliberately.

Scalar conditions are cached per parameter set, since campaigns reuse
them heavily.  Each grid is evaluated as arrays, one broadcast per step
of the condition, through :class:`~fuzzyint.ops.GridEval`: the witness
is the first failing node in the order of a loop over the grid, and an
out-of-domain evaluation raises only where that loop would have reached
it.  Every condition clamps the arguments of an op, ⋆ included, to that
op's cap before evaluating it.  Powers and transforms on a grid are the
scalar functions applied to each distinct value, so they are bit for bit
the ones the verdicts use.  The threshold optimiser and the verdicts
themselves keep the scalar ``eval_op``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ops import (
    INF,
    BinaryOp,
    CheckResult,
    GridEval,
    InputError,
    KIND_MAX,
    KIND_MIN,
    PropertyReport,
    check_table_nodes,
    eval_op,
    max_grid,
    max_op,
    min_grid,
    min_op,
    nearest_index,
    nearest_indices,
    prod_op,
    sum_op,
    verify_op_properties,
    xmul,
    xmul_grid,
)
from .functions import (
    IDENTITY,
    FiniteFunction,
    MonotoneTransform,
    apply_transform,
    is_comonotone,
    is_continuous,
    is_identity,
    power,
    sup_value,
)
from .measures import FiniteMonotoneMeasure, Measure
from .integrals import (
    IntegralResult,
    semiconormed_integral,
    seminormed_integral,
    universal_integral,
)

# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

NARY_IDS = ("thm31", "thm32", "thm41", "thm42_h")
TWO_FUNCTION_IDS = (
    "chebyshev",
    "holder",
    "minkowski",
    "star_general",
    "seminormed_general",
    "rev_chebyshev",
    "rev_holder",
    "rev_minkowski",
    "rev_seminormed",
)
SINGLE_FUNCTION_IDS = ("thm33", "jensen", "rev_jensen", "lyapunov", "rev_transform")
THEOREM_IDS = NARY_IDS + TWO_FUNCTION_IDS + SINGLE_FUNCTION_IDS

REVERSE_IDS = frozenset(
    {
        "thm41",
        "thm42_h",
        "rev_chebyshev",
        "rev_holder",
        "rev_minkowski",
        "rev_seminormed",
        "rev_jensen",
        "rev_transform",
    }
)

_SCALAR_SLACK = 1e-12


# ---------------------------------------------------------------------------
# n-ary aggregations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NaryOp:
    """Aggregation H of n nonnegative arguments.

    Kinds: componentwise min, max, product, weighted arithmetic mean, an
    explicit table over a small grid with nearest-node lookup, or
    ``binary``: the pointwise operation op of two arguments, each clamped
    to op.cap.  The binary kind carries the two-function families through
    the n-ary core; it is internal and has no JSON form.
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
        if self.kind == "binary" and (self.arity != 2 or self.op is None):
            raise InputError("binary aggregation needs arity 2 and an operation")
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
        if self.kind == "binary":
            cap = self.op.cap
            return eval_op(self.op, min(args[0], cap), min(args[1], cap))
        if self.kind == "min":
            return min(args)
        if self.kind == "max":
            return max(args)
        if self.kind == "prod":
            out = 1.0
            for a in args:
                out = xmul(out, a)
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

        The binary kind evaluates its op through g, so its errors are
        replayed in the order of the grid's loop.
        """
        if self.kind == "binary":
            cap = self.op.cap
            return g.op(self.op, min_grid(args[0], cap), min_grid(args[1], cap))
        if self.kind in ("min", "max"):
            pick = min_grid if self.kind == "min" else max_grid
            out = args[0]
            for a in args[1:]:
                out = pick(out, a)
            return out
        if self.kind == "prod":
            out = 1.0
            for a in args:
                out = xmul_grid(out, a)
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


def _tuples(nodes: Sequence[float], k: int):
    if k == 0:
        yield ()
        return
    for head in nodes:
        for rest in _tuples(nodes, k - 1):
            yield (head,) + rest


def check_H_boundedness(
    H: NaryOp, mode: str, grid: Sequence[float] | None = None
) -> PropertyReport:
    """Grid check of H <= min (mode 'above_by_min') or H >= max."""
    if mode not in ("above_by_min", "below_by_max"):
        raise InputError("mode must be 'above_by_min' or 'below_by_max'")
    if grid is None:
        grid = [i / 10.0 for i in range(11)]
    name = f"bounded_{mode}"
    for args in _tuples(tuple(grid), H.arity):
        v = H(args)
        if mode == "above_by_min" and v > min(args) + _SCALAR_SLACK:
            return PropertyReport((CheckResult(name, False, args),), {"n": len(grid)})
        if mode == "below_by_max" and v < max(args) - _SCALAR_SLACK:
            return PropertyReport((CheckResult(name, False, args),), {"n": len(grid)})
    return PropertyReport((CheckResult(name, True),), {"n": len(grid)})


def _check_H_nondecreasing(H: NaryOp, nodes: Sequence[float]) -> CheckResult:
    for args in _tuples(tuple(nodes), H.arity):
        base = H(args)
        for i in range(H.arity):
            for d in nodes:
                if d <= args[i]:
                    continue
                bumped = args[:i] + (d,) + args[i + 1 :]
                if H(bumped) < base - _SCALAR_SLACK:
                    return CheckResult("aggregator_nondecreasing", False, args + (i, d))
    return CheckResult("aggregator_nondecreasing", True)


# ---------------------------------------------------------------------------
# instances and verdicts
# ---------------------------------------------------------------------------


def _freeze_exponents(exponents) -> tuple:
    if exponents is None:
        return ()
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
    return tuple(out)


@dataclass(frozen=True)
class TheoremInstance:
    """One inequality family applied to concrete data."""

    theorem_id: str
    op: BinaryOp
    measure: Measure
    functions: tuple
    star: BinaryOp | None = None
    H: NaryOp | None = None
    u: tuple[MonotoneTransform, ...] = ()
    psi: tuple[MonotoneTransform, ...] = ()
    phi: tuple[MonotoneTransform, ...] = ()
    exponents: tuple = ()

    def __post_init__(self):
        if self.theorem_id not in THEOREM_IDS:
            raise InputError(f"unknown theorem id {self.theorem_id!r}")
        if not self.functions:
            raise InputError("instance needs at least one function")

    @classmethod
    def make(
        cls,
        theorem_id: str,
        op: BinaryOp,
        measure: Measure,
        functions: Iterable,
        star: BinaryOp | None = None,
        H: NaryOp | None = None,
        u: Iterable[MonotoneTransform] = (),
        psi: Iterable[MonotoneTransform] = (),
        phi: Iterable[MonotoneTransform] = (),
        exponents=None,
    ) -> "TheoremInstance":
        return cls(
            theorem_id=theorem_id,
            op=op,
            measure=measure,
            functions=tuple(functions),
            star=star,
            H=H,
            u=tuple(u),
            psi=tuple(psi),
            phi=tuple(phi),
            exponents=_freeze_exponents(exponents),
        )

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
# exponent plumbing
# ---------------------------------------------------------------------------


def _scalar(ex: Mapping, name: str, default: float = 1.0) -> float:
    """The exponent called name; the n-ary vectors are the only sequences."""
    v = ex.get(name, default)
    if isinstance(v, tuple):
        raise InputError(f"exponent {name} must be a number")
    return v


def _two_function_exponents(tid: str, ex: Mapping):
    """(xi0, xi1, xi2), (om0, om1, om2) of a two-function family.

    ex maps exponent names to values; a missing name reads as 1.
    """
    if tid in ("chebyshev", "rev_chebyshev"):
        return (1.0, 1.0, 1.0), (1.0, 1.0, 1.0)
    if tid in ("holder", "rev_holder"):
        p = _scalar(ex, "p")
        q = _scalar(ex, "q")
        if not (p >= 1.0 and q >= 1.0):
            raise InputError("conjugate exponents need p, q >= 1")
        return (1.0, p, q), (1.0, 1.0 / p, 1.0 / q)
    if tid in ("minkowski", "rev_minkowski"):
        s = _scalar(ex, "s" if tid == "minkowski" else "k")
        if not s > 0.0:
            raise InputError("root-mean exponent must be positive")
        return (s, s, s), (1.0 / s, 1.0 / s, 1.0 / s)
    if tid == "star_general":
        xi = tuple(_scalar(ex, f"xi{i}") for i in range(3))
        om = tuple(_scalar(ex, f"omega{i}") for i in range(3))
    else:  # seminormed_general, rev_seminormed
        xi = tuple(_scalar(ex, k) for k in ("alpha", "beta", "gamma"))
        lam = _scalar(ex, "lambda", _scalar(ex, "lam"))
        om = (lam, _scalar(ex, "upsilon"), _scalar(ex, "tau"))
    for v in xi + om:
        if not v > 0.0:
            raise InputError("exponents must be positive")
    return xi, om


def _nary_exponents(ex: Mapping, n: int):
    """xi, omega of an n-ary power family (thm32, thm42_h); each n + 1 long."""
    xi = ex.get("xi", (1.0,) * (n + 1))
    om = ex.get("omega", (1.0,) * (n + 1))
    if not (isinstance(xi, tuple) and isinstance(om, tuple)):
        raise InputError("n-ary exponents must be sequences xi, omega")
    if len(xi) != n + 1 or len(om) != n + 1:
        raise InputError("need one xi and omega per function plus the outer pair")
    for v in xi + om:
        if not v > 0.0:
            raise InputError("exponents must be positive")
    return xi, om


def _lyapunov_exponents(ex: Mapping):
    """Moment orders (r, s) of the Lyapunov family; a missing one reads as 1."""
    r, s = _scalar(ex, "r"), _scalar(ex, "s")
    if not (r > 0.0 and s > 0.0):
        raise InputError("moment orders must be positive")
    return r, s


def _pinv(t: MonotoneTransform, y: float) -> float:
    """Pseudo-inverse: values below t(0) pull back to 0."""
    if y <= t.at_zero():
        return 0.0
    return t.invert(y)


def _pow(x: float, e: float) -> float:
    if e == 1.0:
        return x
    if x == INF:
        return INF
    return x**e


# ---------------------------------------------------------------------------
# sides: outer(∫ inner(f))
# ---------------------------------------------------------------------------


def _outer_pow(e: float):
    # _pow rather than power(e): an infinite exponent gives e = 0
    return IDENTITY if e == 1.0 else partial(_pow, e=e)


def _single_sides(tid: str, phi: Sequence[MonotoneTransform], exps):
    """(inner, outer) of the lhs and then of the rhs of a single-function family.

    exps is (r, s) for lyapunov; a missing phi reads as the identity.
    """
    if tid in ("jensen", "rev_jensen"):
        t = phi[0] if phi else IDENTITY
        sides = ((t, IDENTITY), (IDENTITY, t))
        return sides if tid == "jensen" else sides[::-1]
    if tid in ("thm33", "rev_transform"):
        if len(phi) != 2:
            raise InputError("transform comparison needs two transforms")
        return tuple((t, partial(_pinv, t)) for t in phi)
    r, s = exps
    return (power(s), _outer_pow(1.0 / s)), (power(r), _outer_pow(1.0 / r))


def _nary_sides(tid: str, n: int, u, psi, xi, om):
    """(inner, outer) of each integral, lhs first, and the maps pre before H.

    lhs = outer_0(∫ inner_0(H(pre(f)))) and rhs = H(pre_i(outer_i(∫ inner_i f_i))).
    The transform families thm31 and thm41 read u and psi, every other
    family its exponent vectors xi and omega.
    """
    if tid in ("thm31", "thm41"):
        if len(u) != n + 1 or len(psi) != n:
            raise InputError("need n+1 outer transforms and n reindexings")
        return tuple((t, partial(_pinv, t)) for t in u), tuple(psi)
    return tuple((power(x), _outer_pow(w)) for x, w in zip(xi, om)), (IDENTITY,) * n


def _nary_shape(tid: str, star: BinaryOp | None, H: NaryOp | None, ex: Mapping, n: int):
    """(H, xi, omega) of a two-function or n-ary family of n functions.

    A two-function family aggregates with H = star; xi and omega are
    empty for thm31 and thm41.
    """
    if tid in TWO_FUNCTION_IDS:
        if n != 2:
            raise InputError("two-function families need exactly two functions")
        if star is None:
            raise InputError("two-function families need a pointwise operation")
        return (NaryOp("binary", op=star),) + _two_function_exponents(tid, ex)
    if H is None:
        raise InputError("n-ary families need an aggregation")
    if H.arity != n:
        raise InputError("aggregation arity must match the function count")
    if tid in ("thm32", "thm42_h"):
        return (H,) + _nary_exponents(ex, n)
    return H, (), ()


def _tapply(t, v: float) -> float:
    return v if t is IDENTITY else t(v)


# ---------------------------------------------------------------------------
# scalar condition checks (cached)
# ---------------------------------------------------------------------------

_condition_cache: dict = {}


def _range_nodes(hi: float, n: int) -> tuple[float, ...]:
    if not (hi > 0.0 and math.isfinite(hi)):
        hi = 1.0
    return tuple(hi * i / (n - 1) for i in range(n))


def _axis(nodes: Sequence[float], axis: int, ndim: int) -> np.ndarray:
    """nodes laid out along one axis of an ndim-axis grid."""
    shape = [1] * ndim
    shape[axis] = len(nodes)
    return np.asarray(nodes, dtype=float).reshape(shape)


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


@np.errstate(all="ignore")
def _single_condition(tid: str, op: BinaryOp, phi, exps, dnodes, cnodes) -> CheckResult:
    if tid not in SINGLE_FUNCTION_IDS:
        raise InputError(f"no scalar condition for {tid}")
    sides = _single_sides(tid, phi, exps)
    # node (a, c), visited in C order
    a, c = _axis(dnodes, 0, 2), _axis(cnodes, 1, 2)
    g = GridEval()
    lhs, rhs = (_grid_side(g, op, a, c, inner, outer) for inner, outer in sides)
    hit = g.first(_fails(lhs, rhs, tid in REVERSE_IDS))
    if hit is None:
        return CheckResult("scalar_condition", True)
    return CheckResult("scalar_condition", False, (dnodes[hit[0]], cnodes[hit[1]]))


@np.errstate(all="ignore")
def _nary_condition(
    tid: str, op: BinaryOp, H: NaryOp, u, psi, xi, om, reverse: bool, dnodes, cnodes
) -> CheckResult:
    n = H.arity
    sides, pre = _nary_sides(tid, n, u, psi, xi, om)
    # node (args..., c), visited in C order
    args = [_axis(dnodes, i, n + 1) for i in range(n)]
    c = _axis(cnodes, n, n + 1)
    g = GridEval()
    base = [_tmap(g, t, x) for t, x in zip(pre, args)]
    lhs = _grid_side(g, op, H.eval_grid(g, base), c, *sides[0])
    best = None
    for i in range(n):
        repl = _tmap(g, pre[i], _grid_side(g, op, args[i], c, *sides[i + 1]))
        side = H.eval_grid(g, base[:i] + [repl] + base[i + 1 :])
        if best is None:
            best = side
        else:
            best = min_grid(best, side) if reverse else max_grid(best, side)
    hit = g.first(_fails(lhs, best, reverse))
    if hit is None:
        return CheckResult("scalar_condition", True)
    return CheckResult(
        "scalar_condition", False, tuple(dnodes[i] for i in hit[:n]) + (cnodes[hit[n]],)
    )


def check_scalar_condition(
    condition_id: str,
    op: BinaryOp,
    star: BinaryOp | None = None,
    H: NaryOp | None = None,
    u: Sequence[MonotoneTransform] = (),
    psi: Sequence[MonotoneTransform] = (),
    phi: Sequence[MonotoneTransform] = (),
    exponents=None,
    grid_n: int | None = None,
    hi_data: float | None = None,
    hi_measure: float | None = None,
) -> PropertyReport:
    """Grid check of the per-threshold condition of one family.

    condition ids coincide with the theorem catalog.  A two-function
    condition is the n-ary one at arity 2 with H = star (kind ``binary``)
    and the family's exponent vectors.  Every op argument, star's
    included, is clamped to that op's cap before evaluation.  The grid
    spans [0, hi_data] for function values and [0, hi_measure] for
    measure values, defaulting to the op domain (capped at 2 when
    unbounded).  grid_n, when given, is the node count per axis and must
    be at least 2.  Slack 1e-12 absorbs float noise from powers.
    """
    if grid_n is not None and grid_n < 2:
        raise InputError("grid needs at least 2 nodes")
    ex = dict(_freeze_exponents(exponents))
    cap = op.cap if star is None else min(op.cap, star.cap)
    if hi_data is None:
        hi_data = 1.0 if cap == 1.0 else 2.0
    if hi_measure is None:
        hi_measure = 1.0 if op.cap == 1.0 else 2.0
    if condition_id in SINGLE_FUNCTION_IDS:
        n = 21 if grid_n is None else grid_n
        dnodes, cnodes = _range_nodes(hi_data, n), _range_nodes(hi_measure, n)
        exps = _lyapunov_exponents(ex) if condition_id == "lyapunov" else None
        check = _single_condition(condition_id, op, tuple(phi), exps, dnodes, cnodes)
    elif condition_id in TWO_FUNCTION_IDS or condition_id in NARY_IDS:
        arity = 2 if condition_id in TWO_FUNCTION_IDS or H is None else H.arity
        H, xi, om = _nary_shape(condition_id, star, H, ex, arity)
        per_axis = max(5, int(round(30000 ** (1.0 / (H.arity + 1)))))
        n = min(per_axis, 13) if grid_n is None else grid_n
        dnodes, cnodes = _range_nodes(hi_data, n), _range_nodes(hi_measure, n)
        check = _nary_condition(
            condition_id,
            op,
            H,
            tuple(u),
            tuple(psi),
            xi,
            om,
            condition_id in REVERSE_IDS,
            dnodes,
            cnodes,
        )
    else:
        raise InputError(f"unknown condition id {condition_id!r}")
    meta = {"nodes": len(dnodes), "hi_data": hi_data, "hi_measure": hi_measure, "slack": _SCALAR_SLACK}
    return PropertyReport((check,), meta)


def _cached(key, thunk):
    hit = _condition_cache.get(key)
    if hit is None:
        hit = thunk()
        _condition_cache[key] = hit
    return hit


# ---------------------------------------------------------------------------
# integral routing and combination
# ---------------------------------------------------------------------------

_PMIN = min_op()
_PMAX = max_op()
_PPROD = prod_op()
_PSUM = sum_op()


def _integral(inst: TheoremInstance, t: MonotoneTransform, f) -> IntegralResult:
    """The instance's integral of t(f)."""
    if t is not IDENTITY:
        f = apply_transform(t, f)
    if inst.theorem_id in REVERSE_IDS:
        return semiconormed_integral(inst.op, inst.measure, f)
    if inst.op.cap == 1.0:
        return seminormed_integral(inst.op, inst.measure, f)
    return universal_integral(inst.op, inst.measure, f)


def _combine_nary(H: NaryOp, funcs: Sequence) -> object:
    # imported per call so a wrapper installed on the module is seen
    from .functions import pointwise_combine

    if H.kind == "binary":
        return pointwise_combine(H.op, *funcs)
    if all(isinstance(f, FiniteFunction) for f in funcs):
        n = funcs[0].n
        if any(f.n != n for f in funcs):
            raise InputError("carrier size mismatch")
        rows = tuple(H(tuple(f.values[i] for f in funcs)) for i in range(n))
        return FiniteFunction(rows)
    if not all(is_continuous(f) for f in funcs):
        raise InputError("cannot mix carriers in an aggregation")
    if H.kind in ("min", "max", "prod"):
        star = {"min": _PMIN, "max": _PMAX, "prod": _PPROD}[H.kind]
        out = funcs[0]
        for f in funcs[1:]:
            out = pointwise_combine(star, out, f)
        return out
    if H.kind == "wmean":
        total = sum(H.weights)
        from .functions import affine

        out = None
        for w, f in zip(H.weights, funcs):
            term = apply_transform(affine(w / total, 0.0), f) if w > 0.0 else None
            if term is None:
                continue
            out = term if out is None else pointwise_combine(_PSUM, out, term)
        if out is None:
            raise InputError("weighted mean needs at least one positive weight")
        return out
    raise InputError("table aggregations need a finite carrier")


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


def _op_report(op: BinaryOp) -> PropertyReport:
    return _cached(("opprops", op), lambda: verify_op_properties(op))


def _summary_check(name: str, rep: PropertyReport) -> CheckResult:
    if rep.passed:
        return CheckResult(name, True)
    failing = [c for c in rep.checks if not c.passed]
    return CheckResult(name, False, failing[0].witness, ", ".join(c.name for c in failing))


def _contraction_check(op: BinaryOp, total: float) -> CheckResult:
    def run():
        nodes = _range_nodes(1.0 if op.cap == 1.0 else 2.0, 41)
        if op.cap == INF:
            nodes += (INF,)
        for b in nodes:
            if eval_op(op, b, total) > b + _SCALAR_SLACK:
                return CheckResult("measure_contraction", False, (b, total))
        return CheckResult("measure_contraction", True)

    return _cached(("contraction", op, total), run)


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


def _lattice_tol(inst: TheoremInstance, results: Sequence[IntegralResult]) -> float:
    """0 for pure-lattice finite instances, else 1e-9 plus refine slack."""
    lattice = isinstance(inst.measure, FiniteMonotoneMeasure)
    lattice &= inst.op.kind in (KIND_MIN, KIND_MAX)
    if inst.star is not None:
        lattice &= inst.star.kind in (KIND_MIN, KIND_MAX)
    if inst.H is not None:
        lattice &= inst.H.kind in ("min", "max")
    for _, v in inst.exponents:
        if isinstance(v, tuple):
            lattice &= all(x == 1.0 for x in v)
        else:
            lattice &= v == 1.0
    for t in inst.u + inst.psi + inst.phi:
        lattice &= is_identity(t)
    if lattice:
        return 0.0
    return 1e-9 + sum(r.tol for r in results)


def _mk_verdict(inst, lhs, rhs, checks, results, tol) -> InequalityVerdict:
    direction = "<=" if inst.theorem_id in REVERSE_IDS else ">="
    if tol is None:
        tol = _lattice_tol(inst, results)
    # inf on both sides compares as equal rather than as nan
    margin = 0.0 if lhs == rhs else lhs - rhs
    if direction == ">=":
        holds = margin >= -tol
    else:
        holds = margin <= tol
    report = PropertyReport(tuple(checks), {"tol": tol})
    met = report.passed
    notes = () if met else ("hypotheses_unmet",)
    return InequalityVerdict(
        theorem_id=inst.theorem_id,
        lhs=lhs,
        rhs=rhs,
        direction=direction,
        margin=margin,
        holds=holds,
        tol=tol,
        hypotheses_met=met,
        hypothesis_report=report,
        notes=notes,
    )


def _measure_checks(inst: TheoremInstance) -> list[CheckResult]:
    tid = inst.theorem_id
    total = inst.measure.total
    out = []
    if tid in REVERSE_IDS:
        if tid in ("thm41", "thm42_h"):
            if inst.op.cap == 1.0:
                out.append(_normalized_check(total))
        else:
            out.append(_normalized_check(total))
    else:
        if inst.op.cap == 1.0:
            out.append(_normalized_check(total))
        else:
            out.append(_contraction_check(inst.op, total))
    return out


def _snap_up(x: float) -> float:
    """Round a range bound up to the next 0.25 step for cache reuse.

    Checking the condition on the enlarged box is conservative: a pass
    covers the true data range, a fail can only overreport unmet
    hypotheses, never hide a violation.
    """
    return max(0.25, math.ceil(x * 4.0 - 1e-9) / 4.0)


def _scalar_check(inst: TheoremInstance) -> CheckResult:
    hi_d = _snap_up(_data_max(inst.functions))
    hi_m = _snap_up(inst.measure.total)
    key = (
        "cond",
        inst.theorem_id,
        inst.op,
        inst.star,
        inst.H,
        inst.u,
        inst.psi,
        inst.phi,
        inst.exponents,
        hi_d,
        hi_m,
    )

    def run():
        rep = check_scalar_condition(
            inst.theorem_id,
            inst.op,
            star=inst.star,
            H=inst.H,
            u=inst.u,
            psi=inst.psi,
            phi=inst.phi,
            exponents=inst.exponents,
            hi_data=hi_d,
            hi_measure=hi_m,
        )
        return rep.checks[0]

    return _cached(key, run)


def _verify_single(inst: TheoremInstance, tol, skip_hypotheses: bool) -> InequalityVerdict:
    if len(inst.functions) != 1:
        raise InputError("single-function families need exactly one function")
    tid = inst.theorem_id
    exps = _lyapunov_exponents(dict(inst.exponents)) if tid == "lyapunov" else None
    sides = _single_sides(tid, inst.phi, exps)
    results = tuple(_integral(inst, inner, inst.functions[0]) for inner, _ in sides)
    lhs, rhs = (_tapply(outer, r.value) for (_, outer), r in zip(sides, results))

    checks: list[CheckResult] = []
    if not skip_hypotheses:
        checks.append(_summary_check("op_properties", _op_report(inst.op)))
        checks.extend(_measure_checks(inst))
        checks.append(_scalar_check(inst))
        checks.append(_finiteness_check(results))
    return _mk_verdict(inst, lhs, rhs, checks, results, tol)


# exponent range hypothesis: theorem id -> (data range, x**(1/(xi*om)) >= x);
# a data range of None is the largest value of the functions
_EXPONENT_RANGE = {
    "star_general": (None, True),
    "seminormed_general": (1.0, True),
    "rev_seminormed": (1.0, False),
    "thm32": (None, True),
    "thm42_h": (None, False),
}


def _verify_nary(inst: TheoremInstance, tol, skip_hypotheses: bool) -> InequalityVerdict:
    """Two-function and n-ary families; the former with H = star."""
    tid = inst.theorem_id
    n = len(inst.functions)
    H, xi, om = _nary_shape(tid, inst.star, inst.H, dict(inst.exponents), n)
    sides, pre = _nary_sides(tid, n, inst.u, inst.psi, xi, om)
    combined = _combine_nary(H, tuple(map(apply_transform, pre, inst.functions)))
    r_lhs = _integral(inst, sides[0][0], combined)
    lhs = _tapply(sides[0][1], r_lhs.value)
    parts = []
    results = [r_lhs]
    for t, f, (inner, outer) in zip(pre, inst.functions, sides[1:]):
        r_i = _integral(inst, inner, f)
        results.append(r_i)
        parts.append(_tapply(t, _tapply(outer, r_i.value)))
    rhs = H(tuple(parts))

    checks: list[CheckResult] = []
    if not skip_hypotheses:
        checks.append(_summary_check("op_properties", _op_report(inst.op)))
        if H.kind == "binary":
            checks.append(_summary_check("star_properties", _op_report(H.op)))
        else:
            fin_nodes = _range_nodes(_snap_up(_data_max(inst.functions)), 9)
            checks.append(
                _cached(("Hmono", H, fin_nodes), lambda: _check_H_nondecreasing(H, fin_nodes))
            )
        checks.append(_comonotone_check(inst.functions))
        checks.extend(_measure_checks(inst))
        if tid in _EXPONENT_RANGE:
            dmax, want_ge = _EXPONENT_RANGE[tid]
            if dmax is None:
                dmax = _data_max(inst.functions)
            prods = tuple(xi[i + 1] * om[i + 1] for i in range(n))
            checks.append(_exponent_range_check(prods, dmax, want_ge))
        checks.append(_scalar_check(inst))
        checks.append(_finiteness_check(results))
    return _mk_verdict(inst, lhs, rhs, checks, tuple(results), tol)


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
    if inst.theorem_id in SINGLE_FUNCTION_IDS:
        return _verify_single(inst, tol, skip_hypotheses)
    return _verify_nary(inst, tol, skip_hypotheses)
