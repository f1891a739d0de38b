"""Binary operations on the extended half-line [0, inf].

Values live in [0, cap] where cap is either 1 or math.inf.  Infinity is
represented by the native float inf, which already orders correctly; the
only non-native rule is the product convention 0 * inf = 0, applied by
:func:`xmul` before any IEEE multiplication can produce a NaN.

An operation is described by a :class:`BinaryOp` record carrying its kind,
neutral element, cap and a set of declared algebraic flags.  Declared flags
are claims; :func:`verify_op_properties` checks them on a finite grid and
reports witnesses for failures.  A grid pass is a certificate for the grid
only, never a proof, and every report says so.

There are two evaluators.  Scalar evaluation goes through a per-op
kernel: every :class:`BinaryOp` builds its kernel once, at construction,
with the kind, neutral and cap resolved, so a call pays no dispatch.
:func:`eval_op` calls through ``op.kernel``, and hot loops such as the
threshold optimiser hold the kernel itself.  The kernel stays scalar on
purpose: the optimiser and the pointwise paths evaluate one pair at a
time, where numpy's per-call overhead would cost several times the
evaluation.  :func:`eval_grid` evaluates op over broadcast float arrays
with one array kernel per kind, and grid certificates go through
:class:`GridEval`, which evaluates a whole grid at once yet reports the
same first witness, and raises the same error, as a loop over the nodes
in C order would.  Powers and transforms in grid checks are scalar
``**`` applied to the distinct values of an array: numpy's SIMD
``np.power`` can differ from ``**`` in the last ulp, and that is enough
to flip a comparison at the 1e-12 slack.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

INF = math.inf

ExtValue = float


class InputError(ValueError):
    """Raised for inputs outside the documented domain of an operation."""


def as_extvalue(x: float, cap: float = INF) -> float:
    """Validate x in [0, cap] and return it as a float."""
    v = float(x)
    if math.isnan(v) or v < 0.0 or v > cap:
        raise InputError(f"value {x!r} outside [0, {cap}]")
    return v


def xmul(a: float, b: float) -> float:
    """Product on [0, inf] with the convention 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


# ---------------------------------------------------------------------------
# operation descriptors
# ---------------------------------------------------------------------------

KIND_MIN = "min"
KIND_PROD = "prod"
KIND_SMALLEST = "smallest"
KIND_GREATEST = "greatest"
KIND_LUKASIEWICZ = "lukasiewicz"
KIND_DRASTIC = "drastic"
KIND_MAX = "max"
KIND_SUM = "sum"
KIND_PROBSUM = "probsum"
KIND_LUK_CONORM = "luk_conorm"
KIND_CUSTOM = "custom"

# flags an op may declare; each one is grid-checkable
FLAG_NONDECREASING = "nondecreasing"
FLAG_ANNIHILATOR = "annihilator_zero"
FLAG_NEUTRAL = "neutral"
FLAG_BOUNDED_BY_MIN = "bounded_above_by_min"
FLAG_BOUNDED_BY_MAX = "bounded_below_by_max"
FLAG_COMMUTATIVE = "commutative"
FLAG_ASSOCIATIVE = "associative"

_MULT_FLAGS = frozenset(
    {FLAG_NONDECREASING, FLAG_ANNIHILATOR, FLAG_NEUTRAL, FLAG_COMMUTATIVE, FLAG_ASSOCIATIVE}
)
_ADD_FLAGS = frozenset(
    {FLAG_NONDECREASING, FLAG_NEUTRAL, FLAG_COMMUTATIVE, FLAG_ASSOCIATIVE}
)


@dataclass(frozen=True)
class BinaryOp:
    """A nondecreasing binary operation on [0, cap].

    neutral is e with x (op) e = x where declared, cap bounds the domain,
    and declared_flags list the algebraic properties the op claims.  Custom
    kinds evaluate through fn; table-backed customs snap arguments to the
    nearest table node, without interpolation.
    """

    kind: str
    neutral: float
    cap: float = INF
    declared_flags: frozenset = field(default_factory=frozenset)
    fn: Callable[[float, float], float] | None = None
    table_nodes: tuple[float, ...] = ()
    table_values: tuple[float, ...] = ()
    name: str = ""
    # the scalar evaluator, built from the fields above once
    kernel: Callable[[float, float], float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _scalar_kernel(self))

    def __reduce__(self):
        # the kernel is a closure and cannot be pickled; rebuild it instead
        fields = (self.kind, self.neutral, self.cap, self.declared_flags, self.fn)
        return BinaryOp, fields + (self.table_nodes, self.table_values, self.name)

    def __call__(self, a: float, b: float) -> float:
        return eval_op(self, a, b)

    def label(self) -> str:
        return self.name or self.kind


def check_table_nodes(nodes: Sequence[float]) -> None:
    """Table nodes must be nonempty and strictly increasing (so no nan)."""
    if not nodes:
        raise InputError("table needs at least one node")
    if any(t != t for t in nodes) or any(not s < t for s, t in zip(nodes, nodes[1:])):
        raise InputError("table nodes must be strictly increasing")


def nearest_index(nodes: Sequence[float], x: float) -> int:
    """Index of the node nearest x in strictly increasing nodes.

    A tie (x exactly halfway, after rounding the distances) goes to the
    lower node.  When no node lies at a finite distance (x nan or
    infinite), the answer is node 0.
    """
    j = bisect_left(nodes, x)
    if j == 0:
        return 0
    k, d = j - 1, abs(nodes[j - 1] - x)
    if j < len(nodes) and abs(nodes[j] - x) < d:
        k, d = j, abs(nodes[j] - x)
    else:
        # rounded distances can tie over several lower nodes; take the first
        while k > 0 and abs(nodes[k - 1] - x) == d:
            k -= 1
    return k if d < INF else 0


@np.errstate(all="ignore")
def nearest_indices(nodes: Sequence[float], x) -> np.ndarray:
    """:func:`nearest_index` of every element of the array x."""
    t = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    j = np.searchsorted(t, x, side="left")
    lo = np.maximum(j - 1, 0)
    hi = np.minimum(j, len(t) - 1)
    d_lo, d_hi = np.abs(t[lo] - x), np.abs(t[hi] - x)
    right = (j > 0) & (j < len(t)) & (d_hi < d_lo)
    k = np.where(right, hi, lo)
    d = np.where(right, d_hi, d_lo)
    walk = ~right
    while True:
        prev = np.maximum(k - 1, 0)
        walk &= (k > 0) & (np.abs(t[prev] - x) == d)
        if not walk.any():
            break
        k = np.where(walk, prev, k)
    return np.where((j > 0) & (d < INF), k, 0)


def _scalar_kernel(op: BinaryOp) -> Callable[[float, float], float]:
    """op's scalar evaluator, with its kind, neutral and cap resolved now.

    The kernel validates a, then b, as :func:`as_extvalue` does and with
    its error text, then applies the kind's arithmetic to the floats.
    Kinds that cannot evaluate raise after validating, on every call.
    """
    k, e, cap = op.kind, op.neutral, op.cap
    if k == KIND_MIN:

        def core(a, b):
            return a if a <= b else b

    elif k == KIND_PROD:
        core = xmul
    elif k == KIND_SMALLEST:
        # smallest pseudo-multiplication with neutral e:
        # 0 below e on both sides, max when both reach e, min otherwise
        def core(a, b):
            if a < e and b < e:
                return 0.0
            if a >= e and b >= e:
                return a if a >= b else b
            return a if a <= b else b

    elif k == KIND_GREATEST:
        # greatest pseudo-multiplication with neutral e
        def core(a, b):
            if a == 0.0 or b == 0.0:
                return 0.0
            if a <= e and b <= e:
                return a if a <= b else b
            if a > e and b > e:
                return INF
            return a if a >= b else b

    elif k == KIND_LUKASIEWICZ:

        def core(a, b):
            return max(0.0, a + b - 1.0)

    elif k == KIND_DRASTIC:

        def core(a, b):
            if b == 1.0:
                return a
            if a == 1.0:
                return b
            return 0.0

    elif k == KIND_MAX:

        def core(a, b):
            return a if a >= b else b

    elif k == KIND_SUM:

        def core(a, b):
            return a + b

    elif k == KIND_PROBSUM:

        def core(a, b):
            return a + b - a * b

    elif k == KIND_LUK_CONORM:

        def core(a, b):
            return min(1.0, a + b)

    elif k == KIND_CUSTOM and op.fn is not None:
        fn = op.fn

        def core(a, b):
            return float(fn(a, b))

    elif k == KIND_CUSTOM and op.table_nodes:
        nodes, values, n = op.table_nodes, op.table_values, len(op.table_nodes)

        def core(a, b):
            return values[nearest_index(nodes, a) * n + nearest_index(nodes, b)]

    else:
        msg = "custom op needs fn or table" if k == KIND_CUSTOM else f"unknown op kind {k!r}"

        def core(a, b):
            raise InputError(msg)

    def kernel(a, b):
        x = float(a)
        if not 0.0 <= x <= cap:
            as_extvalue(a, cap)
        y = float(b)
        if not 0.0 <= y <= cap:
            as_extvalue(b, cap)
        return core(x, y)

    return kernel


def eval_op(op: BinaryOp, a: float, b: float) -> float:
    """Evaluate op(a, b), validating both arguments against op.cap."""
    return op.kernel(a, b)


# -- array kernels ----------------------------------------------------------


def min_grid(x, y):
    """min(x, y) elementwise as the builtin picks it: y only if y < x."""
    return np.where(y < x, y, x)


def max_grid(x, y):
    """max(x, y) elementwise as the builtin picks it: y only if y > x."""
    return np.where(y > x, y, x)


def xmul_grid(a, b):
    """:func:`xmul` elementwise."""
    return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)


def _custom_arrays(op: BinaryOp, a, b):
    # fn-backed ops have no kernel; call eval_op once per element.  Any
    # error is only flagged here: GridEval.first raises it again at the
    # node where a loop would have met it.
    a, b = np.broadcast_arrays(a, b)
    out = np.full(a.shape, math.nan)
    bad = np.zeros(a.shape, dtype=bool)
    flat_out, flat_bad = out.reshape(-1), bad.reshape(-1)
    for i, (x, y) in enumerate(zip(a.ravel().tolist(), b.ravel().tolist())):
        try:
            flat_out[i] = eval_op(op, x, y)
        except Exception:
            flat_bad[i] = True
    return out, bad


@np.errstate(all="ignore")
def _op_arrays(op: BinaryOp, a, b):
    """op over broadcast arrays, with the mask of pairs eval_op rejects.

    Rejected pairs hold nan; the mask is None when there are none.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ok = (a >= 0.0) & (a <= op.cap) & (b >= 0.0) & (b <= op.cap)
    k = op.kind
    # min_grid and max_grid differ from eval_op's ternaries only on nan,
    # and nan arguments are rejected
    if k == KIND_MIN:
        out = min_grid(a, b)
    elif k == KIND_PROD:
        out = xmul_grid(a, b)
    elif k == KIND_SMALLEST:
        e = op.neutral
        out = np.where(
            (a < e) & (b < e),
            0.0,
            np.where((a >= e) & (b >= e), max_grid(a, b), min_grid(a, b)),
        )
    elif k == KIND_GREATEST:
        e = op.neutral
        out = np.where(
            (a == 0.0) | (b == 0.0),
            0.0,
            np.where(
                (a <= e) & (b <= e),
                min_grid(a, b),
                np.where((a > e) & (b > e), INF, max_grid(a, b)),
            ),
        )
    elif k == KIND_LUKASIEWICZ:
        s = a + b - 1.0
        out = np.where(s > 0.0, s, 0.0)
    elif k == KIND_DRASTIC:
        out = np.where(b == 1.0, a, np.where(a == 1.0, b, 0.0))
    elif k == KIND_MAX:
        out = max_grid(a, b)
    elif k == KIND_SUM:
        out = a + b
    elif k == KIND_PROBSUM:
        out = a + b - a * b
    elif k == KIND_LUK_CONORM:
        s = a + b
        out = np.where(s < 1.0, s, 1.0)
    elif k == KIND_CUSTOM and op.fn is not None:
        out, bad = _custom_arrays(op, a, b)
        return out, (bad if bad.any() else None)
    elif k == KIND_CUSTOM and op.table_nodes:
        n = len(op.table_nodes)
        idx = nearest_indices(op.table_nodes, a) * n + nearest_indices(op.table_nodes, b)
        out = np.asarray(op.table_values, dtype=float)[idx]
    else:
        # eval_op rejects every pair
        ok = np.zeros(np.broadcast(a, b).shape, dtype=bool)
        out = ok.astype(float)
    if ok.all():
        return out, None
    return np.where(ok, out, math.nan), ~ok


class GridEval:
    """One grid certificate evaluated as arrays, in the order of its loop.

    A grid check visits its nodes in C order and, at each node, makes its
    evaluations in a fixed sequence before it tests the node.  Here every
    evaluation covers all nodes at once: :meth:`op` and :meth:`map` return
    arrays laid out on the node axes and note the elements where the scalar
    call raises.  :meth:`first` finds the first node that fails or raised
    and, if it raised, raises the scalar error there.  So an error surfaces
    only when a loop would reach it before its first failing node.
    """

    def __init__(self):
        # (scalar function, its array arguments, mask where it raises)
        self._steps: list[tuple[Callable, tuple, np.ndarray]] = []

    def op(self, op: BinaryOp, a, b) -> np.ndarray:
        out, bad = _op_arrays(op, a, b)
        if bad is not None:
            self._steps.append((lambda x, y: eval_op(op, x, y), (a, b), bad))
        return out

    def map(self, fn: Callable[[float], float], x) -> np.ndarray:
        """fn(v) for each element v of x, called once per distinct value.

        fn gets Python floats, so powers are scalar ``**``, bit for bit.
        The errors a transform or a power can raise are flagged, not raised.
        """
        x = np.asarray(x, dtype=float)
        vals, inv = np.unique(x, return_inverse=True)
        vals = vals.tolist()
        try:
            out = np.array([fn(v) for v in vals], dtype=float)
        except (InputError, ArithmeticError):
            out = np.full(len(vals), math.nan)
            bad = np.zeros(len(vals), dtype=bool)
            for i, v in enumerate(vals):
                try:
                    out[i] = fn(v)
                except (InputError, ArithmeticError):
                    bad[i] = True
            self._steps.append((fn, (x,), bad[inv].reshape(x.shape)))
        return out[inv].reshape(x.shape)

    def first(self, fail: np.ndarray) -> tuple[int, ...] | None:
        """Index of the first node in C order that fails or raised, or None.

        fail is laid out on the full node grid.  When the first such node
        raised, the scalar call is repeated there to raise its error.
        """
        hit = fail
        for _, _, bad in self._steps:
            hit = hit | bad
        if not hit.any():
            return None
        idx = np.unravel_index(int(np.argmax(hit)), hit.shape)
        for fn, args, bad in self._steps:
            if np.broadcast_to(bad, hit.shape)[idx]:
                fn(*(float(np.broadcast_to(x, hit.shape)[idx]) for x in args))
                raise RuntimeError(f"{fn!r} raised on the grid but not on its replay")
        return tuple(int(i) for i in idx)


def eval_grid(op: BinaryOp, a, b) -> np.ndarray:
    """op over broadcast float arrays, element for element equal to eval_op.

    Raises the error eval_op raises at the first rejected pair in C order.
    """
    g = GridEval()
    out = g.op(op, a, b)
    g.first(np.zeros(out.shape, dtype=bool))
    return out


# -- factories --------------------------------------------------------------


def min_op(cap: float = INF) -> BinaryOp:
    return BinaryOp(
        KIND_MIN,
        neutral=cap,
        cap=cap,
        declared_flags=_MULT_FLAGS | {FLAG_BOUNDED_BY_MIN},
    )


def prod_op(cap: float = INF) -> BinaryOp:
    flags = _MULT_FLAGS | ({FLAG_BOUNDED_BY_MIN} if cap == 1.0 else frozenset())
    return BinaryOp(KIND_PROD, neutral=1.0, cap=cap, declared_flags=flags)


def smallest_op(e: float) -> BinaryOp:
    if not (0.0 < e):
        raise InputError("neutral must be positive")
    return BinaryOp(
        KIND_SMALLEST,
        neutral=e,
        cap=INF,
        declared_flags=frozenset({FLAG_NONDECREASING, FLAG_ANNIHILATOR, FLAG_NEUTRAL, FLAG_COMMUTATIVE}),
    )


def greatest_op(e: float) -> BinaryOp:
    if not (0.0 < e):
        raise InputError("neutral must be positive")
    return BinaryOp(
        KIND_GREATEST,
        neutral=e,
        cap=INF,
        declared_flags=frozenset({FLAG_NONDECREASING, FLAG_ANNIHILATOR, FLAG_NEUTRAL, FLAG_COMMUTATIVE}),
    )


def lukasiewicz_op() -> BinaryOp:
    return BinaryOp(
        KIND_LUKASIEWICZ, neutral=1.0, cap=1.0, declared_flags=_MULT_FLAGS | {FLAG_BOUNDED_BY_MIN}
    )


def drastic_op() -> BinaryOp:
    return BinaryOp(
        KIND_DRASTIC, neutral=1.0, cap=1.0, declared_flags=_MULT_FLAGS | {FLAG_BOUNDED_BY_MIN}
    )


def max_op(cap: float = INF) -> BinaryOp:
    return BinaryOp(KIND_MAX, neutral=0.0, cap=cap, declared_flags=_ADD_FLAGS | {FLAG_BOUNDED_BY_MAX})


def sum_op(cap: float = INF) -> BinaryOp:
    return BinaryOp(KIND_SUM, neutral=0.0, cap=cap, declared_flags=_ADD_FLAGS | {FLAG_BOUNDED_BY_MAX})


def probsum_op() -> BinaryOp:
    return BinaryOp(
        KIND_PROBSUM, neutral=0.0, cap=1.0, declared_flags=_ADD_FLAGS | {FLAG_BOUNDED_BY_MAX}
    )


def luk_conorm_op() -> BinaryOp:
    return BinaryOp(
        KIND_LUK_CONORM, neutral=0.0, cap=1.0, declared_flags=_ADD_FLAGS | {FLAG_BOUNDED_BY_MAX}
    )


def custom_op(
    fn: Callable[[float, float], float],
    neutral: float,
    cap: float = INF,
    flags: Iterable[str] = (),
    name: str = "",
) -> BinaryOp:
    return BinaryOp(
        KIND_CUSTOM, neutral=neutral, cap=cap, declared_flags=frozenset(flags), fn=fn, name=name
    )


def table_op(
    nodes: Sequence[float],
    values: Sequence[float],
    neutral: float,
    cap: float = 1.0,
    flags: Iterable[str] = (),
    name: str = "",
) -> BinaryOp:
    nodes = tuple(float(t) for t in nodes)
    values = tuple(float(v) for v in values)
    check_table_nodes(nodes)
    if len(values) != len(nodes) ** 2:
        raise InputError("table must hold len(nodes)**2 values")
    return BinaryOp(
        KIND_CUSTOM,
        neutral=neutral,
        cap=cap,
        declared_flags=frozenset(flags),
        table_nodes=nodes,
        table_values=values,
        name=name,
    )


# ---------------------------------------------------------------------------
# grids and property reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """A finite evaluation grid on [0, hi], optionally tagged with inf.

    For a cap-1 op hi is 1.  For an unbounded op hi is a finite window and
    the inf sentinel is appended so the check exercises the absorbing row.
    """

    cap: float
    n: int = 101
    hi: float | None = None
    extra: tuple[float, ...] = ()

    def nodes(self) -> tuple[float, ...]:
        hi = self.hi
        if hi is None:
            hi = 1.0 if self.cap == 1.0 else 2.0
        if self.n < 2:
            raise InputError("grid needs at least 2 nodes")
        step = hi / (self.n - 1)
        pts = {round(i * step, 15) for i in range(self.n)}
        pts.add(float(hi))
        for x in self.extra:
            if 0.0 <= x <= self.cap and math.isfinite(x):
                pts.add(float(x))
        if self.cap == INF:
            pts.add(INF)
        return tuple(sorted(pts))

    def describe(self) -> dict:
        return {"cap": self.cap, "n": self.n, "hi": self.hi, "extra": list(self.extra)}


def default_grid(op: BinaryOp, n: int = 101) -> GridSpec:
    extra = (op.neutral,) if math.isfinite(op.neutral) else ()
    return GridSpec(cap=op.cap, n=n, extra=extra)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: tuple | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": None if self.witness is None else list(self.witness),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of finite-grid property checks.

    A pass certifies the grid only; the note says so.  Witnesses are input
    tuples where the property fails.
    """

    checks: tuple[CheckResult, ...]
    grid: dict = field(default_factory=dict)
    note: str = "grid-verified"

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "grid": self.grid,
            "note": self.note,
        }


def _thin(nodes: Sequence[float], limit: int) -> tuple[float, ...]:
    if len(nodes) <= limit:
        return tuple(nodes)
    step = (len(nodes) - 1) / (limit - 1)
    out = sorted({nodes[round(i * step)] for i in range(limit)})
    return tuple(out)


_GRID_SLACK = 1e-12


def _differ(x, y):
    # equality first so inf == inf never counts the nan from inf - inf
    return (x != y) & ~(np.abs(x - y) <= _GRID_SLACK)


def _pair_axes(nodes: Sequence[float]):
    x = np.asarray(nodes, dtype=float)
    return x[:, None], x[None, :]


def _mirrored(x: np.ndarray, y):
    # node (a, k): k = 0 stands for the pair (a, y), k = 1 for (y, a)
    y = np.full(x.shape, y, dtype=float)
    return np.stack([x, y], axis=1), np.stack([y, x], axis=1)


@np.errstate(all="ignore")
def _check_nondecreasing(op: BinaryOp, nodes: Sequence[float]) -> CheckResult:
    col, row = _pair_axes(nodes)
    g = GridEval()
    # first sweep: b outer, a inner, so m[i, k] = op(nodes[k], nodes[i])
    m = g.op(op, row, col)
    drop = np.zeros(m.shape, dtype=bool)
    drop[:, 1:] = m[:, 1:] < m[:, :-1] - _GRID_SLACK
    hit = g.first(drop)
    if hit is not None:
        i, k = hit
        return CheckResult(FLAG_NONDECREASING, False, (nodes[k - 1], nodes[k], nodes[i]))
    # second sweep: a outer, b inner, over the same values
    drop = m.T[:, 1:] < m.T[:, :-1] - _GRID_SLACK
    if drop.any():
        i, k = np.unravel_index(int(np.argmax(drop)), drop.shape)
        return CheckResult(FLAG_NONDECREASING, False, (nodes[i], nodes[k], nodes[k + 1]))
    return CheckResult(FLAG_NONDECREASING, True)


@np.errstate(all="ignore")
def _check_annihilator(op: BinaryOp, nodes: Sequence[float]) -> CheckResult:
    g = GridEval()
    x, y = _mirrored(np.asarray(nodes, dtype=float), 0.0)
    hit = g.first(g.op(op, x, y) > _GRID_SLACK)
    if hit is None:
        return CheckResult(FLAG_ANNIHILATOR, True)
    a = nodes[hit[0]]
    return CheckResult(FLAG_ANNIHILATOR, False, (a, 0.0) if hit[1] == 0 else (0.0, a))


@np.errstate(all="ignore")
def _check_neutral(op: BinaryOp, e: float, nodes: Sequence[float]) -> CheckResult:
    name = FLAG_NEUTRAL
    if e > op.cap:
        return CheckResult(name, False, (e,), "neutral outside domain")
    g = GridEval()
    a = np.asarray(nodes, dtype=float)
    x, y = _mirrored(a, e)
    hit = g.first(_differ(g.op(op, x, y), a[:, None]))
    if hit is None:
        return CheckResult(name, True)
    a = nodes[hit[0]]
    return CheckResult(name, False, (a, e) if hit[1] == 0 else (e, a))


@np.errstate(all="ignore")
def _check_bounded_by_min(op: BinaryOp, nodes: Sequence[float]) -> CheckResult:
    a, b = _pair_axes(nodes)
    g = GridEval()
    hit = g.first(g.op(op, a, b) > min_grid(a, b) + _GRID_SLACK)
    if hit is None:
        return CheckResult(FLAG_BOUNDED_BY_MIN, True)
    return CheckResult(FLAG_BOUNDED_BY_MIN, False, (nodes[hit[0]], nodes[hit[1]]))


@np.errstate(all="ignore")
def _check_bounded_by_max(op: BinaryOp, nodes: Sequence[float]) -> CheckResult:
    a, b = _pair_axes(nodes)
    g = GridEval()
    hit = g.first(g.op(op, a, b) < max_grid(a, b) - _GRID_SLACK)
    if hit is None:
        return CheckResult(FLAG_BOUNDED_BY_MAX, True)
    return CheckResult(FLAG_BOUNDED_BY_MAX, False, (nodes[hit[0]], nodes[hit[1]]))


@np.errstate(all="ignore")
def _check_commutative(op: BinaryOp, nodes: Sequence[float]) -> CheckResult:
    a, b = _pair_axes(nodes)
    g = GridEval()
    ab = g.op(op, a, b)
    hit = g.first(_differ(ab, g.op(op, b, a)))
    if hit is None:
        return CheckResult(FLAG_COMMUTATIVE, True)
    return CheckResult(FLAG_COMMUTATIVE, False, (nodes[hit[0]], nodes[hit[1]]))


@np.errstate(all="ignore")
def _check_associative(op: BinaryOp, nodes: Sequence[float]) -> CheckResult:
    # triples grow fast; thin to keep the check circa 20k evaluations
    thin = _thin(nodes, 26)
    x = np.asarray(thin, dtype=float)
    a, b, c = x[:, None, None], x[None, :, None], x[None, None, :]
    g = GridEval()
    left = g.op(op, g.op(op, a, b), c)
    right = g.op(op, a, g.op(op, b, c))
    hit = g.first(_differ(left, right))
    if hit is None:
        return CheckResult(FLAG_ASSOCIATIVE, True, detail=f"thinned to {len(thin)} nodes")
    return CheckResult(FLAG_ASSOCIATIVE, False, tuple(thin[i] for i in hit))


def verify_op_properties(
    op: BinaryOp,
    properties: Iterable[str] | None = None,
    grid: GridSpec | None = None,
) -> PropertyReport:
    """Check requested properties of op on a finite grid.

    properties defaults to the op's declared flags.  Neutral uses the
    declared neutral element.  Returns a report with one entry per
    property and a witness tuple for each failure.
    """
    if grid is None:
        grid = default_grid(op)
    nodes = grid.nodes()
    props = tuple(properties) if properties is not None else tuple(sorted(op.declared_flags))
    checks = []
    for p in props:
        if p == FLAG_NONDECREASING:
            checks.append(_check_nondecreasing(op, nodes))
        elif p == FLAG_ANNIHILATOR:
            checks.append(_check_annihilator(op, nodes))
        elif p == FLAG_NEUTRAL:
            checks.append(_check_neutral(op, op.neutral, nodes))
        elif p.startswith("neutral="):
            checks.append(_check_neutral(op, float(p.split("=", 1)[1]), nodes))
        elif p == FLAG_BOUNDED_BY_MIN:
            checks.append(_check_bounded_by_min(op, nodes))
        elif p == FLAG_BOUNDED_BY_MAX:
            checks.append(_check_bounded_by_max(op, nodes))
        elif p == FLAG_COMMUTATIVE:
            checks.append(_check_commutative(op, nodes))
        elif p == FLAG_ASSOCIATIVE:
            checks.append(_check_associative(op, nodes))
        else:
            raise InputError(f"unknown property {p!r}")
    return PropertyReport(checks=tuple(checks), grid=grid.describe())


def check_domination(
    dominant: BinaryOp, dominated: BinaryOp, grid: GridSpec | None = None
) -> PropertyReport:
    """Grid check of A(B(a,b), B(c,d)) >= B(A(a,c), A(b,d)).

    The grid has four axes, which forces a coarse one; 21 nodes is the
    default and the report records what was used.
    """
    if grid is None:
        cap = min(dominant.cap, dominated.cap)
        grid = GridSpec(cap=cap, n=21, hi=1.0 if cap == 1.0 else 2.0)
    nodes = _thin(grid.nodes(), 21)
    x = np.asarray(nodes, dtype=float)
    a, b = x[:, None, None, None], x[None, :, None, None]
    c, d = x[None, None, :, None], x[None, None, None, :]
    g = GridEval()
    with np.errstate(all="ignore"):
        left = g.op(dominant, g.op(dominated, a, b), g.op(dominated, c, d))
        right = g.op(dominated, g.op(dominant, a, c), g.op(dominant, b, d))
        hit = g.first(left < right - 1e-12)
    if hit is not None:
        return PropertyReport(
            checks=(CheckResult("domination", False, tuple(nodes[i] for i in hit)),),
            grid=grid.describe(),
        )
    return PropertyReport(checks=(CheckResult("domination", True),), grid=grid.describe())


def _phi_eval(phi, x: float) -> float:
    if callable(phi):
        return float(phi(x))
    return float(phi.apply(x))


def check_distributivity(
    phi, star: BinaryOp, mode: str = "sub", grid: GridSpec | None = None
) -> PropertyReport:
    """Grid check of phi(x star y) against phi(x) star phi(y).

    mode 'sub' demands phi(x star y) <= phi(x) star phi(y); 'super' the
    reverse.  phi may be a callable or a transform with .apply.
    """
    if mode not in ("sub", "super"):
        raise InputError("mode must be 'sub' or 'super'")
    if grid is None:
        grid = GridSpec(cap=star.cap, n=41, hi=1.0 if star.cap == 1.0 else 2.0)
    nodes = tuple(t for t in grid.nodes() if math.isfinite(t))
    name = f"{mode}distributive"
    for x in nodes:
        for y in nodes:
            lhs = _phi_eval(phi, eval_op(star, x, y))
            rhs = eval_op(star, min(_phi_eval(phi, x), star.cap), min(_phi_eval(phi, y), star.cap))
            bad = lhs > rhs + 1e-12 if mode == "sub" else lhs < rhs - 1e-12
            if bad:
                return PropertyReport(
                    checks=(CheckResult(name, False, (x, y)),), grid=grid.describe()
                )
    return PropertyReport(checks=(CheckResult(name, True),), grid=grid.describe())
