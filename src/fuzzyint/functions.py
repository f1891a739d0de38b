"""Measurable-function carriers and monotone transforms.

Two carriers are supported.  Finite carriers hold a function as a vector
of values over points 0..n-1.  The continuous carrier is the unit interval
with functions drawn from a small closed family: piecewise linear, scaled
powers coef * x**p, constants, and min/max/transform wrappers over those.
The family is closed under exactly the pointwise combinations the
integral layer needs; anything else raises :class:`UnsupportedError`
instead of silently approximating.

Monotone transforms are strictly increasing maps of [0, inf) built from
powers, positive-slope affine maps and compositions, all with closed-form
inverses.  Like ops, a transform builds its scalar evaluator
(``kernel``) once, at construction; :meth:`MonotoneTransform.apply`
calls through it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ops import (
    INF,
    BinaryOp,
    InputError,
    KIND_MAX,
    KIND_MIN,
    KIND_PROD,
    KIND_SUM,
    eval_op,
)


class UnsupportedError(InputError):
    """A pointwise combination left the closed continuous family."""


# ---------------------------------------------------------------------------
# monotone transforms
# ---------------------------------------------------------------------------

T_IDENTITY = "identity"
T_POWER = "power"
T_AFFINE = "affine"
T_COMPOSE = "compose"


@dataclass(frozen=True)
class MonotoneTransform:
    """Strictly increasing map of [0, inf) with a closed-form inverse."""

    kind: str
    p: float = 1.0
    a: float = 1.0
    b: float = 0.0
    parts: tuple["MonotoneTransform", ...] = ()
    # the scalar evaluator of apply, built from the fields above once
    kernel: Callable[[float], float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == T_POWER and not self.p > 0.0:
            raise InputError("power transform needs p > 0")
        if self.kind == T_AFFINE and not self.a > 0.0:
            raise InputError("affine transform needs slope > 0")
        if self.kind not in (T_IDENTITY, T_POWER, T_AFFINE, T_COMPOSE):
            raise InputError(f"unknown transform kind {self.kind!r}")
        object.__setattr__(self, "kernel", _transform_kernel(self))

    def __reduce__(self):
        # the kernel is a closure and cannot be pickled; rebuild it instead
        return MonotoneTransform, (self.kind, self.p, self.a, self.b, self.parts)

    def apply(self, x: float) -> float:
        return self.kernel(x)

    __call__ = apply

    def invert(self, y: float) -> float:
        if self.kind == T_IDENTITY:
            return float(y)
        if self.kind == T_POWER:
            if y == INF:
                return INF
            if y < 0.0:
                raise InputError("cannot invert below 0")
            return float(y) ** (1.0 / self.p)
        if self.kind == T_AFFINE:
            if y == INF:
                return INF
            x = (float(y) - self.b) / self.a
            if x < 0.0:
                raise InputError("cannot invert below transform floor")
            return x
        x = float(y)
        for t in reversed(self.parts):
            x = t.invert(x)
        return x

    def at_zero(self) -> float:
        return self.apply(0.0)


def _transform_kernel(t: MonotoneTransform) -> Callable[[float], float]:
    if t.kind == T_IDENTITY:
        return float
    if t.kind == T_POWER:
        p = t.p

        def power_kernel(x):
            if x == INF:
                return INF
            return float(x) ** p

        return power_kernel
    if t.kind == T_AFFINE:
        a, b = t.a, t.b

        def affine_kernel(x):
            if x == INF:
                return INF
            return a * float(x) + b

        return affine_kernel
    steps = tuple(part.kernel for part in t.parts)

    def compose_kernel(x):
        y = float(x)
        for step in steps:
            y = step(y)
        return y

    return compose_kernel


IDENTITY = MonotoneTransform(T_IDENTITY)


def identity() -> MonotoneTransform:
    return IDENTITY


def power(p: float) -> MonotoneTransform:
    if p == 1.0:
        return IDENTITY
    return MonotoneTransform(T_POWER, p=float(p))


def affine(a: float, b: float = 0.0) -> MonotoneTransform:
    if a == 1.0 and b == 0.0:
        return IDENTITY
    return MonotoneTransform(T_AFFINE, a=float(a), b=float(b))


def compose(*ts: MonotoneTransform) -> MonotoneTransform:
    """Composition applied left to right: compose(s, t)(x) = t(s(x))."""
    flat: list[MonotoneTransform] = []
    for t in ts:
        if t.kind == T_COMPOSE:
            flat.extend(t.parts)
        elif t.kind != T_IDENTITY:
            flat.append(t)
    if not flat:
        return IDENTITY
    if len(flat) == 1:
        return flat[0]
    return MonotoneTransform(T_COMPOSE, parts=tuple(flat))


def is_identity(t: MonotoneTransform | None) -> bool:
    if t is None:
        return True
    if t.kind == T_IDENTITY:
        return True
    if t.kind == T_POWER:
        return t.p == 1.0
    if t.kind == T_AFFINE:
        return t.a == 1.0 and t.b == 0.0
    if t.kind == T_COMPOSE:
        return all(is_identity(x) for x in t.parts)
    return False


def apply_transform(t: MonotoneTransform, f):
    """Compose a transform with a function, staying exact where possible."""
    if is_identity(t):
        return f
    if isinstance(f, FiniteFunction):
        return FiniteFunction(tuple(t.apply(v) for v in f.values))
    if isinstance(f, ConstFunction):
        return ConstFunction(t.apply(f.c))
    if isinstance(f, PowerFunction):
        if t.kind == T_POWER:
            return PowerFunction(f.p * t.p, f.coef**t.p)
        if t.kind == T_AFFINE and t.b == 0.0:
            return PowerFunction(f.p, f.coef * t.a)
        if t.kind == T_COMPOSE:
            g = f
            for part in t.parts:
                g = apply_transform(part, g)
            return g
        return TransformedFunction(f, t)
    if isinstance(f, PwlFunction):
        if t.kind == T_AFFINE:
            return PwlFunction(f.xs, tuple(t.apply(y) for y in f.ys))
        return TransformedFunction(f, t)
    if isinstance(f, CappedFunction):
        return CappedFunction(apply_transform(t, f.base), t.apply(f.cap_value))
    if isinstance(f, FlooredFunction):
        return FlooredFunction(apply_transform(t, f.base), t.apply(f.floor_value))
    if isinstance(f, LatticeCombo):
        return LatticeCombo(f.kind, tuple(apply_transform(t, p) for p in f.parts))
    if isinstance(f, TransformedFunction):
        return TransformedFunction(f.base, compose(f.transform, t))
    raise InputError(f"cannot transform {type(f).__name__}")


# ---------------------------------------------------------------------------
# function carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteFunction:
    """Vector of nonnegative extended values over a finite carrier."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise InputError("finite function needs at least one value")
        for v in self.values:
            if math.isnan(v) or v < 0.0:
                raise InputError(f"bad function value {v!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    def max_value(self) -> float:
        return max(self.values)

    def is_unit_scale(self) -> bool:
        return all(v <= 1.0 for v in self.values)


@dataclass(frozen=True)
class ConstFunction:
    """Constant c on the unit interval."""

    c: float

    def __post_init__(self):
        if math.isnan(self.c) or self.c < 0.0 or self.c == INF:
            raise InputError("constant must be finite and nonnegative")


@dataclass(frozen=True)
class PowerFunction:
    """coef * x**p on the unit interval; nondecreasing, sup = coef."""

    p: float
    coef: float = 1.0

    def __post_init__(self):
        if not self.p > 0.0 or not math.isfinite(self.p):
            raise InputError("power function needs finite p > 0")
        if not self.coef > 0.0 or not math.isfinite(self.coef):
            raise InputError("power function needs finite coef > 0")


@dataclass(frozen=True)
class PwlFunction:
    """Piecewise linear on [0, 1] through nodes (xs, ys)."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        xs, ys = self.xs, self.ys
        if len(xs) != len(ys) or len(xs) < 2:
            raise InputError("pwl needs matching xs/ys with >= 2 nodes")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise InputError("pwl must span [0, 1]")
        for i in range(1, len(xs)):
            if not xs[i] > xs[i - 1]:
                raise InputError("pwl xs must be strictly increasing")
        for y in ys:
            if math.isnan(y) or y < 0.0 or y == INF:
                raise InputError("pwl values must be finite and nonnegative")

    def max_value(self) -> float:
        return max(self.ys)


@dataclass(frozen=True)
class CappedFunction:
    """min(base, cap_value) on the unit interval."""

    base: object
    cap_value: float


@dataclass(frozen=True)
class FlooredFunction:
    """max(base, floor_value) on the unit interval."""

    base: object
    floor_value: float


@dataclass(frozen=True)
class LatticeCombo:
    """Pointwise min or max of nondecreasing unit-interval functions."""

    kind: str  # "min" | "max"
    parts: tuple[object, ...]

    def __post_init__(self):
        if self.kind not in ("min", "max"):
            raise InputError("lattice combo kind must be min or max")
        for p in self.parts:
            if not is_nondecreasing_on_unit(p):
                raise InputError("lattice combo parts must be nondecreasing")


@dataclass(frozen=True)
class TransformedFunction:
    """transform(base(x)); profile machinery composes at the level sets."""

    base: object
    transform: MonotoneTransform


CONTINUOUS_KINDS = (
    ConstFunction,
    PowerFunction,
    PwlFunction,
    CappedFunction,
    FlooredFunction,
    LatticeCombo,
    TransformedFunction,
)


def is_continuous(f) -> bool:
    return isinstance(f, CONTINUOUS_KINDS)


def is_nondecreasing_on_unit(f) -> bool:
    if isinstance(f, (ConstFunction, PowerFunction)):
        return True
    if isinstance(f, PwlFunction):
        return all(f.ys[i] <= f.ys[i + 1] for i in range(len(f.ys) - 1))
    if isinstance(f, (CappedFunction, FlooredFunction)):
        return is_nondecreasing_on_unit(f.base)
    if isinstance(f, LatticeCombo):
        return True
    if isinstance(f, TransformedFunction):
        return is_nondecreasing_on_unit(f.base)
    return False


def sup_value(f) -> float:
    """Supremum of the function over its carrier."""
    if isinstance(f, FiniteFunction):
        return f.max_value()
    if isinstance(f, ConstFunction):
        return f.c
    if isinstance(f, PowerFunction):
        return f.coef
    if isinstance(f, PwlFunction):
        return f.max_value()
    if isinstance(f, CappedFunction):
        return min(sup_value(f.base), f.cap_value)
    if isinstance(f, FlooredFunction):
        return max(sup_value(f.base), f.floor_value)
    if isinstance(f, LatticeCombo):
        vals = [sup_value(p) for p in f.parts]
        return min(vals) if f.kind == "min" else max(vals)
    if isinstance(f, TransformedFunction):
        return f.transform.apply(sup_value(f.base))
    raise InputError(f"no sup for {type(f).__name__}")


def _sampler(f) -> Callable[[float], float]:
    """Pointwise evaluator of f, with its structure resolved once.

    x is an index on finite carriers.  Sampling many points through one
    sampler skips the per-point type dispatch of :func:`eval_at`.
    """
    if isinstance(f, FiniteFunction):
        values = f.values
        return lambda x: values[int(x)]
    if isinstance(f, ConstFunction):
        c = f.c
        return lambda x: c
    if isinstance(f, PowerFunction):
        coef, p = f.coef, f.p
        return lambda x: coef * float(x) ** p
    if isinstance(f, PwlFunction):
        xs, ys = f.xs, f.ys

        def pwl(x):
            if x <= 0.0:
                return ys[0]
            if x >= 1.0:
                return ys[-1]
            for i in range(1, len(xs)):
                if x <= xs[i]:
                    w = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
                    return ys[i - 1] + w * (ys[i] - ys[i - 1])
            return ys[-1]

        return pwl
    if isinstance(f, CappedFunction):
        base, c = _sampler(f.base), f.cap_value
        return lambda x: min(base(x), c)
    if isinstance(f, FlooredFunction):
        base, c = _sampler(f.base), f.floor_value
        return lambda x: max(base(x), c)
    if isinstance(f, LatticeCombo):
        parts = tuple(_sampler(p) for p in f.parts)
        pick = min if f.kind == "min" else max
        return lambda x: pick([s(x) for s in parts])
    if isinstance(f, TransformedFunction):
        base, apply = _sampler(f.base), f.transform.kernel
        return lambda x: apply(base(x))
    raise InputError(f"cannot evaluate {type(f).__name__}")


def eval_at(f, x: float) -> float:
    """Pointwise evaluation; x is an index for finite carriers."""
    return _sampler(f)(x)


# ---------------------------------------------------------------------------
# comonotonicity
# ---------------------------------------------------------------------------


def _comonotone_vectors(fv: Sequence[float], gv: Sequence[float]):
    # both nondecreasing in carrier order: every pair is concordant, so
    # one linear pass decides (a nan fails <= and goes on to the walk)
    if all(map(operator.le, fv, fv[1:])) and all(map(operator.le, gv, gv[1:])):
        return True, None
    # otherwise walk groups of equal f in ascending order, tracking the largest g
    # seen in strictly earlier groups; any later smaller g is a witness
    order = sorted(range(len(fv)), key=lambda i: (fv[i], gv[i]))
    best_idx = -1
    best_g = -INF
    i = 0
    while i < len(order):
        # a group holds at least its first index, even when f there is nan
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


def _paired_values(f, g, samples: int, what: str):
    """Value vectors of f and g, and the sample points on the interval."""
    if isinstance(f, FiniteFunction) and isinstance(g, FiniteFunction):
        if f.n != g.n:
            raise InputError("carrier size mismatch")
        return f.values, g.values, None
    if is_continuous(f) and is_continuous(g):
        xs = [i / (samples - 1) for i in range(samples)]
        sf, sg = _sampler(f), _sampler(g)
        return [sf(x) for x in xs], [sg(x) for x in xs], xs
    raise InputError(f"{what} needs two functions on one carrier")


def _at_points(result, xs):
    """A (ok, index pair) result with the pair mapped to sample points."""
    ok, w = result
    if ok or xs is None:
        return result
    return False, (xs[w[0]], xs[w[1]])


def is_comonotone(f, g, samples: int = 257):
    """Check (f(x)-f(y))(g(x)-g(y)) >= 0 for all pairs.

    Returns (ok, witness) where witness is a violating index pair, or a
    violating sample pair on the continuous carrier.  When both value
    vectors are nondecreasing in carrier order the answer is yes after one
    linear pass; otherwise the check sorts by (f, g) and tracks the
    running best g, so it is O(n log n) while agreeing with the quadratic
    definition.
    """
    fv, gv, xs = _paired_values(f, g, samples, "comonotonicity")
    return _at_points(_comonotone_vectors(fv, gv), xs)


def is_countermonotone(f, g, samples: int = 257):
    """Check (f(x)-f(y))(g(x)-g(y)) <= 0 for all pairs, with witness.

    f and g are countermonotone exactly when f and -g are comonotone, so
    this is the comonotone check on negated g values; witnesses are as in
    :func:`is_comonotone`.
    """
    fv, gv, xs = _paired_values(f, g, samples, "countermonotonicity")
    return _at_points(_comonotone_vectors(fv, [-v for v in gv]), xs)


def make_comonotone_system(seed, n: int, k: int, scale: str = "unit"):
    """Draw k pairwise comonotone functions on a finite n-point carrier.

    A shared base vector h is drawn, then each function is a nondecreasing
    staircase reindexing of h's level order, so every pair is comonotone
    by construction.  scale 'unit' keeps values in [0, 1]; 'extended'
    rescales by a positive factor.  Deterministic for a given seed.
    """
    if n < 1 or k < 1:
        raise InputError("need n >= 1 and k >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    h = rng.random(n)
    order = np.argsort(h, kind="stable")
    ranks = np.empty(n, dtype=int)
    ranks[order] = np.arange(n)
    out = []
    for _ in range(k):
        levels = np.sort(rng.random(n))
        vals = levels[ranks]
        if scale == "extended":
            vals = vals * (0.5 + 4.0 * rng.random())
        elif scale != "unit":
            raise InputError("scale must be 'unit' or 'extended'")
        out.append(FiniteFunction(tuple(float(v) for v in vals)))
    return out


# ---------------------------------------------------------------------------
# pointwise combination (closed algebra)
# ---------------------------------------------------------------------------


def _pwl_nodes(f: PwlFunction | ConstFunction) -> PwlFunction:
    if isinstance(f, ConstFunction):
        return PwlFunction((0.0, 1.0), (f.c, f.c))
    return f


def _pwl_merge(star: BinaryOp, f: PwlFunction, g: PwlFunction) -> PwlFunction:
    """Exact pointwise min/max/sum of two piecewise-linear functions."""
    xs = sorted(set(f.xs) | set(g.xs))
    # min/max need the interior crossing points as extra nodes
    if star.kind in (KIND_MIN, KIND_MAX):
        extra = []
        for i in range(1, len(xs)):
            x0, x1 = xs[i - 1], xs[i]
            d0 = eval_at(f, x0) - eval_at(g, x0)
            d1 = eval_at(f, x1) - eval_at(g, x1)
            if d0 * d1 < 0.0:
                # linear difference on the cell: one crossing
                xc = x0 + (x1 - x0) * d0 / (d0 - d1)
                if x0 < xc < x1:
                    extra.append(xc)
        xs = sorted(set(xs) | set(extra))
    ys = [eval_op(star, eval_at(f, x), eval_at(g, x)) for x in xs]
    return PwlFunction(tuple(xs), tuple(ys))


def pointwise_combine(star: BinaryOp, f, g):
    """Pointwise star(f, g), exact within the closed family.

    Finite carriers accept any operation.  On the unit interval only
    combinations with exact level-set profiles are formed; anything else
    raises UnsupportedError.
    """
    if isinstance(f, FiniteFunction) and isinstance(g, FiniteFunction):
        if f.n != g.n:
            raise InputError("carrier size mismatch")
        return FiniteFunction(tuple(eval_op(star, a, b) for a, b in zip(f.values, g.values)))
    if not (is_continuous(f) and is_continuous(g)):
        raise InputError("cannot mix carriers in a pointwise combination")

    if isinstance(f, ConstFunction) and isinstance(g, ConstFunction):
        return ConstFunction(eval_op(star, f.c, g.c))

    k = star.kind
    if k == KIND_MIN:
        if isinstance(g, ConstFunction):
            return f if sup_value(f) <= g.c else CappedFunction(f, g.c)
        if isinstance(f, ConstFunction):
            return g if sup_value(g) <= f.c else CappedFunction(g, f.c)
        if isinstance(f, (PwlFunction,)) and isinstance(g, (PwlFunction,)):
            return _pwl_merge(star, f, g)
        if is_nondecreasing_on_unit(f) and is_nondecreasing_on_unit(g):
            return LatticeCombo("min", (f, g))
        raise UnsupportedError("pointwise min outside the closed family")
    if k == KIND_MAX:
        if isinstance(g, ConstFunction):
            return f if g.c <= 0.0 else FlooredFunction(f, g.c)
        if isinstance(f, ConstFunction):
            return g if f.c <= 0.0 else FlooredFunction(g, f.c)
        if isinstance(f, (PwlFunction,)) and isinstance(g, (PwlFunction,)):
            return _pwl_merge(star, f, g)
        if is_nondecreasing_on_unit(f) and is_nondecreasing_on_unit(g):
            return LatticeCombo("max", (f, g))
        raise UnsupportedError("pointwise max outside the closed family")
    if k == KIND_PROD:
        if isinstance(g, ConstFunction):
            f, g = g, f
        if isinstance(f, ConstFunction):
            if f.c == 0.0:
                return ConstFunction(0.0)
            return apply_transform(affine(f.c, 0.0), g)
        if isinstance(f, PowerFunction) and isinstance(g, PowerFunction):
            return PowerFunction(f.p + g.p, f.coef * g.coef)
        raise UnsupportedError("pointwise product outside the closed family")
    if k == KIND_SUM:
        if isinstance(g, ConstFunction):
            f, g = g, f
        if isinstance(f, ConstFunction):
            if f.c == 0.0:
                return g
            return apply_transform(MonotoneTransform(T_AFFINE, a=1.0, b=f.c), g)
        if isinstance(f, PwlFunction) and isinstance(g, PwlFunction):
            return _pwl_merge(star, f, g)
        if isinstance(f, PowerFunction) and isinstance(g, PowerFunction) and f.p == g.p:
            return PowerFunction(f.p, f.coef + g.coef)
        raise UnsupportedError("pointwise sum outside the closed family")
    raise UnsupportedError(f"operation {star.label()!r} unsupported on the unit interval")
