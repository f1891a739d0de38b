"""Monotone measures and survival profiles of measurable functions.

A finite monotone measure is a table over all subsets of {0,...,n-1},
indexed by bitmask, with m(empty) = 0, m(full) > 0 and m monotone under
inclusion; tables monotone by construction skip the constructor's scan
of covering pairs.  The interval uses distorted Lebesgue measures
g(length(A)) on [0, 1].

The survival profile of a pair (m, f) packages the two level functions

    weak(t)   = m({f >= t})        strict(t) = m({f > t})

together with the candidate thresholds where they can jump.  Both level
functions are evaluated exactly.  On a finite carrier the profile is
built in one descending sweep over the distinct values of f, OR-ing each
value's points into a running mask and reading the table there, so
above[k] = m({f >= c_k}), kept as the profile's ``levels``; a query is
one binary search, weak(t) = above[#{c < t}] and strict(t) =
above[#{c <= t}].  The continuous family uses closed-form level-set
lengths.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ops import InputError
from .functions import (
    CappedFunction,
    ConstFunction,
    FiniteFunction,
    FlooredFunction,
    LatticeCombo,
    MonotoneTransform,
    PowerFunction,
    PwlFunction,
    T_IDENTITY,
    T_POWER,
    TransformedFunction,
    is_continuous,
)

MAX_GROUND_SET = 20


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def _check_size(n: int) -> None:
    if not (1 <= n <= MAX_GROUND_SET):
        raise InputError(f"ground set size must be in 1..{MAX_GROUND_SET}")


@dataclass(frozen=True)
class FiniteMonotoneMeasure:
    """Set function on 2**n subsets stored as a bitmask-indexed table."""

    n: int
    table: tuple[float, ...]

    def __post_init__(self):
        self._check_shape()
        # every covering pair (S, S | bit), bit by bit and S ascending: in
        # blocks of (2, 2**b), row 0 holds the masks without bit b and row
        # 1 their covers.  With m(empty) = 0 this also rules out negative
        # and NaN entries (a NaN fails every comparison)
        arr = np.asarray(self.table, dtype=float)
        for b in range(self.n):
            w = 1 << b
            pairs = arr.reshape(-1, 2, w)
            ordered = pairs[:, 0, :] <= pairs[:, 1, :]
            if not ordered.all():
                for v in self.table:
                    if math.isnan(v) or v < 0.0:
                        raise InputError(f"bad measure value {v!r}")
                block, offset = divmod(int(np.argmin(ordered)), w)
                s = 2 * w * block + offset
                raise InputError(f"measure is not monotone: m({s}) > m({s | w})")

    @classmethod
    def _monotone(cls, n: int, table: tuple[float, ...]) -> "FiniteMonotoneMeasure":
        # a table monotone by construction: the O(1) checks, not the scan
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "table", table)
        m._check_shape()
        return m

    def _check_shape(self) -> None:
        _check_size(self.n)
        if len(self.table) != 1 << self.n:
            raise InputError("table must hold 2**n entries")
        if self.table[0] != 0.0:
            raise InputError("measure of the empty set must be 0")
        if not self.table[-1] > 0.0:
            raise InputError("measure of the full set must be positive")

    @property
    def total(self) -> float:
        return self.table[-1]

    def value(self, subset: int) -> float:
        if not (0 <= subset < (1 << self.n)):
            raise InputError(f"subset mask {subset} out of range")
        return self.table[subset]


def counting_measure(n: int, normalized: bool = False) -> FiniteMonotoneMeasure:
    _check_size(n)
    scale = 1.0 / n if normalized else 1.0
    table = tuple(bin(s).count("1") * scale for s in range(1 << n))
    return FiniteMonotoneMeasure._monotone(n, table)


@dataclass(frozen=True)
class DistortedLebesgue:
    """m(A) = distortion(length(A)) on the unit interval."""

    distortion: MonotoneTransform = field(default_factory=lambda: MonotoneTransform("identity"))

    def __post_init__(self):
        g = self.distortion
        if g.apply(0.0) != 0.0:
            raise InputError("distortion must send 0 to 0")
        if not g.apply(1.0) > 0.0:
            raise InputError("distortion must send 1 to a positive value")

    @property
    def total(self) -> float:
        return self.distortion.apply(1.0)


Measure = FiniteMonotoneMeasure | DistortedLebesgue


# ---------------------------------------------------------------------------
# survival profiles
# ---------------------------------------------------------------------------


@dataclass
class SurvivalProfile:
    """Level functions of one (measure, function) pair.

    weak/strict are exact query functions of the threshold t.  candidates
    are the thresholds where the profile can jump (finite carriers: the
    distinct values of f).  exact means the sup/inf of any nondecreasing
    pairing is attained on the candidates, so no refinement is needed;
    otherwise the spans between candidates must be searched too.

    levels is the finite sweep itself, None on the interval:
    levels[k] = m({f >= candidates[k]}) = m({f > candidates[k - 1]}),
    and levels[-1] = m(empty).
    """

    weak: Callable[[float], float]
    strict: Callable[[float], float]
    candidates: tuple[float, ...]
    t_max: float
    exact: bool
    levels: list[float] | None = None

    def compose(self, transform: MonotoneTransform) -> "SurvivalProfile":
        """Profile of transform(f) from the profile of f.

        Uses {T(f) >= t} = {f >= T^-1(t)} for strictly increasing T, with
        inverse images snapped to nearby candidates so candidate queries
        stay exact under float round-trips.
        """
        base_weak, base_strict = self.weak, self.strict
        cands = self.candidates
        floor = transform.at_zero()

        def pull_back(t: float) -> float:
            if t <= floor:
                return 0.0
            v = transform.invert(t)
            for c in cands:
                if abs(v - c) <= 1e-12 * max(1.0, abs(c)):
                    return c
            return v

        def weak(t: float) -> float:
            return base_weak(pull_back(t))

        def strict(t: float) -> float:
            if t < floor:
                return base_weak(0.0)
            return base_strict(pull_back(t))

        new_cands = tuple(sorted({transform.apply(c) for c in cands}))
        new_t_max = transform.apply(self.t_max)
        return SurvivalProfile(
            weak=weak,
            strict=strict,
            candidates=new_cands,
            t_max=new_t_max,
            exact=self.exact,
        )


def _finite_profile(m: FiniteMonotoneMeasure, f: FiniteFunction) -> SurvivalProfile:
    if f.n != m.n:
        raise InputError("function and measure disagree on carrier size")
    values = f.values
    table = m.table
    # the points at each distinct value, then above[k] = m({f >= cands[k]})
    # by one descending sweep; above[-1] is m(empty)
    at = {}
    for i, v in enumerate(values):
        at[v] = at.get(v, 0) | 1 << i
    cands = tuple(sorted(at))
    above = [table[0]] * (len(cands) + 1)
    mask = 0
    for k in range(len(cands) - 1, -1, -1):
        mask |= at[cands[k]]
        above[k] = table[mask]

    def weak(t: float) -> float:
        # bisect_left puts a NaN first; no value is >= NaN, so m(empty)
        return above[bisect_left(cands, t)] if t == t else above[-1]

    def strict(t: float) -> float:
        return above[bisect_right(cands, t)]

    return SurvivalProfile(
        weak=weak,
        strict=strict,
        candidates=cands,
        t_max=max(values),
        exact=True,
        levels=above,
    )


def _pwl_level_length(f: PwlFunction, t: float, strict: bool) -> float:
    """Exact length of {f > t} if strict, else of {f >= t}.

    A run of pieces that lie wholly in the set adds its length end to end,
    x_end - x_start, so a set that covers [0, 1] measures exactly 1.  A
    piece that crosses t adds the part of its width above t.
    """
    xs, ys = f.xs, f.ys
    length, start = 0.0, None
    for i in range(1, len(xs)):
        y0, y1 = ys[i - 1], ys[i]
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        # a flat piece at t lies in {f >= t} only; a sloped one meets t at
        # one end at most, a set of length zero
        if lo > t or lo == t and (y0 != y1 or not strict):
            if start is None:
                start = xs[i - 1]
            continue
        if start is not None:
            length += xs[i - 1] - start
            start = None
        if t < hi:
            length += (xs[i] - xs[i - 1]) * ((hi - t) / (hi - lo))
    if start is not None:
        length += xs[-1] - start
    return length


def _lattice_level(kind: str, levels: tuple) -> Callable[[float], float]:
    """Pointwise min or max of one or more level functions, as a left fold
    of the two-part pick: the earlier part wins a tie, as min/max break it."""

    def pick(q0, q1):
        if kind == "min":

            def level(t: float) -> float:
                a, b = q0(t), q1(t)
                return b if b < a else a

        else:

            def level(t: float) -> float:
                a, b = q0(t), q1(t)
                return b if b > a else a

        return level

    return functools.reduce(pick, levels)


def _profile_of(m: DistortedLebesgue, f) -> SurvivalProfile:
    g = m.distortion.kernel
    total = m.total

    if isinstance(f, TransformedFunction):
        return _profile_of(m, f.base).compose(f.transform)

    if isinstance(f, ConstFunction):
        c = f.c

        def weak(t: float, c=c) -> float:
            return total if t <= c else g(0.0)

        def strict(t: float, c=c) -> float:
            return total if t < c else g(0.0)

        return SurvivalProfile(weak, strict, (c,), c, exact=True)

    if isinstance(f, PowerFunction):
        coef, inv_p = f.coef, 1.0 / f.p
        top, zero = g(1.0), g(0.0)
        d = m.distortion
        # a finite float x is distorted to x ** q by a power, as its kernel
        # computes it, and by the identity as the power 1: x ** 1.0 is x
        # bit for bit; others go through g
        if d.kind in (T_IDENTITY, T_POWER):
            q = d.p if d.kind == T_POWER else 1.0

            def weak(t: float) -> float:
                if t <= 0.0:
                    return top
                if t >= coef:
                    return zero
                return (1.0 - (t / coef) ** inv_p) ** q

        else:

            def weak(t: float) -> float:
                if t <= 0.0:
                    return top
                if t >= coef:
                    return zero
                return g(1.0 - (t / coef) ** inv_p)

        # f is strictly increasing, so {f > t} and {f >= t} differ by at
        # most one point and have the same length
        strict = weak
        cands = (0.0, coef)
        return SurvivalProfile(weak, strict, cands, coef, False)

    if isinstance(f, PwlFunction):

        def weak(t: float) -> float:
            return g(_pwl_level_length(f, t, False))

        def strict(t: float) -> float:
            return g(_pwl_level_length(f, t, True))

        t_max = f.max_value()
        cands = tuple(sorted(set(f.ys)))
        return SurvivalProfile(weak, strict, cands, t_max, False)

    if isinstance(f, CappedFunction):
        base = _profile_of(m, f.base)
        c = f.cap_value
        zero = g(0.0)

        def weak(t: float) -> float:
            return base.weak(t) if t <= c else zero

        def strict(t: float) -> float:
            return base.strict(t) if t < c else zero

        t_max = min(base.t_max, c)
        cands = tuple(sorted({v for v in base.candidates if v <= c} | {t_max}))
        return SurvivalProfile(weak, strict, cands, t_max, base.exact)

    if isinstance(f, FlooredFunction):
        base = _profile_of(m, f.base)
        c = f.floor_value

        def weak(t: float) -> float:
            return total if t <= c else base.weak(t)

        def strict(t: float) -> float:
            return total if t < c else base.strict(t)

        t_max = max(base.t_max, c)
        cands = tuple(sorted({v for v in base.candidates if v >= c} | {c}))
        return SurvivalProfile(weak, strict, cands, t_max, base.exact)

    if isinstance(f, LatticeCombo):
        # parts are nondecreasing, so each level set is a right interval
        # and the measure of the lattice combination is the lattice of
        # the part measures, distortion included, folded part by part
        parts = tuple(_profile_of(m, p) for p in f.parts)
        pick = min if f.kind == "min" else max
        weak = _lattice_level(f.kind, tuple(p.weak for p in parts))
        strict = _lattice_level(f.kind, tuple(p.strict for p in parts))

        t_max = pick(p.t_max for p in parts)
        cands = set()
        for p in parts:
            cands |= {v for v in p.candidates if v <= t_max}
        cands |= {t_max}
        return SurvivalProfile(weak, strict, tuple(sorted(cands)), t_max, False)

    raise InputError(f"no level-set rule for {type(f).__name__}")


def survival(m: Measure, f) -> SurvivalProfile:
    """Survival profile of f under m; exact on both carriers."""
    if isinstance(m, FiniteMonotoneMeasure):
        if not isinstance(f, FiniteFunction):
            raise InputError("finite measures pair with finite functions")
        return _finite_profile(m, f)
    if isinstance(m, DistortedLebesgue):
        if not is_continuous(f):
            raise InputError("distorted Lebesgue measures pair with unit-interval functions")
        return _profile_of(m, f)
    raise InputError(f"unknown measure type {type(m).__name__}")

