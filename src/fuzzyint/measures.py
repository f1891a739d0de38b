"""Monotone measures and survival profiles of measurable functions.

A finite monotone measure is a table over all subsets of {0,...,n-1},
indexed by bitmask, with m(empty) = 0, m(full) > 0 and m monotone under
inclusion.  The continuous carrier uses distorted Lebesgue measures
g(length(A)) on [0, 1].

The survival profile of a pair (m, f) packages the two level functions

    weak(t)   = m({f >= t})        strict(t) = m({f > t})

together with the candidate thresholds where they can jump.  Both level
functions are evaluated exactly: finite carriers by bitmask lookup, the
continuous family by closed-form level-set lengths.
"""

from __future__ import annotations

import functools
import math
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
    TransformedFunction,
    is_continuous,
)

MAX_GROUND_SET = 20


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _covering_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every covering pair (S, S | bit) of n bits, bit by bit, S ascending."""
    masks = np.arange(1 << n)
    lo = np.concatenate([masks[masks & (1 << b) == 0] for b in range(n)])
    hi = lo | np.repeat(1 << np.arange(n), 1 << (n - 1))
    return lo, hi


@dataclass(frozen=True)
class FiniteMonotoneMeasure:
    """Set function on 2**n subsets stored as a bitmask-indexed table."""

    n: int
    table: tuple[float, ...]

    def __post_init__(self):
        if not (1 <= self.n <= MAX_GROUND_SET):
            raise InputError(f"ground set size must be in 1..{MAX_GROUND_SET}")
        if len(self.table) != 1 << self.n:
            raise InputError("table must hold 2**n entries")
        if self.table[0] != 0.0:
            raise InputError("measure of the empty set must be 0")
        if not self.table[-1] > 0.0:
            raise InputError("measure of the full set must be positive")
        # with m(empty) = 0, every covering pair in order also rules out
        # negative and NaN entries (a NaN fails every comparison)
        lo, hi = _covering_pairs(self.n)
        arr = np.asarray(self.table, dtype=float)
        ordered = arr[lo] <= arr[hi]
        if not ordered.all():
            for v in self.table:
                if math.isnan(v) or v < 0.0:
                    raise InputError(f"bad measure value {v!r}")
            k = int(np.argmin(ordered))
            raise InputError(f"measure is not monotone: m({lo[k]}) > m({hi[k]})")

    @property
    def total(self) -> float:
        return self.table[-1]

    def value(self, subset: int) -> float:
        if not (0 <= subset < (1 << self.n)):
            raise InputError(f"subset mask {subset} out of range")
        return self.table[subset]


def counting_measure(n: int, normalized: bool = False) -> FiniteMonotoneMeasure:
    scale = 1.0 / n if normalized else 1.0
    table = tuple(bin(s).count("1") * scale for s in range(1 << n))
    return FiniteMonotoneMeasure(n, table)


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
    """

    weak: Callable[[float], float]
    strict: Callable[[float], float]
    candidates: tuple[float, ...]
    t_max: float
    exact: bool

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

    def weak(t: float) -> float:
        mask = 0
        for i, v in enumerate(values):
            if v >= t:
                mask |= 1 << i
        return table[mask]

    def strict(t: float) -> float:
        mask = 0
        for i, v in enumerate(values):
            if v > t:
                mask |= 1 << i
        return table[mask]

    cands = tuple(sorted(set(values)))
    return SurvivalProfile(
        weak=weak,
        strict=strict,
        candidates=cands,
        t_max=max(values),
        exact=True,
    )


def _pwl_level_lengths(f: PwlFunction, t: float) -> tuple[float, float]:
    """Exact lengths of {f >= t} and {f > t}."""
    weak_len = 0.0
    strict_len = 0.0
    xs, ys = f.xs, f.ys
    for i in range(1, len(xs)):
        x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], ys[i]
        dx = x1 - x0
        if y0 == y1:
            # flat piece: full length at or above t, nothing strictly above
            if y0 >= t:
                weak_len += dx
            if y0 > t:
                strict_len += dx
            continue
        lo, hi = (y0, y1) if y0 < y1 else (y1, y0)
        if t <= lo:
            weak_len += dx
            strict_len += dx
        elif t < hi:
            frac = (hi - t) / (hi - lo)
            weak_len += dx * frac
            strict_len += dx * frac
        # t >= hi: at most the single endpoint, zero length
    return weak_len, strict_len


def _lattice_level(kind: str, levels: tuple) -> Callable[[float], float]:
    """Pointwise min or max of level functions, ties broken as min/max do."""
    if len(levels) != 2:
        pick = min if kind == "min" else max

        def level(t: float) -> float:
            return pick(q(t) for q in levels)

        return level
    q0, q1 = levels
    if kind == "min":

        def level(t: float) -> float:
            a, b = q0(t), q1(t)
            return b if b < a else a

    else:

        def level(t: float) -> float:
            a, b = q0(t), q1(t)
            return b if b > a else a

    return level


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

        def weak(t: float) -> float:
            if t <= 0.0:
                return g(1.0)
            if t >= coef:
                return g(0.0)
            return g(1.0 - (t / coef) ** inv_p)

        # f is strictly increasing, so {f > t} and {f >= t} differ by at
        # most one point and have the same length
        strict = weak
        cands = (0.0, coef)
        return SurvivalProfile(weak, strict, cands, coef, False)

    if isinstance(f, PwlFunction):

        def weak(t: float) -> float:
            return g(_pwl_level_lengths(f, t)[0])

        def strict(t: float) -> float:
            return g(_pwl_level_lengths(f, t)[1])

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
        # the part measures, distortion included
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

