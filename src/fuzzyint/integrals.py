"""Monotone-measure integrals driven by survival profiles.

Every evaluator scans thresholds t and pairs them with a level measure:

    forward:  sup over t of  t (op) m({f >= t})
    reverse:  inf over t of  t (op) m({f > t})

Sugeno, Shilkret and the smallest-e integral are the forward formula
with the min, product and smallest pseudo-multiplication with neutral
e.  On a finite carrier the level functions are step functions constant
between the distinct values of f, and the op is nondecreasing, so the
sup (resp. inf) is attained on the candidate values exactly; no
tolerance is involved.  On the continuous carrier each span between
candidates is seeded with 33 interior nodes and the best node is
sharpened by ternary search; results carry the tolerance they were
refined to and the number of threshold evaluations spent.

The optimiser evaluates the op without :func:`~fuzzyint.ops.eval_op`, so
a threshold evaluation pays no kind dispatch.  Each mark goes through the
op's scalar kernel (``op.kernel``).  A finite profile's levels are read
by index from its sweep (``levels``); the interval's are queried through
``weak``/``strict``.  A span threshold is one call of a closure,
``obj(t)``: it queries the level y, checks t and y against the op's cap
inline and applies the op's unchecked arithmetic (``op.core``); a value
out of range goes to the kernel, which raises its usual error.  Every
comparison is folded by a sign, ``sgn * y > sgn * best``, with sgn = -1
for the reverse (inf) formula, and keeps y itself, so the sign of a zero
survives.  A span's ends are marks, so it reuses their values and
evaluates only its 33 interior seeds.  The evaluation count is kept
arithmetically: one per mark, 33 per span and 2 per ternary step.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .ops import (
    FLAG_ANNIHILATOR,
    FLAG_BOUNDED_BY_MIN,
    FLAG_NONDECREASING,
    BinaryOp,
    InputError,
    KIND_GREATEST,
    KIND_SMALLEST,
    eval_op,  # not called here; perfbench/tracer.py counts calls at this binding
    min_op,
    prod_op,
    smallest_op,
)
from .functions import sup_value
from .measures import Measure, SurvivalProfile, survival

DEFAULT_TOL = 1e-12

_MIN = min_op()
_PROD = prod_op()


@dataclass(frozen=True)
class IntegralResult:
    """Integral value with its numeric pedigree.

    tol is 0 for exact candidate maxima; otherwise the refinement target
    the threshold search was driven to.  candidates counts threshold
    evaluations actually performed; a result served from a cache (see
    :mod:`~fuzzyint.inequalities`) repeats the count of the computation
    that produced it.
    """

    value: float
    tol: float
    candidates: int
    exact: bool

    def __float__(self) -> float:
        return self.value


def _require(op: BinaryOp, flag: str) -> None:
    if flag not in op.declared_flags:
        raise InputError(f"operation {op.label()!r} does not declare {flag!r}")


def _optimize(
    op: BinaryOp, profile: SurvivalProfile, tol: float, minimize: bool
) -> tuple[float, int, bool]:
    """Best of t (op) level(t); exact on candidate-attained profiles."""
    # y beats best when sgn * y > sgn * best: y > best forward, y < best
    # in reverse; the value kept is y itself, with its sign of zero
    sgn = -1.0 if minimize else 1.0
    kern = op.kernel
    e = op.neutral
    # a smallest or greatest neutral inside (0, t_max) is a mark too
    e_mark = op.kind in (KIND_SMALLEST, KIND_GREATEST) and 0.0 < e < profile.t_max
    if profile.levels is not None:
        # finite: candidate k meets levels[k] forward and levels[k + 1] in
        # reverse; the 0 mark (+0.0 even where f takes -0.0) and a neutral
        # that is no candidate read the level at their bisect position
        cands, levels = profile.candidates, profile.levels
        marked = levels[minimize : minimize + len(cands)]
        if cands[0] == 0.0:
            marks = [0.0, *cands[1:]]
        else:
            marks = [0.0, *cands]
            marked.insert(0, levels[0])
        if e_mark and marks[j := bisect_left(marks, e)] != e:
            marks.insert(j, e)
            marked.insert(j, levels[bisect_left(cands, e)])
        ys = map(kern, marks, marked)
    else:
        level = profile.strict if minimize else profile.weak
        marks = {0.0, profile.t_max, *profile.candidates, *((e,) if e_mark else ())}
        marks = sorted(v for v in marks if 0.0 <= v <= profile.t_max)
        # kept: the spans start and end at the marks
        ys = list(map(kern, marks, map(level, marks)))

    # 0.0 is always a mark; min and max keep the first of equal extremes
    best = (min if minimize else max)(ys)
    evals = len(marks)

    if profile.exact:
        return best, evals, True

    core, cap = op.core, op.cap

    def obj(t):
        # t, a seed or a ternary point, and the interval's levels are
        # floats; a value out of range goes to the kernel, which raises
        y = level(t)
        if 0.0 <= t <= cap and 0.0 <= y <= cap:
            return core(t, y)
        return kern(t, y)

    bracket = max(tol / 8.0, 1e-14)
    ends = [(v, y) for v, y in zip(marks, ys) if math.isfinite(v)]
    for i in range(1, len(ends)):
        (lo, y_lo), (hi, y_hi) = ends[i - 1], ends[i]
        step = (hi - lo) / 34.0
        seg_best_t, seg_best_y = lo, y_lo
        for k in range(1, 34):
            t = lo + step * k
            y = obj(t)
            if sgn * y > sgn * seg_best_y:
                seg_best_t, seg_best_y = t, y
        evals += 33
        if sgn * y_hi > sgn * seg_best_y:
            seg_best_t, seg_best_y = hi, y_hi
        if sgn * seg_best_y > sgn * best:
            best = seg_best_y
        a = max(lo, seg_best_t - step)
        b = min(hi, seg_best_t + step)
        while b - a > bracket:
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            y1, y2 = obj(m1), obj(m2)
            evals += 2
            if sgn * y1 > sgn * best:
                best = y1
            if sgn * y2 > sgn * best:
                best = y2
            # when the bracket is a few ulps wide a third of it can round
            # away; the same (a, b) would then repeat forever
            if sgn * y2 >= sgn * y1:
                if m1 == a:
                    break
                a = m1
            else:
                if m2 == b:
                    break
                b = m2
    return best, evals, False


def _integrate(op: BinaryOp, profile: SurvivalProfile, tol: float, minimize: bool) -> IntegralResult:
    """The optimiser's result with its pedigree, for a tol the search can reach."""
    if not 0.0 < tol < math.inf:
        raise InputError(f"tol must be a finite number > 0, got {tol!r}")
    value, evals, exact = _optimize(op, profile, tol, minimize)
    return IntegralResult(value, 0.0 if exact else tol, evals, exact)


def universal_integral(op: BinaryOp, m: Measure, f, tol: float = DEFAULT_TOL) -> IntegralResult:
    """sup over t of t (op) m({f >= t}) for a nondecreasing op with zero
    annihilator.

    To integrate a transform T of f, pass ``apply_transform(T, f)``; on
    the interval a ``TransformedFunction`` profile is composed from f's.
    """
    _require(op, FLAG_NONDECREASING)
    _require(op, FLAG_ANNIHILATOR)
    profile = survival(m, f)
    return _integrate(op, profile, tol, minimize=False)


def sugeno(m: Measure, f, tol: float = DEFAULT_TOL) -> IntegralResult:
    """Threshold-min integral; the min-op instance of the sup formula."""
    return universal_integral(_MIN, m, f, tol)


def shilkret(m: Measure, f, tol: float = DEFAULT_TOL) -> IntegralResult:
    """Threshold-product integral; the product instance of the sup formula."""
    return universal_integral(_PROD, m, f, tol)


def smallest_e_integral(m: Measure, f, e: float, tol: float = DEFAULT_TOL) -> IntegralResult:
    """Smallest-neutral-e integral; the smallest_op(e) instance of the sup
    formula."""
    return universal_integral(smallest_op(e), m, f, tol)


def seminormed_integral(sc: BinaryOp, m: Measure, f, tol: float = DEFAULT_TOL) -> IntegralResult:
    """sup over t in [0, 1] of t (sc) m({f >= t}) for a cap-1 op.

    Requires unit-scale data: f bounded by 1 and m(X) <= 1.
    """
    if sc.cap != 1.0:
        raise InputError("seminormed integral needs a cap-1 operation")
    _require(sc, FLAG_NONDECREASING)
    if FLAG_ANNIHILATOR not in sc.declared_flags and FLAG_BOUNDED_BY_MIN not in sc.declared_flags:
        raise InputError("seminormed integral needs a zero annihilator (or a min bound implying it)")
    if sup_value(f) > 1.0:
        raise InputError("seminormed integral needs unit-scale data")
    profile = survival(m, f)
    if m.total > 1.0:
        raise InputError("seminormed integral needs m(X) <= 1")
    return _integrate(sc, profile, tol, minimize=False)


def semiconormed_integral(pa: BinaryOp, m: Measure, f, tol: float = DEFAULT_TOL) -> IntegralResult:
    """inf over t of t (pa) m({f > t}) for a nondecreasing op with
    neutral element 0 (threshold-join integrals and their kin)."""
    _require(pa, FLAG_NONDECREASING)
    if pa.neutral != 0.0:
        raise InputError("reverse integral needs neutral element 0")
    if pa.cap == 1.0 and sup_value(f) > 1.0:
        raise InputError("cap-1 reverse integral needs unit-scale data")
    profile = survival(m, f)
    if pa.cap == 1.0 and m.total > 1.0:
        raise InputError("cap-1 reverse integral needs m(X) <= 1")
    return _integrate(pa, profile, tol, minimize=True)
