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

The optimiser evaluates t (op) level(t) by calling the op's scalar
kernel (``op.kernel``, built when the op was) directly, so a threshold
evaluation pays no kind dispatch and does not go through
:func:`~fuzzyint.ops.eval_op`.  Level queries still go through the
profile's ``weak``/``strict`` attributes.  The evaluation count is kept
arithmetically: one per mark, 35 per span and 2 per ternary step.
"""

from __future__ import annotations

import math
import operator
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
    evaluations actually performed.
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
    level = profile.strict if minimize else profile.weak
    better = operator.lt if minimize else operator.gt
    kern = op.kernel

    marks = {0.0, profile.t_max}
    marks.update(profile.candidates)
    if op.kind in (KIND_SMALLEST, KIND_GREATEST) and math.isfinite(op.neutral):
        if 0.0 < op.neutral < profile.t_max:
            marks.add(op.neutral)
    marks = sorted(v for v in marks if 0.0 <= v <= profile.t_max)

    best = None
    for v in marks:
        y = kern(v, level(v))
        if best is None or better(y, best):
            best = y
    if best is None:
        best = 0.0
    evals = len(marks)

    if profile.exact:
        return best, evals, True

    bracket = max(tol / 8.0, 1e-14)
    finite_marks = [v for v in marks if math.isfinite(v)]
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
        evals += 35
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
            # when the bracket is a few ulps wide a third of it can round
            # away; the same (a, b) would then repeat forever
            if better(y2, y1) or y1 == y2:
                if m1 == a:
                    break
                a = m1
            else:
                if m2 == b:
                    break
                b = m2
    return best, evals, False


def universal_integral(op: BinaryOp, m: Measure, f, tol: float = DEFAULT_TOL) -> IntegralResult:
    """sup over t of t (op) m({f >= t}) for a nondecreasing op with zero
    annihilator.

    To integrate a transform T of f, pass ``apply_transform(T, f)``; on
    the interval a ``TransformedFunction`` profile is composed from f's.
    """
    _require(op, FLAG_NONDECREASING)
    _require(op, FLAG_ANNIHILATOR)
    profile = survival(m, f)
    value, evals, exact = _optimize(op, profile, tol, minimize=False)
    return IntegralResult(value, 0.0 if exact else tol, evals, exact)


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
    value, evals, exact = _optimize(sc, profile, tol, minimize=False)
    return IntegralResult(value, 0.0 if exact else tol, evals, exact)


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
    value, evals, exact = _optimize(pa, profile, tol, minimize=True)
    return IntegralResult(value, 0.0 if exact else tol, evals, exact)
