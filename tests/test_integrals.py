"""Integral evaluators against closed forms and brute-force oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fuzzyint import (
    ConstFunction,
    DistortedLebesgue,
    FiniteFunction,
    FiniteMonotoneMeasure,
    InputError,
    PowerFunction,
    PwlFunction,
    TransformedFunction,
    counting_measure,
    eval_at,
    eval_op,
    identity,
    lukasiewicz_op,
    max_op,
    min_op,
    power,
    probsum_op,
    prod_op,
    semiconormed_integral,
    seminormed_integral,
    shilkret,
    smallest_e_integral,
    smallest_op,
    sugeno,
    universal_integral,
)
from conftest import random_finite_function, random_measure, rng_of

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # fixed point of t = 1 - t**2


# ---------------------------------------------------------------------------
# brute-force finite oracles (independent of the survival machinery)
# ---------------------------------------------------------------------------


def weak_mask_measure(m, vals, t):
    mask = 0
    for i, v in enumerate(vals):
        if v >= t:
            mask |= 1 << i
    return m.table[mask]


def strict_mask_measure(m, vals, t):
    mask = 0
    for i, v in enumerate(vals):
        if v > t:
            mask |= 1 << i
    return m.table[mask]


def brute_forward(op, m, f):
    vals = f.values
    cands = set(vals) | {0.0}
    if math.isfinite(op.neutral):
        cands.add(op.neutral)
    cands = {t for t in cands if t <= max(vals)}
    return max(eval_op(op, t, weak_mask_measure(m, vals, t)) for t in cands)


def brute_reverse(op, m, f):
    vals = f.values
    cands = set(vals) | {0.0}
    return min(eval_op(op, t, strict_mask_measure(m, vals, t)) for t in cands)


# ---------------------------------------------------------------------------
# finite carrier: exactness against the oracles
# ---------------------------------------------------------------------------


def test_sugeno_matches_threshold_oracle_on_random_instances():
    rng = rng_of(101)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        res = sugeno(m, f)
        assert res.exact and res.tol == 0.0
        assert float(res) == brute_forward(min_op(), m, f)


def test_shilkret_matches_threshold_oracle_on_random_instances():
    rng = rng_of(103)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        assert float(shilkret(m, f)) == brute_forward(prod_op(), m, f)


def test_smallest_neutral_op_matches_oracle():
    rng = rng_of(107)
    op = smallest_op(1.0)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        assert float(universal_integral(op, m, f)) == brute_forward(op, m, f)


def test_reverse_integrals_match_oracle():
    rng = rng_of(109)
    for op in (max_op(1.0), probsum_op()):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = random_measure(rng, n)
            f = random_finite_function(rng, n)
            assert float(semiconormed_integral(op, m, f)) == brute_reverse(op, m, f)


def test_seminormed_agrees_with_unbounded_twin_on_unit_data():
    rng = rng_of(113)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        assert float(seminormed_integral(min_op(1.0), m, f)) == float(sugeno(m, f))
        assert float(seminormed_integral(prod_op(1.0), m, f)) == float(shilkret(m, f))


def test_seminormed_supports_lukasiewicz():
    m = counting_measure(2, normalized=True)
    f = FiniteFunction((0.6, 0.9))
    got = float(seminormed_integral(lukasiewicz_op(), m, f))
    assert got == brute_forward(lukasiewicz_op(), m, f)


def test_step_function_integrates_to_op_of_level_and_measure():
    # c on a subset A, zero elsewhere: the integral is exactly c (op) m(A)
    rng = rng_of(127)
    for op in (min_op(), prod_op(), smallest_op(1.0)):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = random_measure(rng, n)
            mask = int(rng.integers(1, 1 << n))
            c = float(rng.uniform(0.05, 1.0))
            vals = tuple(c if (mask >> i) & 1 else 0.0 for i in range(n))
            got = float(universal_integral(op, m, FiniteFunction(vals)))
            assert got == eval_op(op, c, m.value(mask))


# ---------------------------------------------------------------------------
# unit-interval carrier: closed forms
# ---------------------------------------------------------------------------


def test_threshold_min_closed_forms_on_lebesgue():
    leb = DistortedLebesgue(identity())
    assert float(sugeno(leb, PowerFunction(1.0))) == pytest.approx(0.5, abs=1e-12)
    # t = 1 - sqrt(t)  =>  t = (3 - sqrt(5)) / 2
    want = (3.0 - math.sqrt(5.0)) / 2.0
    assert float(sugeno(leb, PowerFunction(2.0))) == pytest.approx(want, abs=1e-9)
    # t = 1 - t^2  =>  the golden ratio conjugate
    assert float(sugeno(leb, PowerFunction(0.5))) == pytest.approx(GOLDEN, abs=1e-9)
    assert float(sugeno(leb, ConstFunction(0.73))) == pytest.approx(0.73, abs=1e-12)


def test_threshold_product_closed_forms_on_lebesgue():
    leb = DistortedLebesgue(identity())
    # max of t(1-t) is 1/4
    assert float(shilkret(leb, PowerFunction(1.0))) == pytest.approx(0.25, abs=1e-12)
    # max of t(1-t^2) is 2/(3*sqrt(3))
    want = 2.0 / (3.0 * math.sqrt(3.0))
    assert float(shilkret(leb, PowerFunction(0.5))) == pytest.approx(want, abs=1e-9)


def test_distorted_square_threshold_min():
    # weak(t) = (1-t)^2; fixed point solves t^2 - 3t + 1 = 0
    m = DistortedLebesgue(power(2.0))
    want = (3.0 - math.sqrt(5.0)) / 2.0
    assert float(sugeno(m, PowerFunction(1.0))) == pytest.approx(want, abs=1e-9)


def test_reverse_closed_forms_on_lebesgue():
    leb = DistortedLebesgue(identity())
    # inf of max(t, 1-t) is 1/2
    assert float(semiconormed_integral(max_op(1.0), leb, PowerFunction(1.0))) == pytest.approx(
        0.5, abs=1e-9
    )
    # inf of max(t, 1-t^2) sits at the golden ratio conjugate
    assert float(semiconormed_integral(max_op(1.0), leb, PowerFunction(0.5))) == pytest.approx(
        GOLDEN, abs=1e-9
    )


def test_smallest_neutral_closed_form_cases():
    leb = DistortedLebesgue(identity())
    # f = x: level measure at 1 is 0 and the essential infimum is 0
    assert float(smallest_e_integral(leb, PowerFunction(1.0), 1.0)) == 0.0
    # f = sqrt(x): still exactly 0, no refinement residue
    assert float(smallest_e_integral(leb, PowerFunction(0.5), 1.0)) == 0.0
    # a ramp bounded away from zero keeps its floor
    ramp = PwlFunction((0.0, 1.0), (0.4, 1.0))
    assert float(smallest_e_integral(leb, ramp, 1.0)) == 0.4
    # at e = 0.5 the level measure wins: length of {ramp >= 0.5} is 5/6
    got = float(smallest_e_integral(leb, ramp, 0.5))
    assert got == pytest.approx(5.0 / 6.0, abs=1e-12)
    # the sup reaches t = 3, where both t and m({f >= 3}) = 0.6 are at
    # least e, so the op takes their max; no essential infimum enters
    m = FiniteMonotoneMeasure(2, (0.0, 0.6, 0.0, 1.0))
    assert float(smallest_e_integral(m, FiniteFunction((3.0, 0.1)), 0.5)) == 3.0
    # both t and the level stay below e = 0.75, so every pairing is 0
    m = FiniteMonotoneMeasure(1, (0.0, 0.6471895115742501))
    assert float(smallest_e_integral(m, FiniteFunction((0.58,)), 0.75)) == 0.0
    # f = 2x: at t = 1 the level is 1/2, so t (op) level = max(1, 1/2) = 1
    got = float(smallest_e_integral(leb, PowerFunction(1.0, 2.0), 0.5))
    assert got == pytest.approx(1.0, abs=1e-9)


def test_declared_tolerance_is_honored_on_continuous_cases():
    leb = DistortedLebesgue(identity())
    for tol in (1e-6, 1e-9, 1e-12):
        res = sugeno(leb, PowerFunction(0.5), tol=tol)
        assert res.tol == tol
        assert abs(float(res) - GOLDEN) <= tol


# ---------------------------------------------------------------------------
# independent dense-sampling oracle for the continuous carrier
# ---------------------------------------------------------------------------


def sampled_forward(op, distortion, f, t_grid, x_samples):
    fx = np.array([eval_at(f, float(x)) for x in x_samples])
    best = 0.0
    for t in t_grid:
        frac = float(np.mean(fx >= t))
        w = distortion.apply(frac)
        best = max(best, eval_op(op, float(t), w))
    return best


def test_continuous_values_agree_with_dense_sampling():
    xs = np.linspace(0.0, 1.0, 200001)
    ts = np.linspace(0.0, 1.0, 2001)
    cases = [
        (identity(), PowerFunction(1.0)),
        (identity(), PowerFunction(0.5)),
        (power(2.0), PowerFunction(1.0)),
        (identity(), PwlFunction((0.0, 0.5, 1.0), (0.1, 0.8, 0.9))),
    ]
    for g, f in cases:
        m = DistortedLebesgue(g)
        for op in (min_op(), prod_op()):
            got = float(universal_integral(op, m, f))
            ref = sampled_forward(op, g, f, ts, xs)
            # ref errs by a t-grid cell plus the level-fraction bias
            assert got == pytest.approx(ref, abs=1e-3)


# ---------------------------------------------------------------------------
# input guards
# ---------------------------------------------------------------------------


def test_forward_integral_requires_zero_annihilator():
    with pytest.raises(InputError):
        universal_integral(max_op(1.0), counting_measure(2), FiniteFunction((0.5, 0.5)))


def test_seminormed_rejects_unbounded_ops_and_data():
    m = counting_measure(2, normalized=True)
    with pytest.raises(InputError):
        seminormed_integral(min_op(), m, FiniteFunction((0.5, 0.5)))
    with pytest.raises(InputError):
        seminormed_integral(min_op(1.0), m, FiniteFunction((0.5, 1.5)))
    with pytest.raises(InputError):
        seminormed_integral(min_op(1.0), counting_measure(2), FiniteFunction((0.5, 0.5)))


def test_reverse_integral_requires_zero_neutral():
    with pytest.raises(InputError):
        semiconormed_integral(min_op(1.0), counting_measure(2, normalized=True),
                              FiniteFunction((0.5, 0.5)))
    with pytest.raises(InputError):
        smallest_e_integral(counting_measure(2), FiniteFunction((0.5, 0.5)), 0.0)


def test_transform_argument_integrates_composite():
    leb = DistortedLebesgue(identity())
    direct = float(sugeno(leb, PowerFunction(2.0)))
    # the profile of transform(f) is composed from the profile of f
    f = TransformedFunction(PowerFunction(1.0), power(2.0))
    composed = float(universal_integral(min_op(), leb, f))
    assert composed == pytest.approx(direct, abs=1e-9)
