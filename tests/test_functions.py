"""Monotone transforms, function families, comonotonicity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyint import (
    CappedFunction,
    ConstFunction,
    FiniteFunction,
    FlooredFunction,
    InputError,
    LatticeCombo,
    PowerFunction,
    PwlFunction,
    TransformedFunction,
    UnsupportedError,
    affine,
    apply_transform,
    compose,
    eval_at,
    eval_op,
    identity,
    is_comonotone,
    is_countermonotone,
    lukasiewicz_op,
    make_comonotone_system,
    max_op,
    min_op,
    pointwise_combine,
    power,
    probsum_op,
    prod_op,
    sum_op,
    sup_value,
)
from fuzzyint import functions
from fuzzyint.functions import COMONOTONE_SAMPLES, EXTENDED_TOP
from conftest import rng_of

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_transform_apply_and_invert_round_trip():
    ts = [identity(), power(2.0), power(0.5), affine(2.0, 0.3),
          compose(power(2.0), affine(0.5, 0.1))]
    for t in ts:
        for x in (0.0, 0.2, 0.7, 1.0):
            y = t.apply(x)
            assert t.invert(y) == pytest.approx(x, abs=1e-12)


def test_transform_rejects_non_increasing_parameters():
    with pytest.raises(InputError):
        power(0.0)
    with pytest.raises(InputError):
        power(-2.0)
    with pytest.raises(InputError, match="finite p > 0"):
        power(math.inf)  # 0.5 would invert to 1
    with pytest.raises(InputError):
        affine(0.0, 1.0)
    with pytest.raises(InputError):
        affine(-1.0)
    # so every transform maps [0, inf) into itself without decreasing
    for a, b in ((1.0, -0.3), (1.0, math.nan), (1.0, math.inf), (math.nan, 0.0), (math.inf, 0.0)):
        with pytest.raises(InputError, match="finite slope a > 0 and finite offset b >= 0"):
            affine(a, b)


def test_compose_applies_left_to_right():
    t = compose(affine(2.0), power(2.0))  # (2x)^2
    assert t.apply(0.5) == pytest.approx(1.0, abs=1e-15)
    assert t.apply(3.0) == pytest.approx(36.0, abs=1e-12)
    s = compose(power(2.0), affine(2.0))  # 2 * x^2
    assert s.apply(0.5) == pytest.approx(0.5, abs=1e-15)


def test_affine_offset_shifts_zero():
    t = affine(1.0, 0.25)
    assert t.apply(0.0) == 0.25
    assert t.at_zero() == 0.25


# ---------------------------------------------------------------------------
# pointwise evaluation and suprema
# ---------------------------------------------------------------------------


def test_eval_at_matches_family_definitions():
    assert eval_at(ConstFunction(0.3), 0.9) == 0.3
    assert eval_at(PowerFunction(2.0), 0.5) == 0.25
    assert eval_at(PowerFunction(0.5, coef=2.0), 0.25) == 1.0
    assert eval_at(PwlFunction((0.0, 0.5, 1.0), (0.0, 1.0, 0.5)), 0.25) == pytest.approx(0.5)
    assert eval_at(CappedFunction(PowerFunction(1.0), 0.6), 0.9) == 0.6
    assert eval_at(FlooredFunction(PowerFunction(1.0), 0.3), 0.1) == 0.3
    assert eval_at(LatticeCombo("max", (PowerFunction(1.0), ConstFunction(0.4))), 0.2) == 0.4
    assert eval_at(TransformedFunction(PowerFunction(1.0), power(0.5)), 0.09) == pytest.approx(0.3)


def test_sup_value_per_family():
    assert sup_value(ConstFunction(0.3)) == 0.3
    assert sup_value(PowerFunction(3.0, coef=0.8)) == 0.8
    assert sup_value(PwlFunction((0.0, 0.5, 1.0), (0.0, 1.0, 0.5))) == 1.0
    assert sup_value(CappedFunction(PowerFunction(1.0), 0.6)) == 0.6
    assert sup_value(CappedFunction(PowerFunction(1.0), math.inf)) == 1.0
    assert sup_value(FiniteFunction((0.2, 0.9, 0.1))) == 0.9
    assert sup_value(TransformedFunction(PowerFunction(1.0), power(2.0))) == 1.0


def test_lattice_combo_requires_nondecreasing_parts():
    hump = PwlFunction((0.0, 0.5, 1.0), (0.0, 1.0, 0.0))
    with pytest.raises(InputError):
        LatticeCombo("min", (PowerFunction(1.0), hump))
    with pytest.raises(InputError):
        LatticeCombo("median", (PowerFunction(1.0),))


def test_function_constructors_reject_bad_values():
    with pytest.raises(InputError):
        FiniteFunction(())
    with pytest.raises(InputError):
        FiniteFunction((0.1, -0.2))
    with pytest.raises(InputError):
        PwlFunction((0.0, 0.5), (0.1, 0.2))  # does not span [0,1]
    with pytest.raises(InputError):
        PwlFunction((0.0, 0.5, 0.5, 1.0), (0.0, 0.1, 0.2, 0.3))
    with pytest.raises(InputError):
        ConstFunction(-0.1)
    for cap in (math.nan, -0.2):
        with pytest.raises(InputError, match="cap must be nonnegative"):
            CappedFunction(PowerFunction(1.0), cap)
    for floor in (math.nan, -3.0, math.inf):
        with pytest.raises(InputError, match="floor must be finite and nonnegative"):
            FlooredFunction(PowerFunction(1.0), floor)


# ---------------------------------------------------------------------------
# transformed functions compose pointwise
# ---------------------------------------------------------------------------


@given(x=unit)
@settings(max_examples=50, deadline=None)
def test_apply_transform_agrees_with_pointwise_composition(x):
    base = PwlFunction((0.0, 0.4, 1.0), (0.1, 0.5, 0.9))
    t = compose(power(2.0), affine(0.5, 0.05))
    g = apply_transform(t, base)
    assert eval_at(g, x) == pytest.approx(t.apply(eval_at(base, x)), abs=1e-12)


def test_apply_transform_on_finite_functions_maps_values():
    f = FiniteFunction((0.0, 0.5, 1.0))
    g = apply_transform(power(2.0), f)
    assert g.values == (0.0, 0.25, 1.0)


# ---------------------------------------------------------------------------
# comonotonicity
# ---------------------------------------------------------------------------


def brute_comonotone(fv, gv) -> bool:
    n = len(fv)
    for i in range(n):
        for j in range(n):
            if (fv[i] - fv[j]) * (gv[i] - gv[j]) < 0.0:
                return False
    return True


def test_comonotone_known_cases():
    f = FiniteFunction((0.1, 0.5, 0.9))
    g = FiniteFunction((0.2, 0.2, 0.8))
    ok, witness = is_comonotone(f, g)
    assert ok and witness is None

    h = FiniteFunction((0.9, 0.1, 0.5))
    ok, witness = is_comonotone(f, h)
    assert not ok
    i, j = witness
    assert (f.values[i] - f.values[j]) * (h.values[i] - h.values[j]) < 0.0


def test_countermonotone_flips_order():
    f = FiniteFunction((0.1, 0.5, 0.9))
    g = FiniteFunction((0.9, 0.4, 0.2))
    ok, _ = is_countermonotone(f, g)
    assert ok
    ok, _ = is_countermonotone(f, f)
    # constant-free strictly increasing pair is not countermonotone
    assert not ok


def test_countermonotone_witness_is_a_violating_pair_on_both_carriers():
    f = FiniteFunction((0.1, 0.5, 0.9))
    g = FiniteFunction((0.2, 0.2, 0.7))
    ok, (i, j) = is_countermonotone(f, g)
    assert not ok
    assert (f.values[i] - f.values[j]) * (g.values[i] - g.values[j]) > 0.0

    # the continuous carrier reports sample points, as is_comonotone does
    f, g = PowerFunction(1.0), PowerFunction(2.0)
    ok, (x, y) = is_countermonotone(f, g)
    assert not ok
    assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
    assert (eval_at(f, x) - eval_at(f, y)) * (eval_at(g, x) - eval_at(g, y)) > 0.0
    ok, witness = is_countermonotone(f, PwlFunction((0.0, 1.0), (0.8, 0.3)))
    assert ok and witness is None


def test_countermonotone_check_agrees_with_quadratic_oracle():
    rng = rng_of(29)
    for _ in range(500):
        n = int(rng.integers(2, 11))
        # quarter-step values, so ties within f and within g are common
        fv = tuple(float(v) for v in rng.integers(0, 5, n) / 4.0)
        gv = tuple(float(v) for v in rng.integers(0, 5, n) / 4.0)
        if rng.random() < 0.5:
            gv = tuple(sorted(gv, reverse=True))
            fv = tuple(sorted(fv))
        got, witness = is_countermonotone(FiniteFunction(fv), FiniteFunction(gv))
        want = all(
            (fv[i] - fv[j]) * (gv[i] - gv[j]) <= 0.0 for i in range(n) for j in range(n)
        )
        assert got == want
        if not got:
            i, j = witness
            assert (fv[i] - fv[j]) * (gv[i] - gv[j]) > 0.0


def test_sort_check_agrees_with_quadratic_oracle():
    rng = rng_of(23)
    for _ in range(500):
        n = int(rng.integers(2, 11))
        fv = tuple(float(v) for v in rng.uniform(0.0, 1.0, n))
        if rng.random() < 0.5:
            order = np.argsort(rng.uniform(0.0, 1.0, n))
            gv = tuple(float(v) for v in np.sort(rng.uniform(0.0, 1.0, n)))
            fv2 = tuple(sorted(fv))
            fv_use = tuple(fv2[k] for k in order)
            gv_use = tuple(gv[k] for k in order)
        else:
            fv_use = fv
            gv_use = tuple(float(v) for v in rng.uniform(0.0, 1.0, n))
        got, _ = is_comonotone(FiniteFunction(fv_use), FiniteFunction(gv_use))
        assert got == brute_comonotone(fv_use, gv_use)


def test_continuous_nondecreasing_pairs_are_comonotone():
    f = PowerFunction(2.0)
    g = PwlFunction((0.0, 1.0), (0.3, 0.8))
    ok, _ = is_comonotone(f, g)
    assert ok


def _uncached_check(f, g, counter):
    """The interval check on freshly drawn samples, witness points included."""
    xs = [i / (COMONOTONE_SAMPLES - 1) for i in range(COMONOTONE_SAMPLES)]
    sf, sg = functions._sampler(f), functions._sampler(g)
    fv = [sf(x) for x in xs]
    gv = [-sg(x) if counter else sg(x) for x in xs]
    ok, w = functions._comonotone_vectors(fv, gv)
    return (ok, w) if ok else (False, (xs[w[0]], xs[w[1]]))


SAMPLED_KINDS = (
    ConstFunction(0.4),
    PowerFunction(2.0, 1.5),
    PowerFunction(0.5),
    PwlFunction((0.0, 0.5, 1.0), (0.1, 0.9, 0.6)),
    PwlFunction((0.0, 0.25, 1.0), (0.8, 0.2, 0.1)),
    CappedFunction(PowerFunction(1.0), 0.6),
    FlooredFunction(PwlFunction((0.0, 1.0), (0.0, 0.9)), 0.3),
    LatticeCombo("min", (PowerFunction(2.0), PwlFunction((0.0, 1.0), (0.2, 0.7)))),
    TransformedFunction(PowerFunction(1.0), power(0.5)),
    PwlFunction([0.0, 1.0], [0.2, 0.7]),
)


@pytest.mark.parametrize("counter", [False, True], ids=["comonotone", "countermonotone"])
def test_cached_samples_check_as_freshly_drawn_ones(counter):
    # the structural answer for nondecreasing pairs is the sampled one
    check = is_countermonotone if counter else is_comonotone
    verdicts = set()
    for f in SAMPLED_KINDS:
        for g in SAMPLED_KINDS:
            want = _uncached_check(f, g, counter)
            assert check(f, g) == want, (f, g)
            verdicts.add(want[0])
    assert verdicts == {True, False}
    # a pwl bump against a power is no comonotone pair, witness included
    f, g = SAMPLED_KINDS[3], SAMPLED_KINDS[1]
    ok, witness = is_comonotone(f, g)
    assert not ok and (ok, witness) == _uncached_check(f, g, False)


def test_generated_systems_are_pairwise_comonotone():
    for seed in (1, 2, 3):
        fs = make_comonotone_system(seed, n=6, k=3)
        assert len(fs) == 3
        for a in fs:
            for b in fs:
                ok, _ = is_comonotone(a, b)
                assert ok


def _per_call_comonotone_system(seed, n, k, scale="unit"):
    """The reference system: one numpy call per draw, ranks by argsort."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    h = rng.random(n)
    ranks = np.empty(n, dtype=int)
    ranks[np.argsort(h, kind="stable")] = np.arange(n)
    out = []
    for _ in range(k):
        vals = np.sort(rng.random(n))[ranks]
        if scale == "extended":
            vals = vals * (0.5 + (EXTENDED_TOP - 0.5) * rng.random())
        out.append(FiniteFunction(tuple(vals.tolist())))
    return out


@pytest.mark.parametrize("scale", ["unit", "extended"])
def test_batched_comonotone_system_matches_per_call_draws(scale):
    for n in range(1, 13):
        for k in range(1, 5):
            seed = 100 * n + k
            got = make_comonotone_system(seed, n, k, scale)
            assert got == _per_call_comonotone_system(seed, n, k, scale)
            gen, ref = (np.random.Generator(np.random.Philox(key=seed)) for _ in range(2))
            assert make_comonotone_system(gen, n, k, scale) == _per_call_comonotone_system(
                ref, n, k, scale
            )
            # both read the same words, so the stream goes on from the same place
            assert gen.random() == ref.random()


def test_comonotone_system_refuses_an_unknown_scale():
    with pytest.raises(InputError, match="scale must be"):
        make_comonotone_system(1, 3, 2, scale="wide")


# ---------------------------------------------------------------------------
# pointwise combination
# ---------------------------------------------------------------------------


def test_pointwise_combine_matches_dense_sampling():
    f = PwlFunction((0.0, 0.5, 1.0), (0.1, 0.7, 0.4))
    g = PwlFunction((0.0, 0.3, 1.0), (0.6, 0.2, 0.9))
    h = pointwise_combine(min_op(1.0), f, g)
    for x in np.linspace(0.0, 1.0, 401):
        a, b = eval_at(f, float(x)), eval_at(g, float(x))
        assert eval_at(h, float(x)) == pytest.approx(min(a, b), abs=1e-9)
    # products stay inside the closed family only where they are exact
    pq = pointwise_combine(prod_op(1.0), PowerFunction(2.0), PowerFunction(1.0, coef=0.5))
    for x in np.linspace(0.0, 1.0, 101):
        assert eval_at(pq, float(x)) == pytest.approx(0.5 * float(x) ** 3, abs=1e-12)


def test_pointwise_product_of_generic_ramps_is_unsupported():
    from fuzzyint import UnsupportedError

    f = PwlFunction((0.0, 0.5, 1.0), (0.1, 0.7, 0.4))
    g = PwlFunction((0.0, 0.3, 1.0), (0.6, 0.2, 0.9))
    with pytest.raises(UnsupportedError):
        pointwise_combine(prod_op(1.0), f, g)


def test_pointwise_combine_finite_vectors():
    f = FiniteFunction((0.2, 0.8))
    g = FiniteFunction((0.5, 0.5))
    h = pointwise_combine(min_op(1.0), f, g)
    assert h.values == (0.2, 0.5)


# nondecreasing representatives of every unit-interval function kind, so
# every pair is comonotone; two powers share p, and the two ramps cross
COMBINE_KINDS = {
    "const": (ConstFunction(0.0), ConstFunction(0.4), ConstFunction(0.95)),
    "power": (PowerFunction(2.0, coef=0.8), PowerFunction(2.0, coef=0.5), PowerFunction(0.5)),
    "pwl": (
        PwlFunction((0.0, 0.5, 1.0), (0.1, 0.7, 0.9)),
        PwlFunction((0.0, 0.3, 1.0), (0.0, 0.8, 0.85)),
    ),
    "capped": (CappedFunction(PowerFunction(1.0), 0.6),),
    "floored": (FlooredFunction(PowerFunction(1.0), 0.3),),
    "lattice": (LatticeCombo("max", (PowerFunction(2.0), ConstFunction(0.2))),),
    "transformed": (TransformedFunction(PowerFunction(1.0), power(0.5)),),
}


def combine_is_supported(star, kf, f, kg, g) -> bool:
    """The pairs the closed family forms exactly, by star."""
    if kf == kg == "const":
        return True
    if star.kind in ("min", "max"):
        return True
    if star.kind == "prod":
        return "const" in (kf, kg) or kf == kg == "power"
    if star.kind == "sum":
        if "const" in (kf, kg) or kf == kg == "pwl":
            return True
        return kf == kg == "power" and f.p == g.p
    return False


@pytest.mark.parametrize(
    "star",
    [min_op(), max_op(), prod_op(), sum_op(), probsum_op(), lukasiewicz_op()],
    ids=lambda op: op.kind,
)
def test_pointwise_combine_agrees_with_the_op_at_the_sample_points(star):
    xs = [i / (COMONOTONE_SAMPLES - 1) for i in range(COMONOTONE_SAMPLES)]
    for kf, fs in COMBINE_KINDS.items():
        for kg, gs in COMBINE_KINDS.items():
            for f in fs:
                for g in gs:
                    if not combine_is_supported(star, kf, f, kg, g):
                        with pytest.raises(UnsupportedError):
                            pointwise_combine(star, f, g)
                        continue
                    h = pointwise_combine(star, f, g)
                    for x in xs:
                        want = eval_op(star, eval_at(f, x), eval_at(g, x))
                        got = eval_at(h, x)
                        assert math.isclose(got, want, rel_tol=1e-12), (kf, kg, f, g, x)
