"""Monotone measure invariants and survival-profile evaluation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyint import (
    CappedFunction,
    DistortedLebesgue,
    FiniteFunction,
    FiniteMonotoneMeasure,
    FlooredFunction,
    InputError,
    LatticeCombo,
    PowerFunction,
    PwlFunction,
    TransformedFunction,
    affine,
    compose,
    counting_measure,
    identity,
    power,
    survival,
)
from fuzzyint.harness import _cardinality_order, random_table_measure
from fuzzyint.measures import MAX_GROUND_SET
from conftest import is_monotone_table, random_measure, rng_of


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_constructor_rejects_malformed_tables():
    with pytest.raises(InputError):
        FiniteMonotoneMeasure(2, (0.0, 0.5, 0.5))  # wrong size
    with pytest.raises(InputError):
        FiniteMonotoneMeasure(1, (0.1, 1.0))  # empty set not 0
    with pytest.raises(InputError):
        FiniteMonotoneMeasure(1, (0.0, 0.0))  # full set not positive
    with pytest.raises(InputError):
        FiniteMonotoneMeasure(1, (0.0, -1.0))
    with pytest.raises(InputError, match="bad measure value nan"):
        FiniteMonotoneMeasure(2, (0.0, math.nan, 0.2, 1.0))
    with pytest.raises(InputError, match="bad measure value -0.1"):
        FiniteMonotoneMeasure(2, (0.0, 0.3, -0.1, 1.0))
    with pytest.raises(InputError):
        FiniteMonotoneMeasure(0, (1.0,))


def test_constructor_rejects_non_monotone_table():
    # {0} has larger measure than {0,1}
    with pytest.raises(InputError, match=r"^measure is not monotone: m\(1\) > m\(3\)$"):
        FiniteMonotoneMeasure(2, (0.0, 0.9, 0.1, 0.5))
    with pytest.raises(InputError, match=r"^measure is not monotone: m\(1\) > m\(3\)$"):
        FiniteMonotoneMeasure(2, (0.0, 1.5, 0.2, 1.0))
    # the first failing pair in order: bit by bit, then by mask ascending
    with pytest.raises(InputError, match=r"m\(4\) > m\(5\)$"):
        FiniteMonotoneMeasure(3, (0.0, 0.1, 0.1, 0.2, 0.9, 0.5, 0.3, 1.0))
    # ties and infinite values in order pass
    assert FiniteMonotoneMeasure(2, (0.0, 1.0, math.inf, math.inf)).total == math.inf


def _old_first_unordered(table, n):
    """The reference scan: every covering pair enumerated as index arrays,
    bit by bit and S ascending, then the first pair out of order."""
    masks = np.arange(1 << n)
    lo = np.concatenate([masks[masks & (1 << b) == 0] for b in range(n)])
    hi = lo | np.repeat(1 << np.arange(n), 1 << (n - 1))
    arr = np.asarray(table, dtype=float)
    ordered = arr[lo] <= arr[hi]
    if ordered.all():
        return None
    k = int(np.argmin(ordered))
    return int(lo[k]), int(hi[k])


@pytest.mark.parametrize("n", range(1, 9))
def test_strided_scan_names_the_pair_the_enumeration_names(n):
    rng = rng_of(100 + n)
    for trial in range(40):
        table = rng.uniform(0.0, 1.0, size=1 << n)
        # a few swaps in a sorted table leave one or several pairs out of order
        if trial % 2:
            table = np.sort(table)[_cardinality_order(n).argsort()]
            for _ in range(int(rng.integers(1, 4))):
                i, j = rng.integers(1, 1 << n, size=2)
                table[i], table[j] = table[j], table[i]
        table[0] = 0.0
        table[-1] = table.max() + 1.0
        table = tuple(table.tolist())
        pair = _old_first_unordered(table, n)
        if pair is None:
            assert FiniteMonotoneMeasure(n, table).table == table
            continue
        with pytest.raises(InputError, match=rf"^measure is not monotone: m\({pair[0]}\) > m\({pair[1]}\)$"):
            FiniteMonotoneMeasure(n, table)


@pytest.mark.parametrize("n", [0, -1, MAX_GROUND_SET + 1])
def test_builders_refuse_a_bad_size_before_building_the_table(n):
    # n = 0 must not reach the 1 / n of a normalised counting table, nor
    # n = -1 the shift 1 << n
    msg = rf"^ground set size must be in 1\.\.{MAX_GROUND_SET}$"
    for normalized in (True, False):
        with pytest.raises(InputError, match=msg):
            counting_measure(n, normalized=normalized)
        with pytest.raises(InputError, match=msg):
            random_table_measure(rng_of(0), n, normalized=normalized)


def test_tables_built_monotone_pass_the_public_constructor():
    for normalized in (True, False):
        for n in range(1, 13):
            m = random_table_measure(rng_of(n), n, normalized=normalized)
            assert FiniteMonotoneMeasure(n, m.table) == m
            c = counting_measure(n, normalized=normalized)
            assert FiniteMonotoneMeasure(n, c.table) == c


def test_counting_measure_counts_bits():
    m = counting_measure(3)
    assert m.value(0b000) == 0.0
    assert m.value(0b101) == 2.0
    assert m.value(0b111) == 3.0
    mn = counting_measure(4, normalized=True)
    assert mn.total == 1.0
    assert mn.value(0b0011) == 0.5


def test_random_tables_are_valid_and_normalized():
    rng = rng_of(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = random_measure(rng, n, normalized=True)
        assert is_monotone_table(m)
        assert m.total == 1.0
    m = random_measure(rng, 4, normalized=False)
    assert is_monotone_table(m)


def test_distortion_must_pin_zero():
    with pytest.raises(InputError):
        DistortedLebesgue(affine(1.0, 0.5))
    assert DistortedLebesgue(power(2.0)).total == 1.0
    assert DistortedLebesgue(affine(2.0)).total == 2.0


def test_distortions_are_monotone_by_construction():
    # g(x) = (x - 0.3)**2 - 0.09 sends 0 to 0 but falls to -0.09 at 0.3
    with pytest.raises(InputError, match="offset b >= 0"):
        DistortedLebesgue(compose(affine(1.0, -0.3), power(2.0), affine(1.0, -0.09)))


# ---------------------------------------------------------------------------
# survival profiles, finite carrier
# ---------------------------------------------------------------------------


def brute_weak(m: FiniteMonotoneMeasure, vals, t: float) -> float:
    mask = 0
    for i, v in enumerate(vals):
        if v >= t:
            mask |= 1 << i
    return m.table[mask]


def brute_strict(m: FiniteMonotoneMeasure, vals, t: float) -> float:
    mask = 0
    for i, v in enumerate(vals):
        if v > t:
            mask |= 1 << i
    return m.table[mask]


# a coarse lattice makes ties common; -0.0 ties with 0.0
profile_value_st = st.one_of(
    st.sampled_from((-0.0, 0.0, 0.25, 0.5, 1.0, math.inf)), st.floats(0.0, 2.0)
)


@st.composite
def finite_pair_st(draw):
    n = draw(st.integers(1, 6))
    values = draw(st.lists(profile_value_st, min_size=n, max_size=n))
    m = random_measure(rng_of(draw(st.integers(0, 2**32 - 1))), n)
    return m, FiniteFunction(tuple(values))


@given(finite_pair_st())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_finite_profile_matches_bitmask_oracle(pair):
    m, f = pair
    prof = survival(m, f)
    assert prof.exact
    cands = prof.candidates
    assert cands == tuple(sorted(set(f.values)))
    mids = [a + (b - a) / 2.0 for a, b in zip(cands, cands[1:])]
    above = [prof.t_max + 1.0, math.nextafter(prof.t_max, math.inf)]
    # no value is >= or > NaN, so both levels read m(empty)
    for t in list(cands) + mids + [0.0, -1.0, math.nan] + above:
        assert prof.weak(t) == brute_weak(m, f.values, t)
        assert prof.strict(t) == brute_strict(m, f.values, t)


def _per_call_table_measure(rng, n, normalized=True):
    """The reference table: the popcount order is computed on every call."""
    size = 1 << n
    draws = np.sort(rng.uniform(0.0, 1.0, size=size))
    masks = np.arange(size)
    cardinality = sum((masks >> b) & 1 for b in range(n))
    table = np.empty(size)
    table[np.argsort(cardinality, kind="stable")] = draws
    table[0] = 0.0
    if table[-1] <= 0.0:
        table[-1] = 1.0
    if normalized:
        table /= table[-1]
        table[-1] = 1.0
    return FiniteMonotoneMeasure(n, tuple(table.tolist()))


@pytest.mark.parametrize("normalized", [True, False])
def test_random_table_matches_per_call_order(normalized):
    for n in range(1, 13):
        got = random_table_measure(rng_of(n), n, normalized=normalized)
        assert got == _per_call_table_measure(rng_of(n), n, normalized=normalized)


def test_cached_cardinality_order_is_read_only():
    order = _cardinality_order(3)
    assert order.tolist() == [0, 1, 2, 4, 3, 5, 6, 7]
    with pytest.raises(ValueError):
        order[0] = 7
    assert _cardinality_order(3) is order


def test_finite_profile_at_zero_and_beyond_max():
    m = counting_measure(3, normalized=True)
    f = FiniteFunction((0.2, 0.5, 0.9))
    prof = survival(m, f)
    assert prof.weak(0.0) == m.total
    assert prof.weak(0.9) == pytest.approx(1.0 / 3.0)
    assert prof.weak(0.95) == 0.0
    assert prof.strict(0.9) == 0.0


# ---------------------------------------------------------------------------
# survival profiles, unit interval carrier
# ---------------------------------------------------------------------------


def test_power_function_level_lengths():
    leb = DistortedLebesgue(identity())
    prof = survival(leb, PowerFunction(2.0))
    # {x^2 >= t} = [sqrt(t), 1]
    for t in (0.0, 0.25, 0.5, 0.81, 1.0):
        assert prof.weak(t) == pytest.approx(1.0 - math.sqrt(t), abs=1e-15)


def test_distorted_level_values():
    m = DistortedLebesgue(power(2.0))
    prof = survival(m, PowerFunction(1.0))
    # {x >= t} has length 1-t, distorted to (1-t)^2
    assert prof.weak(0.5) == pytest.approx(0.25, abs=1e-15)
    assert prof.weak(0.0) == 1.0
    assert prof.weak(1.0) == 0.0


def test_pwl_ramp_level_lengths():
    leb = DistortedLebesgue(identity())
    f = PwlFunction((0.0, 1.0), (0.4, 1.0))
    prof = survival(leb, f)
    assert prof.weak(0.2) == 1.0
    assert prof.weak(0.4) == 1.0
    assert prof.weak(0.7) == pytest.approx(0.5, abs=1e-12)
    assert prof.weak(1.0) == pytest.approx(0.0, abs=1e-12)


def test_capped_and_floored_levels():
    leb = DistortedLebesgue(identity())
    capped = survival(leb, CappedFunction(PowerFunction(1.0), 0.6))
    assert capped.weak(0.5) == pytest.approx(0.5, abs=1e-15)
    assert capped.weak(0.6) == pytest.approx(0.4, abs=1e-15)
    assert capped.weak(0.7) == 0.0
    floored = survival(leb, FlooredFunction(PowerFunction(1.0), 0.3))
    assert floored.weak(0.3) == 1.0
    assert floored.weak(0.5) == pytest.approx(0.5, abs=1e-15)


def test_lattice_combo_levels():
    leb = DistortedLebesgue(identity())
    a = PwlFunction((0.0, 1.0), (0.0, 1.0))
    b = PwlFunction((0.0, 1.0), (0.5, 1.0))
    lo = survival(leb, LatticeCombo("min", (a, b)))
    hi = survival(leb, LatticeCombo("max", (a, b)))
    # min of the two ramps equals x everywhere below 0.5+0.5x
    assert lo.weak(0.5) == pytest.approx(0.5, abs=1e-15)
    # max equals 0.5+0.5x, so {max >= 0.75} = [0.5, 1]
    assert hi.weak(0.75) == pytest.approx(0.5, abs=1e-15)


def test_transform_pulls_levels_back():
    leb = DistortedLebesgue(identity())
    base = PowerFunction(2.0)
    tr = compose(affine(0.5, 0.0), power(1.0))
    prof_base = survival(leb, base)
    prof_tr = survival(leb, TransformedFunction(base, tr))
    for t in (0.1, 0.3, 0.9):
        assert prof_tr.weak(tr.apply(t)) == pytest.approx(prof_base.weak(t), abs=1e-12)
