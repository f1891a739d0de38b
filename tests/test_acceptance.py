"""Release gate: nine checks, one test (and one pass/fail line) each.

 1. built-in fixture reproduces its three integral values and the failing
    verdict, under one second
 2. 10,000-trial threshold-min campaign over comonotone pairs, clean,
    lattice subcases at zero tolerance, under sixty seconds
 3. closed-form evaluation agrees with a 10,000-node threshold grid
 4. integral axioms: monotonicity, step functions, relabeling invariance
 5. 1,000 convex-transform instances with pre-verified hypotheses
 6. 1,000 moment-order instances, r <= s drawn from (0, 3]
 7. 1,000 reverse-direction instances under Max and probabilistic sum
 8. sort-based comonotonicity check vs the quadratic definition, 10,000 pairs
 9. sub-unit exponent regime yields violations that re-verify in isolation
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fuzzyint import (
    CampaignConfig,
    FiniteFunction,
    FiniteMonotoneMeasure,
    TheoremInstance,
    check_distributivity,
    eval_op,
    gen_instance,
    instance_digest,
    is_comonotone,
    make_comonotone_system,
    max_op,
    min_op,
    power,
    probsum_op,
    prod_op,
    reproduce_paper,
    run_campaign,
    smallest_op,
    sugeno,
    universal_integral,
    verify,
)
from conftest import random_finite_function, random_measure, rng_of

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_01_fixture_values_and_failing_verdict_under_one_second():
    t0 = time.perf_counter()
    rep = reproduce_paper()
    elapsed = time.perf_counter() - t0
    vals = dict(rep.values)
    assert abs(vals["sqrt"] - GOLDEN) <= 1e-9
    assert vals["const"] == 1.0
    assert abs(vals["identity"] - 0.5) <= 1e-12
    assert rep.verdict.holds is False
    assert abs(rep.verdict.margin - (-0.11803399)) <= 1e-8
    assert not rep.verdict.hypothesis_report.check("exponent_condition").passed
    assert rep.ok
    assert elapsed < 1.0


def test_02_comonotone_min_campaign_clean_in_budget():
    cfg = CampaignConfig(
        theorem_id="chebyshev",
        seed=20250825,
        trials=10_000,
        carrier="finite",
        n_range=(2, 8),
        op_pool=(min_op(1.0),),
        star_pool=(min_op(1.0), prod_op(1.0)),
        respect_hypotheses=True,
        normalize_measure=True,
        scale="unit",
    )
    t0 = time.perf_counter()
    star_counts = {"min": 0, "prod": 0}
    for i in range(cfg.trials):
        inst = gen_instance(cfg, i)
        v = verify(inst)
        assert v.holds, f"trial {i}: margin {v.margin}"
        star_counts[inst.star.kind] += 1
        if inst.star.kind == "min":
            assert v.tol == 0.0, f"trial {i}: lattice subcase ran at tol {v.tol}"
    elapsed = time.perf_counter() - t0
    assert star_counts["min"] > 0 and star_counts["prod"] > 0
    assert elapsed < 60.0, f"campaign took {elapsed:.1f}s"


def test_03_closed_form_matches_dense_threshold_grid():
    rng = rng_of(333)
    nodes = 10_000
    ops = (min_op(), prod_op(), smallest_op(1.0))
    for _ in range(1_000):
        n = int(rng.integers(1, 9))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        vals = np.array(f.values)
        fmax = float(vals.max())
        if fmax == 0.0:
            continue
        order = np.argsort(vals)
        sorted_vals = vals[order]
        # level masks after stripping, in threshold order
        masks = np.empty(n + 1, dtype=np.int64)
        mask = (1 << n) - 1
        masks[0] = mask
        for k in range(n):
            mask &= ~(1 << int(order[k]))
            masks[k + 1] = mask
        level_measure = np.array([m.table[int(s)] for s in masks])
        ts = np.linspace(0.0, fmax, nodes)
        idx = np.searchsorted(sorted_vals, ts, side="left")
        w = level_measure[idx]
        cell = fmax / (nodes - 1)
        for op in ops:
            got = float(universal_integral(op, m, f))
            if op.kind == "min":
                grid = np.minimum(ts, w)
            elif op.kind == "prod":
                grid = ts * w
            else:
                grid = np.where(ts >= 1.0, w, np.where(w >= 1.0, ts, 0.0))
            grid_sup = float(grid.max())
            assert got >= grid_sup - 1e-12
            assert got <= grid_sup + cell + 1e-12


def test_04_integral_axioms_on_random_instances():
    rng = rng_of(444)
    ops = (min_op(), prod_op(), smallest_op(1.0))
    for trial in range(1_000):
        op = ops[trial % 3]
        n = int(rng.integers(1, 8))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        base = float(universal_integral(op, m, f))

        # monotone in the integrand
        lifted = tuple(min(v + float(d), 1.0)
                       for v, d in zip(f.values, rng.uniform(0.0, 0.3, n)))
        assert float(universal_integral(op, m, FiniteFunction(lifted))) >= base

        # monotone in the measure
        other = random_measure(rng, n)
        bigger = FiniteMonotoneMeasure(
            n, tuple(max(a, b) for a, b in zip(m.table, other.table))
        )
        assert float(universal_integral(op, bigger, f)) >= base

        # step functions evaluate to level (op) measure, exactly
        mask = int(rng.integers(1, 1 << n))
        c = float(rng.uniform(0.05, 1.0))
        step = FiniteFunction(tuple(c if (mask >> i) & 1 else 0.0 for i in range(n)))
        assert float(universal_integral(op, m, step)) == eval_op(op, c, m.value(mask))

        # relabeling invariance, exactly
        perm = rng.permutation(n)
        pf = FiniteFunction(tuple(f.values[int(perm[i])] for i in range(n)))
        table = []
        for s in range(1 << n):
            pmask = 0
            for i in range(n):
                if (s >> i) & 1:
                    pmask |= 1 << int(perm[i])
            table.append(m.table[pmask])
        pm = FiniteMonotoneMeasure(n, tuple(table))
        assert float(universal_integral(op, pm, pf)) == base


def test_05_convex_transform_suite_with_preverified_hypotheses():
    rng = rng_of(555)
    powers = (1.0, 1.5, 2.0, 3.0)
    xs = np.linspace(0.0, 1.0, 101)
    for p in powers:
        phi = power(p)
        assert all(phi.apply(float(x)) <= float(x) + 1e-12 for x in xs)
        assert check_distributivity(phi, min_op(1.0), "sub").passed
    for trial in range(1_000):
        p = powers[trial % 4]
        n = int(rng.integers(1, 8))
        m = random_measure(rng, n)
        f = random_finite_function(rng, n)
        inst = TheoremInstance("jensen", min_op(1.0), m, [f], phi=[power(p)])
        v = verify(inst)
        assert v.tol <= 1e-9
        assert v.holds, f"trial {trial}: p={p}, margin {v.margin}"


def test_06_moment_order_suite_r_below_s():
    cfg = CampaignConfig(
        theorem_id="lyapunov",
        seed=666,
        trials=1_000,
        carrier="finite",
        n_range=(2, 8),
        op_pool=(min_op(1.0),),
        exponent_ranges=(("r", (0.05, 3.0)), ("s", (0.05, 3.0))),
        respect_hypotheses=True,
        normalize_measure=True,
        scale="unit",
    )
    for i in range(cfg.trials):
        inst = gen_instance(cfg, i)
        r, s = inst.exponent("r"), inst.exponent("s")
        assert 0.0 < r <= s <= 3.0
        v = verify(inst)
        assert v.tol <= 1e-9
        assert v.holds, f"trial {i}: r={r}, s={s}, margin {v.margin}"


def test_07_reverse_suite_under_max_and_probabilistic_sum():
    cfg = CampaignConfig(
        theorem_id="rev_chebyshev",
        seed=777,
        trials=1_000,
        carrier="finite",
        n_range=(2, 8),
        op_pool=(max_op(1.0),),
        star_pool=(max_op(1.0), probsum_op()),
        respect_hypotheses=True,
        normalize_measure=True,
        scale="unit",
    )
    stars = set()
    for i in range(cfg.trials):
        inst = gen_instance(cfg, i)
        stars.add(inst.star.kind)
        v = verify(inst)
        assert v.direction == "<="
        assert v.tol <= 1e-9
        assert v.holds, f"trial {i}: margin {v.margin}"
    assert stars == {"max", "probsum"}


def test_08_sort_check_equals_quadratic_definition():
    rng = rng_of(888)
    disagreements = 0
    for trial in range(10_000):
        n = int(rng.integers(2, 11))
        if trial % 2 == 0:
            f, g = make_comonotone_system(int(rng.integers(0, 2**31)), n, 2)
        else:
            f = FiniteFunction(tuple(float(v) for v in rng.uniform(0.0, 1.0, n)))
            g = FiniteFunction(tuple(float(v) for v in rng.uniform(0.0, 1.0, n)))
        got, _ = is_comonotone(f, g)
        want = all(
            (f.values[i] - f.values[j]) * (g.values[i] - g.values[j]) >= 0.0
            for i in range(n)
            for j in range(i + 1, n)
        )
        if got != want:
            disagreements += 1
    assert disagreements == 0


def test_09_sub_unit_exponents_violate_and_reverify():
    cfg = CampaignConfig(
        theorem_id="star_general",
        seed=999,
        trials=10_000,
        carrier="finite",
        n_range=(2, 6),
        op_pool=(min_op(1.0),),
        star_pool=(min_op(1.0),),
        exponent_ranges=(("xi1", (0.3, 0.8)), ("xi2", (0.3, 0.8))),
        respect_hypotheses=False,
        normalize_measure=True,
        scale="unit",
        shrink=False,
    )
    report = run_campaign(cfg)
    assert len(report.violations) >= 1
    assert report.exit_code == 1
    for rec in report.violations:
        inst = gen_instance(cfg, rec.trial_index)
        assert instance_digest(inst) == rec.digest
        v = verify(inst)
        assert v.holds is False
        assert v.margin == rec.margin
