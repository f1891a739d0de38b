"""Deterministic instance generation, campaigns, shrinking, the fixture."""

from __future__ import annotations

import json
import time

import pytest

from fuzzyint import (
    CampaignConfig,
    InputError,
    gen_instance,
    instance_digest,
    instance_from_json,
    max_op,
    min_op,
    probsum_op,
    prod_op,
    reproduce_paper,
    run_campaign,
    validate_measure,
    verify,
)


def chebyshev_config(trials=50, seed=424242, **kw):
    base = dict(
        theorem_id="chebyshev",
        seed=seed,
        trials=trials,
        carrier="finite",
        n_range=(2, 8),
        op_pool=(min_op(1.0),),
        star_pool=(min_op(1.0), prod_op(1.0)),
        respect_hypotheses=True,
        normalize_measure=True,
    )
    base.update(kw)
    return CampaignConfig(**base)


def falsifier_config(trials=200, seed=77):
    return CampaignConfig(
        theorem_id="star_general",
        seed=seed,
        trials=trials,
        carrier="finite",
        n_range=(2, 6),
        op_pool=(min_op(1.0),),
        star_pool=(min_op(1.0),),
        exponent_ranges=(("xi1", (0.3, 0.8)), ("xi2", (0.3, 0.8))),
        respect_hypotheses=False,
        normalize_measure=True,
    )


# ---------------------------------------------------------------------------
# deterministic generation
# ---------------------------------------------------------------------------


def test_same_trial_regenerates_bit_identically():
    cfg = chebyshev_config()
    for idx in (0, 7, 49):
        a = gen_instance(cfg, idx)
        b = gen_instance(cfg, idx)
        assert instance_digest(a) == instance_digest(b)


def test_different_trials_draw_different_instances():
    cfg = chebyshev_config()
    digests = {instance_digest(gen_instance(cfg, i)) for i in range(30)}
    assert len(digests) == 30


def test_different_seeds_decorrelate():
    a = gen_instance(chebyshev_config(seed=1), 0)
    b = gen_instance(chebyshev_config(seed=2), 0)
    assert instance_digest(a) != instance_digest(b)


def test_generated_instances_are_well_formed():
    cfg = chebyshev_config(trials=40)
    for i in range(40):
        inst = gen_instance(cfg, i)
        assert validate_measure(inst.measure).passed
        assert inst.measure.total == 1.0
        assert 2 <= inst.measure.n <= 8
        for f in inst.functions:
            assert max(f.values) <= 1.0


def test_respecting_generator_meets_hypotheses():
    cfg = chebyshev_config(trials=60)
    for i in range(60):
        v = verify(gen_instance(cfg, i))
        assert v.hypotheses_met


def test_lyapunov_orders_sorted_when_respecting():
    cfg = CampaignConfig(
        theorem_id="lyapunov",
        seed=5,
        trials=40,
        carrier="finite",
        op_pool=(min_op(1.0),),
        exponent_ranges=(("r", (0.05, 3.0)), ("s", (0.05, 3.0))),
        respect_hypotheses=True,
    )
    for i in range(40):
        inst = gen_instance(cfg, i)
        assert 0.0 < inst.exponent("r") <= inst.exponent("s") <= 3.0


def test_config_validation():
    with pytest.raises(InputError):
        chebyshev_config(theorem_id="nope")
    with pytest.raises(InputError):
        chebyshev_config(trials=-1)
    with pytest.raises(InputError):
        chebyshev_config(carrier="finite", measure_family="distorted")


@pytest.mark.parametrize("n_range", [(30, 30), (21, 21), (5, 2), (0, 3), (3,), (1, 2, 3)])
def test_finite_n_range_is_bounded_before_anything_is_drawn(n_range):
    # (30, 30) would ask for a 2**30 table if the bound were checked late
    with pytest.raises(InputError, match="n_range"):
        chebyshev_config(n_range=n_range)


def test_n_range_bounds_only_the_finite_carrier():
    cfg = chebyshev_config(
        carrier="lebesgue_power", measure_family="distorted", n_range=(30, 30),
        op_pool=(min_op(),), star_pool=(min_op(),),
    )
    assert cfg.n_range == (30, 30)
    assert chebyshev_config(n_range=(1, 20)).n_range == (1, 20)


def test_negative_seed_is_rejected():
    with pytest.raises(InputError, match="seed"):
        chebyshev_config(seed=-1)


@pytest.mark.parametrize(
    "patch, needle",
    [
        ({"trials": "many"}, "malformed"),
        ({"seed": None}, "malformed"),
        ({"n_range": 5}, "malformed"),
        ({"op_pool": ["min"]}, "malformed"),
        ({"exponent_ranges": [1, 2]}, "malformed"),
        ({"exponent_ranges": {"xi1": [0.3]}}, "malformed"),
    ],
)
def test_config_json_with_mistyped_fields_is_an_input_error(patch, needle):
    doc = dict(falsifier_config().to_json(), **patch)
    with pytest.raises(InputError, match=needle):
        CampaignConfig.from_json(doc)


@pytest.mark.parametrize("field", ["theorem", "seed", "trials"])
def test_config_json_with_missing_fields_is_an_input_error(field):
    doc = falsifier_config().to_json()
    del doc[field]
    with pytest.raises(InputError, match=f"needs field '{field}'"):
        CampaignConfig.from_json(doc)


def test_extended_scale_with_cap_one_ops_is_refused_before_the_header():
    records = []
    cfg = chebyshev_config(scale="extended", respect_hypotheses=False, seed=3,
                           op_pool=(prod_op(1.0),), star_pool=(min_op(1.0),))
    with pytest.raises(InputError, match="cap 1: prod, min"):
        run_campaign(cfg, on_record=records.append)
    assert records == []
    # uncapped pools run on extended data
    cfg = chebyshev_config(trials=20, scale="extended", op_pool=(min_op(),), star_pool=(prod_op(),))
    assert run_campaign(cfg).trials == 20


def test_config_json_round_trip():
    cfg = falsifier_config()
    back = CampaignConfig.from_json(cfg.to_json())
    assert back == cfg
    assert instance_digest(gen_instance(back, 3)) == instance_digest(gen_instance(cfg, 3))


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def test_respecting_campaign_is_clean_and_exits_zero():
    rep = run_campaign(chebyshev_config(trials=120))
    assert rep.trials == 120
    assert rep.hypothesis_pass_count == 120
    assert rep.violations == ()
    assert rep.exit_code == 0


def test_falsifying_campaign_finds_violations_and_exits_one():
    rep = run_campaign(falsifier_config())
    assert rep.violations
    assert rep.exit_code == 1
    first = rep.violations[0]
    assert first.margin < 0.0


def test_violations_reverify_in_isolation():
    cfg = falsifier_config(trials=60)
    rep = run_campaign(cfg)
    assert rep.violations
    for rec in rep.violations[:10]:
        inst = gen_instance(cfg, rec.trial_index)
        assert instance_digest(inst) == rec.digest
        v = verify(inst)
        assert not v.holds
        assert v.margin == rec.margin


def test_shrunk_instances_still_violate():
    cfg = falsifier_config(trials=40)
    rep = run_campaign(cfg)
    shrunk_seen = 0
    for rec in rep.violations:
        if rec.shrunk is None:
            continue
        shrunk_seen += 1
        small = instance_from_json(rec.shrunk)
        assert small.measure.n <= instance_from_json(rec.instance).measure.n
        v = verify(small)
        assert not v.holds
        assert v.margin == rec.shrunk_margin
    assert shrunk_seen > 0


def test_ndjson_stream_is_parseable_and_complete():
    seen = []
    rep = run_campaign(falsifier_config(trials=30), on_record=seen.append)
    assert seen[0]["record"] == "header"
    assert seen[0]["prng"] == "philox4x64"
    assert seen[-1]["record"] == "summary"
    body = [r for r in seen if r["record"] == "violation"]
    assert len(body) == len(rep.violations)
    text = rep.to_ndjson()
    lines = text.strip().split("\n")
    assert len(lines) == len(rep.violations) + 2
    for line in lines:
        json.loads(line)
    summary = json.loads(lines[-1])
    assert summary["trials"] == 30
    assert len(summary["violations"]) == len(rep.violations)


# ---------------------------------------------------------------------------
# the built-in fixture
# ---------------------------------------------------------------------------


def test_fixture_reproduces_known_values_quickly():
    t0 = time.perf_counter()
    rep = reproduce_paper()
    dt = time.perf_counter() - t0
    assert rep.ok
    vals = dict(rep.values)
    assert vals["const"] == 1.0
    assert abs(vals["identity"] - 0.5) <= 1e-12
    assert not rep.verdict.holds
    assert dt < 1.0
