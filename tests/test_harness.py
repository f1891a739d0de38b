"""Deterministic instance generation, campaigns, shrinking, the fixture."""

from __future__ import annotations

import collections
import dataclasses
import json
import random
import sys
import threading
import time

import numpy as np
import pytest

from fuzzyint import (
    CampaignConfig,
    FiniteFunction,
    FiniteMonotoneMeasure,
    InputError,
    digest,
    dumps_17g,
    gen_instance,
    h_min,
    h_prod,
    instance_digest,
    instance_from_json,
    instance_to_json,
    max_op,
    min_op,
    op_to_json,
    probsum_op,
    prod_op,
    reproduce_paper,
    run_campaign,
    smallest_op,
    verify,
)
from fuzzyint import harness, inequalities
from fuzzyint.harness import _drop_element, _rng_for
from fuzzyint.ops import FLAG_ANNIHILATOR, FLAG_NONDECREASING, custom_op
from fuzzyint.serialize import RawJSON
from conftest import fresh_stores, is_monotone_table


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


def interval_config(trials=100, seed=1, **kw):
    """Chebyshev on distorted Lebesgue measures, as the benchmark's
    interval workload draws it; seed 1 violates at 100 trials."""
    base = dict(
        carrier="lebesgue_power",
        measure_family="distorted",
        op_pool=(min_op(), prod_op(), smallest_op(0.5)),
        star_pool=(min_op(), prod_op()),
    )
    base.update(kw)
    return chebyshev_config(trials=trials, seed=seed, **base)


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


def test_equal_interval_draws_share_their_objects_and_keep_their_digests():
    # trials 77 and 113 draw the same distortion and powers, and the ops
    # min and prod; the digests are those of unshared draws
    cfg = interval_config(trials=200)
    with fresh_stores():
        a, b = gen_instance(cfg, 77), gen_instance(cfg, 113)
    assert a.measure is b.measure
    assert all(f is g for f, g in zip(a.functions, b.functions))
    assert (instance_digest(a), instance_digest(b)) == ("5f7ce4b962854bb6", "c9c0fb4410e986f8")
    with fresh_stores():
        again = gen_instance(cfg, 113)
    assert again.measure is not b.measure
    assert instance_digest(again) == instance_digest(b)


def test_different_seeds_decorrelate():
    a = gen_instance(chebyshev_config(seed=1), 0)
    b = gen_instance(chebyshev_config(seed=2), 0)
    assert instance_digest(a) != instance_digest(b)


def test_generated_instances_are_well_formed():
    cfg = chebyshev_config(trials=40)
    for i in range(40):
        inst = gen_instance(cfg, i)
        assert is_monotone_table(inst.measure)
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


def test_seed_must_fit_the_philox_key():
    assert chebyshev_config(seed=2**128 - 1).seed == 2**128 - 1
    with pytest.raises(InputError, match="seed"):
        chebyshev_config(seed=2**128)


@pytest.mark.parametrize(
    "patch, needle",
    [
        ({"trials": "many"}, "malformed"),
        ({"seed": None}, "malformed"),
        ({"n_range": 5}, "malformed"),
        ({"op_pool": ["min"]}, "malformed"),
        ({"exponent_ranges": [1, 2]}, "malformed"),
        ({"exponent_ranges": {"xi1": [0.3]}}, "malformed"),
        ({"seed": 1.9}, "malformed campaign config: seed must be an integer, got 1.9"),
        ({"trials": True}, "trials must be an integer"),
        ({"n_range": [2.0, 5]}, "n_range entry must be an integer"),
        ({"respect_hypotheses": "false"}, "respect_hypotheses must be true or false"),
        ({"normalize_measure": 0}, "normalize_measure must be true or false"),
        ({"shrink": "no"}, "shrink must be true or false"),
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
    with pytest.raises(InputError, match=r"op prod \(cap 1\) with star min \(cap 1\): value 4.5"):
        run_campaign(cfg, on_record=records.append)
    assert records == []
    # uncapped pools run on extended data
    cfg = chebyshev_config(trials=20, scale="extended", op_pool=(min_op(),), star_pool=(prod_op(),))
    assert run_campaign(cfg).trials == 20


def test_pool_entries_the_family_never_draws_are_not_refused():
    # thm32 draws H, not a star: a cap-1 star on extended data goes unused
    cfg = CampaignConfig(theorem_id="thm32", seed=3, trials=5, op_pool=(min_op(),),
                         star_pool=(min_op(1.0),), scale="extended", respect_hypotheses=False)
    assert run_campaign(cfg).trials == 5
    # the ops and the H pool it draws from are probed, and named
    cfg = dataclasses.replace(cfg, op_pool=(min_op(1.0),), H_pool=(h_prod(2),))
    with pytest.raises(InputError, match=r"op min \(cap 1\) with H prod of arity 2: "):
        run_campaign(cfg)


def test_probe_does_not_call_gen_instance(monkeypatch):
    # each gen_instance call is one trial to anything that wraps it
    calls = []
    gen = harness.gen_instance

    def counted(*args):
        calls.append(args[1])
        return gen(*args)

    monkeypatch.setattr(harness, "gen_instance", counted)
    run_campaign(chebyshev_config(trials=3, star_pool=(min_op(1.0), prod_op(1.0), max_op(1.0))))
    assert calls == [0, 1, 2]


def test_config_json_takes_the_dataclass_defaults():
    doc = {"theorem": "chebyshev", "seed": 5, "trials": 7}
    assert CampaignConfig.from_json(doc) == CampaignConfig(theorem_id="chebyshev", seed=5, trials=7)
    # an empty op pool is the min op, from a document or from the library
    assert CampaignConfig.from_json(dict(doc, op_pool=[])).op_pool == (min_op(),)
    assert CampaignConfig("chebyshev", 5, 7, op_pool=()).to_json()["op_pool"] == [
        op_to_json(min_op())
    ]


def test_config_json_round_trip():
    cfg = falsifier_config()
    back = CampaignConfig.from_json(cfg.to_json())
    assert back == cfg
    assert instance_digest(gen_instance(back, 3)) == instance_digest(gen_instance(cfg, 3))


def _mixed_draws(gen):
    return [
        gen.random(3).tolist(),
        gen.uniform(0.25, 2.5, size=5).tolist(),
        gen.integers(0, 7, size=4).tolist(),
        int(gen.integers(2, 9)),
        gen.random(),
        gen.integers(0, 2**40, size=3).tolist(),
        gen.uniform(),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2**128 - 1])
def test_trial_stream_is_the_stream_jumped_trial_times(seed):
    # 2**128 and beyond wrap the 256-bit counter, as jumped does
    for i in (0, 1, 5, 1000, 2**64 + 3, 2**70, 2**127, 2**128 - 1, 2**128, 2**128 + 3, 2**128 + 5):
        jumped = _mixed_draws(np.random.Generator(np.random.Philox(key=seed).jumped(i)))
        counter = np.random.Philox(key=seed, counter=(i << 128) % 2**256)
        assert _mixed_draws(np.random.Generator(counter)) == jumped
        # the thread's generator is reused: twice, so the second call starts
        # from a generator that has already drawn
        assert _mixed_draws(_rng_for(seed, i)) == jumped
        assert _mixed_draws(_rng_for(seed, i)) == jumped


# counts up to the largest the draws meet, 20,000,001 lattice exponents in
# [0.05, 1e6], then the top of the 32-bit method; 2**31 + 1 and 3 * 2**30
# reject about half and a quarter of their words, so retries are compared too
BOUNDED_COUNTS = tuple(range(1, 60)) + (20_000_001, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


def test_bounded_draw_is_generator_integers_on_the_same_stream():
    # 200 keys, each trial's draws interleaved with doubles, as a trial
    # draws them; a numpy whose integers moved fails here, before any stream
    for key in range(200):
        gen = _rng_for(key, 0)
        ref = np.random.Generator(np.random.Philox(key=key))
        script = random.Random(key)
        for _ in range(60):
            count = script.choice(BOUNDED_COUNTS)
            lo = script.randrange(-3, 4)
            assert lo + gen.below(count) == int(ref.integers(lo, lo + count)), (key, count)
            if script.random() < 0.5:
                n = script.randrange(0, 9)
                assert gen.random(n).tolist() == ref.random(n).tolist()


def test_bounded_draw_of_one_value_reads_no_word():
    gen = _rng_for(7, 3)
    ref = np.random.Philox(key=7).jumped(3)
    assert gen.below(1) == 0
    assert gen.bit_generator.random_raw() == ref.random_raw()
    # nor does it spend or drop a kept half-word
    gen, ref = _rng_for(7, 3), np.random.Generator(np.random.Philox(key=7).jumped(3))
    got = [gen.below(5), gen.below(1), gen.below(5)]
    assert got == [int(ref.integers(0, 5)), int(ref.integers(0, 1)), int(ref.integers(0, 5))]


def test_doubles_are_the_top_53_bits_of_the_raw_words():
    # the raw Philox stream is stable under numpy's policy, Generator.random is not
    for key in range(100):
        for n in (1, 2, 7, 64, 256):
            raw = np.random.Philox(key=key).random_raw(n)
            want = ((raw >> 11) * 2.0**-53).tolist()
            assert np.random.Generator(np.random.Philox(key=key)).random(n).tolist() == want
            assert np.random.Generator(np.random.Philox(key=key)).random() == want[0]


def test_interleaved_and_threaded_campaigns_draw_the_instances_they_draw_alone():
    cfgs = (
        falsifier_config(trials=30, seed=5),
        chebyshev_config(trials=30, seed=6),
        chebyshev_config(trials=30, seed=2**128 - 1),
    )
    alone = [[instance_digest(gen_instance(c, i)) for i in range(c.trials)] for c in cfgs]
    interleaved = [[] for _ in cfgs]
    for i in range(30):
        for k, c in enumerate(cfgs):
            interleaved[k].append(instance_digest(gen_instance(c, i)))
    assert interleaved == alone

    # more threads than cores; all start each trial together and switch
    # often inside it.  Then each runs its campaign, in memo stores of its own
    streams = [stream_bytes(c) for c in cfgs]
    threaded = [[] for _ in cfgs]
    threaded_streams = [None] * len(cfgs)
    barrier = threading.Barrier(len(cfgs))

    def run(k):
        for i in range(30):
            barrier.wait(timeout=60)
            threaded[k].append(instance_digest(gen_instance(cfgs[k], i)))
        barrier.wait(timeout=60)
        threaded_streams[k] = stream_bytes(cfgs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(k,)) for k in range(len(cfgs))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert threaded == alone
    assert threaded_streams == streams


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def stream_bytes(cfg) -> str:
    """The NDJSON a campaign streams, as the CLI writes it."""
    lines = []
    run_campaign(cfg, on_record=lambda record: lines.append(dumps_17g(record) + "\n"))
    return "".join(lines)


@pytest.mark.parametrize(
    "carrier, respect",
    [("finite", True), ("finite", False), ("lebesgue_power", True)],
    ids=("True", "False", "lebesgue_power"),
)
def test_campaign_bytes_do_not_depend_on_warm_caches(carrier, respect):
    # a respecting campaign draws from the verified pools; prod as the op
    # and max as the star make both finite campaigns violate, shrink
    # included.  Verified twice in the same stores, an interval trial
    # reads every side integral and every draw from them
    if carrier == "finite":
        pool = (min_op(1.0), prod_op(1.0))
        cfg = chebyshev_config(
            trials=60, seed=9, respect_hypotheses=respect, op_pool=pool, star_pool=pool + (max_op(1.0),)
        )
    else:
        cfg = interval_config(respect_hypotheses=respect)
    cold = stream_bytes(cfg)
    assert '"record":"violation"' in cold

    def verdicts():
        return [dumps_17g(verify(gen_instance(cfg, i)).to_json()) for i in range(cfg.trials)]

    with fresh_stores():
        first = verdicts()
        assert verdicts() == first
    # the default stores, warmed by the same trials, do not reach a campaign
    assert verdicts() == first
    assert stream_bytes(cfg) == cold


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
    seen = []
    run_campaign(cfg, on_record=seen.append)
    shrunk_seen = 0
    for line in seen:
        if "shrunk" not in line:
            continue
        shrunk_seen += 1
        small = instance_from_json(line["shrunk"])
        assert small.measure.n <= instance_from_json(json.loads(line["instance"])).measure.n
        v = verify(small)
        assert not v.holds
        assert v.margin == line["shrunk_margin"]
    assert shrunk_seen > 0


def test_ndjson_stream_is_parseable_and_complete():
    seen = []
    rep = run_campaign(falsifier_config(trials=30), on_record=seen.append)
    assert seen[0]["record"] == "header"
    assert seen[0]["prng"] == "philox4x64"
    assert seen[-1]["record"] == "summary"
    body = [r for r in seen if r["record"] == "violation"]
    assert len(body) == len(rep.violations)
    text = "".join(dumps_17g(r) + "\n" for r in seen)
    lines = text.strip().split("\n")
    assert len(lines) == len(rep.violations) + 2
    for line in lines:
        json.loads(line)
    summary = json.loads(lines[-1])
    assert summary["trials"] == 30
    assert len(summary["violations"]) == len(rep.violations)


def test_streamed_lines_splice_the_instance_text_into_the_report_bytes():
    cfg = falsifier_config(trials=40)
    seen = []
    rep = run_campaign(cfg, on_record=seen.append)
    streamed = [r for r in seen if r["record"] == "violation"]
    assert any("shrunk" in line for line in streamed)
    assert len(streamed) == len(rep.violations) > 0
    for line, rec in zip(streamed, rep.violations):
        assert type(line["instance"]) is RawJSON
        regenerated = instance_to_json(gen_instance(cfg, rec.trial_index))
        assert json.loads(line["instance"]) == regenerated
        assert (line["trial"], line["margin"]) == (rec.trial_index, rec.margin)
        assert line["digest"] == rec.digest == digest(regenerated)


def test_raw_json_digests_as_its_document():
    d = instance_to_json(gen_instance(falsifier_config(), 3))
    assert digest(RawJSON(dumps_17g(d))) == digest(d)


@pytest.mark.parametrize("n", range(1, 7))
def test_dropped_element_table_is_the_masks_without_its_bit(n):
    inst = gen_instance(chebyshev_config(trials=1, n_range=(n, n)), 0)
    m = inst.measure
    # total 2: the unnormalized class, whose drops are not rescaled
    raw = dataclasses.replace(inst, measure=FiniteMonotoneMeasure(n, m.table[:-1] + (2.0,)))
    for j in range(n):
        if n == 1:
            assert _drop_element(inst, j) is None
            continue
        kept = tuple(m.table[s] for s in range(1 << n) if not s >> j & 1)
        cand = _drop_element(inst, j)
        assert cand.measure.table == tuple(v / kept[-1] for v in kept[:-1]) + (1.0,)
        assert cand.functions == tuple(
            FiniteFunction(f.values[:j] + f.values[j + 1 :]) for f in inst.functions
        )
        assert _drop_element(raw, j).measure.table == kept
        # built without the covering-pair scan, and monotone all the same
        for c in (cand, _drop_element(raw, j)):
            assert FiniteMonotoneMeasure(n - 1, c.measure.table) == c.measure


def reference_shrink(inst):
    """The greedy loop of shrink_instance, each candidate through the public
    verify; also returns how many candidates raised and were skipped."""
    current, current_verdict, skipped = inst, None, 0
    changed = True
    while changed:
        changed = False
        for j in range(current.measure.n):
            cand = _drop_element(current, j)
            if cand is None:
                continue
            try:
                v = verify(cand, skip_hypotheses=True)
            except InputError:
                skipped += 1
                continue
            if not v.holds:
                current, current_verdict, changed = cand, v, True
                break
    if current is inst:
        return None, None, skipped
    return current, current_verdict, skipped


def banded_min(x, y):
    # min on a band only: the rescaled measures of shrink candidates give
    # larger integrals, so some candidates leave the band and raise
    if x + y > 1.6:
        raise InputError("banded min is undefined above its band")
    return min(x, y)


SHRINK_CONFIGS = {
    "star_general": falsifier_config(trials=60),
    "thm32": CampaignConfig(
        theorem_id="thm32",
        seed=9,
        trials=60,
        carrier="finite",
        n_range=(2, 6),
        op_pool=(min_op(1.0), prod_op(1.0)),
        H_pool=(h_min(2), h_prod(2)),
        exponent_ranges=(("omega_inner", (0.5, 2.0)), ("xi_inner", (0.5, 2.0))),
        respect_hypotheses=False,
    ),
    "lyapunov": CampaignConfig(
        theorem_id="lyapunov",
        seed=5,
        trials=60,
        carrier="finite",
        n_range=(2, 6),
        op_pool=(min_op(1.0), prod_op(1.0)),
        respect_hypotheses=False,
        normalize_measure=False,
    ),
    "star_general-banded": dataclasses.replace(
        falsifier_config(trials=60, seed=11),
        star_pool=(
            custom_op(banded_min, 1.0, 1.0, (FLAG_NONDECREASING, FLAG_ANNIHILATOR), "banded_min"),
        ),
    ),
}


@pytest.mark.parametrize("name", SHRINK_CONFIGS)
def test_shrink_matches_the_greedy_loop_through_verify(name):
    cfg = SHRINK_CONFIGS[name]
    violating = skipped = 0
    for i in range(cfg.trials):
        inst = gen_instance(cfg, i)
        try:
            if verify(inst, skip_hypotheses=True).holds:
                continue
        except InputError:
            continue
        violating += 1
        want, want_verdict, k = reference_shrink(inst)
        skipped += k
        got, got_verdict = harness.shrink_instance(inst)
        if want is None:
            assert got is None and got_verdict is None
            continue
        assert got == want
        if not name.endswith("-banded"):  # a callable-backed star has no JSON form
            assert instance_digest(got) == instance_digest(want)
        assert got_verdict.margin == want_verdict.margin
        assert dumps_17g(got_verdict.to_json()) == dumps_17g(want_verdict.to_json())
    assert violating > 0
    assert skipped > 0 if name.endswith("-banded") else skipped == 0


def counting(calls: collections.Counter, name: str, fn):
    """fn, counting its calls in calls[name]."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize(
    "cfg",
    [
        CampaignConfig(
            theorem_id="thm32",
            seed=5,
            trials=60,
            n_range=(2, 4),
            op_pool=(min_op(1.0), prod_op(1.0)),
            H_pool=(h_min(2), h_prod(2)),
            exponent_ranges=(("omega_inner", (0.5, 2.0)), ("xi_inner", (0.5, 2.0))),
            respect_hypotheses=False,
        ),
        # side integrals and draws, evicted before they recur
        interval_config(),
    ],
    ids=("thm32", "lebesgue_power"),
)
def test_condition_cache_stays_bounded_and_bytes_do_not_change(monkeypatch, cfg):
    # each memoised function keeps its own store, so a bound that the side
    # integrals and draws overrun evicts no op report and no scalar condition
    calls = collections.Counter()
    for name in ("verify_op_properties", "check_scalar_condition"):
        monkeypatch.setattr(inequalities, name, counting(calls, name, getattr(inequalities, name)))

    def run():
        calls.clear()
        sizes = []
        lines = []

        def collect(record):
            sizes.append(max(map(len, inequalities._stores.get().values()), default=0))
            lines.append(dumps_17g(record) + "\n")

        run_campaign(cfg, on_record=collect)
        return "".join(lines), max(sizes), dict(calls)

    unbounded, largest, unbounded_calls = run()
    assert largest > 16
    monkeypatch.setattr(inequalities, "_CACHE_LIMIT", 16)
    bounded, largest, bounded_calls = run()
    assert largest <= 16
    assert bounded == unbounded
    assert bounded_calls["verify_op_properties"] == unbounded_calls["verify_op_properties"]
    if cfg.carrier == "lebesgue_power":
        assert bounded_calls == unbounded_calls == {"verify_op_properties": 3, "check_scalar_condition": 6}


def test_two_campaigns_in_one_process_each_run_cold(monkeypatch):
    calls = collections.Counter()
    check = inequalities.check_scalar_condition
    monkeypatch.setattr(inequalities, "check_scalar_condition", counting(calls, "cond", check))
    cfg = chebyshev_config(trials=30, seed=3)
    runs = []
    for _ in range(2):
        calls.clear()
        runs.append((stream_bytes(cfg), calls["cond"]))
    assert runs[0][1] > 0
    assert runs[1] == runs[0]


def test_a_campaign_leaves_its_callers_stores_as_it_found_them():
    # the caller's stores hold a few of the campaign's trials; a campaign
    # that wrote to them would add the others.  Outside, the module
    # default stores are current again
    cfg = interval_config(trials=40)
    default = inequalities._stores.get()
    with fresh_stores() as stores:
        for i in range(0, 40, 7):
            verify(gen_instance(cfg, i))

        def snapshot():
            return {fn: list(store.items()) for fn, store in stores.items()}

        before = snapshot()
        run_campaign(cfg)
        assert inequalities._stores.get() is stores
        assert snapshot() == before
    assert inequalities._stores.get() is default


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
