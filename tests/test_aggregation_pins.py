"""Verdict bytes of the n-ary families under every aggregation kind, pinned.

``tests/test_verdict_pins.py`` draws its aggregations from min, prod and
wmean at arity 2 (and max at arity 3 for thm31 and thm41).  This file
covers the rest: max at arity 2, min and prod at arity 3, an arity-3
weighted mean and a table.  Each n-ary id is run with one aggregation at
a time, on both carriers, with hypotheses respected and not, and the
canonical JSON of each verdict (or the text of the error it raises) is
hashed.  A change to how an aggregation is evaluated must leave every
digest as it is.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from fuzzyint import (
    CampaignConfig,
    InputError,
    UnsupportedError,
    dumps_17g,
    gen_instance,
    h_max,
    h_min,
    h_prod,
    h_table,
    h_wmean,
    max_op,
    min_op,
    probsum_op,
    prod_op,
    verify,
)
from fuzzyint.inequalities import STATEMENTS

TRIALS = 20
NARY_STATEMENTS = tuple(tid for tid, stmt in STATEMENTS.items() if stmt.arity is None)
FORWARD_OPS = (min_op(1.0), min_op(), prod_op(1.0), prod_op())
REVERSE_OPS = (max_op(1.0), max_op(), probsum_op())
TABLE_NODES = (0.0, 0.5, 1.0, 2.0)
AGGREGATIONS = {
    "max2": h_max(2),
    "min3": h_min(3),
    "prod3": h_prod(3),
    "wmean3": h_wmean((1.0, 0.5, 2.0)),
    # nondecreasing in both arguments: the mean of the two nodes, squared
    "table2": h_table(
        TABLE_NODES, [((a + b) / 2.0) ** 2 for a in TABLE_NODES for b in TABLE_NODES]
    ),
}
EXPONENT_RANGES = {"xi_inner": (0.5, 2.0), "omega_inner": (0.5, 2.0)}

PINNED = {
    ("thm31", "max2"): "ad4460f5b1dcc5ba",
    ("thm31", "min3"): "d3c3aba1cf3e7617",
    ("thm31", "prod3"): "0ab5bb80a5e95c02",
    ("thm31", "wmean3"): "f22007626b615569",
    ("thm31", "table2"): "b8b7c8361df704c6",
    ("thm32", "max2"): "a015a09d788b2605",
    ("thm32", "min3"): "b112bce08fb94884",
    ("thm32", "prod3"): "2a1033e5caa49014",
    ("thm32", "wmean3"): "2700d7a849f7b95c",
    ("thm32", "table2"): "5ce92b331e8e8e35",
    ("thm41", "max2"): "a4586dfb4aa2f9b3",
    ("thm41", "min3"): "1e628f786950d7bc",
    ("thm41", "prod3"): "66f05f67738b90f0",
    ("thm41", "wmean3"): "4d2bdaab721d7b10",
    ("thm41", "table2"): "f43f4bfa38d856fc",
    ("thm42_h", "max2"): "3e340c9305090deb",
    ("thm42_h", "min3"): "a2b08918c198fb78",
    ("thm42_h", "prod3"): "9b601f70e415c12f",
    ("thm42_h", "wmean3"): "364a5b31b814f252",
    ("thm42_h", "table2"): "c1023808d08de0c0",
}


def configs(tid, H):
    pool = REVERSE_OPS if STATEMENTS[tid].reverse else FORWARD_OPS
    ranges = EXPONENT_RANGES if tid in ("thm32", "thm42_h") else {}
    for respect, carrier in itertools.product((True, False), ("finite", "lebesgue_power")):
        yield CampaignConfig(
            theorem_id=tid,
            seed=2025,
            trials=TRIALS,
            carrier=carrier,
            n_range=(2, 5),
            measure_family="random_table" if carrier == "finite" else "distorted",
            op_pool=pool,
            H_pool=(H,),
            exponent_ranges=tuple(sorted(ranges.items())),
            respect_hypotheses=respect,
            normalize_measure=respect,
            scale="unit" if respect else "extended",
        )


def outcome_bytes(inst) -> bytes:
    try:
        return dumps_17g(verify(inst).to_json()).encode("ascii")
    except (InputError, UnsupportedError) as exc:
        return f"{type(exc).__name__}: {exc}".encode("ascii")


@pytest.mark.parametrize("tid, name", list(itertools.product(NARY_STATEMENTS, AGGREGATIONS)))
def test_aggregation_verdict_digest_is_pinned(tid, name):
    h = hashlib.sha256()
    for cfg in configs(tid, AGGREGATIONS[name]):
        for i in range(cfg.trials):
            h.update(outcome_bytes(gen_instance(cfg, i)))
            h.update(b"\n")
    assert h.hexdigest()[:16] == PINNED[tid, name]
