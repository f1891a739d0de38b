"""Verdict bytes of every inequality family, pinned by digest.

For every statement id, generated instances on both carriers, with
hypotheses respected and not, are verified and the canonical JSON of
each verdict (or the text of the error it raises) is hashed, one digest
per carrier, so a change confined to one carrier moves only its digests.
The single-function ids are also run over a pool of transforms besides
the default draw.  A change to how the families are evaluated must leave
every digest as it is.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from fuzzyint import (
    CampaignConfig,
    InputError,
    UnsupportedError,
    affine,
    compose,
    dumps_17g,
    gen_instance,
    h_max,
    h_min,
    h_prod,
    h_wmean,
    max_op,
    identity,
    min_op,
    power,
    probsum_op,
    prod_op,
    verify,
)
from fuzzyint.inequalities import STATEMENTS

TRIALS = 20
# the two-function statements, then the n-ary ones, then the single-function ones
PINNED_IDS = tuple(
    tid for arity in (2, None, 1) for tid, stmt in STATEMENTS.items() if stmt.arity == arity
)
CARRIERS = ("finite", "lebesgue_power")
FORWARD_OPS = (min_op(1.0), min_op(), prod_op(1.0), prod_op())
REVERSE_OPS = (max_op(1.0), max_op(), probsum_op())
H_POOL = (h_min(2), h_prod(2), h_wmean((1.0, 2.0)))
EXPONENT_RANGES = {
    "holder": {"p": (1.0, 3.0)},
    "rev_holder": {"p": (1.0, 3.0)},
    "minkowski": {"s": (0.5, 2.0)},
    "rev_minkowski": {"k": (0.5, 2.0)},
    "star_general": {
        k: (0.3, 2.0) for k in ("xi0", "xi1", "xi2", "omega0", "omega1", "omega2")
    },
    "seminormed_general": {
        k: (0.5, 2.0) for k in ("alpha", "beta", "gamma", "lambda", "upsilon", "tau")
    },
    "rev_seminormed": {
        k: (0.5, 2.0) for k in ("alpha", "beta", "gamma", "lambda", "upsilon", "tau")
    },
    "thm32": {"xi_inner": (0.5, 2.0), "omega_inner": (0.5, 2.0)},
    "thm42_h": {"xi_inner": (0.5, 2.0), "omega_inner": (0.5, 2.0)},
    "jensen": {"phi_p": (0.5, 3.0)},
    "rev_jensen": {"phi_p": (0.5, 3.0)},
    "lyapunov": {"r": (0.5, 3.0), "s": (0.5, 3.0)},
}
# besides the empty pool, which draws each family's default transforms
ONE_TRANSFORM_POOL = ((affine(2.0, 0.25),), (compose(power(0.5), affine(1.5)),), (identity(),))
TWO_TRANSFORM_POOL = (
    (power(3.0), power(0.5)),
    (affine(2.0, 0.25), compose(power(2.0), affine(0.5))),
    (identity(), power(1.5)),
)
PHI_POOLS = {
    "jensen": ONE_TRANSFORM_POOL,
    "rev_jensen": ONE_TRANSFORM_POOL,
    "thm33": TWO_TRANSFORM_POOL,
    "rev_transform": TWO_TRANSFORM_POOL,
}

PINNED = {
    "chebyshev": {"finite": "83e0f523b47997ce", "lebesgue_power": "85f2d948f1d5f4bb"},
    "holder": {"finite": "cd5b4db8a24c67f4", "lebesgue_power": "24fcae76f12f4cc7"},
    "minkowski": {"finite": "58f321f1d09257e9", "lebesgue_power": "a85550f610e38068"},
    "star_general": {"finite": "659a5afc7a7de1a1", "lebesgue_power": "3aea402769979366"},
    "seminormed_general": {"finite": "c6a84bc3ef537a13", "lebesgue_power": "5ea06324f0a7dcd5"},
    "rev_chebyshev": {"finite": "18f95a83181cfaff", "lebesgue_power": "03f7c9177ba4ab9c"},
    "rev_holder": {"finite": "0a8a84d92219aa98", "lebesgue_power": "240f5616a7c2a648"},
    "rev_minkowski": {"finite": "57aedc11c38346a0", "lebesgue_power": "d9d0db7b140031f9"},
    "rev_seminormed": {"finite": "787e6f43cb83d101", "lebesgue_power": "1c5d6305b135d496"},
    "thm31": {"finite": "dd31cb07f8d5bf82", "lebesgue_power": "365326969068b10c"},
    "thm32": {"finite": "4447daa1333790af", "lebesgue_power": "77b303e66077cd75"},
    "thm41": {"finite": "517f809fdef00012", "lebesgue_power": "cb37c1d1e8f809f0"},
    "thm42_h": {"finite": "585bc2070cfc49eb", "lebesgue_power": "30f838b8cb5a889d"},
    "thm33": {"finite": "ba176bf2ef192d58", "lebesgue_power": "ec20d853ba4f4cf4"},
    "jensen": {"finite": "b7385a73531cf3dd", "lebesgue_power": "43b97a173e198fd3"},
    "rev_jensen": {"finite": "c45735ad92ef7392", "lebesgue_power": "92818e9053f86340"},
    "lyapunov": {"finite": "d14435f00e825022", "lebesgue_power": "fb2ddea0be7aaff2"},
    "rev_transform": {"finite": "2ed44908695eb5ab", "lebesgue_power": "67359e9f3e8eba32"},
}


def configs(tid):
    pool = REVERSE_OPS if STATEMENTS[tid].reverse else FORWARD_OPS
    H_pool = H_POOL + ((h_max(3),) if tid in ("thm31", "thm41") else ())
    phi_pools = ((),) + ((PHI_POOLS[tid],) if tid in PHI_POOLS else ())
    for respect, carrier, phi_pool in itertools.product(
        (True, False), CARRIERS, phi_pools
    ):
        yield CampaignConfig(
            theorem_id=tid,
            seed=2024,
            trials=TRIALS,
            carrier=carrier,
            n_range=(2, 5),
            measure_family="random_table" if carrier == "finite" else "distorted",
            op_pool=pool,
            star_pool=pool,
            H_pool=H_pool if STATEMENTS[tid].arity is None else (),
            phi_pool=phi_pool,
            exponent_ranges=tuple(sorted(EXPONENT_RANGES.get(tid, {}).items())),
            respect_hypotheses=respect,
            normalize_measure=respect,
            scale="unit" if respect else "extended",
        )


def outcome_bytes(inst) -> bytes:
    try:
        return dumps_17g(verify(inst).to_json()).encode("ascii")
    except (InputError, UnsupportedError) as exc:
        return f"{type(exc).__name__}: {exc}".encode("ascii")


@pytest.mark.parametrize("tid", PINNED_IDS)
def test_verdict_digest_is_pinned(tid):
    hashes = {carrier: hashlib.sha256() for carrier in CARRIERS}
    for cfg in configs(tid):
        h = hashes[cfg.carrier]
        for i in range(cfg.trials):
            h.update(outcome_bytes(gen_instance(cfg, i)))
            h.update(b"\n")
    assert {c: h.hexdigest()[:16] for c, h in hashes.items()} == PINNED[tid]
