"""Verdict bytes of every inequality family, pinned by digest.

For every statement id, generated instances on both carriers, with
hypotheses respected and not, are verified and the canonical JSON of
each verdict (or the text of the error it raises) is hashed.  The
single-function ids are also run over a pool of transforms besides the
default draw.  A change to how the families are evaluated must leave
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
from fuzzyint.inequalities import NARY_IDS, REVERSE_IDS, SINGLE_FUNCTION_IDS, TWO_FUNCTION_IDS

TRIALS = 20
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
    "chebyshev": "955fb4a002f042cc",
    "holder": "0e75fc2fb96c9e58",
    "minkowski": "e5d4b01fdd70cb98",
    "star_general": "f6506d191ad98a80",
    "seminormed_general": "3c9728345a93d3ba",
    "rev_chebyshev": "7af9c62cf2ae6d98",
    "rev_holder": "96676190b56cd89f",
    "rev_minkowski": "70f0c39d885e4c0a",
    "rev_seminormed": "84351e90c513206a",
    "thm31": "077f9d67a7f66fc9",
    "thm32": "8083bfb034153728",
    "thm41": "fe8460acaaadceaf",
    "thm42_h": "d28cbbc1a205d8f4",
    "thm33": "33764f1cff2042f2",
    "jensen": "7f7fe433b04e18a3",
    "rev_jensen": "c2077e290bc70254",
    "lyapunov": "c02653f905eee32a",
    "rev_transform": "cf7a0d4d111a04ba",
}


def configs(tid):
    pool = REVERSE_OPS if tid in REVERSE_IDS else FORWARD_OPS
    H_pool = H_POOL + ((h_max(3),) if tid in ("thm31", "thm41") else ())
    phi_pools = ((),) + ((PHI_POOLS[tid],) if tid in PHI_POOLS else ())
    for respect, carrier, phi_pool in itertools.product(
        (True, False), ("finite", "lebesgue_power"), phi_pools
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
            H_pool=H_pool if tid in NARY_IDS else (),
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


@pytest.mark.parametrize("tid", TWO_FUNCTION_IDS + NARY_IDS + SINGLE_FUNCTION_IDS)
def test_verdict_digest_is_pinned(tid):
    h = hashlib.sha256()
    for cfg in configs(tid):
        for i in range(cfg.trials):
            h.update(outcome_bytes(gen_instance(cfg, i)))
            h.update(b"\n")
    assert h.hexdigest()[:16] == PINNED[tid]
