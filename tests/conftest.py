"""Shared helpers for the test suite.

Random objects are always built from an explicit numpy Generator so any
failing case can be reproduced from the seed alone.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from fuzzyint import FiniteFunction, FiniteMonotoneMeasure, random_table_measure
from fuzzyint.inequalities import _stores


def rng_of(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def random_finite_function(rng: np.random.Generator, n: int) -> FiniteFunction:
    return FiniteFunction(tuple(float(v) for v in rng.uniform(0.0, 1.0, size=n)))


def random_measure(rng: np.random.Generator, n: int, normalized: bool = True) -> FiniteMonotoneMeasure:
    return random_table_measure(rng, n, normalized=normalized)


@contextlib.contextmanager
def fresh_stores():
    """Empty memo stores for the block, as a campaign has; yields them."""
    token = _stores.set({})
    try:
        yield _stores.get()
    finally:
        _stores.reset(token)


def is_monotone_table(m: FiniteMonotoneMeasure) -> bool:
    """m(S) <= m(S | {b}) for every subset S and every b outside it, by brute force."""
    return all(
        m.table[s] <= m.table[s | 1 << b]
        for s in range(1 << m.n)
        for b in range(m.n)
        if not s >> b & 1
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return rng_of(20260825)
