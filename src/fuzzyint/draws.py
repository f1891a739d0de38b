"""The campaign trials' generator: numpy's, plus bounded integers of its own.

Importing this module loads ``numpy.random``, so :mod:`fuzzyint.harness`
imports it when a thread first draws, not when fuzzyint is imported.
"""

from __future__ import annotations

import numpy as np


class TrialGenerator(np.random.Generator):
    """A Generator that also draws bounded integers from its own words.

    below(count) is ``Generator.integers(0, count)`` on the same stream,
    by the method numpy uses (Lemire, *Fast random integer generation in
    an interval*, ACM TOMACS 2019): each 64-bit Philox word serves two
    32-bit draws, low half first, its high half kept for the next one.
    A count of 1 reads no word.  The doubles of ``random`` take one whole
    word each and leave a kept half-word in place, as numpy's do.  Whoever
    moves the bit generator to another stream drops the kept half-word by
    setting ``_half`` to None.
    """

    __slots__ = ("_raw", "_half")

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self._raw = bit_generator.random_raw
        self._half = None

    def below(self, count: int) -> int:
        """Uniform integer in [0, count), for 1 <= count <= 2**32."""
        if count == 1:
            return 0
        while True:
            x = self._half
            if x is None:
                word = self._raw()
                x = word & 0xFFFFFFFF
                self._half = word >> 32
            else:
                self._half = None
            m = x * count
            # a low half below 2**32 % count would bias m >> 32; one at or
            # above count is above that remainder, so skips the modulo
            low = m & 0xFFFFFFFF
            if low >= count or low >= 0x100000000 % count:
                return m >> 32
