"""Deterministic seed derivation and random stream construction.

Every random stream in this package is a Philox counter-based generator
(64-bit outputs) keyed by a seed derived from the experiment master seed
through splitmix64.  Replica r uses the (r+1)-th splitmix64 output, so
the map (master, r) -> key is a fixed public function and results do not
depend on how replicas are scheduled.  Constants are documented in
docs/constants.md and are part of the reproducibility contract.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Distinguishes the reference-sample stream of a two-sample comparison
# from every replica stream of the same experiment.
REFERENCE_TAG = 0xA5A5A5A5A5A5A5A5


def derive_seed(master: int, index: int) -> int:
    """Return the (index+1)-th output of splitmix64 seeded with ``master``."""
    if not 0 <= master <= _MASK64:
        raise ValueError("master seed must fit in 64 bits")
    if index < 0:
        raise ValueError("index must be nonnegative")
    z = (master + (index + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def reference_seed(master: int) -> int:
    """Seed for the exact-sampler reference stream of an experiment."""
    return derive_seed(master ^ REFERENCE_TAG, 0)


@cache
def _key_words() -> type:
    """A seed sequence whose state is the Philox key words [key, 0].

    Philox(seed) takes its two 64-bit key words from seed.generate_state(2,
    uint64) and starts at counter 0, as Philox(key=key) does; Philox(key=key)
    also draws an unused SeedSequence from OS entropy.  The class is made on
    first use, so importing vmstat does not import numpy.random.
    """

    class KeyWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: int):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return np.array([self.key, 0], dtype=np.uint64)

    return KeyWords


def stream(key: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed: Generator(Philox(key=key)), state for state."""
    return np.random.Generator(np.random.Philox(_key_words()(key)))
