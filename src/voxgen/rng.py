"""Seeded random source used by every generator in the package.

All randomness flows through SeededRng, a thin wrapper around CPython's
Mersenne Twister (``random.Random``) seeded with an explicit 64-bit unsigned
integer. CPython guarantees the generator's output sequence for a given
integer seed across platforms and versions, which is what makes generated
worlds byte-reproducible. Wall-clock or OS entropy is never used.

Draw-order contracts (which call consumes which draw) are documented at the
call sites; changing the order of draws changes generated worlds and is a
breaking change.
"""

from __future__ import annotations

import random

from .errors import ParameterError

MAX_SEED = 2**64 - 1


def check_seed(seed: object) -> int:
    """seed, if it is an int (not a bool) in [0, 2**64); ParameterError, a generator's error, otherwise."""
    if not (isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed <= MAX_SEED):
        raise ParameterError(f"seed must be an int in [0, 2**64), got {seed!r}")
    return seed


class SeededRng:
    """Deterministic random source seeded with a 64-bit unsigned integer."""

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        if not 0 <= seed <= MAX_SEED:
            raise ValueError(f"seed must be in [0, 2**64 - 1], got {seed}")
        self.seed = seed
        self._rng = random.Random(seed)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], both ends inclusive. One draw."""
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        return self._rng.randint(low, high)

    def random(self) -> float:
        """Uniform float in [0, 1). One draw."""
        return self._rng.random()

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed})"
