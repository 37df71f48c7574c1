"""Deterministic 64-bit PRNG and exact rational sampling helpers.

All randomized checks in this package draw from a splitmix-style stream so
that a run is reproducible from (inputs, seed) alone.  Sampled coordinates
are dyadic rationals, never floats: verdicts downstream stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

DEFAULT_SEED = 0xD1CE

# every log_uniform_fraction denominator divides 2^DENOMINATOR_BITS
DENOMINATOR_BITS = 20


class SplitMix64:
    """The classic splitmix64 generator (Steele/Lea/Flood finalizer)."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo bias is irrelevant here."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n


def derive(seed: int, index: int) -> SplitMix64:
    """Child stream for unit-of-work `index`; stable under parallel schedules."""
    return SplitMix64((seed ^ ((index + 1) * GOLDEN)) & MASK64)


def log_uniform_fraction(rng: SplitMix64) -> Fraction:
    """Positive dyadic rational, log-uniform across octaves of [2^-10, 2^10).

    An octave [2^k, 2^(k+1)) is chosen uniformly for k in [-10, 9], then a
    10-bit mantissa picks a dyadic point inside it.  The denominator is
    2^(10 - k) before reduction, so it always divides 2^DENOMINATOR_BITS =
    2^20; the integer point evaluator relies on this.
    """
    k = rng.below(20) - 10
    mant = 1024 + rng.below(1024)
    return Fraction(mant, 1 << (10 - k))


def unit_fraction(rng: SplitMix64) -> Fraction:
    """Dyadic rational strictly inside (0, 1)."""
    return Fraction(1 + rng.below(1022), 1024)


def sample_point(rng: SplitMix64, labels: Iterable[str]) -> dict[str, Fraction]:
    """Independent log-uniform dyadic coordinates, one per label."""
    return {lab: log_uniform_fraction(rng) for lab in labels}
