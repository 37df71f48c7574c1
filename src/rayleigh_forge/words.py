"""Subset words: bit i of an int stands for the i-th element of a ground set.

Re-indexing a word between ground sets and the monomial a word stands for
are defined here once: `term_value` for one word (the sparse form, behind
the evaluators in `polynomials`) and `monomial_table` for every word at
once (the dense form, behind the corpus scans).  `positions` always lists,
for each bit of the smaller word, its index in the larger one:
positions[j] is where bit j lives.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def popcount(word: int) -> int:
    return word.bit_count()


def bit_positions(word: int) -> Iterator[int]:
    """Indices of the set bits, lowest first."""
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def compress(word: int, positions: Sequence[int]) -> int:
    """Bit j of the result is bit positions[j] of word; other bits are dropped."""
    out = 0
    for j, pos in enumerate(positions):
        if word >> pos & 1:
            out |= 1 << j
    return out


def expand(word: int, positions: Sequence[int]) -> int:
    """Bit positions[j] of the result is bit j of word; inverse of compress."""
    out = 0
    i = 0
    while word:
        if word & 1:
            out |= 1 << positions[i]
        word >>= 1
        i += 1
    return out


def term_value(c, vals: Sequence, word: int, sq: int = 0):
    """c * y^word * y^sq with y_i = vals[i]; sq must be a subset of word.

    The product starts from c, so its type (a polynomial's Fraction, or
    `pair_value`'s int) carries through with no conversion per term.
    """
    prod = c
    while word:
        low = word & -word
        v = vals[low.bit_length() - 1]
        prod = prod * (v * v if sq & low else v)
        word ^= low
    return prod


def monomial_table(nums: Sequence[int], den: int) -> list[int]:
    """prod(nums[i] for i in w) * den^(len(nums) - |w|) for every word w, built by doubling."""
    table = [1]
    for n in nums:
        table = [*map(den.__mul__, table), *map(n.__mul__, table)]
    return table
