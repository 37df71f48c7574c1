"""Exact scalar arithmetic: rationals, and the one point that stands for symbolic q.

Rationals are `fractions.Fraction` throughout; the stdlib type already
guarantees the canonical form we rely on for verdicts (reduced, positive
denominator, arbitrary precision).  `parse_rat`/`format_rat` fix the "p/q"
wire format used by files and JSON reports.

Symbolic q has no type of its own.  Symbolic Potts is the fixed-q route at
q = `SYMBOLIC_Q` = 2^-8: its weights are the rationals q^(-rank S), and
`q_exponent` reads a coefficient q^k back as k.  Why one point decides the
symbolic identities is argued where they are checked (`potts.potts_slices`
and `potts.twosum_compose`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

SYMBOLIC_Q = Fraction(1, 1 << 8)


def clear_denominators(values: Iterable) -> tuple[list[int], int]:
    """Integers v * L for exact rationals v, with L > 0 the lcm of their denominators."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def parse_rat(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def format_rat(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_fraction(value) -> Fraction:
    """An int or Fraction as a Fraction; any other type is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational, got {type(value).__name__}")


def q_exponent(c: Fraction) -> int:
    """The k with c = SYMBOLIC_Q^k; ArithmeticError unless c is an exact power of 256."""
    num, den = c.numerator, c.denominator
    power = num * den
    bits = power.bit_length() - 1
    if num < 1 or (num > 1 and den > 1) or power != 1 << bits or bits % 8:
        raise ArithmeticError(f"{format_rat(c)} is not a power of q = 1/256")
    return (den.bit_length() - num.bit_length()) // 8
