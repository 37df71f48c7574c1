"""Exact scalar arithmetic: rationals and Laurent polynomials in q.

Rationals are `fractions.Fraction` throughout; the stdlib type already
guarantees the canonical form we rely on for verdicts (reduced, positive
denominator, arbitrary precision).  `parse_rat`/`format_rat` fix the "p/q"
wire format used by files and JSON reports.

`LaurentQ` is a Laurent polynomial in one indeterminate q with Fraction
coefficients, stored densely over its exponent span.  Spans that occur in
practice are tiny (bounded by a matroid rank), so density is free and keeps
the arithmetic obvious.  The zero value is the empty span.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable


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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational, got {type(value).__name__}")


class LaurentQ:
    """Laurent polynomial in q over exact rationals.

    Coefficients are stored densely: coeffs[i] multiplies q**(min_exponent+i).
    Both ends of the stored span are nonzero; zero is the empty tuple with
    min_exponent 0.
    """

    __slots__ = ("min_exponent", "coeffs")

    def __init__(self, min_exponent: int = 0, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        lo = 0
        hi = len(cs)
        while lo < hi and cs[lo] == 0:
            lo += 1
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.min_exponent = 0
            self.coeffs = ()
        else:
            self.min_exponent = min_exponent + lo
            self.coeffs = tuple(cs[lo:hi])

    @classmethod
    def zero(cls) -> "LaurentQ":
        return cls()

    @classmethod
    def constant(cls, c) -> "LaurentQ":
        return cls(0, (_as_fraction(c),))

    @classmethod
    def q_power(cls, k: int, c=1) -> "LaurentQ":
        return cls(k, (_as_fraction(c),))

    @classmethod
    def coerce(cls, value) -> "LaurentQ":
        if isinstance(value, LaurentQ):
            return value
        return cls.constant(_as_fraction(value))

    # span helpers -------------------------------------------------------

    @property
    def max_exponent(self) -> int:
        if not self.coeffs:
            return 0
        return self.min_exponent + len(self.coeffs) - 1

    # ring operations ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "LaurentQ":
        return LaurentQ(self.min_exponent, tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "LaurentQ":
        if isinstance(other, (int, Fraction)):
            other = LaurentQ.coerce(other)
        elif not isinstance(other, LaurentQ):
            return NotImplemented
        if not self:
            return other
        if not other:
            return self
        lo = min(self.min_exponent, other.min_exponent)
        hi = max(self.max_exponent, other.max_exponent)
        out = [Fraction(0)] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_exponent + i - lo] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exponent + i - lo] += c
        return LaurentQ(lo, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentQ.coerce(other)
        elif not isinstance(other, LaurentQ):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return LaurentQ.coerce(other) - self

    def __mul__(self, other) -> "LaurentQ":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0 or not self:
                return LaurentQ.zero()
            return LaurentQ(self.min_exponent, tuple(c * x for x in self.coeffs))
        if not isinstance(other, LaurentQ):
            return NotImplemented
        if not self or not other:
            return LaurentQ.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentQ(self.min_exponent + other.min_exponent, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentQ.coerce(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return self.min_exponent == other.min_exponent and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.min_exponent, self.coeffs))

    # evaluation and division --------------------------------------------

    def evaluate(self, q0) -> Fraction:
        """Exact value at a nonzero rational q0.

        q0 = 0 is rejected when negative exponents are present (a pole).
        """
        q0 = _as_fraction(q0)
        if q0 == 0 and self.min_exponent < 0:
            raise ValueError("evaluation at q = 0 with negative exponents present")
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if c:
                total += c * q0 ** (self.min_exponent + i)
        return total

    def divide_by_one_minus_q(self) -> "LaurentQ":
        """Exact quotient self / (1 - q); raises if the division leaves a remainder."""
        if not self:
            return LaurentQ.zero()
        # (1 - q) * W = V  with both sides aligned at V's lowest exponent
        # forces w_i = v_0 + ... + v_i; exactness means the full sum is 0.
        prefix = []
        acc = Fraction(0)
        for c in self.coeffs:
            acc += c
            prefix.append(acc)
        if acc != 0:
            raise ValueError("not divisible by (1 - q)")
        return LaurentQ(self.min_exponent, prefix[:-1])

    def __repr__(self) -> str:
        return f"LaurentQ({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = self.min_exponent + i
            if k == 0:
                parts.append(format_rat(c))
            else:
                mag = "q" if k == 1 else f"q^{k}"
                if c == 1:
                    parts.append(mag)
                elif c == -1:
                    parts.append(f"-{mag}")
                else:
                    parts.append(f"{format_rat(c)}*{mag}")
        return " + ".join(parts).replace("+ -", "- ")
