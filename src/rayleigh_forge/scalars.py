"""Exact scalar arithmetic: rationals and Laurent polynomials in q.

Rationals are `fractions.Fraction` throughout; the stdlib type already
guarantees the canonical form we rely on for verdicts (reduced, positive
denominator, arbitrary precision).  `parse_rat`/`format_rat` fix the "p/q"
wire format used by files and JSON reports.

`LaurentQ` is a Laurent polynomial in one indeterminate q with Fraction
coefficients, stored sparsely as a map from exponent to nonzero coefficient.
Symbolic Potts weights are single terms q^(-rank S), and the slice and
two-sum identities built from them stay a few terms long.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping


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


class LaurentQ:
    """Laurent polynomial in q over exact rationals: `terms` maps each
    exponent to its nonzero coefficient, and zero is the empty map."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction | int]):
        self.terms = {k: as_fraction(c) for k, c in terms.items() if c}

    @classmethod
    def q_power(cls, k: int) -> "LaurentQ":
        return cls({k: 1})

    @classmethod
    def coerce(cls, value) -> "LaurentQ":
        return value if isinstance(value, LaurentQ) else cls({0: value})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "LaurentQ":
        return LaurentQ({k: -c for k, c in self.terms.items()})

    def __add__(self, other) -> "LaurentQ":
        other = _lift(other)
        if other is NotImplemented:
            return other
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return LaurentQ(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other) -> "LaurentQ":
        other = _lift(other)
        if other is NotImplemented:
            return other
        out: dict[int, Fraction] = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                k, c = i + j, a * b
                out[k] = out[k] + c if k in out else c
        return LaurentQ(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _lift(other)
        return other if other is NotImplemented else self.terms == other.terms

    def evaluate(self, q0) -> Fraction:
        """Exact value at a rational q0; q0 = 0 is a pole when negative exponents are present."""
        q0 = as_fraction(q0)
        if q0 == 0 and any(k < 0 for k in self.terms):
            raise ValueError("evaluation at q = 0 with negative exponents present")
        return sum((c * q0**k for k, c in self.terms.items()), Fraction(0))

    def divide_by_one_minus_q(self) -> "LaurentQ":
        """Exact quotient self / (1 - q); raises if the division leaves a remainder."""
        # (1 - q) * W = V forces w_k = v_lo + ... + v_k over V's span, and
        # exactness means the full sum, the would-be w_hi, is 0.
        terms = self.terms
        out: dict[int, Fraction] = {}
        acc = Fraction(0)
        for k in range(min(terms, default=0), max(terms, default=0) + 1):
            acc += terms.get(k, 0)
            out[k] = acc
        if acc:
            raise ValueError("not divisible by (1 - q)")
        return LaurentQ(out)

    def __repr__(self) -> str:
        return f"LaurentQ({self})"

    def __str__(self) -> str:
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
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
        return " + ".join(parts).replace("+ -", "- ") or "0"


def _lift(value):
    """A rational operand as a constant LaurentQ; NotImplemented for any other type."""
    if isinstance(value, (int, Fraction)):
        return LaurentQ.coerce(value)
    return value if isinstance(value, LaurentQ) else NotImplemented
