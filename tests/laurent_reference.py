"""Dense Laurent polynomials in q: the tests' reference for symbolic Potts.

The package decides symbolic-q identities at the one point q = 2^-8
(`rayleigh_forge.scalars.SYMBOLIC_Q`) and reads a weight back as a power of
q with `q_exponent`.  The tests rebuild the same identities here, in exact
Laurent arithmetic, and compare.
"""

from fractions import Fraction

from rayleigh_forge.scalars import format_rat


class DenseLaurentQ:
    """coeffs[i] multiplies q**(min_exponent + i), both ends of the span are
    nonzero, and zero is the empty tuple with min_exponent 0."""

    def __init__(self, min_exponent: int = 0, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        lo, hi = 0, len(cs)
        while lo < hi and cs[lo] == 0:
            lo += 1
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        self.min_exponent = min_exponent + lo if lo < hi else 0
        self.coeffs = tuple(cs[lo:hi])

    @staticmethod
    def q_power(k: int) -> "DenseLaurentQ":
        return DenseLaurentQ(k, (1,))

    @property
    def max_exponent(self) -> int:
        return self.min_exponent + len(self.coeffs) - 1 if self.coeffs else 0

    @staticmethod
    def coerce(value) -> "DenseLaurentQ":
        return value if isinstance(value, DenseLaurentQ) else DenseLaurentQ(0, (value,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self):
        return DenseLaurentQ(self.min_exponent, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = DenseLaurentQ.coerce(other)
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.min_exponent, other.min_exponent)
        out = [Fraction(0)] * (max(self.max_exponent, other.max_exponent) - lo + 1)
        for v in (self, other):
            for i, c in enumerate(v.coeffs):
                out[v.min_exponent + i - lo] += c
        return DenseLaurentQ(lo, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -DenseLaurentQ.coerce(other)

    def __rsub__(self, other):
        return DenseLaurentQ.coerce(other) - self

    def __mul__(self, other):
        other = DenseLaurentQ.coerce(other)
        if not self.coeffs or not other.coeffs:
            return DenseLaurentQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return DenseLaurentQ(self.min_exponent + other.min_exponent, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = DenseLaurentQ.coerce(other)
        return self.min_exponent == other.min_exponent and self.coeffs == other.coeffs

    def evaluate(self, q0) -> Fraction:
        q0 = Fraction(q0)
        if q0 == 0 and self.min_exponent < 0:
            raise ValueError("evaluation at q = 0 with negative exponents present")
        return sum((c * q0 ** (self.min_exponent + i) for i, c in enumerate(self.coeffs) if c), Fraction(0))

    def divide_by_one_minus_q(self) -> "DenseLaurentQ":
        prefix, acc = [], Fraction(0)
        for c in self.coeffs:
            acc += c
            prefix.append(acc)
        if acc != 0:
            raise ValueError("not divisible by (1 - q)")
        return DenseLaurentQ(self.min_exponent, prefix[:-1])

    def __repr__(self) -> str:
        return f"DenseLaurentQ({self})"

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            k = self.min_exponent + i
            if c == 0:
                continue
            if k == 0:
                parts.append(format_rat(c))
            else:
                mag = "q" if k == 1 else f"q^{k}"
                parts.append(mag if c == 1 else f"-{mag}" if c == -1 else f"{format_rat(c)}*{mag}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"
