from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rayleigh_forge.fileio import laurent_payload
from rayleigh_forge.scalars import LaurentQ, clear_denominators, format_rat, parse_rat

ONE_MINUS_Q = LaurentQ({0: Fraction(1), 1: Fraction(-1)})
rationals = st.fractions(max_denominator=1000)


def laurents():
    return st.builds(
        LaurentQ,
        st.dictionaries(st.integers(min_value=-5, max_value=5), rationals, max_size=6),
    )


class TestClearDenominators:
    def test_ints_over_lcm(self):
        assert clear_denominators([Fraction(1, 6), Fraction(-3, 4), 2]) == ([2, -9, 24], 12)
        assert clear_denominators([]) == ([], 1)

    @given(st.lists(rationals, max_size=8))
    def test_roundtrip(self, values):
        ints, den = clear_denominators(values)
        assert den > 0 and all(isinstance(n, int) for n in ints)
        assert [Fraction(n, den) for n in ints] == values


class TestRatFormat:
    def test_parse_plain(self):
        assert parse_rat("7") == Fraction(7)
        assert parse_rat(" -3 ") == Fraction(-3)

    def test_parse_fraction(self):
        assert parse_rat("22/7") == Fraction(22, 7)
        assert parse_rat("-1/ 2") == Fraction(-1, 2)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3", "1.5"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    @given(rationals)
    def test_roundtrip(self, x):
        assert parse_rat(format_rat(x)) == x

    def test_integer_has_no_slash(self):
        assert format_rat(Fraction(6, 3)) == "2"


class TestLaurentQ:
    def test_normalization_strips_zero_ends(self):
        v = LaurentQ({-2: 0, -1: 1, 0: 2, 1: 0})
        assert v.terms == {-1: Fraction(1), 0: Fraction(2)}

    def test_zero_is_empty(self):
        assert not LaurentQ({3: 0, 4: 0})
        assert LaurentQ({}) == LaurentQ({5: 0}) == 0

    def test_constant_and_power(self):
        assert LaurentQ.coerce(3).evaluate(Fraction(7)) == 3
        assert LaurentQ.q_power(-2).evaluate(Fraction(1, 2)) == 4

    @given(laurents(), laurents())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(laurents(), laurents(), laurents())
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(laurents(), laurents(), st.fractions(min_value="1/7", max_value=7, max_denominator=40))
    def test_evaluation_is_a_homomorphism(self, a, b, q0):
        assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
        assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)

    def test_pole_at_zero_rejected(self):
        with pytest.raises(ValueError):
            LaurentQ.q_power(-1).evaluate(0)
        assert LaurentQ.q_power(2).evaluate(0) == 0

    @given(laurents())
    def test_divide_by_one_minus_q_inverts_multiplication(self, w):
        v = ONE_MINUS_Q * w
        assert v.divide_by_one_minus_q() == w

    def test_divide_rejects_remainder(self):
        with pytest.raises(ValueError):
            LaurentQ.coerce(1).divide_by_one_minus_q()

    def test_int_coercion_in_ops(self):
        assert LaurentQ.q_power(1) * 2 + 1 == LaurentQ({0: 1, 1: 2})
        assert 1 - LaurentQ.q_power(1) == ONE_MINUS_Q

    def test_str_forms(self):
        assert str(LaurentQ({})) == "0"
        assert str(LaurentQ({-1: 1, 0: -1})) == "q^-1 - 1"


class DenseLaurentQ:
    """Dense reference for the sparse `LaurentQ`: coeffs[i] multiplies
    q**(min_exponent + i), both ends of the span are nonzero, and zero is the
    empty tuple with min_exponent 0."""

    def __init__(self, min_exponent: int = 0, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        lo, hi = 0, len(cs)
        while lo < hi and cs[lo] == 0:
            lo += 1
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        self.min_exponent = min_exponent + lo if lo < hi else 0
        self.coeffs = tuple(cs[lo:hi])

    @property
    def max_exponent(self) -> int:
        return self.min_exponent + len(self.coeffs) - 1 if self.coeffs else 0

    @staticmethod
    def coerce(value) -> "DenseLaurentQ":
        return value if isinstance(value, DenseLaurentQ) else DenseLaurentQ(0, (value,))

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

    def payload(self) -> dict:
        return {"min_exponent": self.min_exponent, "coeffs": [format_rat(c) for c in self.coeffs]}


# sparse maps with gaps, explicit zeros and repeated small coefficients
exponent_maps = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.one_of(st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-1)]), rationals),
    max_size=5,
)


def both(terms):
    lo, hi = min(terms, default=0), max(terms, default=-1)
    return LaurentQ(terms), DenseLaurentQ(lo, [terms.get(k, 0) for k in range(lo, hi + 1)])


def assert_agrees(sparse, dense):
    assert isinstance(sparse, LaurentQ)
    assert str(sparse) == str(dense)
    assert laurent_payload(sparse) == dense.payload()


def outcome(thunk):
    try:
        return thunk()
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestAgainstDenseReference:
    @given(exponent_maps, exponent_maps, st.integers(-3, 3), rationals)
    def test_ring_operations(self, ta, tb, n, r):
        (a, da), (b, db) = both(ta), both(tb)
        assert_agrees(a, da)
        for got, want in [
            (a + b, da + db), (a - b, da - db), (a * b, da * db), (-a, -da),
            (a + n, da + n), (n - a, n - da), (r * a, r * da), (a - r, da - r),
        ]:
            assert_agrees(got, want)
        assert (a == b) == (da == db)
        assert (a == n) == (da == n)

    @given(exponent_maps, st.fractions(min_value=-7, max_value=7, max_denominator=40))
    def test_evaluate(self, terms, q0):
        a, da = both(terms)
        assert outcome(lambda: a.evaluate(q0)) == outcome(lambda: da.evaluate(q0))
        assert outcome(lambda: a.evaluate(0)) == outcome(lambda: da.evaluate(0))

    @given(exponent_maps, exponent_maps)
    def test_divide_by_one_minus_q(self, tv, tw):
        (v, dv), (w, dw) = both(tv), both(tw)
        for x, dx in [(v, dv), (ONE_MINUS_Q * w, DenseLaurentQ(0, (1, -1)) * dw)]:
            got, want = outcome(x.divide_by_one_minus_q), outcome(dx.divide_by_one_minus_q)
            if isinstance(want, str):
                assert got == want == "ValueError: not divisible by (1 - q)"
            else:
                assert_agrees(got, want)

    def test_gap_filled_by_division(self):
        quotient = (1 - LaurentQ.q_power(4)).divide_by_one_minus_q()
        assert quotient == LaurentQ({0: 1, 1: 1, 2: 1, 3: 1})
        assert laurent_payload(LaurentQ({-2: 3, 1: -1})) == {"min_exponent": -2, "coeffs": ["3", "0", "0", "-1"]}
