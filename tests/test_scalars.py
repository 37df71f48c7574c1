from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rayleigh_forge.scalars import SYMBOLIC_Q, clear_denominators, format_rat, parse_rat, q_exponent

from laurent_reference import DenseLaurentQ

ONE_MINUS_Q = DenseLaurentQ(0, (1, -1))
rationals = st.fractions(max_denominator=1000)


def laurents():
    return st.builds(
        DenseLaurentQ,
        st.integers(min_value=-5, max_value=5),
        st.lists(rationals, max_size=6),
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
    """The reference Laurent arithmetic that the symbolic-q tests compare against."""

    def test_normalization_strips_zero_ends(self):
        v = DenseLaurentQ(-2, (0, 1, 2, 0))
        assert (v.min_exponent, v.coeffs) == (-1, (Fraction(1), Fraction(2)))

    def test_zero_is_empty(self):
        assert not DenseLaurentQ(3, (0, 0))
        assert DenseLaurentQ() == DenseLaurentQ(5, (0,)) == 0

    def test_constant_and_power(self):
        assert DenseLaurentQ.coerce(3).evaluate(Fraction(7)) == 3
        assert DenseLaurentQ.q_power(-2).evaluate(Fraction(1, 2)) == 4

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
            DenseLaurentQ.q_power(-1).evaluate(0)
        assert DenseLaurentQ.q_power(2).evaluate(0) == 0

    @given(laurents())
    def test_divide_by_one_minus_q_inverts_multiplication(self, w):
        v = ONE_MINUS_Q * w
        assert v.divide_by_one_minus_q() == w

    def test_divide_rejects_remainder(self):
        with pytest.raises(ValueError):
            DenseLaurentQ.coerce(1).divide_by_one_minus_q()

    def test_int_coercion_in_ops(self):
        assert DenseLaurentQ.q_power(1) * 2 + 1 == DenseLaurentQ(0, (1, 2))
        assert 1 - DenseLaurentQ.q_power(1) == ONE_MINUS_Q

    def test_str_forms(self):
        assert str(DenseLaurentQ()) == "0"
        assert str(DenseLaurentQ(-1, (1, -1))) == "q^-1 - 1"


class TestQExponent:
    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 2])
    def test_reads_powers_of_q(self, k):
        assert q_exponent(SYMBOLIC_Q**k) == k

    @pytest.mark.parametrize(
        "c", [Fraction(3), Fraction(1, 2), Fraction(2**9), Fraction(2**8 + 1), Fraction(0), Fraction(-256)]
    )
    def test_refuses_what_is_no_power_of_256(self, c):
        with pytest.raises(ArithmeticError):
            q_exponent(c)
