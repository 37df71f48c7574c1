from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rayleigh_forge.matroids import (
    complete_graph,
    cycle_graph,
    graphic_matroid,
    uniform_matroid,
)
from rayleigh_forge.polynomials import SubsetPoly, canonical_ground
from rayleigh_forge.sequences import (
    Seq,
    check_condition,
    convolution_identity,
    convolve,
    mason_report,
    seq_from_values,
    sturm_chain,
    symmetrize,
    symseq_to_poly,
)

F = Fraction


# --- Fraction reference for a6: Yun's square-free decomposition, then Sturm ----------


class UniPoly:
    """Dense univariate polynomial over the rationals, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [F(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def evaluate(self, x: Fraction) -> Fraction:
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def monic(self) -> "UniPoly":
        return self if self.is_zero else UniPoly(c / self.lead for c in self.coeffs)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        a = list(self.coeffs) + [F(0)] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] -= c
        return UniPoly(a)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly([]), self
        quo = [F(0)] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] / other.lead
            quo[i] = c
            for j, oc in enumerate(other.coeffs):
                rem[i + j] -= c * oc
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        assert r.is_zero, "inexact polynomial division"
        return q

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]


def seq_poly(seq: Seq) -> UniPoly:
    return UniPoly([F(0)] * seq.offset + list(seq.entries))


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def squarefree_decompose(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: p = const * prod g_i^i with the g_i squarefree and coprime."""
    if p.degree < 1:
        return []
    d = poly_gcd(p, p.derivative())
    if d.degree == 0:
        return [(p.monic(), 1)]
    b = p // d
    c = p.derivative() // d
    out = []
    i = 1
    while b.degree >= 1:
        w = c - b.derivative()
        a = poly_gcd(b, w)
        if a.degree >= 1:
            out.append((a, i))
            b = b // a
            c = w // a
        else:
            c = w
        i += 1
    return out


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(chain: list[UniPoly], point, neg_infinity: bool = False) -> int:
    if point is None:
        signs = [_sign(f.lead) * (-1 if neg_infinity and f.degree & 1 else 1) for f in chain]
    else:
        signs = [s for s in (_sign(f.evaluate(point)) for f in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def classical_chain(p: UniPoly) -> list[UniPoly]:
    """p, p', then negated Euclidean remainders until one vanishes."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        chain.append(UniPoly(-c for c in (chain[-2] % chain[-1]).coeffs))
    chain.pop()
    return chain


def _distinct_roots_in(p: UniPoly, lo, hi) -> int:
    """Distinct real roots of squarefree p in (lo, hi]; None means unbounded."""
    count = 0
    if hi is not None and not p.evaluate(hi):
        count += 1
        p = p // UniPoly([-hi, 1])
    if lo is not None and not p.evaluate(lo):
        p = p // UniPoly([-lo, 1])
    if p.degree < 1:
        return count
    chain = classical_chain(p)
    return count + _variations(chain, lo, neg_infinity=True) - _variations(chain, hi)


def sturm_real_roots(p: UniPoly, interval=None) -> int:
    """Real roots of p counted with multiplicity, restricted to (lo, hi] if given."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    lo, hi = interval if interval is not None else (None, None)
    return sum(mult * _distinct_roots_in(g, lo, hi) for g, mult in squarefree_decompose(p))


def reference_a6(seq: Seq) -> bool:
    """All roots real and none positive, by two Sturm counts per square-free factor."""
    p = seq_poly(seq)
    if p.is_zero:
        return True
    return sturm_real_roots(p) == p.degree and sturm_real_roots(p, (F(0), None)) == 0


class TestSeq:
    def test_window_accessors(self):
        s = seq_from_values([2, 3, 5], offset=1, m=4)
        assert (s.s, s.r) == (1, 3)
        assert s.at(0) == 0 and s.at(2) == 3 and s.at(9) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            seq_from_values([1, -1])
        with pytest.raises(ValueError):
            seq_from_values([])
        with pytest.raises(ValueError):
            seq_from_values([1], offset=-1)
        with pytest.raises(ValueError):
            seq_from_values([1, 2, 3], m=1)
        with pytest.raises(TypeError):
            seq_from_values([1.5])


class TestLadder:
    def test_a0_internal_zero(self):
        assert check_condition(seq_from_values([0, 1, 2, 0]), "a0").holds
        v = check_condition(seq_from_values([1, 0, 2]), "a0")
        assert not v.holds and v.witness == 1

    def test_a1_unimodal(self):
        assert check_condition(seq_from_values([1, 3, 3, 2]), "a1").holds
        v = check_condition(seq_from_values([2, 1, 3]), "a1")
        assert not v.holds and v.witness == 2

    def test_a2_log_concave(self):
        assert check_condition(seq_from_values([1, 3, 3, 1]), "a2").holds
        v = check_condition(seq_from_values([1, 1, 4]), "a2")
        assert not v.holds and v.witness == 1

    def test_a3_factorial_weighting(self):
        # 1,1,1 passes a2 plainly but k! weights give 1,1,2
        v = check_condition(seq_from_values([1, 1, 1]), "a3")
        assert not v.holds
        assert check_condition(seq_from_values([1, 2, 1]), "a3").holds

    def test_a4_needs_m(self):
        seq = seq_from_values([1, 2, 1])
        with pytest.raises(ValueError):
            check_condition(seq, "a4")
        assert check_condition(seq_from_values([1, 2, 1], m=2), "a4").holds

    def test_gamma_family_thresholds(self):
        # center entry of (1,12,60,20g,60,12,1): the binomial-normalized
        # comparison turns at g = 4 and back off above g = 8
        def a4_holds(num, den=1):
            seq = seq_from_values([1, 12, 60, 20 * F(num, den), 60, 12, 1], m=6)
            return check_condition(seq, "a4").holds

        assert a4_holds(4) and a4_holds(8)
        assert not a4_holds(399, 100)
        assert not a4_holds(801, 100)

    def test_a5_uses_top_index(self):
        # offset shifts r; (1,1) anchored at 2 with r=3 divides by C(3,k)
        low = seq_from_values([1, 1], offset=0)
        high = seq_from_values([1, 1], offset=2)
        assert check_condition(low, "a5").holds
        assert check_condition(high, "a5").holds

    def test_a6_real_rooted(self):
        # (1+t)^3 = 1,3,3,1: real-rooted with all roots negative
        assert check_condition(seq_from_values([1, 3, 3, 1]), "a6").holds
        # 1 + t^2 has imaginary roots
        assert not check_condition(seq_from_values([1, 0, 1]), "a6").holds
        # a6 verdicts carry no witness index
        assert check_condition(seq_from_values([1, 0, 1]), "a6").witness is None

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            check_condition(seq_from_values([1]), "a7")


@st.composite
def exchangeable_seqs(draw):
    """Nonnegative Seqs with m set, offset and trailing zeros included."""
    offset = draw(st.integers(0, 3))
    entries = draw(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=9), min_size=1, max_size=4))
    return Seq(offset, tuple(entries), offset + len(entries) - 1 + draw(st.integers(0, 2)))


class TestExchangeableSeq:
    @given(exchangeable_seqs())
    @settings(max_examples=100, deadline=None)
    def test_symmetrize_inverts_expansion(self, seq):
        padded = Seq(0, tuple(seq.at(k) for k in range(seq.m + 1)), seq.m)
        assert symmetrize(symseq_to_poly(seq)) == padded

    def test_expansion_needs_m(self):
        with pytest.raises(ValueError, match="ambient size m"):
            symseq_to_poly(Seq(0, (F(1), F(2))))

    def test_symmetrize_refuses_negative_coefficients(self):
        with pytest.raises(ValueError, match="nonnegative"):
            symmetrize(SubsetPoly(canonical_ground(2), {0: F(1), 1: F(-1)}))


def _holds(entries, cond, m=None):
    return check_condition(seq_from_values(entries, m=m), cond).holds


@st.composite
def small_seqs(draw):
    entries = draw(st.lists(st.integers(0, 12), min_size=2, max_size=7))
    if not any(entries):
        entries[0] = 1
    return entries


class TestImplications:
    @given(small_seqs())
    @settings(max_examples=150, deadline=None)
    def test_chain_a5_down_to_a2(self, entries):
        m = len(entries) - 1
        if _holds(entries, "a5"):
            assert _holds(entries, "a4", m=m)
        if _holds(entries, "a4", m=m):
            assert _holds(entries, "a3")
        if _holds(entries, "a3"):
            assert _holds(entries, "a2")

    @given(small_seqs())
    @settings(max_examples=150, deadline=None)
    def test_a2_with_a0_gives_a1(self, entries):
        if _holds(entries, "a2") and _holds(entries, "a0"):
            assert _holds(entries, "a1")

    @given(small_seqs())
    @settings(max_examples=150, deadline=None)
    def test_a6_gives_a5_and_a0(self, entries):
        if _holds(entries, "a6"):
            assert _holds(entries, "a5")
            assert _holds(entries, "a0")


class TestRootCounting:
    def test_known_cubics(self):
        p = UniPoly([2, 5, 4, 1])  # (t+1)^2 (t+2)
        assert sturm_real_roots(p) == 3
        assert sturm_real_roots(p, (F(0), None)) == 0
        # (lo, hi] excludes -2 and counts -1 with multiplicity
        assert sturm_real_roots(p, (F(-2), F(-1))) == 2

    def test_interval_semantics(self):
        # roots of (t-1)(t-2): window (1, 2] sees only 2; [counting is (lo, hi]]
        p = UniPoly([2, -3, 1])
        assert sturm_real_roots(p) == 2
        assert sturm_real_roots(p, (F(0), None)) == 2
        assert sturm_real_roots(p, (F(1), F(2))) == 1
        assert sturm_real_roots(p, (F(0), F(1))) == 1

    def test_multiplicity(self):
        p = UniPoly([1, 2, 1])  # (t+1)^2
        assert sturm_real_roots(p) == 2

    def test_no_real_roots(self):
        assert sturm_real_roots(UniPoly([1, 0, 1])) == 0

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            sturm_real_roots(UniPoly([]))

    def test_squarefree_decompose(self):
        # (t+1)^2 (t+2): factors by multiplicity, monic up to the lead
        p = UniPoly([2, 5, 4, 1])
        parts = squarefree_decompose(p)
        by_mult = {mult: factor for factor, mult in parts}
        assert by_mult[2] == UniPoly([1, 1]).monic()
        assert by_mult[1].monic() == UniPoly([2, 1]).monic()

    def test_seq_poly(self):
        p = seq_poly(seq_from_values([2, 0, 5], offset=1))
        assert p.evaluate(F(1)) == 7
        assert p.evaluate(F(2)) == 2 * 2 + 5 * 8


DENOMS = st.sampled_from((1, 3, 7, 9))
POSITIVE = st.builds(F, st.integers(1, 12), DENOMS)
NONNEG = st.builds(F, st.integers(0, 12), DENOMS)
ENTRY_SEQS = st.lists(NONNEG, min_size=1, max_size=10).map(lambda e: Seq(1, tuple(e)))


def _poly_mul(a: list, b: list) -> list:
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def factored_seqs(draw, max_degree: int = 30):
    """Nonnegative products of linear and quadratic factors, some repeated, with a
    t^offset, internal zeros from c + a t^k, and denominators 1, 3, 7 and 9."""
    p = [draw(POSITIVE)]
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("linear", "linear", "quadratic", "gap")))
        if kind == "linear":
            factor = [draw(NONNEG), draw(POSITIVE)]
        elif kind == "quadratic":
            factor = [draw(POSITIVE), draw(NONNEG), draw(POSITIVE)]
        else:
            factor = [draw(POSITIVE)] + [F(0)] * draw(st.integers(1, 3)) + [draw(POSITIVE)]
        for _ in range(draw(st.integers(1, 3))):
            if len(p) + len(factor) - 2 > max_degree:
                break
            p = _poly_mul(p, factor)
    offset = draw(st.integers(0, 3))
    return Seq(offset, tuple(p) + (F(0),) * draw(st.integers(0, 1)))


class TestA6Chain:
    """a6 through the integer Sturm chain against the Fraction reference above."""

    @given(factored_seqs())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_factored(self, seq):
        assert check_condition(seq, "a6").holds == reference_a6(seq)

    @given(st.lists(NONNEG, min_size=1, max_size=12), st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_arbitrary_entries(self, entries, offset):
        seq = Seq(offset, tuple(entries))
        assert check_condition(seq, "a6").holds == reference_a6(seq)

    # the examples have a degree gap before a negative leading coefficient: the
    # chain keeps its signs only if that coefficient's power is of its absolute value
    @given(st.one_of(factored_seqs(12), ENTRY_SEQS))
    @example(seq_from_values([2, 0, 0, 0, 2, 7]))
    @example(seq_from_values([5, 1, 0, 0, 7]))
    @example(seq_from_values([5, 0, 0, 0, 3, 0, 0, 0, 0, 20]))
    @settings(max_examples=200, deadline=None)
    def test_chain_is_positive_multiple_of_classical(self, seq):
        coeffs = list(seq_poly(seq).coeffs)
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
        p = UniPoly(coeffs)
        expected = classical_chain(p) if p.degree >= 1 else []
        chain = sturm_chain(seq)
        assert len(chain) == len(expected)
        for got, ref in zip(chain, expected):
            assert all(isinstance(c, int) for c in got)
            assert UniPoly(got).monic() == ref.monic() and got[-1] * ref.lead > 0

    def test_repeated_and_complex_factors(self):
        lin, quad = [F(2), F(1)], [F(1), F(1), F(1)]  # t + 2 and t^2 + t + 1
        real = _poly_mul(_poly_mul(lin, lin), _poly_mul(lin, [F(1, 3), F(1)]))
        assert check_condition(Seq(2, tuple(real)), "a6").holds
        squared = _poly_mul(quad, quad)
        assert not check_condition(Seq(0, tuple(_poly_mul(squared, lin))), "a6").holds
        # 1 + t^3: one real root and two complex ones; zeros inside the support
        assert not check_condition(seq_from_values([1, 0, 0, 1]), "a6").holds
        assert check_condition(seq_from_values([0, 0, 5]), "a6").holds
        assert check_condition(seq_from_values([0, 0]), "a6").holds


# --- Fraction reference for the convolution identity ---------------------------------


def ref_at(x, k):
    return F(x[k]) if 0 <= k < len(x) else F(0)


def ref_c_term(a, b, n):
    return sum((ref_at(a, n + k) * ref_at(b, k) for k in range(len(b))), F(0))


def ref_convolution_sides(a, b, n):
    """(lhs, rhs) of the square-difference expansion, term by term in Fractions."""
    c_prev, c_mid, c_next = (ref_c_term(a, b, n + d) for d in (-1, 0, 1))
    lhs = c_mid * c_mid - c_prev * c_next
    rhs = F(0)
    for k in range(len(b) + 1):
        for j in range(k + 1):
            left = ref_at(a, n + j) * ref_at(a, n + k) - ref_at(a, n + j - 1) * ref_at(a, n + k + 1)
            right = ref_at(b, j) * ref_at(b, k) - ref_at(b, j - 1) * ref_at(b, k + 1)
            rhs += left * right
    return lhs, rhs


signed_lists = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=1, max_size=6)


class TestConvolution:
    @given(signed_lists, signed_lists)
    @settings(max_examples=150, deadline=None)
    def test_identity_matches_fraction_reference(self, a, b):
        for n in range(-2, len(a) + len(b) + 3):
            rec = convolution_identity(a, b, n)
            assert (rec.lhs, rec.rhs) == ref_convolution_sides(a, b, n)
            assert rec.equal

    @given(signed_lists, signed_lists)
    @settings(max_examples=100, deadline=None)
    def test_convolve_matches_fraction_reference(self, a, b):
        sa, sb = (seq_from_values(map(abs, x), offset=len(x) % 3) for x in (a, b))
        la, lb = ([x.at(k) for k in range(x.r + 1)] for x in (sa, sb))
        c = convolve(sa, sb)
        assert c.entries == tuple(ref_c_term(la, lb, n) for n in range(sa.s - sb.r, sa.r - sb.s + 1))

    def test_identity_exact_on_signed_lists(self):
        import random

        rnd = random.Random(7)
        for _ in range(30):
            a = [F(rnd.randint(-9, 9)) for _ in range(rnd.randint(1, 5))]
            b = [F(rnd.randint(-9, 9)) for _ in range(rnd.randint(1, 5))]
            n = rnd.randint(0, 4)
            rec = convolution_identity(a, b, n)
            assert rec.equal

    def test_identity_on_seqs(self):
        a = seq_from_values([1, 4, 6, 4, 1], m=4)
        b = seq_from_values([1, 2, 1], m=2)
        la, lb = ([x.at(k) for k in range(x.r + 1)] for x in (a, b))
        for n in range(-2, 5):
            assert convolution_identity(la, lb, n).equal

    def test_convolve_window_and_closure(self):
        a = seq_from_values([1, 3, 3, 1], m=3)
        b = seq_from_values([1, 1], m=1)
        c = convolve(a, b)
        # c_n = a_n b_0 + a_{n+1} b_1 over n in [s_a - r_b, r_a - s_b]
        assert c.offset == 0
        assert c.entries == (F(1), F(4), F(6), F(4), F(1))
        assert check_condition(c, "a2").holds and check_condition(c, "a0").holds

    def test_convolve_preserves_log_concavity(self):
        import random

        rnd = random.Random(11)
        for _ in range(20):
            # build log-concave inputs as convolutions of binomial atoms
            a = seq_from_values([1, rnd.randint(1, 5)])
            for _ in range(rnd.randint(0, 3)):
                a = convolve(a, seq_from_values([1, rnd.randint(1, 5)]))
            b = seq_from_values([1, rnd.randint(1, 5)])
            c = convolve(a, b)
            assert check_condition(c, "a2").holds
            assert check_condition(c, "a0").holds


class TestMasonReport:
    def test_k4(self):
        report = mason_report(graphic_matroid(complete_graph(4)))
        assert report.inv.I == (1, 6, 15, 16)
        assert report.inv.h == (F(1), F(3), F(6), F(6))
        assert report.inv.h_integral
        assert report.conjectured_ok
        # the strictest ladder rung is reported but does not gate
        assert not report.conditions["i5"].holds

    def test_uniform(self):
        report = mason_report(uniform_matroid(5, 3))
        assert report.inv.h == (F(1), F(2), F(3), F(4))
        assert report.conjectured_ok
        assert report.conditions["i4"].holds
        # the literal h_k/C(m,k) ratio rises at the top here (3/10 < 4/10),
        # which is why that field is reported but never gates
        assert not report.h_lym_nonincreasing

    def test_k4_lym_holds(self):
        assert mason_report(graphic_matroid(complete_graph(4))).h_lym_nonincreasing

    def test_cycle(self):
        report = mason_report(graphic_matroid(cycle_graph(4)))
        assert report.inv.I == (1, 4, 6, 4)
        assert report.conjectured_ok
