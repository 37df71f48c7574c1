from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_forge.matroids import (
    complete_graph,
    cycle_graph,
    graphic_matroid,
    uniform_matroid,
)
from rayleigh_forge.sequences import (
    CONDITIONS,
    UniPoly,
    check_condition,
    check_many,
    convolution_identity,
    convolve,
    mason_report,
    seq_from_values,
    seq_poly,
    squarefree_decompose,
    sturm_real_roots,
)

F = Fraction


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

    def test_check_many(self):
        out = check_many(seq_from_values([1, 3, 3, 1], m=3), CONDITIONS)
        assert set(out) == set(CONDITIONS)
        assert all(v.holds for v in out.values())


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


class TestConvolution:
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
        for n in range(-2, 5):
            assert convolution_identity(a, b, n).equal

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
        assert report.independent == (1, 6, 15, 16)
        assert report.h_vector == (F(1), F(3), F(6), F(6))
        assert report.h_integral
        assert report.conjectured_ok
        # the strictest ladder rung is reported but does not gate
        assert not report.conditions["i5"].holds

    def test_uniform(self):
        report = mason_report(uniform_matroid(5, 3))
        assert report.h_vector == (F(1), F(2), F(3), F(4))
        assert report.conjectured_ok
        assert report.conditions["i4"].holds
        # the literal h_k/C(m,k) ratio rises at the top here (3/10 < 4/10),
        # which is why that field is reported but never gates
        assert not report.h_lym_nonincreasing

    def test_k4_lym_holds(self):
        assert mason_report(graphic_matroid(complete_graph(4))).h_lym_nonincreasing

    def test_cycle(self):
        report = mason_report(graphic_matroid(cycle_graph(4)))
        assert report.independent == (1, 4, 6, 4)
        assert report.conjectured_ok
