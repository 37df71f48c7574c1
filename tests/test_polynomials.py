import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_forge.polynomials import (
    GroundSet,
    QuadPoly,
    SubsetPoly,
    SymSeq,
    canonical_ground,
    det_exact,
    elementary_values,
    from_weights,
    invert_exact,
    mmatrix_weights,
    monomial_symmetric_assemble,
    monomial_symmetric_expand,
    multiply,
    multiply_disjoint,
    poly_text,
    rayleigh_diff,
    symmetrize,
    symseq_to_poly,
    theta,
)
from rayleigh_forge.prng import SplitMix64, sample_point

F = Fraction


def rand_poly(rng: SplitMix64, m: int, signed: bool = False) -> SubsetPoly:
    ground = canonical_ground(m)
    terms = {}
    for w in ground.subsets():
        if rng.below(2):
            c = F(rng.below(9))
            if signed and rng.below(2):
                c = -c
            terms[w] = c
    return SubsetPoly(ground, terms)


class TestGroundSet:
    def test_word_labels_roundtrip(self):
        g = GroundSet(("a", "b", "c"))
        w = g.word(("a", "c"))
        assert g.labels_of(w) == ("a", "c")
        assert g.bit("b") == 2
        assert g.full == 7

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))
        with pytest.raises(ValueError):
            GroundSet(("a", ""))
        with pytest.raises(ValueError):
            GroundSet(str(i) for i in range(31))

    def test_word_rejects_repeats_and_unknowns(self):
        g = GroundSet(("a", "b"))
        with pytest.raises(ValueError):
            g.word(("a", "a"))
        with pytest.raises(ValueError):
            g.word(("z",))

    def test_without_preserves_order(self):
        g = GroundSet(("a", "b", "c", "d"))
        assert g.without("b", "d").labels == ("a", "c")


class TestSubsetPoly:
    def test_zero_coefficients_dropped(self):
        g = GroundSet(("a",))
        z = SubsetPoly(g, {0: F(0), 1: F(2)})
        assert z.terms == {1: F(2)}

    def test_slice_recomposition(self):
        # Z = Z with y_e = 0, plus y_e times the derivative slice
        rng = SplitMix64(11)
        for _ in range(20):
            z = rand_poly(rng, 4, signed=True)
            e = "2"
            dele, cone = z.delete(e), z.contract(e)
            point = sample_point(rng, z.ground.labels)
            sub = {k: v for k, v in point.items() if k != e}
            assert z.evaluate(point) == dele.evaluate(sub) + point[e] * cone.evaluate(sub)

    def test_dualize_by_evaluation(self):
        rng = SplitMix64(12)
        for _ in range(20):
            z = rand_poly(rng, 4)
            point = sample_point(rng, z.ground.labels)
            inverted = {k: 1 / v for k, v in point.items()}
            prod = F(1)
            for v in point.values():
                prod *= v
            assert z.dualize().evaluate(point) == prod * z.evaluate(inverted)

    def test_dualize_is_involutive(self):
        rng = SplitMix64(13)
        z = rand_poly(rng, 5, signed=True)
        assert z.dualize().dualize() == z

    def test_aligned_to_permuted_ground(self):
        g = GroundSet(("a", "b", "c"))
        z = SubsetPoly(g, {g.word(("a", "c")): F(3), 0: F(1)})
        h = GroundSet(("c", "a", "b"))
        w = z.aligned_to(h)
        assert w.coeff(h.word(("a", "c"))) == 3
        assert w.coeff(0) == 1

    def test_from_weights_validates(self):
        g = GroundSet(("a",))
        assert from_weights(g, {1: F(2)}).coeff(1) == 2
        with pytest.raises(ValueError):
            from_weights(g, {1: F(-2)})

    def test_poly_text_stable(self):
        g = GroundSet(("a", "b"))
        z = SubsetPoly(g, {0: F(1), 3: F(1, 2)})
        assert poly_text(z) == "1 + 1/2*y[a]*y[b]"


class TestMultiplication:
    def test_multiply_matches_bruteforce_dict(self):
        # independent route: expand products over explicit exponent vectors
        rng = SplitMix64(21)
        for _ in range(10):
            p = rand_poly(rng, 4, signed=True)
            q = rand_poly(rng, 4, signed=True)
            expect: dict[tuple[int, int], Fraction] = {}
            for w1, c1 in p.terms.items():
                for w2, c2 in q.terms.items():
                    key = (w1 | w2, w1 & w2)
                    expect[key] = expect.get(key, F(0)) + c1 * c2
            got = multiply(p, q)
            assert {k: v for k, v in expect.items() if v} == got.terms

    def test_multiply_disjoint_by_evaluation(self):
        rng = SplitMix64(22)
        ga = GroundSet(("a1", "a2"))
        gb = GroundSet(("b1",))
        p = SubsetPoly(ga, {0: F(1), 1: F(2), 3: F(5)})
        q = SubsetPoly(gb, {0: F(3), 1: F(7)})
        prod = multiply_disjoint(p, q)
        point = sample_point(rng, prod.ground.labels)
        assert prod.evaluate(point) == p.evaluate(point) * q.evaluate(point)

    def test_multiply_disjoint_rejects_overlap(self):
        g = GroundSet(("a",))
        z = SubsetPoly(g, {1: F(1)})
        with pytest.raises(ValueError):
            multiply_disjoint(z, z)


class TestQuadPoly:
    def test_key_validation(self):
        g = GroundSet(("a", "b"))
        with pytest.raises(ValueError):
            QuadPoly(g, {(1, 2): F(1)})  # squared var outside support

    def test_times_variable_and_slices(self):
        g = GroundSet(("a", "b"))
        p = QuadPoly(g, {(1, 0): F(2)})
        lifted = p.times_variable("b", 2)
        assert lifted.terms == {(3, 2): F(2)}
        assert lifted.contract("a").terms == {(1, 1): F(2)}
        with pytest.raises(ValueError):
            lifted.contract("b")  # squared variable: a slice would lose terms

    def test_collapse_equal_variables(self):
        g = GroundSet(("a", "b"))
        p = QuadPoly(g, {(3, 1): F(2), (1, 0): F(-1), (0, 0): F(4)})
        # degrees: 3 (a^2 b), 1, 0
        assert p.collapse_equal_variables() == [F(4), F(-1), F(0), F(2)]


class TestRayleighDiff:
    def bruteforce_diff(self, z: SubsetPoly, e: str, f: str) -> QuadPoly:
        # route: four slices through label sets, re-keyed onto the ground set
        # without e and f, then multiply and the Fraction subtraction.  It
        # checks the slicing and re-keying of rayleigh_diff but shares its
        # integer kernel through multiply; tests/test_kernel.py checks that
        # kernel against a Fraction reference.
        g = z.ground
        sub = g.without(e, f)

        def part(keep: set, zero: set) -> SubsetPoly:
            terms = {}
            for w, c in z.terms.items():
                labels = set(g.labels_of(w))
                if keep <= labels and not labels & zero:
                    terms[sub.word(labels - keep)] = c
            return SubsetPoly(sub, terms)

        lhs = multiply(part({e}, {f}), part({f}, {e}))
        rhs = multiply(part({e, f}, set()), part(set(), {e, f}))
        return lhs - rhs

    def test_matches_bruteforce(self):
        rng = SplitMix64(31)
        for _ in range(15):
            z = rand_poly(rng, 4)
            assert rayleigh_diff(z, "1", "3") == self.bruteforce_diff(z, "1", "3")

    def test_rank_one_example(self):
        # Z = y1 + y2 + y3: the pair difference is the constant 1
        g = canonical_ground(3)
        z = SubsetPoly(g, {1: F(1), 2: F(1), 4: F(1)})
        d = rayleigh_diff(z, "1", "2")
        assert d.terms == {(0, 0): F(1)}

    def test_product_weights_have_zero_diff(self):
        # independent coordinates: Z = (1 + 2 y1)(1 + 3 y2) factors, so the
        # covariance of the pair vanishes identically
        g = canonical_ground(2)
        z = SubsetPoly(g, {0: F(1), 1: F(2), 2: F(3), 3: F(6)})
        assert rayleigh_diff(z, "1", "2").is_zero()

    def test_distinctness_required(self):
        g = canonical_ground(2)
        z = SubsetPoly(g, {3: F(1)})
        with pytest.raises(ValueError):
            rayleigh_diff(z, "1", "1")


class TestTheta:
    def test_decomposition_identity_by_evaluation(self):
        rng = SplitMix64(41)
        for _ in range(15):
            z = rand_poly(rng, 5)
            e, f, g = "1", "3", "5"
            diff = rayleigh_diff(z, e, f)
            th = theta(z, e, f, g)
            d_del = rayleigh_diff(z.delete(g), e, f)
            d_con = rayleigh_diff(z.contract(g), e, f)
            point = sample_point(rng, diff.ground.labels)
            sub = {k: v for k, v in point.items() if k != g}
            yg = point[g]
            assert diff.evaluate(point) == (
                d_del.evaluate(sub) + yg * th.evaluate(sub) + yg * yg * d_con.evaluate(sub)
            )

    def test_rank_one_slices(self):
        # Z = y1 + y2 + y3: deleting 3 keeps diff=1, contracting kills it
        g = canonical_ground(3)
        z = SubsetPoly(g, {1: F(1), 2: F(1), 4: F(1)})
        assert theta(z, "1", "2", "3").is_zero()
        assert rayleigh_diff(z.delete("3"), "1", "2").terms == {(0, 0): F(1)}
        assert rayleigh_diff(z.contract("3"), "1", "2").is_zero()


class TestSymmetric:
    def test_symmetrize_inverts_expansion(self):
        seq = SymSeq((F(1), F(3), F(2)))
        assert symmetrize(symseq_to_poly(seq)) == seq

    def test_symmetrize_averages(self):
        g = canonical_ground(2)
        z = SubsetPoly(g, {1: F(4), 2: F(0)})
        assert symmetrize(z).entries == (F(0), F(2), F(0))

    def test_elementary_values_match_combinations(self):
        vals = [F(2), F(3), F(5), F(7)]
        es = elementary_values(vals)
        for k in range(5):
            expect = sum((math.prod(c, start=F(1)) for c in itertools.combinations(vals, k)), F(0))
            assert es[k] == expect

    def test_mono_expand_assemble_roundtrip(self):
        g = canonical_ground(3)
        coeffs = {(0, 0): F(2), (1, 2): F(-1), (2, 2): F(5), (0, 1): F(7)}
        p = monomial_symmetric_assemble(g, coeffs)
        assert monomial_symmetric_expand(p) == coeffs

    def test_mono_expand_rejects_asymmetric(self):
        g = canonical_ground(2)
        p = QuadPoly(g, {(1, 0): F(1)})
        with pytest.raises(ValueError):
            monomial_symmetric_expand(p)


class TestExactLinearAlgebra:
    def test_det_2x2_and_3x3(self):
        assert det_exact([[F(2), F(1)], [F(1), F(2)]]) == 3
        a = [[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(10)]]
        assert det_exact(a) == -3

    def test_invert_roundtrip(self):
        a = [[F(2), F(-1)], [F(-1), F(2)]]
        inv = invert_exact(a)
        n = len(a)
        prod = [
            [sum(a[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)
        ]
        assert prod == [[F(1), F(0)], [F(0), F(1)]]

    def test_invert_rejects_singular(self):
        with pytest.raises(ValueError):
            invert_exact([[F(1), F(1)], [F(1), F(1)]])

    def test_mmatrix_weights_2x2(self):
        z = mmatrix_weights([[F(2), F(-1)], [F(-1), F(2)]])
        g = z.ground
        assert z.coeff(0) == 1
        assert z.coeff(g.word(("1",))) == 2
        assert z.coeff(g.word(("2",))) == 2
        assert z.coeff(g.full) == 3

    def test_mmatrix_weights_accepts_inverse_form(self):
        # positive off-diagonal, but the inverse is an M-matrix
        a = invert_exact([[F(2), F(-1)], [F(-1), F(2)]])
        z = mmatrix_weights(a, labels=("x", "y"))
        assert z.ground.labels == ("x", "y")
        assert all(c > 0 for c in z.terms.values())

    def test_mmatrix_weights_rejections(self):
        with pytest.raises(ValueError):
            mmatrix_weights([[F(1), F(2)], [F(3), F(1)]])  # not symmetric
        with pytest.raises(ValueError):
            mmatrix_weights([[F(0), F(0)], [F(0), F(1)]])  # minor not positive
        # positive definite, but neither it nor its inverse has nonpositive
        # off-diagonal entries (the inverse's corner entry is +1/4)
        tridiag = [[F(2), F(1), F(0)], [F(1), F(2), F(1)], [F(0), F(1), F(2)]]
        with pytest.raises(ValueError):
            mmatrix_weights(tridiag)

    def test_mmatrix_size_cap(self):
        n = 13
        eye = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
        with pytest.raises(ValueError):
            mmatrix_weights(eye)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=5))
def test_mono_assemble_evaluates_symmetrically(values):
    # assembling any coefficient map gives a polynomial invariant under swaps
    g = canonical_ground(3)
    coeffs = {}
    vals = list(values)
    shapes = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (0, 3)]
    for shape, c in zip(shapes, vals):
        coeffs[shape] = c
    p = monomial_symmetric_assemble(g, coeffs)
    pt = {"1": F(2), "2": F(3), "3": F(5)}
    swapped = {"1": F(3), "2": F(2), "3": F(5)}
    assert p.evaluate(pt) == p.evaluate(swapped)
