import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_forge.matroids import Graph, weighted_laplacian_charpoly
from rayleigh_forge.polynomials import (
    GroundSet,
    QuadPoly,
    SubsetPoly,
    canonical_ground,
    charpoly_exact,
    det_exact,
    elementary_values,
    from_weights,
    mmatrix_weights,
    monomial_symmetric_expand,
    multiply,
    multiply_disjoint,
    poly_text,
    rayleigh_diff,
    theta,
)
from rayleigh_forge.prng import SplitMix64, sample_point
from rayleigh_forge.sequences import Seq, symmetrize, symseq_to_poly

F = Fraction


def monomial_symmetric_assemble(ground: GroundSet, coeffs) -> QuadPoly:
    """Reference inverse of monomial_symmetric_expand: every (support, square)
    pair of shape (|square|, |support|) = (j, k) gets the coefficient of (j, k)."""
    m = ground.m
    terms: dict[tuple[int, int], Fraction] = {}
    for (j, k), c in coeffs.items():
        assert 0 <= j <= k <= m
        if not c:
            continue
        for sup_elems in itertools.combinations(range(m), k):
            sup = sum(1 << i for i in sup_elems)
            for sq_elems in itertools.combinations(sup_elems, j):
                key = (sup, sum(1 << i for i in sq_elems))
                terms[key] = terms.get(key, F(0)) + c
    return QuadPoly(ground, terms)


@st.composite
def quad_polys(draw, labels: tuple[str, ...]) -> QuadPoly:
    """Random QuadPoly on the labels with signed, non-dyadic coefficients."""
    full = (1 << len(labels)) - 1
    keys = draw(st.lists(st.integers(0, full).flatmap(
        lambda sup: st.integers(0, full).map(lambda sq: (sup, sq & sup))), max_size=8))
    coeffs = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 3, 7)))
    return QuadPoly(GroundSet(labels), {k: draw(coeffs) for k in keys})


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

    def test_coefficients_are_fractions(self):
        # ints are converted; any other type is refused on construction
        g = GroundSet(("a",))
        z = SubsetPoly(g, {0: 3, 1: F(1, 2)})
        assert all(type(c) is F for c in z.terms.values())
        with pytest.raises(TypeError, match="float"):
            SubsetPoly(g, {0: F(1), 1: 1.5})
        with pytest.raises(TypeError, match="float"):
            QuadPoly(g, {(1, 1): 0.5})
        with pytest.raises(TypeError, match="float"):
            from_weights(g, {1: 2.0})

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

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_multiply_disjoint_quad_by_evaluation(self, data):
        p = data.draw(quad_polys(("a1", "a2")))
        q = data.draw(quad_polys(("b1", "b2")))
        prod = multiply_disjoint(p, q)
        assert isinstance(prod, QuadPoly)
        assert prod.ground.labels == ("a1", "a2", "b1", "b2")
        point = sample_point(SplitMix64(data.draw(st.integers(0, 2**64 - 1))), prod.ground.labels)
        assert prod.evaluate(point) == p.evaluate(point) * q.evaluate(point)

    def test_multiply_disjoint_rejects_mixed_kinds(self):
        z = SubsetPoly(GroundSet(("a",)), {1: F(1)})
        quad = QuadPoly(GroundSet(("b",)), {(1, 1): F(1)})
        with pytest.raises(TypeError):
            multiply_disjoint(z, quad)
        with pytest.raises(TypeError):
            multiply_disjoint(quad, z)


class TestQuadPoly:
    def test_key_validation(self):
        g = GroundSet(("a", "b"))
        with pytest.raises(ValueError):
            QuadPoly(g, {(1, 2): F(1)})  # squared var outside support

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_split_at_parts(self, data):
        labels = ("a", "b", "c", "d")
        p = data.draw(quad_polys(labels))
        g = data.draw(st.sampled_from(labels))
        parts = p.split_at(g)
        sub = p.ground.without(g)
        assert all(part.ground == sub for part in parts)
        point = sample_point(SplitMix64(data.draw(st.integers(0, 2**64 - 1))), labels)
        y = point[g]
        rest = {lab: v for lab, v in point.items() if lab != g}
        p0, p1, p2 = (part.evaluate(rest) for part in parts)
        assert p.evaluate(point) == p0 + y * p1 + y * y * p2

    def test_repr_prints_squares(self):
        g = GroundSet(("a", "b"))
        p = QuadPoly(g, {(3, 1): F(2), (2, 0): F(1), (0, 0): F(-1, 3)})
        assert repr(p) == "QuadPoly(-1/3 + y[b] + 2*y[a]^2*y[b])"
        assert repr(QuadPoly.zero(g)) == "QuadPoly(0)"

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
        seq = Seq(0, (F(1), F(3), F(2)), 2)
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


# --- Fraction references for the integer determinant and charpoly ----------------


def fraction_det(matrix):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(matrix)
    a = [[F(x) for x in row] for row in matrix]
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                factor = a[r][col] * inv
                for c2 in range(col, n):
                    a[r][c2] -= factor * a[col][c2]
    return det


def invert_exact(matrix):
    """Gauss-Jordan inverse over the rationals; ValueError on a singular matrix."""
    n = len(matrix)
    a = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def interpolation_charpoly(matrix):
    """det(tI + A) by `fraction_det` at t = 0..n and Lagrange interpolation, low degree first."""
    n = len(matrix)
    xs = [F(x) for x in range(n + 1)]
    ys = [
        fraction_det([[a + (x if i == j else 0) for j, a in enumerate(row)] for i, row in enumerate(matrix)])
        for x in xs
    ]
    coeffs = [F(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [F(1)]  # prod over j != i of (t - x_j), low degree first
        denom = F(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = [F(0)] + basis
                for d in range(len(basis) - 1):
                    basis[d] -= xj * basis[d + 1]
                denom *= xi - xj
        for d, c in enumerate(basis):
            coeffs[d] += ys[i] / denom * c
    return tuple(coeffs)


def mmatrix_reference_accepts(a):
    """mmatrix_weights' acceptance rule on Fraction minors and an explicit inverse."""
    n = len(a)
    for w in range(1, 1 << n):
        rows = [i for i in range(n) if w >> i & 1]
        if fraction_det([[a[i][j] for j in rows] for i in rows]) <= 0:
            return False

    def offdiag_nonpositive(mat):
        return all(mat[i][j] <= 0 for i in range(n) for j in range(n) if i != j)

    return offdiag_nonpositive(a) or offdiag_nonpositive(invert_exact(a))


DENOMINATORS = (1, 3, 7, 9, 2**20)


@st.composite
def rational_matrices(draw, max_n=7):
    """Square matrices with signed entries, denominators among 1, 3, 7, 9 and 2^20,
    and zeros; a zero diagonal, drawn half the time, forces row swaps."""
    n = draw(st.integers(0, max_n))
    entry = st.builds(F, st.sampled_from((0, 0, 1, -1, 2, -3, 5, -7, 9)), st.sampled_from(DENOMINATORS))
    a = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            a[i][i] = F(0)
    return a


@st.composite
def symmetric_matrices(draw):
    """Symmetric n <= 5 matrices: random ones, with a dominant diagonal or not, and
    inverses of random M-matrices, which have positive off-diagonal entries."""
    n = draw(st.integers(1, 5))
    den = draw(st.sampled_from(DENOMINATORS))
    kind = draw(st.sampled_from(("random", "dominant", "inverse")))
    high = 0 if kind == "inverse" else 4
    a = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            a[i][j] = a[j][i] = F(draw(st.integers(-4, high)), den)
    for i in range(n):
        if kind == "random":
            a[i][i] = F(draw(st.integers(-2, 9)), den)
        else:
            a[i][i] = sum(abs(x) for x in a[i]) + F(draw(st.integers(1, 6)), den)
    return invert_exact(a) if kind == "inverse" else a


@st.composite
def weighted_multigraphs(draw):
    """A multigraph on n <= 8 vertices with parallel edges, and rational edge weights."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14))
    edges = [(u, v) for u, v in pairs if u != v]
    edges += edges[: draw(st.integers(0, 3))]
    graph = Graph(n, tuple((u, v, f"e{i}") for i, (u, v) in enumerate(edges)))
    weight = st.builds(F, st.integers(1, 9), st.sampled_from(DENOMINATORS))
    return graph, {lab: draw(weight) for _, _, lab in graph.edges}


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

    def test_det_swaps_and_scales(self):
        assert det_exact([]) == 1
        assert det_exact([[0, 1], [1, 0]]) == -1
        assert det_exact([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
        assert det_exact([[F(1, 3), 0], [0, F(1, 7)]]) == F(1, 21)
        assert det_exact([[1, 2], [2, 4]]) == 0
        with pytest.raises(ValueError):
            det_exact([[1, 2]])

    def test_charpoly_small(self):
        assert charpoly_exact([]) == (1,)
        assert charpoly_exact([[F(1, 2), 0], [0, F(1, 3)]]) == (F(1, 6), F(5, 6), 1)
        # det(tI + A) for the 2-cycle: t^2 - 1
        assert charpoly_exact([[0, 1], [1, 0]]) == (-1, 0, 1)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_det_matches_fraction_elimination(a):
    assert det_exact(a) == fraction_det(a)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_charpoly_matches_interpolation(a):
    coeffs = charpoly_exact(a)
    assert all(isinstance(c, Fraction) for c in coeffs)
    assert coeffs == interpolation_charpoly(a)
    assert coeffs[0] == det_exact(a)


@settings(max_examples=80, deadline=None)
@given(weighted_multigraphs())
def test_laplacian_charpoly_matches_interpolation(graph_and_weights):
    graph, y = graph_and_weights
    n = graph.n
    lap = [[F(0)] * n for _ in range(n)]
    for u, v, lab in graph.edges:
        lap[u][u] += y[lab]
        lap[v][v] += y[lab]
        lap[u][v] -= y[lab]
        lap[v][u] -= y[lab]
    assert weighted_laplacian_charpoly(graph, y) == interpolation_charpoly(lap)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_mmatrix_weights_accepts_as_inverse_reference(a):
    if not mmatrix_reference_accepts(a):
        with pytest.raises(ValueError):
            mmatrix_weights(a)
        return
    z = mmatrix_weights(a)
    n = len(a)
    for w in z.ground.subsets():
        rows = [i for i in range(n) if w >> i & 1]
        assert z.coeff(w) == fraction_det([[a[i][j] for j in rows] for i in rows])


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
