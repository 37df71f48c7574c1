from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rayleigh_forge.polynomials import GroundSet, QuadPoly, SubsetPoly, canonical_ground
from rayleigh_forge.words import bit_positions, compress, expand, monomial_table, popcount

F = Fraction

LABELS = tuple("abcdefgh")

# mixed denominators, so no common scale hides a wrong factor
RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=12)
POSITIVE = st.fractions(min_value=F(1, 12), max_value=16, max_denominator=12)


@st.composite
def placements(draw):
    """A ground set of m <= 8 labels and a ground set of some of them, in any order."""
    m = draw(st.integers(0, 8))
    labels = draw(st.permutations(LABELS))[:m]
    sub = draw(st.permutations(labels))[: draw(st.integers(0, m))]
    return GroundSet(labels), GroundSet(sub)


@settings(max_examples=100, deadline=None)
@given(placements(), st.integers(0, 255))
def test_compress_matches_label_reference(placement, word):
    g, sub = placement
    word &= g.full
    pos = tuple(map(g.index, sub.labels))
    kept = [lab for lab in g.labels_of(word) if lab in sub.labels]
    assert compress(word, pos) == sub.word(kept)
    assert expand(compress(word, pos), pos) == word & g.word(sub.labels)


@settings(max_examples=100, deadline=None)
@given(placements(), st.integers(0, 255))
def test_expand_matches_label_reference(placement, word):
    g, sub = placement
    word &= sub.full
    pos = tuple(map(g.index, sub.labels))
    assert expand(word, pos) == g.word(sub.labels_of(word))
    assert compress(expand(word, pos), pos) == word


@given(st.integers(0, (1 << 30) - 1))
def test_bit_positions_and_popcount(word):
    positions = list(bit_positions(word))
    assert positions == [i for i in range(30) if word >> i & 1]
    assert popcount(word) == len(positions)


def naive_term(c, ground: GroundSet, point, *words):
    """c times y_lab for every label of every word, read through labels_of."""
    for w in words:
        for lab in ground.labels_of(w):
            c = c * point[lab]
    return c


@st.composite
def poly_and_point(draw, quad: bool, coeffs):
    g = canonical_ground(draw(st.integers(0, 8)))
    word = st.integers(0, g.full)
    key = st.tuples(word, word).map(lambda t: (t[0], t[0] & t[1])) if quad else word
    terms = draw(st.dictionaries(key, coeffs, max_size=24))
    point = {lab: draw(POSITIVE) for lab in g.labels}
    return g, terms, point


@settings(max_examples=80, deadline=None)
@given(poly_and_point(False, RATIONALS))
def test_subset_evaluate_matches_naive_product(case):
    g, terms, point = case
    expect = sum((naive_term(c, g, point, w) for w, c in terms.items()), F(0))
    assert SubsetPoly(g, terms).evaluate(point) == expect


@settings(max_examples=80, deadline=None)
@given(poly_and_point(True, RATIONALS))
def test_quad_evaluate_matches_naive_product(case):
    g, terms, point = case
    expect = sum((naive_term(c, g, point, sup, sq) for (sup, sq), c in terms.items()), F(0))
    assert QuadPoly(g, terms).evaluate(point) == expect


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=6), st.integers(1, 9))
@example([0, 3, 0, -2], 5)
def test_monomial_table_matches_naive_product(nums, den):
    k = len(nums)
    expect = []
    for w in range(1 << k):
        prod = 1
        for i in range(k):
            prod *= nums[i] if w >> i & 1 else den
        expect.append(prod)
    assert monomial_table(nums, den) == expect
