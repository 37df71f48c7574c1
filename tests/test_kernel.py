"""The integer pair-product kernel and point evaluator against a Fraction reference.

`multiply`, `rayleigh_diff` and `theta` share one integer kernel,
`pair_sums`, with a dict route and a packed route, and `pair_value`
evaluates the same integer slices at a point.  The reference here slices
through label sets and multiplies `Fraction` coefficients term by term, so
it shares neither the kernel, the evaluator, the scaling nor the word
re-indexing with the code under test.  The coefficient verdicts read the
kernel's integer signs; they must agree with the `Fraction` difference.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_forge import polynomials
from rayleigh_forge.corpus import k4_certificates
from rayleigh_forge.matroids import complete_graph, cycle_graph, graphic_matroid, uniform_matroid
from rayleigh_forge.polynomials import (
    PACK_FIXED_COST,
    PACK_SLOT_COST,
    GroundSet,
    QuadPoly,
    SubsetPoly,
    _dict_sums,
    _packed_sums,
    canonical_ground,
    multiply,
    pair_sums,
    pair_value,
    rayleigh_diff,
    rayleigh_pairs,
    theta,
    triple_pairs,
)
from rayleigh_forge.potts import Model, model_poly, potts_poly
from rayleigh_forge.prng import DENOMINATOR_BITS, SplitMix64, sample_point
from rayleigh_forge.rayleigh import CoeffStrategy, SquareCertificate, check_all, check_pair

F = Fraction

# signed, with coprime non-dyadic denominators such as 1/3, 5/7 and 11/9
COEFFS = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 3, 7, 9, 11, 13)))
NONZERO = COEFFS.filter(bool)


def ref_product(p: dict, q: dict) -> dict:
    out: dict = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            key = (w1 | w2, w1 & w2)
            out[key] = out.get(key, F(0)) + c1 * c2
    return out


def ref_slice(z: SubsetPoly, sub: GroundSet, keep: set, zero: set) -> dict:
    """Terms of y^S with keep <= S and S disjoint from zero, re-keyed by S - keep on sub."""
    out = {}
    for w, c in z.terms.items():
        labels = set(z.ground.labels_of(w))
        if keep <= labels and not labels & zero:
            out[sub.word(labels - keep)] = c
    return out


def ref_signed_sum(z: SubsetPoly, drop: tuple, pairs) -> tuple[GroundSet, dict]:
    sub = GroundSet(lab for lab in z.ground.labels if lab not in drop)
    total: dict = {}
    for sign, (k1, z1), (k2, z2) in pairs:
        a = ref_slice(z, sub, set(k1), set(z1))
        b = ref_slice(z, sub, set(k2), set(z2))
        for key, c in ref_product(a, b).items():
            total[key] = total.get(key, F(0)) + sign * c
    return sub, {k: c for k, c in total.items() if c}


def ref_diff(z: SubsetPoly, e: str, f: str):
    return ref_signed_sum(z, (e, f), [(1, (e, f), (f, e)), (-1, (e + f, ""), ("", e + f))])


def ref_theta(z: SubsetPoly, e: str, f: str, g: str):
    return ref_signed_sum(
        z,
        (e, f, g),
        [
            (1, (e, f + g), (f + g, e)),
            (1, (f, e + g), (e + g, f)),
            (-1, (g, e + f), (e + f, g)),
            (-1, (e + f + g, ""), ("", e + f + g)),
        ],
    )


def assert_matches(got, ref) -> None:
    sub, terms = ref
    assert got.ground == sub
    assert got.terms == terms
    assert all(type(c) is Fraction for c in got.terms.values())


@st.composite
def weight_polys(draw, min_m: int = 2, max_m: int = 6):
    """Single-letter labels, so the reference can spell slices as strings."""
    g = GroundSet("abcdefg"[: draw(st.integers(min_m, max_m))])
    terms = draw(st.dictionaries(st.integers(0, g.full), COEFFS, max_size=40))
    return SubsetPoly(g, terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multiply_matches_fraction_reference(data):
    p = data.draw(weight_polys(1))
    q = SubsetPoly(p.ground, data.draw(st.dictionaries(st.integers(0, p.ground.full), COEFFS, max_size=40)))
    got = multiply(p, q)
    assert got.ground == p.ground
    assert got.terms == {k: c for k, c in ref_product(p.terms, q.terms).items() if c}


@settings(max_examples=60, deadline=None)
@given(weight_polys(), st.data())
def test_rayleigh_diff_matches_fraction_reference(z, data):
    e, f = data.draw(st.permutations(z.ground.labels))[:2]
    assert_matches(rayleigh_diff(z, e, f), ref_diff(z, e, f))


@settings(max_examples=60, deadline=None)
@given(weight_polys(3), st.data())
def test_theta_matches_fraction_reference(z, data):
    e, f, g = data.draw(st.permutations(z.ground.labels))[:3]
    assert_matches(theta(z, e, f, g), ref_theta(z, e, f, g))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.lists(st.tuples(NONZERO, NONZERO), min_size=6, max_size=6), st.data())
def test_product_weights_cancel_to_zero(m, factors, data):
    # Z = prod(a_i + b_i y_i): every pair is independent, so every D and theta vanish
    g = canonical_ground(m)
    terms = {}
    for w in g.subsets():
        c = F(1)
        for i, (a, b) in enumerate(factors[:m]):
            c *= b if w >> i & 1 else a
        terms[w] = c
    z = SubsetPoly(g, terms)
    labels = data.draw(st.permutations(g.labels))
    assert rayleigh_diff(z, labels[0], labels[1]).is_zero()
    if m >= 3:
        assert theta(z, labels[0], labels[1], labels[2]).is_zero()


@settings(max_examples=40, deadline=None)
@given(weight_polys(1), NONZERO, NONZERO, st.integers(1, 63))
def test_cross_terms_cancel_in_one_product(p, c, d, word):
    # (c + d y^S)(c - d y^S) = c^2 - d^2 y^2S: the (S, 0) cross terms cancel
    word &= p.ground.full
    if not word:
        word = 1
    plus = SubsetPoly(p.ground, {0: c, word: d})
    minus = SubsetPoly(p.ground, {0: c, word: -d})
    assert multiply(plus, minus).terms == {(0, 0): c * c, (word, word): -d * d}


def ref_value(ref, point) -> Fraction:
    sub, terms = ref
    return QuadPoly(sub, terms).evaluate(point)


@st.composite
def points(draw, labels):
    """A sampled dyadic point (shift 20) or one with coordinates 2^-40, 1 and 2^40 (shift 40)."""
    if draw(st.booleans()):
        return DENOMINATOR_BITS, sample_point(SplitMix64(draw(st.integers(0, 2**64 - 1))), labels)
    extremes = st.sampled_from((F(1, 2**40), F(1), F(2**40)))
    return 40, {lab: draw(extremes) for lab in labels}


def evaluated(sub, shift, point, den, pairs) -> Fraction:
    num, scale = pair_value(sub.coordinates(point), shift, den, *pairs)
    assert scale > 0
    return Fraction(num, scale)


@settings(max_examples=80, deadline=None)
@given(weight_polys(2, 7), st.data())
def test_pair_value_matches_fraction_reference(z, data):
    e, f = data.draw(st.permutations(z.ground.labels))[:2]
    sub, den, pairs = rayleigh_pairs(z, e, f)
    shift, point = data.draw(points(sub.labels))
    assert evaluated(sub, shift, point, den, pairs) == ref_value(ref_diff(z, e, f), point)


@settings(max_examples=80, deadline=None)
@given(weight_polys(3, 7), st.data())
def test_triple_pair_values_match_fraction_reference(z, data):
    e, f, g = data.draw(st.permutations(z.ground.labels))[:3]
    sub, den, theta_pairs, del_pairs, con_pairs = triple_pairs(z, e, f, g)
    shift, point = data.draw(points(sub.labels))
    assert evaluated(sub, shift, point, den, theta_pairs) == ref_value(ref_theta(z, e, f, g), point)
    assert evaluated(sub, shift, point, den, del_pairs) == ref_value(ref_diff(z.delete(g), e, f), point)
    assert evaluated(sub, shift, point, den, con_pairs) == ref_value(ref_diff(z.contract(g), e, f), point)


@pytest.mark.parametrize("shift, coordinate", [(20, F(1, 3)), (20, F(1, 2**21)), (40, F(5, 2**41)), (0, F(1, 2))])
def test_pair_value_refuses_inexact_coordinates(shift, coordinate):
    z = SubsetPoly(canonical_ground(3), {0: F(1), 4: F(1, 3), 7: F(2)})
    sub, den, pairs = rayleigh_pairs(z, "1", "2")
    assert sub.labels == ("3",)
    with pytest.raises(ValueError, match="not a multiple"):
        pair_value([coordinate], shift, den, *pairs)
    num, scale = pair_value([F(3, 2**shift)], shift, den, *pairs)
    assert Fraction(num, scale) == ref_value(ref_diff(z, "1", "2"), {"3": F(3, 2**shift)})


POTTS_MATROIDS = (
    graphic_matroid(complete_graph(4)),
    graphic_matroid(cycle_graph(5)),
    uniform_matroid(5, 2),
    uniform_matroid(6, 3),
)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(POTTS_MATROIDS),
    st.sampled_from((F(1, 2), F(2), F(3, 2), F(2, 3))),
    st.data(),
)
def test_potts_at_fixed_q_matches_reference(matroid, q0, data):
    z = potts_poly(matroid, q0).poly
    # the reference spells slices as strings of one-character labels
    assert all(len(lab) == 1 for lab in z.ground.labels)
    e, f, g = data.draw(st.permutations(z.ground.labels))[:3]
    assert_matches(rayleigh_diff(z, e, f), ref_diff(z, e, f))
    assert_matches(theta(z, e, f, g), ref_theta(z, e, f, g))


@pytest.mark.parametrize("scale", [F(1), F(5, 7), F(11, 9)])
def test_certificate_residue_matches_reference(scale):
    # K4 independent sets, opposite pair: not coefficientwise, but the square
    # certificate leaves a nonnegative residue; scaling Z by s scales D by s^2
    z = model_poly(graphic_matroid(complete_graph(4)), Model("independent")).poly.scale(scale)
    [(lam, a, b)] = k4_certificates()[("1", "6")].terms
    cert = SquareCertificate(((lam * scale * scale, a, b),))
    diff = rayleigh_diff(z, "1", "6")
    sub, terms = ref_diff(z, "1", "6")
    expanded = cert.expand(sub)
    residue = diff - expanded
    assert residue == QuadPoly(sub, terms) - expanded
    assert not diff.is_coefficientwise_nonnegative()
    assert residue.is_coefficientwise_nonnegative()


# --- the kernel's two routes --------------------------------------------------

# small, word-sized and wider than eight bytes, so slots of 1 to 8 bytes and wider ones all occur
INTS = st.one_of(st.integers(-12, 12), st.integers(-(2**40), 2**40), st.integers(-(2**70), 2**70))


def ref_sums(pairs) -> dict:
    total: dict = {}
    for sign, a, b in pairs:
        fa = {w: F(c) for w, c in a.items()}
        for key, c in ref_product(fa, {w: F(c) for w, c in b.items()}).items():
            total[key] = total.get(key, F(0)) + sign * c
    return {key: c for key, c in total.items() if c}


def routes(k: int, pairs) -> list[dict]:
    return [_dict_sums(pairs), _packed_sums(k, pairs)]


@st.composite
def signed_pairs(draw, max_k: int = 8):
    """k in 0..max_k and up to four signed pairs of int slices on k variables; slices may be empty."""
    k = draw(st.integers(0, max_k))
    slices = st.dictionaries(st.integers(0, (1 << k) - 1), INTS, max_size=40)
    return k, draw(st.lists(st.tuples(st.sampled_from((1, -1)), slices, slices), max_size=4))


@settings(max_examples=150, deadline=None)
@given(signed_pairs())
def test_both_routes_match_fraction_reference(drawn):
    k, pairs = drawn
    want = ref_sums(pairs)
    for got in routes(k, pairs):
        assert got == want
        assert all(type(n) is int and n for n in got.values())
    assert pair_sums(k, pairs) == want


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 8),
    st.lists(st.tuples(st.integers(1, 70), st.integers(1, 70), st.sampled_from((0, -1))), min_size=1, max_size=3),
    st.sampled_from((1, -1)),
)
def test_both_routes_reach_the_proven_slot_bound(k, sizes, sign):
    # A and B hold every word at 2^a + d and 2^b + d, signed so that every
    # product has one sign: the key (full, 0) has 2^k preimages, each at
    # max|A| max|B|, so its slot sits on the bound 2^k sum(max|A| max|B|)
    full = (1 << k) - 1
    pairs = []
    for i, (a, b, d) in enumerate(sizes):
        ca, cb = 2**a + d, 2**b + d
        flip = -1 if i % 2 else 1
        pairs.append((sign * flip, {w: flip * ca for w in range(full + 1)}, {w: cb for w in range(full + 1)}))
    bound = sum((2**a + d) * (2**b + d) for a, b, d in sizes) << k
    by_dict, packed = routes(k, pairs)
    assert packed == by_dict
    assert packed[full, 0] == sign * bound


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_routes_agree_on_empty_and_cancelling_pairs(k):
    words = range(1 << k)
    a = {w: w + 1 for w in words}
    cancelling = ((1, a, a), (-1, a, a))
    for pairs in ((), ((1, {}, a),), ((-1, a, {}),), cancelling):
        assert routes(k, pairs) == [{}, {}]
        assert pair_sums(k, pairs) == {}


def test_pair_sums_picks_its_route_by_counted_work(monkeypatch):
    taken = []
    monkeypatch.setattr(polynomials, "_dict_sums", lambda pairs: taken.append("dict") or {})
    monkeypatch.setattr(polynomials, "_packed_sums", lambda k, pairs: taken.append("packed") or {})
    for k in (2, 4, 6):
        limit = PACK_SLOT_COST * 3**k + PACK_FIXED_COST
        for work in (limit, limit + 1):
            pair_sums(k, ((1, dict.fromkeys(range(work), 1), {0: 1}),))
    assert taken == ["dict", "packed"] * 3


# --- coefficient verdicts on the kernel's integer signs ----------------------


def assert_verdicts_match_fractions(z: SubsetPoly) -> None:
    for (e, f), verdict in check_all(z, CoeffStrategy()).verdicts.items():
        nonnegative = rayleigh_diff(z, e, f).is_coefficientwise_nonnegative()
        assert verdict.verified == nonnegative
        assert verdict.describe() == ("Verified (coeff-positive)" if nonnegative else "Inconclusive (0 samples)")


@settings(max_examples=60, deadline=None)
@given(weight_polys(2, 7))
def test_integer_verdicts_match_fraction_verdicts(z):
    assert_verdicts_match_fractions(z)


@pytest.mark.parametrize("matroid", POTTS_MATROIDS)
@pytest.mark.parametrize("q0", [F(1, 2), F(3, 2), F(2)])
def test_potts_integer_verdicts_match_fraction_verdicts(matroid, q0):
    assert_verdicts_match_fractions(potts_poly(matroid, q0).poly)


def test_lone_negative_coefficient_of_one_over_l_squared():
    # Z = (1 + y_e y_f + y_e y_g + y_f y_g) / 3, so L = 3 and D = (y_g^2 - 1) / 9
    z = SubsetPoly(GroundSet("efg"), {0: F(1, 3), 3: F(1, 3), 5: F(1, 3), 6: F(1, 3)})
    diff = rayleigh_diff(z, "e", "f")
    assert diff.terms == {(1, 1): F(1, 9), (0, 0): F(-1, 9)}
    sub, den, pairs = rayleigh_pairs(z, "e", "f")
    assert den == 9
    assert routes(sub.m, pairs) == [{(1, 1): 1, (0, 0): -1}] * 2
    assert check_pair(z, "e", "f", CoeffStrategy()).describe() == "Inconclusive (0 samples)"


def test_zero_difference_is_verified():
    # Z = (1 + y_e)(2 + y_f)(3 + 4 y_g) / 5: every pair independent, every D zero
    g = GroundSet("efg")
    factors = ((1, 1), (2, 1), (3, 4))
    z = SubsetPoly(g, {w: F(prod(f[w >> i & 1] for i, f in enumerate(factors)), 5) for w in g.subsets()})
    for e, f in (("e", "f"), ("e", "g"), ("f", "g")):
        assert rayleigh_diff(z, e, f).is_zero()
        sub, _, pairs = rayleigh_pairs(z, e, f)
        assert routes(sub.m, pairs) == [{}, {}]
        assert check_pair(z, e, f, CoeffStrategy()).describe() == "Verified (coeff-positive)"


def test_certificate_verdict_still_reads_the_residue():
    z = model_poly(graphic_matroid(complete_graph(4)), Model("independent")).poly
    assert check_pair(z, "1", "6", CoeffStrategy()).describe() == "Inconclusive (0 samples)"
    assert check_pair(z, "1", "6", CoeffStrategy(k4_certificates())).describe() == "Verified (certificate)"
