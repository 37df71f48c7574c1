"""The exact evaluators against the term-by-term `Fraction` reference.

`evaluate`, `_masses`, `covariance` and `forest_size_sums` sum Python ints
over one cleared scale; `fraction_reference` sums `Fraction`s label by
label.  The points mix non-dyadic denominators, and `evaluate` also gets
zero and negative coordinates.
"""

from fractions import Fraction
from operator import neg

import fraction_reference as reference
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rayleigh_forge import rayleigh
from rayleigh_forge.matroids import Graph, forest_identity_at, forest_size_sums, forest_weights
from rayleigh_forge.polynomials import GroundSet, QuadPoly, SubsetPoly, canonical_ground
from rayleigh_forge.rayleigh import covariance, exchangeable_check, scalar_pair_diff
from rayleigh_forge.scalars import clear_denominators, format_rat
from rayleigh_forge.sequences import Seq, symseq_to_poly

F = Fraction

NON_DYADIC = st.sampled_from([F(1, 3), F(5, 7), F(2, 9), F(11, 6), F(7, 15)])
POSITIVE = st.one_of(
    NON_DYADIC, st.integers(1, 5), st.fractions(min_value=F(1, 12), max_value=16, max_denominator=12)
)
COORDINATE = st.one_of(POSITIVE, POSITIVE.map(neg), st.just(0))
# mixed denominators, so no common scale hides a wrong factor
COEFF = st.one_of(NON_DYADIC, st.integers(-5, 5), st.fractions(min_value=-8, max_value=8, max_denominator=12))


@st.composite
def poly_and_point(draw, quad: bool, coords, min_m: int = 0):
    g = canonical_ground(draw(st.integers(min_m, 6)))
    word = st.integers(0, g.full)
    key = st.tuples(word, word).map(lambda t: (t[0], t[0] & t[1])) if quad else word
    terms = draw(st.dictionaries(key, COEFF, max_size=20))
    point = {lab: draw(coords) for lab in g.labels}
    return (QuadPoly if quad else SubsetPoly)(g, terms), point


@st.composite
def measure_case(draw):
    z, point = draw(poly_and_point(False, POSITIVE, min_m=2))
    e, f = draw(st.permutations(z.ground.labels))[:2]
    return z, e, f, point


EMPTY = (SubsetPoly(canonical_ground(3), {}), "1", "3", {"1": F(1, 3), "2": F(5, 7), "3": 2})


@settings(max_examples=120, deadline=None)
@given(poly_and_point(False, COORDINATE))
@example((SubsetPoly(canonical_ground(2), {}), {"1": F(1, 3), "2": 0}))
def test_subset_evaluate_matches_reference(case):
    z, point = case
    value = z.evaluate(point)
    assert type(value) is Fraction
    assert value == reference.poly_value(z, point)


@settings(max_examples=120, deadline=None)
@given(poly_and_point(True, COORDINATE))
@example((QuadPoly(canonical_ground(2), {}), {"1": F(-5, 7), "2": F(1, 3)}))
def test_quad_evaluate_matches_reference(case):
    d, point = case
    value = d.evaluate(point)
    assert type(value) is Fraction
    assert value == reference.poly_value(d, point)


@settings(max_examples=100, deadline=None)
@given(measure_case())
@example(EMPTY)
def test_masses_match_reference(case):
    masses = rayleigh._masses(*case)
    assert all(type(x) is Fraction for x in masses)
    assert masses == reference.masses(*case)


@settings(max_examples=100, deadline=None)
@given(measure_case())
@example(EMPTY)
def test_covariance_matches_reference(case):
    if reference.masses(*case)[0] == 0:
        with pytest.raises(ZeroDivisionError):
            covariance(*case)
    else:
        assert covariance(*case) == reference.covariance(*case)


@st.composite
def graph_and_point(draw):
    """A connected multigraph: a random spanning tree plus up to three more edges."""
    n = draw(st.integers(2, 5))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.permutations(range(n)))[:2]
        pairs.append((u, v))
    graph = Graph(n, tuple((u, v, str(i + 1)) for i, (u, v) in enumerate(pairs)))
    return graph, {lab: draw(POSITIVE) for lab in graph.ground().labels}


@settings(max_examples=60, deadline=None)
@given(graph_and_point())
def test_forest_size_sums_match_reference(case):
    graph, y = case
    poly, _ = forest_weights(graph)
    assert forest_size_sums(graph, y) == reference.size_sums(poly, graph.n, y)
    assert forest_identity_at(graph, y)


class TestFloatPoints:
    """A float coordinate is a TypeError in every exact evaluator; ints are accepted."""

    Z = SubsetPoly(GroundSet("abc"), {0: 1, 1: 2, 2: 3, 4: 1, 7: 5})

    def test_evaluate(self):
        with pytest.raises(TypeError, match="float"):
            self.Z.evaluate({"a": 0.5, "b": F(1, 3), "c": 2})
        assert self.Z.evaluate({"a": 1, "b": F(1, 3), "c": 2}) == F(28, 3)

    def test_covariance(self):
        with pytest.raises(TypeError, match="float"):
            covariance(self.Z, "a", "b", {"a": 0.5, "b": F(1, 3), "c": 2})
        point = {"a": 1, "b": F(1, 3), "c": 2}
        assert covariance(self.Z, "a", "b", point) == reference.covariance(self.Z, "a", "b", point)

    def test_scalar_pair_diff(self):
        with pytest.raises(TypeError, match="float"):
            scalar_pair_diff(self.Z, "a", "b", {"c": 0.1})
        # Z_a^b Z_b^a - Z_ab Z^ab at y_c = 3: 2 * 3 - (5 y_c) * (1 + y_c)
        assert scalar_pair_diff(self.Z, "a", "b", {"c": 3}) == -54


def test_recheck_catches_evaluate_skewed_by_one_unit(monkeypatch):
    # the exchangeable ladder refutes a pair with a witness that passes the
    # re-check; with evaluate off by one unit of its scale 1 / (L D^m), the
    # slice route no longer reads the witness value while the covariance does
    seq = Seq(0, (F(1), F(1), F(4), F(1)), 3)
    verdict = exchangeable_check(seq)
    (e, f), point, value = verdict.pair, verdict.witness, verdict.value
    assert value < 0

    real = SubsetPoly.evaluate

    def skewed(self, point):
        _, den = clear_denominators(self.ground.coordinates(point))
        _, scale = clear_denominators(self.terms.values())
        return real(self, point) + F(1, scale * den**self.ground.m)

    monkeypatch.setattr(SubsetPoly, "evaluate", skewed)
    with pytest.raises(ArithmeticError, match="through slices") as caught:
        rayleigh._recheck_witness(symseq_to_poly(seq), e, f, point, value)
    sliced = caught.value.args[0].split(" re-evaluates to ")[1].split(" through slices")[0]
    assert sliced != format_rat(value)
    assert f"to {format_rat(value)} through the covariance" in str(caught.value)
