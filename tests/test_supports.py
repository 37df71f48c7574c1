from fractions import Fraction

import pytest

from rayleigh_forge.matroids import (
    complete_graph,
    enumerate_family,
    graphic_matroid,
    uniform_matroid,
)
from rayleigh_forge.polynomials import GroundSet, SubsetPoly
from rayleigh_forge.supports import (
    convexity_witness,
    disjoint_pair_exchange_witness,
    exchange_props_check,
    flatten,
    flattened_fresh_profile,
    full_support_check,
    is_convex,
    is_convex_delta_matroid,
    layers,
    log_submodular_check,
    log_submodular_witness,
    sea_check,
    size_window_sums,
)

F = Fraction


def system_of(ground_labels, member_label_sets) -> SubsetPoly:
    g = GroundSet(ground_labels)
    return SubsetPoly(g, dict.fromkeys((g.word(s) for s in member_label_sets), 1))


def unit_weights(system: SubsetPoly) -> SubsetPoly:
    return SubsetPoly(system.ground, {w: F(1) for w in system.terms})


class TestSupport:
    def test_zero_coefficients_dropped(self):
        g = GroundSet(("a", "b"))
        z = SubsetPoly(g, {0: F(1), 1: F(0), 3: F(2)})
        assert sorted(z.terms) == [0, 3]
        window = size_window_sums(z)
        assert (window.s, window.r) == (0, 2)

    def test_validation(self):
        g = GroundSet(("a",))
        with pytest.raises(ValueError):
            size_window_sums(SubsetPoly(g, {0: F(-1)}))
        with pytest.raises(ValueError):
            size_window_sums(SubsetPoly(g, {}))


class TestConvexity:
    def test_interval_is_convex(self):
        s = system_of("abc", [(), ("a",), ("b",), ("a", "b")])
        assert is_convex(s)

    def test_gap_detected(self):
        s = system_of("abc", [(), ("a", "b")])
        witness = convexity_witness(s)
        assert witness is not None
        small, mid, big = witness
        assert small == 0 and big == 3 and mid in (1, 2)

    def test_full_boolean_lattice(self):
        g = GroundSet(("a", "b"))
        s = SubsetPoly(g, dict.fromkeys(range(4), 1))
        assert convexity_witness(s) is None


class TestSymmetricExchange:
    def test_matroid_bases_pass(self):
        m = graphic_matroid(complete_graph(4))
        assert sea_check(enumerate_family(m, "bases"))

    def test_gap_system_passes_sea_but_not_convex(self):
        # {∅, {a,b}}: symmetric exchange holds with f = the other element,
        # while the one-element middle layer is missing entirely
        s = system_of("ab", [(), ("a", "b")])
        assert sea_check(s)
        assert not is_convex(s)
        assert not is_convex_delta_matroid(s)

    def test_violation_found(self):
        s = system_of("abc", [("a",), ("b", "c")])
        assert not sea_check(s)

    def test_independent_sets_are_delta_matroid(self):
        m = uniform_matroid(4, 2)
        s = enumerate_family(m, "independent")
        assert is_convex_delta_matroid(s)


class TestLogSubmodular:
    def test_witness_direction(self):
        # weights 1,1,1,2: the product over a crossing pair is 1 < 2
        g = GroundSet(("a", "b"))
        z = SubsetPoly(g, {0: F(1), 1: F(1), 2: F(1), 3: F(2)})
        witness = log_submodular_witness(z)
        assert witness is not None
        s, t = witness
        assert z.coeff(s) * z.coeff(t) < z.coeff(s & t) * z.coeff(s | t)
        assert not log_submodular_check(z)

    def test_product_weights_pass(self):
        g = GroundSet(("a", "b"))
        z = SubsetPoly(g, {0: F(1), 1: F(2), 2: F(3), 3: F(6)})
        assert log_submodular_witness(z) is None
        assert log_submodular_check(z)


class TestFlatten:
    def test_fresh_labels_and_sizes(self):
        g = GroundSet(("x", "y"))
        z = SubsetPoly(g, {0: F(5), 1: F(2), 3: F(7)})
        record = flatten(z)
        assert record.fresh == ("~1", "~2")
        assert record.weights.ground.labels == ("x", "y", "~1", "~2")
        # every member now has size 2
        sizes = {bin(w).count("1") for w in record.weights.terms}
        assert sizes == {2}
        # padded weights keep the source coefficient on each completion
        assert record.weights.coeff(record.weights.ground.word(("~1", "~2"))) == 5
        assert record.weights.coeff(record.weights.ground.word(("x", "~1"))) == 2
        assert record.weights.coeff(record.weights.ground.word(("x", "y"))) == 7

    def test_prefix_grows_on_collision(self):
        s = system_of(("~1", "b"), [(), ("~1", "b")])
        record = flatten(unit_weights(s))
        assert record.fresh == ("~~1", "~~2")

    def test_system_input_has_no_weights(self):
        s = system_of("ab", [("a",), ("a", "b")])
        record = flatten(unit_weights(s))
        assert record.exchange_ok

    def test_convex_delta_matroid_flattens_to_exchange(self):
        s = enumerate_family(uniform_matroid(4, 2), "independent")
        record = flatten(unit_weights(s))
        assert record.exchange_ok and record.exchange_witness is None

    def test_cap_enforced(self):
        labels = tuple(f"e{i}" for i in range(28))
        g = GroundSet(labels)
        z = SubsetPoly(g, {0: F(1), g.word(labels[:5]): F(1)})
        with pytest.raises(ValueError):
            flatten(z)


class TestWindows:
    def test_size_window_sums(self):
        g = GroundSet(("a", "b", "c"))
        z = SubsetPoly(g, {1: F(2), 2: F(3), 3: F(4), 7: F(5)})
        window = size_window_sums(z)
        assert (window.s, window.r, window.m) == (1, 3, 3)
        assert window.entries == (F(5), F(4), F(5))

    def test_fresh_profile_reverses_layers(self):
        g = GroundSet(("a", "b", "c"))
        z = SubsetPoly(g, {1: F(2), 2: F(3), 3: F(4), 7: F(5)})
        seq = flattened_fresh_profile(z)
        # entry j is the size-(r-j) layer: degree in the fresh variables
        assert seq.entries == (F(5), F(4), F(5))


class TestLayers:
    def test_layer_split(self):
        s = enumerate_family(uniform_matroid(3, 2), "independent")
        out = layers(s)
        assert [v.k for v in out] == [0, 1, 2]
        assert all(v.exchange_ok for v in out)
        assert len(out[1].system.terms) == 3

    def test_bad_layer_flagged(self):
        s = system_of("abcd", [("a", "b"), ("c", "d")])
        out = layers(s)
        assert not out[0].exchange_ok
        assert out[0].exchange_witness is not None


class TestExchangeProps:
    def test_k4_bases_hold(self):
        s = enumerate_family(graphic_matroid(complete_graph(4)), "bases")
        report = exchange_props_check(s)
        assert report.all_hold
        assert report.witnesses == {}

    def test_independent_sets_hold(self):
        s = enumerate_family(uniform_matroid(4, 2), "independent")
        assert exchange_props_check(s).all_hold

    def test_non_delta_matroid_is_vacuous(self):
        s = system_of("abc", [("a",), ("b", "c")])
        report = exchange_props_check(s)
        assert report.vacuous
        assert not report.all_hold


class TestDisjointPair:
    def test_matroid_supports_clear(self):
        for m in (uniform_matroid(5, 2), graphic_matroid(complete_graph(4))):
            s = enumerate_family(m, "independent")
            assert disjoint_pair_exchange_witness(s) is None

    def test_witness_on_crafted_system(self):
        # A = {g}, B = {e,f}: no member joins g with exactly one of e, f
        s = system_of("gef", [("g",), ("e", "f")])
        witness = disjoint_pair_exchange_witness(s)
        assert witness is not None
        a, b, ebit, fbit, gbit = witness
        assert a == 1 and b == 6


class TestFullSupport:
    def test_premise_missing_returns_none(self):
        g = GroundSet(("a", "b"))
        z = SubsetPoly(g, {1: F(1), 2: F(1)})
        assert full_support_check(z) is None

    def test_boolean_lattice_true(self):
        g = GroundSet(("a", "b"))
        z = SubsetPoly(g, {w: F(1) for w in range(4)})
        assert full_support_check(z) is True

    def test_hole_false(self):
        g = GroundSet(("a", "b"))
        z = SubsetPoly(g, {0: F(1), 1: F(1), 3: F(1)})
        assert full_support_check(z) is False
