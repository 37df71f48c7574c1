from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_forge.matroids import (
    BasisExchangeError,
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_family,
    exchange_axiom_witness,
    forest_identity_at,
    forest_weights,
    graphic_matroid,
    invariant_sequences,
    matroid_from_bases,
    parallel_extend,
    path_graph,
    rank_table,
    two_sum,
    uniform_matroid,
    weighted_laplacian_charpoly,
)
from rayleigh_forge.polynomials import GroundSet, SubsetPoly
from rayleigh_forge.prng import SplitMix64, sample_point
from rayleigh_forge.words import popcount

F = Fraction


class TestGraph:
    def test_rejects_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 0, "e"),))
        with pytest.raises(ValueError):
            Graph(2, ((0, 1, "e"), (1, 0, "e")))
        with pytest.raises(ValueError):
            Graph(2, ((0, 2, "e"),))

    def test_builders(self):
        k4 = complete_graph(4)
        assert k4.n == 4
        assert len(k4.edges) == 6
        assert k4.edges[5] == (2, 3, "6")
        assert cycle_graph(4).is_connected()
        path = path_graph(3, prefix="p")
        assert path.ground().labels == ("p1", "p2")

    def test_connectivity(self):
        assert not Graph(3, ((0, 1, "a"),)).is_connected()
        assert Graph(1, ()).is_connected()


class TestUniform:
    def test_rank_is_clamped_size(self):
        u = uniform_matroid(5, 3)
        for w in u.ground.subsets():
            assert u.rank(w) == min(3, popcount(w))

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_matroid(3, 4)
        with pytest.raises(ValueError):
            uniform_matroid(3, 1, labels=("a",))

    def test_loops_and_coloops(self):
        assert uniform_matroid(2, 0).is_loop("1")
        assert uniform_matroid(2, 2).is_coloop("1")
        free = uniform_matroid(4, 2)
        assert not free.is_loop("1") and not free.is_coloop("1")


class TestGraphic:
    def test_triangle_is_rank_two(self):
        m = graphic_matroid(cycle_graph(3))
        assert m.r == 2
        assert len(enumerate_family(m, "bases").terms) == 3

    def test_parallel_edges(self):
        g = Graph(2, ((0, 1, "a"), (0, 1, "b")))
        m = graphic_matroid(g)
        assert m.rank(m.ground.word(("a", "b"))) == 1

    def test_bridge_is_coloop(self):
        m = graphic_matroid(path_graph(3))
        assert m.is_coloop("1") and m.is_coloop("2")

    def test_only_touched_vertices_are_numbered(self):
        # isolated vertices do not change the matroid, and the oracle and the
        # rank table must not pay for them
        g = Graph(10**6, ((0, 1, "a"), (1, 2, "b"), (999_999, 5, "c"), (2, 0, "d")))
        m = graphic_matroid(g)
        assert m.provenance[1] == 5
        assert m.r == 3
        assert list(rank_table(m)) == [m._rank_word(w) for w in m.ground.subsets()]
        small = graphic_matroid(Graph(6, ((0, 1, "a"), (1, 2, "b"), (3, 5, "c"), (2, 0, "d"))))
        assert list(rank_table(small)) == list(rank_table(m))


class TestBasesConstructor:
    def test_uniform_roundtrip(self):
        u = uniform_matroid(4, 2)
        system = enumerate_family(u, "bases")
        rebuilt = matroid_from_bases(system)
        for w in u.ground.subsets():
            assert rebuilt.rank(w) == u.rank(w)

    def test_rejects_non_matroid(self):
        g = GroundSet(("1", "2", "3", "4"))
        system = SubsetPoly(g, dict.fromkeys((g.word(("1", "2")), g.word(("3", "4"))), 1))
        with pytest.raises(BasisExchangeError):
            matroid_from_bases(system)

    def test_rejects_unequal_sizes(self):
        g = GroundSet(("1", "2"))
        system = SubsetPoly(g, dict.fromkeys((1, 3), 1))
        with pytest.raises(ValueError):
            matroid_from_bases(system)

    def test_exchange_witness_found(self):
        assert exchange_axiom_witness((0b0011, 0b1100)) is not None
        assert exchange_axiom_witness((0b011, 0b101, 0b110)) is None


class TestMinorsAndDual:
    def test_contract_delete_ranks(self):
        m = graphic_matroid(complete_graph(4))
        d = m.delete("1")
        c = m.contract("1")
        assert d.r == 3 and c.r == 2
        # deletion keeps ranks, contraction shifts by the element's rank
        for w in d.ground.subsets():
            labels = d.ground.labels_of(w)
            assert d.rank(w) == m.rank(m.ground.word(labels))
            assert c.rank(w) == m.rank(m.ground.word(labels) | m.ground.bit("1")) - 1

    def test_dual_of_uniform(self):
        u = uniform_matroid(5, 2)
        d = u.dual()
        assert d.r == 3
        for w in d.ground.subsets():
            assert d.rank(w) == min(3, popcount(w))

    def test_dual_involution(self):
        m = graphic_matroid(cycle_graph(4))
        dd = m.dual().dual()
        for w in m.ground.subsets():
            assert dd.rank(w) == m.rank(w)


class TestTwoSum:
    def test_triangles_make_a_square(self):
        left = graphic_matroid(Graph(3, ((0, 1, "a1"), (1, 2, "a2"), (2, 0, "g"))))
        right = graphic_matroid(Graph(3, ((0, 1, "b1"), (1, 2, "b2"), (2, 0, "g"))))
        m = two_sum(left, right, "g")
        assert m.ground.labels == ("a1", "a2", "b1", "b2")
        assert m.r == 3
        bases = tuple(enumerate_family(m, "bases").terms)
        assert bases == tuple(sorted(15 ^ (1 << i) for i in range(4)))

    def test_matches_glued_cycle_graph(self):
        left = graphic_matroid(Graph(3, ((0, 1, "a1"), (1, 2, "a2"), (2, 0, "g"))))
        right = graphic_matroid(Graph(3, ((0, 1, "b1"), (1, 2, "b2"), (2, 0, "g"))))
        m = two_sum(left, right, "g")
        square = graphic_matroid(
            Graph(4, ((0, 1, "a1"), (1, 2, "a2"), (2, 3, "b1"), (3, 0, "b2")))
        )
        for w in m.ground.subsets():
            assert m.rank(w) == square.rank(square.ground.word(m.ground.labels_of(w)))

    def test_glue_validation(self):
        tri = graphic_matroid(Graph(3, ((0, 1, "a1"), (1, 2, "a2"), (2, 0, "g"))))
        with pytest.raises(ValueError):
            two_sum(tri, tri, "g")  # shares more than the glue element
        bridge = graphic_matroid(Graph(3, ((0, 1, "b1"), (1, 2, "g"))))
        with pytest.raises(ValueError):
            two_sum(tri, bridge, "g")  # glue is a coloop on the right
        loopy = uniform_matroid(2, 0, labels=("c1", "g"))
        with pytest.raises(ValueError):
            two_sum(tri, loopy, "g")  # glue is a loop on the right


class TestParallelExtend:
    def test_doubling_an_element(self):
        u = uniform_matroid(2, 1)
        ext = parallel_extend(u, {"1": 2})
        assert ext.ground.labels == ("1", "1#2", "2")
        assert ext.r == 1
        assert len(enumerate_family(ext, "bases").terms) == 3
        assert ext.rank(ext.ground.word(("1", "1#2"))) == 1

    def test_multiplicity_validation(self):
        u = uniform_matroid(2, 1)
        with pytest.raises(ValueError):
            parallel_extend(u, {"1": 0})


class TestEnumerateFamily:
    def test_k4_counts(self):
        m = graphic_matroid(complete_graph(4))
        assert len(enumerate_family(m, "bases").terms) == 16
        independent = enumerate_family(m, "independent").terms
        assert len(independent) == 1 + 6 + 15 + 16
        spanning = enumerate_family(m, "spanning").terms
        # complements of independent sets in the dual, same count here by duality
        assert len(spanning) == len(enumerate_family(m.dual(), "independent").terms)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            enumerate_family(uniform_matroid(2, 1), "flats")


class TestInvariantSequences:
    def test_k4_golden(self):
        inv = invariant_sequences(graphic_matroid(complete_graph(4)), fixed=("1",))
        assert inv.m == 6 and inv.r == 3
        assert inv.I == (1, 6, 15, 16)
        assert inv.W == (1, 6, 7, 1)
        assert inv.chi == (1, 6, 11, 6)
        assert inv.h == (F(1), F(3), F(6), F(6))
        assert inv.h_integral and inv.loopless
        assert inv.c == (8, 8)

    def test_u32_golden(self):
        inv = invariant_sequences(uniform_matroid(3, 2))
        assert inv.I == (1, 3, 3)
        assert inv.W == (1, 3, 1)
        assert inv.chi == (1, 3, 2)
        assert inv.h == (F(1), F(1), F(1))

    def test_h_sums_to_basis_count(self):
        for m in (uniform_matroid(5, 3), graphic_matroid(cycle_graph(4))):
            inv = invariant_sequences(m)
            assert sum(inv.h) == len(enumerate_family(m, "bases").terms)

    def test_matroid_with_loop(self):
        inv = invariant_sequences(uniform_matroid(3, 0))
        assert not inv.loopless
        assert inv.I == (1,)


def memo_invariants(matroid, fixed=None):
    """invariant_sequences by rank-oracle calls on every subset and its one-element
    extensions, past the memo and the table; the reference for the rank table."""
    rank = matroid._rank_word
    ground = matroid.ground
    r = matroid.r
    I, W, char = [0] * (r + 1), [0] * (r + 1), [0] * (r + 1)
    fixed_word = ground.word(fixed) if fixed is not None else None
    c = [0] * (min(r, popcount(fixed_word)) + 1) if fixed is not None else None
    for w in ground.subsets():
        rk, size = rank(w), popcount(w)
        if rk == size:
            I[size] += 1
        char[r - rk] += (-1) ** size
        if all(rank(w | 1 << i) > rk for i in range(ground.m) if not w >> i & 1):
            W[rk] += 1
        if c is not None and rk == size == r:
            c[popcount(w & fixed_word)] += 1
    return I, W, [abs(char[r - k]) for k in range(r + 1)], c


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 6))
    if n == 1:
        return Graph(1, ())
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=11))
    edges = [(u, v) for u, v in pairs if u != v]
    # parallel edges on purpose: repeat a drawn edge
    edges += edges[: draw(st.integers(0, 2))]
    return Graph(n, tuple((u, v, f"e{i}") for i, (u, v) in enumerate(edges)))


class TestRankTable:
    """The rank table behind invariant_sequences against the memoized rank oracle."""

    def assert_matches(self, matroid, fixed=None):
        table = rank_table(matroid)
        assert len(table) == 1 << matroid.ground.m
        assert all(table[w] == matroid._rank_word(w) for w in matroid.ground.subsets())
        inv = invariant_sequences(matroid, fixed=fixed)
        I, W, chi, c = memo_invariants(matroid, fixed)
        assert (list(inv.I), list(inv.W), list(inv.chi)) == (I, W, chi)
        assert (list(inv.c) if inv.c is not None else None) == c
        assert inv.loopless == all(not matroid.is_loop(lab) for lab in matroid.ground.labels)
        bases = [w for w in matroid.ground.subsets() if matroid._rank_word(w) == matroid.r == popcount(w)]
        assert list(enumerate_family(matroid, "bases").terms) == bases

    @given(multigraphs())
    @settings(max_examples=80, deadline=None)
    def test_graphic_multigraphs(self, graph):
        self.assert_matches(graphic_matroid(graph))

    def test_uniform_bases_and_constructions(self):
        k4 = graphic_matroid(complete_graph(4))
        square = graphic_matroid(Graph(4, ((0, 1, "b1"), (1, 2, "b2"), (2, 3, "b3"), (3, 0, "1"))))
        bases = matroid_from_bases(enumerate_family(k4, "bases"))
        assert bases.provenance[0] == "bases"
        for matroid in (
            uniform_matroid(0, 0),
            uniform_matroid(5, 2),
            uniform_matroid(4, 4),
            bases,
            k4.dual(),
            two_sum(k4, square.dual(), "1"),
            parallel_extend(k4, {"1": 3, "6": 2}),
            graphic_matroid(Graph(3, ((0, 1, "a"), (0, 1, "b"), (1, 2, "c")))),
        ):
            self.assert_matches(matroid)

    def test_fixed_subset_counts(self):
        k4 = graphic_matroid(complete_graph(4))
        self.assert_matches(k4, fixed=("1",))
        self.assert_matches(k4, fixed=("1", "2", "6"))
        self.assert_matches(uniform_matroid(5, 3), fixed=("2", "4"))
        self.assert_matches(uniform_matroid(3, 2), fixed=())

    def test_fill_skips_the_memo(self):
        # the table holds every rank once, and the tables of minors read it
        matroid = uniform_matroid(8, 4)
        table = rank_table(matroid)
        assert list(table) == [min(4, popcount(w)) for w in range(256)]
        rank_table(matroid.delete("1"))
        rank_table(matroid.contract("1"))

    def test_no_elements(self):
        for matroid in (uniform_matroid(0, 0), graphic_matroid(Graph(1, ()))):
            inv = invariant_sequences(matroid)
            assert (inv.I, inv.W, inv.chi, inv.r) == ((1,), (1,), (1,), 0)
            assert rank_table(matroid) == bytearray(1)


class TestForestWeights:
    def test_triangle_charpoly_frozen(self):
        # oracle: det(tI + L) for the triangle, by a computer algebra system
        tri = cycle_graph(3)
        ones = {lab: F(1) for lab in ("1", "2", "3")}
        assert weighted_laplacian_charpoly(tri, ones) == (F(0), F(9), F(6), F(1))
        weighted = {"1": F(2), "2": F(3), "3": F(5)}
        assert weighted_laplacian_charpoly(tri, weighted) == (F(0), F(93), F(20), F(1))

    def test_forest_weights_triangle(self):
        tri = cycle_graph(3)
        z, record = forest_weights(tri)
        # forests: empty set, three single edges, three two-edge paths
        assert len(z.terms) == 7
        assert z.coeff(0) == 1
        assert z.coeff(tri.ground().full) == 0
        # component-size products: 2 for one edge, 3 for a spanning path
        assert z.coeff(1) == 2
        assert z.coeff(3) == 3
        assert record.charpoly == (F(0), F(9), F(6), F(1))
        assert record.size_sums[0] == 1

    def test_missing_label_named(self):
        tri = cycle_graph(3)
        y = {"1": F(2), "2": F(3)}
        with pytest.raises(ValueError, match="'3'"):
            weighted_laplacian_charpoly(tri, y)
        with pytest.raises(ValueError, match="'3'"):
            forest_identity_at(tri, y)

    def test_identity_at_random_points(self):
        rng = SplitMix64(5)
        for graph in (cycle_graph(4), complete_graph(4), path_graph(4)):
            y = sample_point(rng, graph.ground().labels)
            assert forest_identity_at(graph, y)
