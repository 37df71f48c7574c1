import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_forge import matroids
from rayleigh_forge.matroids import (
    Graph,
    Matroid,
    complete_graph,
    cycle_graph,
    enumerate_family,
    graphic_matroid,
    matroid_from_bases,
    parallel_extend,
    rank_table,
    two_sum,
    uniform_matroid,
)
from rayleigh_forge.corpus import _TWOSUM_POOL, corpus_matroids
from rayleigh_forge.polynomials import GroundSet, SubsetPoly, multiply_disjoint, rayleigh_diff
from rayleigh_forge.potts import (
    Model,
    ModelPoly,
    glue_weights,
    model_poly,
    potts_poly,
    potts_slices,
    scaling_limit_support,
    slice_inequality_scan,
    twosum_compose,
    uniform_potts_symseq,
)
from rayleigh_forge.prng import derive, sample_point
from rayleigh_forge.scalars import q_exponent
from rayleigh_forge.sequences import symmetrize
from rayleigh_forge.words import compress, expand, popcount

from laurent_reference import DenseLaurentQ

F = Fraction

MODELS = (
    Model("bases"),
    Model("independent"),
    Model("spanning"),
    Model("potts", F(1, 3)),
)


class TestPottsPoly:
    def test_u21_hand_values(self):
        # ranks 0,1,1,1 so at q = 1/2 every nonempty subset weighs 2
        mp = potts_poly(uniform_matroid(2, 1), F(1, 2))
        g = mp.ground
        assert mp.poly.coeff(0) == 1
        assert mp.poly.coeff(g.bit("1")) == 2
        assert mp.poly.coeff(g.bit("2")) == 2
        assert mp.poly.coeff(g.full) == 2

    def test_symbolic_matches_evaluated(self):
        m = graphic_matroid(cycle_graph(3))
        sym = laurent_terms(potts_poly(m).poly)
        for q0 in (F(1, 3), F(2, 5), F(7, 4)):
            ev = potts_poly(m, q0)
            for w, c in sym.items():
                assert c.evaluate(q0) == ev.poly.coeff(w)

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: potts_poly(m),
            lambda m: potts_poly(m, F(1, 2)),
            potts_slices,
            lambda m: slice_inequality_scan(m, samples=3),
        ],
        ids=["potts_poly-symbolic", "potts_poly-fixed", "potts_slices", "slice_inequality_scan"],
    )
    def test_subset_outranking_the_ground_set_refused(self, build):
        # a check=False oracle with rank {a} = 2 > 1 = rank {a, b}: q^-2 is no Potts weight of rank 1
        oracle = Matroid(GroundSet("ab"), [0, 2, 1, 1].__getitem__, check=False)
        with pytest.raises(ValueError, match=r"subset \{a\} has rank 2, above the rank 1 of the ground set"):
            build(oracle)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            Model("whitney")
        with pytest.raises(ValueError):
            Model("bases", F(1, 2))
        with pytest.raises(ValueError):
            Model("potts", F(-1))


class TestModelPoly:
    def test_matches_family_enumeration(self):
        m = graphic_matroid(complete_graph(4))
        for kind in ("bases", "independent", "spanning"):
            mp = model_poly(m, Model(kind))
            members = set(enumerate_family(m, kind).terms)
            assert set(mp.poly.terms) == members
            assert all(c == 1 for c in mp.poly.terms.values())

    def test_potts_kind_dispatches(self):
        m = uniform_matroid(3, 2)
        assert model_poly(m, Model("potts", F(1, 2))).poly == potts_poly(m, F(1, 2)).poly


class TestUniformShortcut:
    def test_matches_symmetrized_potts(self):
        for m, r in ((4, 2), (5, 3), (3, 3)):
            q0 = F(2, 7)
            seq = uniform_potts_symseq(m, r, q0)
            full = symmetrize(potts_poly(uniform_matroid(m, r), q0).poly)
            assert seq.entries == full.entries


class TestSlices:
    def test_symbolic_identities_k4(self):
        assert potts_slices(graphic_matroid(complete_graph(4)))["1"] == {
            "deleted_matches_minor": True,
            "contracted_matches_minor": True,
            "reconstruction": True,
            "spanned_excluded": True,
            "spanned_sum": True,
        }

    def test_coloop_forces_equality(self):
        bridge = graphic_matroid(Graph(3, ((0, 1, "a"), (1, 2, "b"))))
        scans = {s.label: s for s in slice_inequality_scan(bridge, samples=10, seed=3)}
        assert scans["a"].is_coloop
        assert scans["a"].equality_count == scans["a"].points == 10
        assert scans["a"].consistent

    def test_loops_absent_from_the_result(self):
        assert potts_slices(uniform_matroid(2, 0)) == {}
        # l lies in no basis of {a}, {b}
        mixed = matroid_from_bases(SubsetPoly(GroundSet(("a", "l", "b")), {0b001: 1, 0b100: 1}))
        assert mixed.is_loop("l")
        assert list(potts_slices(mixed)) == ["a", "b"]

    def test_every_corpus_matroid_reports_each_non_loop_element(self):
        for name, matroid in corpus_matroids():
            report = potts_slices(matroid)
            labels = matroid.ground.labels
            assert list(report) == [lab for lab in labels if not matroid.is_loop(lab)], name
            assert all(all(identities.values()) for identities in report.values()), name

    def test_scan_consistent(self):
        for m in (graphic_matroid(complete_graph(4)), uniform_matroid(4, 2)):
            scans = slice_inequality_scan(m, samples=20, seed=7)
            assert len(scans) == m.ground.m
            assert all(s.consistent for s in scans)

    def test_scan_zero_samples_refused(self):
        # every element would read consistent over zero points
        with pytest.raises(ValueError, match="samples must be at least 1"):
            slice_inequality_scan(uniform_matroid(4, 2), samples=0)


# --- the Kronecker route against the symbolic one ---------------------------


def laurent_terms(poly):
    """A symbolic-q polynomial's coefficients as reference Laurent monomials."""
    return {w: DenseLaurentQ.q_power(q_exponent(c)) for w, c in poly.terms.items()}


def ref_slices(matroid):
    """The five slice identities decided in reference Laurent arithmetic, symbolically in q."""
    z = reference_potts(matroid, None)
    ground = matroid.ground
    table = rank_table(matroid)
    q, q_inv = DenseLaurentQ.q_power(1), DenseLaurentQ.q_power(-1)
    report = {}
    for label in ground.labels:
        if matroid.is_loop(label):
            continue
        bit = ground.bit(label)
        sub = ground.without(label)
        pos = tuple(map(ground.index, sub.labels))
        del_terms = {compress(w, pos): c for w, c in z.items() if not w & bit}
        con_terms = {compress(w, pos): q * c for w, c in z.items() if w & bit}
        identities = {
            "deleted_matches_minor": del_terms == reference_potts(matroid.delete(label), None),
            "contracted_matches_minor": con_terms == reference_potts(matroid.contract(label), None),
        }
        identities["reconstruction"] = all(
            c == (q_inv * con_terms[compress(w, pos)] if w & bit else del_terms[compress(w, pos)])
            for w, c in z.items()
        )
        spanned = {}
        unspanned = {}
        for w in sub.subsets():
            orig = expand(w, pos)
            (spanned if table[orig | bit] == table[orig] else unspanned)[w] = z[orig]
        identities["spanned_excluded"] = all(
            del_terms[w] - q_inv * con_terms[w] == (1 - q_inv) * unspanned.get(w, 0) for w in sub.subsets()
        )
        identities["spanned_sum"] = all(
            (del_terms[w] - con_terms[w]).divide_by_one_minus_q() == spanned.get(w, 0) for w in sub.subsets()
        )
        report[label] = identities
    return report


def monotone_oracle(m, raw):
    """A rank oracle on m elements, raw closed upward by max over subsets.

    Not a matroid in general: ranks may jump by 2, and the empty set may
    have rank above 0.  Monotone ranks keep every minor's ranks between 0
    and its own full rank, so the Potts weights of both minors exist.
    """
    table = list(raw)
    for w in range(1 << m):
        for i in range(m):
            if w >> i & 1:
                table[w] = max(table[w], table[w ^ 1 << i])
    return Matroid(GroundSet("abcd"[:m]), table.__getitem__, check=False)


@st.composite
def rank_oracles(draw):
    m = draw(st.integers(1, 4))
    return monotone_oracle(m, draw(st.lists(st.integers(0, 3), min_size=1 << m, max_size=1 << m)))


class TestKroneckerSlices:
    @settings(max_examples=150, deadline=None)
    @given(rank_oracles())
    def test_matches_symbolic_off_matroids(self, matroid):
        assert potts_slices(matroid) == ref_slices(matroid)

    def test_false_identities_match(self):
        # negative control: oracles that are not matroids break identities,
        # and both routes must report the same ones broken
        rng = random.Random(33)
        broken = set()
        for _ in range(150):
            m = rng.randint(1, 4)
            matroid = monotone_oracle(m, [rng.randint(0, 3) for _ in range(1 << m)])
            report = potts_slices(matroid)
            assert report == ref_slices(matroid)
            broken |= {key for identities in report.values() for key, ok in identities.items() if not ok}
        assert broken == {"contracted_matches_minor", "spanned_excluded", "spanned_sum"}

    def test_matches_symbolic_on_the_corpus(self):
        for name, matroid in corpus_matroids():
            assert potts_slices(matroid) == ref_slices(matroid), name


def _triangle(prefix: str):
    return graphic_matroid(
        Graph(3, ((0, 1, prefix + "1"), (1, 2, prefix + "2"), (2, 0, "g")))
    )


class TestTwoSumCompose:
    def test_matches_direct_two_sum(self):
        left, right = _triangle("a"), _triangle("b")
        direct = two_sum(left, right, "g")
        for model in MODELS:
            composed = twosum_compose(model_poly(left, model), model_poly(right, model), "g")
            assert composed.poly == model_poly(direct, model).poly

    def test_symbolic_potts_agrees(self):
        left, right = _triangle("a"), _triangle("b")
        model = Model("potts")
        composed = twosum_compose(model_poly(left, model), model_poly(right, model), "g")
        direct = model_poly(two_sum(left, right, "g"), model)
        assert composed.poly == direct.poly

    def test_one_point_compose_matches_laurent_reference(self):
        # every ordered pool pair: the symbolic two-sum composed at q = 2^-8 and
        # read back as powers of q is the glue-weight row composed in q itself
        model = Model("potts")
        for (lname, lfac), (rname, rfac) in itertools.product(_TWOSUM_POOL, repeat=2):
            left, right = lfac("a"), rfac("b")
            composed = twosum_compose(model_poly(left, model), model_poly(right, model), "g")
            assert laurent_terms(composed.poly) == reference_twosum(left, right), (lname, rname)

    def test_rejects_q_one(self):
        left, right = _triangle("a"), _triangle("b")
        model = Model("potts", F(1))
        with pytest.raises(ValueError):
            twosum_compose(model_poly(left, model), model_poly(right, model), "g")

    def test_glue_weights_refuse_q_one(self):
        # (1 - q) vanishes at q = 1: a ValueError that says so, not a ZeroDivisionError;
        # twosum_compose refuses q = 1 before it asks for glue weights
        mp = model_poly(uniform_matroid(3, 2), Model("potts", F(1)))
        with pytest.raises(ValueError, match=r"\(1 - q\).*vanishes at q = 1"):
            glue_weights(mp, "1")

    def test_rejects_model_mismatch(self):
        left, right = _triangle("a"), _triangle("b")
        lp = model_poly(left, Model("bases"))
        rp = model_poly(right, Model("spanning"))
        with pytest.raises(ValueError):
            twosum_compose(lp, rp, "g")

    def test_rejects_bad_overlap(self):
        left = model_poly(_triangle("a"), Model("bases"))
        also_a = model_poly(_triangle("a"), Model("bases"))
        with pytest.raises(ValueError):
            twosum_compose(left, also_a, "g")

    def test_rejects_coloop_glue(self):
        bridge = graphic_matroid(Graph(3, ((0, 1, "b1"), (1, 2, "g"))))
        model = Model("bases")
        with pytest.raises(ValueError):
            twosum_compose(model_poly(_triangle("a"), model), model_poly(bridge, model), "g")

    def test_works_without_source_matroid(self):
        # weight-file sides carry no matroid; the glue is classified from the
        # polynomials alone
        model = Model("bases")
        lp = model_poly(_triangle("a"), model)
        rp = model_poly(_triangle("b"), model)
        naked_l = ModelPoly(lp.poly, model)
        naked_r = ModelPoly(rp.poly, model)
        composed = twosum_compose(naked_l, naked_r, "g")
        direct = model_poly(two_sum(_triangle("a"), _triangle("b"), "g"), model)
        assert composed.poly == direct.poly


POOL = dict(_TWOSUM_POOL)
# the constant kappa in D_N(e,f) = kappa D_L(e,g) D_R(g,f): 1 for the
# families, q^2 / (1 - q) for Potts, negative above q = 1
KAPPA = {
    Model("bases"): 1,
    Model("independent"): 1,
    Model("spanning"): 1,
    Model("potts", F(1, 3)): F(1, 6),
    Model("potts", F(2, 3)): F(4, 3),
    Model("potts", F(3, 2)): F(-9, 2),
}
PART_PAIRS = (("k4", "uniform-5-3"), ("cycle-4", "uniform-4-2"))


def _glued(model, lname, rname):
    """The two parts' model polynomials and the direct two-sum's."""
    left, right = POOL[lname]("a"), POOL[rname]("b")
    return model_poly(left, model), model_poly(right, model), model_poly(two_sum(left, right, "g"), model).poly


def _model_id(model):
    return model.kind if model.q0 is None else f"{model.kind}-{model.q0}"


class TestTwoSumIdentities:
    """The within-side and cross-pair identities of a two-sum's pair differences."""

    @pytest.mark.parametrize("lname,rname", PART_PAIRS)
    @pytest.mark.parametrize("model", list(KAPPA), ids=_model_id)
    def test_within_side_pairs_substitute_the_glue(self, model, lname, rname):
        # D_N(e,f)(y) = alpha^2 D_L(e,f)(y_L, y_g = beta / alpha), (alpha, beta) at y_R
        lp, rp, zn = _glued(model, lname, rname)
        alpha, beta = glue_weights(rp, "g")
        rng = derive(30, 0)
        for e, f in itertools.combinations([lab for lab in lp.ground.labels if lab != "g"], 2):
            dn, dl = rayleigh_diff(zn, e, f), rayleigh_diff(lp.poly, e, f)
            for _ in range(3):
                y = sample_point(rng, zn.ground.labels)
                a, b = alpha.evaluate(y), beta.evaluate(y)
                assert dn.evaluate(y) == a * a * dl.evaluate({**y, "g": b / a}), (e, f)

    @pytest.mark.parametrize("lname,rname", PART_PAIRS)
    @pytest.mark.parametrize("model", list(KAPPA), ids=_model_id)
    def test_cross_pairs_factor_through_the_glue(self, model, lname, rname):
        lp, rp, zn = _glued(model, lname, rname)
        for e in lp.ground.labels:
            for f in rp.ground.labels:
                if "g" in (e, f):
                    continue
                factored = multiply_disjoint(rayleigh_diff(lp.poly, e, "g"), rayleigh_diff(rp.poly, "g", f))
                assert rayleigh_diff(zn, e, f) == factored.scale(KAPPA[model]), (e, f)

    @pytest.mark.parametrize("model", [*KAPPA, Model("potts", F(7))], ids=_model_id)
    def test_glue_weights_have_nonnegative_coefficients(self, model):
        # so y_g = beta / alpha > 0 on every pool part, for every q != 1
        for name, part in _TWOSUM_POOL:
            for weight in glue_weights(model_poly(part("a"), model), "g"):
                assert not weight.is_zero(), name
                assert min(weight.terms.values()) >= 0, name


class TestScalingLimit:
    @pytest.mark.parametrize("alpha,kind", [(F(0), "spanning"), (F(1, 2), "bases"), (F(1), "independent")])
    def test_limits_recover_families(self, alpha, kind):
        for m in (graphic_matroid(complete_graph(4)), uniform_matroid(5, 3)):
            assert scaling_limit_support(m, alpha) == frozenset(
                enumerate_family(m, kind).terms
            )

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            scaling_limit_support(uniform_matroid(2, 1), F(2))

    def test_refuses_more_than_enum_limit(self):
        with pytest.raises(ValueError, match="capped at 24"):
            scaling_limit_support(uniform_matroid(25, 3), F(1, 2))


# --- the rank-table route against per-subset rank calls -----------------------


def reference_potts(matroid, q0):
    """Z's coefficients q^(-rank S), one rank-oracle call per subset, in
    reference Laurent arithmetic when q0 is None (symbolic q)."""
    terms = {}
    for w in matroid.ground.subsets():
        rk = matroid._rank_word(w)
        terms[w] = DenseLaurentQ.q_power(-rk) if q0 is None else F(q0) ** -rk
    return terms


def reference_twosum(left, right):
    """The Potts two-sum along g, N = L^g alpha + L_g beta with the right part's
    alpha = q (R_g - R^g) / (1 - q) and beta = q (R^g - q R_g) / (1 - q), in
    reference Laurent arithmetic; keyed like `twosum_compose`'s result."""
    q = DenseLaurentQ.q_power(1)
    slices = []
    for matroid in (left, right):
        ground = matroid.ground
        bit = ground.bit("g")
        pos = tuple(map(ground.index, ground.without("g").labels))
        z = reference_potts(matroid, None)
        slices.append(
            (
                {compress(w, pos): c for w, c in z.items() if not w & bit},
                {compress(w, pos): c for w, c in z.items() if w & bit},
            )
        )
    (ld, lc), (rd, rc) = slices
    alpha = {w: (q * (rc[w] - rd[w])).divide_by_one_minus_q() for w in rd}
    beta = {w: (q * (rd[w] - q * rc[w])).divide_by_one_minus_q() for w in rd}
    shift = left.ground.m - 1
    terms = {w1 | w2 << shift: ld[w1] * alpha[w2] + lc[w1] * beta[w2] for w1 in ld for w2 in rd}
    return {w: c for w, c in terms.items() if c}


def reference_limit(matroid, alpha):
    rank = matroid._rank_word
    expo = {
        w: (1 - alpha) * (matroid.r - rank(w)) + alpha * (popcount(w) - rank(w))
        for w in matroid.ground.subsets()
    }
    least = min(expo.values())
    return frozenset(w for w, x in expo.items() if x == least)


@st.composite
def base_matroids(draw):
    kind = draw(st.sampled_from(("graphic", "uniform", "bases")))
    if kind == "uniform":
        m = draw(st.integers(0, 6))
        return uniform_matroid(m, draw(st.integers(0, m)))
    n = draw(st.integers(2, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=7))
    edges = [(u, v) for u, v in pairs if u != v]
    # parallel edges on purpose: repeat a drawn edge
    edges += edges[: draw(st.integers(0, 2))]
    graphic = graphic_matroid(Graph(n, tuple((u, v, f"e{i}") for i, (u, v) in enumerate(edges))))
    if kind == "graphic":
        return graphic
    return matroid_from_bases(enumerate_family(graphic, "bases"))


@st.composite
def potts_matroids(draw):
    """A graphic, uniform or basis-list matroid, maybe turned into a minor,
    a dual, a two-sum with a triangle or a parallel extension."""
    base = draw(base_matroids())
    labels = base.ground.labels
    op = draw(st.sampled_from(("none", "delete", "contract", "dual", "two_sum", "parallel")))
    if op in ("delete", "contract") and labels:
        label = draw(st.sampled_from(labels))
        return base.delete(label) if op == "delete" else base.contract(label)
    if op == "dual":
        return base.dual()
    if op == "parallel" and labels:
        # at most 12 elements: the 2^m enumerations stay fast and under their caps
        most = max(1, min(3, 12 // len(labels)))
        counts = draw(st.lists(st.integers(1, most), min_size=len(labels), max_size=len(labels)))
        return parallel_extend(base, dict(zip(labels, counts)))
    glues = [lab for lab in labels if not base.is_loop(lab) and not base.is_coloop(lab)]
    if op == "two_sum" and glues:
        glue = draw(st.sampled_from(glues))
        triangle = graphic_matroid(Graph(3, ((0, 1, "t1"), (1, 2, "t2"), (2, 0, glue))))
        return two_sum(base, triangle, glue)
    return base


class TestRankTableRoute:
    @given(potts_matroids(), st.sampled_from((None, F(1, 2), F(3), F(2, 7))))
    @settings(max_examples=120, deadline=None)
    def test_potts_poly_matches_rank_calls(self, matroid, q0):
        mp = potts_poly(matroid, q0)
        assert (laurent_terms(mp.poly) if q0 is None else mp.poly.terms) == reference_potts(matroid, q0)

    @given(potts_matroids(), st.sampled_from((F(0), F(1, 3), F(1, 2), F(2, 3), F(1))))
    @settings(max_examples=120, deadline=None)
    def test_scaling_limit_matches_rank_calls(self, matroid, alpha):
        assert scaling_limit_support(matroid, alpha) == reference_limit(matroid, alpha)

    def test_graphic_potts_skips_the_rank_oracle(self):
        # a graphic rank table is filled by one union-find walk, so building
        # Z must not fall back to a rank call per subset
        matroid = graphic_matroid(complete_graph(5))
        calls = []
        wrapped = matroid._rank_word

        def counted(w):
            calls.append(w)
            return wrapped(w)

        matroid._rank_word = counted
        mp = potts_poly(matroid, F(1, 2))
        assert len(mp.poly.terms) == 1 << matroid.ground.m
        assert calls == []

    def test_one_table_per_matroid(self, monkeypatch):
        # potts_poly and the closure split of every slice share one table
        matroid = graphic_matroid(complete_graph(4))
        walks = []
        walk = matroids._graphic_ranks

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(matroids, "_graphic_ranks", counted)
        potts_poly(matroid)
        report = potts_slices(matroid)
        for lab in matroid.ground.labels:
            assert all(report[lab].values())
        assert len(walks) == 1
        table = rank_table(matroid)
        assert isinstance(table, bytes) and rank_table(matroid) is table


class TestElementClassification:
    @given(
        potts_matroids(),
        st.sampled_from(
            (
                Model("bases"),
                Model("independent"),
                Model("spanning"),
                Model("potts"),
                Model("potts", F(1, 2)),
                Model("potts", F(3)),
                Model("potts", F(2, 7)),
            )
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_loops_and_coloops_read_from_the_polynomial(self, matroid, model):
        mp = ModelPoly(model_poly(matroid, model).poly, model)
        for lab in matroid.ground.labels:
            alpha, beta = glue_weights(mp, lab)
            assert alpha.is_zero() == matroid.is_loop(lab)
            assert beta.is_zero() == matroid.is_coloop(lab)
