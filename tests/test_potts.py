from fractions import Fraction

import pytest

from rayleigh_forge.matroids import (
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_family,
    graphic_matroid,
    two_sum,
    uniform_matroid,
)
from rayleigh_forge.polynomials import symmetrize
from rayleigh_forge.potts import (
    Model,
    model_poly,
    potts_poly,
    potts_slices,
    scaling_limit_support,
    slice_inequality_scan,
    twosum_compose,
    uniform_potts_symseq,
)
from rayleigh_forge.scalars import LaurentQ

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
        sym = potts_poly(m)
        for q0 in (F(1, 3), F(2, 5), F(7, 4)):
            ev = potts_poly(m, q0)
            for w, c in sym.poly.terms.items():
                assert LaurentQ.coerce(c).evaluate(q0) == ev.poly.coeff(w)

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
            members = set(enumerate_family(m, kind).members)
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
        mp = potts_poly(graphic_matroid(complete_graph(4)))
        rep = potts_slices(mp, "1")
        assert rep.identities == {
            "deleted_matches_minor": True,
            "contracted_matches_minor": True,
            "reconstruction": True,
            "spanned_excluded": True,
            "spanned_sum": True,
        }
        assert rep.sampled == {}

    def test_sampled_inequalities(self):
        mp = potts_poly(graphic_matroid(cycle_graph(4)), F(1, 3))
        rep = potts_slices(mp, "2", samples=25, seed=11)
        assert rep.sampled["strict_lower_ok"]
        assert rep.sampled["weak_upper_ok"]
        assert not rep.sampled["equality_seen"]
        assert rep.sampled["equality_matches_coloop"]

    def test_coloop_forces_equality(self):
        bridge = graphic_matroid(Graph(3, ((0, 1, "a"), (1, 2, "b"))))
        rep = potts_slices(potts_poly(bridge, F(1, 2)), "a", samples=10, seed=3)
        assert rep.sampled["equality_seen"]
        assert rep.sampled["is_coloop"]
        assert rep.sampled["equality_matches_coloop"]

    def test_loop_rejected(self):
        mp = potts_poly(uniform_matroid(2, 0), F(1, 2))
        with pytest.raises(ValueError):
            potts_slices(mp, "1")

    def test_sampled_needs_small_q(self):
        mp = potts_poly(uniform_matroid(3, 2), F(2))
        with pytest.raises(ValueError):
            potts_slices(mp, "1", samples=5)

    def test_scan_consistent(self):
        for m in (graphic_matroid(complete_graph(4)), uniform_matroid(4, 2)):
            scans = slice_inequality_scan(m, samples=20, seed=7)
            assert len(scans) == m.ground.m
            assert all(s.consistent for s in scans)

    def test_scan_zero_samples_refused(self):
        # every element would read consistent over zero points
        with pytest.raises(ValueError, match="samples must be at least 1"):
            slice_inequality_scan(uniform_matroid(4, 2), samples=0)


def _triangle(prefix: str):
    return graphic_matroid(
        Graph(3, ((0, 1, prefix + "1"), (1, 2, prefix + "2"), (2, 0, "g")))
    )


class TestTwoSumCompose:
    def test_matches_direct_two_sum(self):
        left, right = _triangle("a"), _triangle("b")
        direct = two_sum(left, right, "g")
        for model in MODELS:
            composed = twosum_compose(
                model_poly(left, model), model_poly(right, model), "g", model
            )
            assert composed.poly == model_poly(direct, model).poly

    def test_symbolic_potts_agrees(self):
        left, right = _triangle("a"), _triangle("b")
        model = Model("potts")
        composed = twosum_compose(
            model_poly(left, model), model_poly(right, model), "g", model
        )
        direct = model_poly(two_sum(left, right, "g"), model)
        assert composed.poly == direct.poly

    def test_rejects_q_one(self):
        left, right = _triangle("a"), _triangle("b")
        model = Model("potts", F(1))
        with pytest.raises(ValueError):
            twosum_compose(
                model_poly(left, model), model_poly(right, model), "g", model
            )

    def test_rejects_model_mismatch(self):
        left, right = _triangle("a"), _triangle("b")
        lp = model_poly(left, Model("bases"))
        rp = model_poly(right, Model("spanning"))
        with pytest.raises(ValueError):
            twosum_compose(lp, rp, "g", Model("bases"))

    def test_rejects_bad_overlap(self):
        left = model_poly(_triangle("a"), Model("bases"))
        also_a = model_poly(_triangle("a"), Model("bases"))
        with pytest.raises(ValueError):
            twosum_compose(left, also_a, "g", Model("bases"))

    def test_rejects_coloop_glue(self):
        bridge = graphic_matroid(Graph(3, ((0, 1, "b1"), (1, 2, "g"))))
        model = Model("bases")
        with pytest.raises(ValueError):
            twosum_compose(
                model_poly(_triangle("a"), model), model_poly(bridge, model), "g", model
            )

    def test_works_without_source_matroid(self):
        # strip the matroids: loop/coloop classification must fall back to the
        # polynomial route
        from rayleigh_forge.potts import ModelPoly

        model = Model("bases")
        lp = model_poly(_triangle("a"), model)
        rp = model_poly(_triangle("b"), model)
        naked_l = ModelPoly(lp.poly, model, None)
        naked_r = ModelPoly(rp.poly, model, None)
        composed = twosum_compose(naked_l, naked_r, "g", model)
        direct = model_poly(two_sum(_triangle("a"), _triangle("b"), "g"), model)
        assert composed.poly == direct.poly


class TestScalingLimit:
    @pytest.mark.parametrize("alpha,kind", [(F(0), "spanning"), (F(1, 2), "bases"), (F(1), "independent")])
    def test_limits_recover_families(self, alpha, kind):
        for m in (graphic_matroid(complete_graph(4)), uniform_matroid(5, 3)):
            assert scaling_limit_support(m, alpha) == frozenset(
                enumerate_family(m, kind).members
            )

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            scaling_limit_support(uniform_matroid(2, 1), F(2))
