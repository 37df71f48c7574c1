import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_forge import rayleigh
from rayleigh_forge.corpus import k4_certificates
from rayleigh_forge.matroids import complete_graph, graphic_matroid, uniform_matroid
from rayleigh_forge.polynomials import (
    GroundSet,
    QuadPoly,
    SubsetPoly,
    rayleigh_diff,
)
from rayleigh_forge.potts import Model, model_poly, uniform_potts_symseq
from rayleigh_forge.prng import DEFAULT_SEED, SplitMix64, derive, log_uniform_fraction, sample_point
from rayleigh_forge.rayleigh import (
    CoeffStrategy,
    RayleighVerdict,
    SampleStrategy,
    SquareCertificate,
    check_all,
    check_pair,
    conjecture_probe,
    covariance,
    estimate_qc,
    exchangeable_check,
    negative_association_check,
    scalar_pair_diff,
    symmetrize_and_check,
    triple_condition_check,
)
from rayleigh_forge.sequences import Seq, symseq_to_poly

F = Fraction


def rand_positive_poly(rng: SplitMix64, m: int) -> SubsetPoly:
    ground = GroundSet(str(i + 1) for i in range(m))
    terms = {}
    for w in range(1 << m):
        if rng.below(2) == 0:
            terms[w] = log_uniform_fraction(rng)
    terms[0] = F(1)  # keep the measure normalizable at any point
    return SubsetPoly(ground, terms)


class TestCovariance:
    def test_matches_quadratic_route(self):
        # covariance is computed straight from the measure; the identity
        # cov = -(y_e y_f / Z^2) * diff ties it to the slice polynomial
        rng = SplitMix64(21)
        for _ in range(10):
            z = rand_positive_poly(rng, 4)
            point = sample_point(rng, z.ground.labels)
            e, f = "1", "3"
            diff = rayleigh_diff(z, e, f)
            rest = {k: v for k, v in point.items() if k not in (e, f)}
            zval = z.evaluate(point)
            expect = -(point[e] * point[f] / zval**2) * diff.evaluate(rest)
            assert covariance(z, e, f, point) == expect

    def test_product_measure_is_independent(self):
        g = GroundSet(("1", "2"))
        z = SubsetPoly(g, {0: F(1), 1: F(2), 2: F(3), 3: F(6)})  # (1+2y1)(1+3y2)
        point = {"1": F(1, 2), "2": F(4)}
        assert covariance(z, "1", "2", point) == 0

    def test_matroid_gives_negative_correlation(self):
        z = model_poly(uniform_matroid(4, 2), Model("bases")).poly
        point = {lab: F(1) for lab in z.ground.labels}
        assert covariance(z, "1", "2", point) < 0

    def test_validation(self):
        z = model_poly(uniform_matroid(2, 1), Model("bases")).poly
        with pytest.raises(ValueError):
            covariance(z, "1", "2", {"1": F(0), "2": F(1)})

    def test_missing_coordinate_named(self):
        z = model_poly(uniform_matroid(3, 1), Model("bases")).poly
        with pytest.raises(ValueError, match="'3'"):
            covariance(z, "1", "2", {"1": F(1), "2": F(1)})


class TestScalarPairDiff:
    def test_matches_quadpoly_evaluation(self):
        rng = SplitMix64(22)
        for _ in range(10):
            z = rand_positive_poly(rng, 5)
            point = sample_point(rng, z.ground.labels)
            rest = {k: v for k, v in point.items() if k not in ("2", "4")}
            assert scalar_pair_diff(z, "2", "4", point) == rayleigh_diff(z, "2", "4").evaluate(rest)

    def test_missing_coordinate_named(self):
        z = model_poly(uniform_matroid(4, 2), Model("bases")).poly
        with pytest.raises(ValueError, match="'4'"):
            scalar_pair_diff(z, "1", "2", {"3": F(1)})

    def test_refuses_one_element_twice(self):
        z = model_poly(uniform_matroid(4, 2), Model("bases")).poly
        with pytest.raises(ValueError, match="must be distinct"):
            scalar_pair_diff(z, "1", "1", {"2": F(1), "3": F(1), "4": F(1)})


class TestStrategies:
    def test_coeff_verifies_u32(self):
        z = model_poly(uniform_matroid(3, 2), Model("bases")).poly
        verdict = check_pair(z, "1", "2", CoeffStrategy())
        assert verdict.verified and verdict.method == "coeff-positive"

    def test_coeff_never_refutes(self):
        g = GroundSet(("1", "2"))
        z = SubsetPoly(g, {0: F(1), 3: F(1)})  # 1 + y1 y2, positively correlated
        verdict = check_pair(z, "1", "2", CoeffStrategy())
        assert verdict.status == "inconclusive"

    def test_sample_refutes_with_witness(self):
        g = GroundSet(("1", "2"))
        z = SubsetPoly(g, {0: F(1), 3: F(1)})
        verdict = check_pair(z, "1", "2", SampleStrategy(10, seed=5))
        assert verdict.refuted
        assert verdict.value < 0
        # the witness must re-evaluate negative through the scalar route
        point = dict(verdict.witness)
        point.update({"1": F(1), "2": F(1)})
        assert scalar_pair_diff(z, "1", "2", point) == verdict.value

    def test_sample_inconclusive_reports_min(self):
        z = model_poly(uniform_matroid(3, 2), Model("bases")).poly
        verdict = check_pair(z, "1", "2", SampleStrategy(16, seed=9))
        assert verdict.status == "inconclusive"
        assert verdict.samples == 16
        assert verdict.min_value >= 0

    def test_certificate_covers_k4_opposite_pair(self):
        z = model_poly(graphic_matroid(complete_graph(4)), Model("independent")).poly
        assert not rayleigh_diff(z, "1", "6").is_coefficientwise_nonnegative()
        verdict = check_pair(z, "1", "6", CoeffStrategy(k4_certificates()))
        assert verdict.verified and verdict.method == "certificate"

    def test_empty_certificate_falls_back_to_coeff(self):
        z = model_poly(uniform_matroid(3, 2), Model("bases")).poly
        assert check_pair(z, "1", "2", CoeffStrategy()).verified

    def test_certificate_validation(self):
        with pytest.raises(ValueError):
            SquareCertificate(((F(0), ("a",), ("b",)),))
        with pytest.raises(ValueError):
            SquareCertificate(((F(1), ("a",), ("a",)),))
        with pytest.raises(ValueError, match="squares must be nonzero"):
            SquareCertificate(((F(1), ("2", "5"), ("5", "2")),))

    def test_certificate_expand_is_square(self):
        cert = SquareCertificate(((F(2), ("1", "2"), ("3",)),))
        g = GroundSet(("1", "2", "3"))
        quad = cert.expand(g)
        rng = SplitMix64(3)
        for _ in range(5):
            point = sample_point(rng, g.labels)
            v = point["1"] * point["2"] - point["3"]
            assert quad.evaluate(point) == 2 * v * v


class TestCheckAll:
    def test_summary_ordering(self):
        z = model_poly(uniform_matroid(3, 2), Model("bases")).poly
        assert check_all(z, CoeffStrategy()).summary == "verified"
        g = GroundSet(("1", "2", "3"))
        mixed = SubsetPoly(g, {0: F(1), 3: F(1)})  # pair (1,2) correlates positively
        sweep = check_all(mixed, SampleStrategy(20, seed=2))
        assert sweep.summary == "refuted"

    def test_seed_split_is_schedule_free(self):
        # pair number idx samples from derive(seed, idx) alone, so each verdict
        # is the one check_pair gives for that pair in isolation
        z = rand_positive_poly(SplitMix64(4), 4)  # refuted and inconclusive pairs
        sweep = check_all(z, SampleStrategy(8, seed=77))
        for idx, ((e, f), verdict) in enumerate(sweep.verdicts.items()):
            alone = check_pair(z, e, f, SampleStrategy(8, derive(77, idx).next_u64()))
            assert verdict == alone


class TestExchangeable:
    def test_log_concave_verified(self):
        assert exchangeable_check(Seq(0, (F(1), F(3), F(3), F(1)), 3)).verified

    def test_violation_index(self):
        verdict = exchangeable_check(Seq(0, (F(1), F(1), F(4), F(1)), 3))
        assert verdict.refuted and verdict.index == 1

    def test_internal_zero_refuted(self):
        verdict = exchangeable_check(Seq(0, (F(1), F(0), F(1)), 2))
        assert verdict.refuted and verdict.index == 1

    def test_witness_reevaluates_negative(self):
        seq = Seq(0, (F(1), F(1), F(4), F(1)), 3)
        verdict = exchangeable_check(seq)
        assert verdict.witness is not None
        z = symseq_to_poly(seq)
        e, f = verdict.pair
        rest = dict(verdict.witness)
        assert rayleigh_diff(z, e, f).evaluate(rest) == verdict.value < 0

    @pytest.mark.parametrize(
        "entries, pair, point, value",
        [
            ((1, 1, 4, 1), ("1", "2"), {"3": F(1, 4)}, F(-21, 16)),
            ((1, 3, 1, 1, 5), ("2", "3"), {"1": F(2), "4": F(1, 2)}, F(-77, 2)),
        ],
    )
    def test_ladder_witness_pinned(self, entries, pair, point, value):
        # the whole ladder is read at the one shift 40, and each step's
        # value is exact, so the first negative point is fixed
        verdict = exchangeable_check(Seq(0, tuple(map(F, entries)), len(entries) - 1))
        assert (verdict.pair, verdict.witness, verdict.value) == (pair, point, value)

    def test_witness_skew_raises(self, monkeypatch):
        # the point evaluator off by one: the ladder's value no longer agrees
        # with the scalar slice route, nor with the covariance
        real = rayleigh.pair_value

        def skewed(*args):
            num, scale = real(*args)
            return num - 1, scale

        monkeypatch.setattr(rayleigh, "pair_value", skewed)
        with pytest.raises(ArithmeticError, match="through the covariance"):
            exchangeable_check(Seq(0, (F(1), F(1), F(4), F(1)), 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            exchangeable_check(Seq(0, (F(1), F(-1), F(1)), 2))
        with pytest.raises(ValueError):
            exchangeable_check(Seq(0, (F(0), F(0)), 1))

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_agreement_with_pair_sweep(self, vals):
        # the exact exchangeable rule must agree with coefficient positivity
        # of every pairwise slice comparison
        seq = Seq(0, tuple(F(v) for v in vals), len(vals) - 1)
        z = symseq_to_poly(seq)
        labels = z.ground.labels
        any_negative = False
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                mono_ok = check_pair(z, labels[i], labels[j], SampleStrategy(40, seed=4))
                if mono_ok.refuted:
                    any_negative = True
        verdict = exchangeable_check(seq)
        if any_negative:
            assert verdict.refuted


def reference_exchangeable_index(a) -> int | None:
    """The first internal zero, else the first k with a_k^2 < a_(k-1) a_(k+1)."""
    nonzero = [k for k, c in enumerate(a) if c]
    for k in range(nonzero[0] + 1, nonzero[-1]):
        if a[k] == 0:
            return k
    for k in range(1, len(a) - 1):
        if a[k] * a[k] < a[k - 1] * a[k + 1]:
            return k
    return None


@given(
    st.lists(
        st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=50, max_denominator=12)),
        min_size=1,
        max_size=9,
    ).filter(any)
)
@settings(max_examples=200, deadline=None)
def test_exchangeable_matches_inline_reference(entries):
    # exchangeable_check reads the ladder's a0 and a2 scans; the inline scans
    # they replaced stay here as the reference for status and index
    verdict = exchangeable_check(Seq(0, tuple(entries), len(entries) - 1))
    bad = reference_exchangeable_index(entries)
    assert verdict.verified == (bad is None)
    assert verdict.index == bad


@given(
    st.integers(0, 3),
    st.lists(st.fractions(min_value=0, max_value=50, max_denominator=12), min_size=1, max_size=4).filter(any),
    st.integers(0, 2),
)
@settings(max_examples=100, deadline=None)
def test_exchangeable_offset_matches_reference(offset, entries, extra):
    # an offset Seq is the sequence a_0..a_m with zeros outside its window
    seq = Seq(offset, tuple(entries), offset + len(entries) - 1 + extra)
    verdict = exchangeable_check(seq)
    bad = reference_exchangeable_index([seq.at(k) for k in range(seq.m + 1)])
    assert verdict.verified == (bad is None)
    assert verdict.index == bad
    if verdict.witness is not None:
        diff = rayleigh_diff(symseq_to_poly(seq), *verdict.pair)
        assert diff.evaluate(dict(verdict.witness)) == verdict.value < 0


def test_exchangeable_needs_m():
    with pytest.raises(ValueError, match="ambient size m"):
        exchangeable_check(Seq(0, (F(1), F(2), F(1))))


class TestSymmetrizeAndCheck:
    def test_verified_input_verified_symmetrization(self):
        z = model_poly(uniform_matroid(4, 2), Model("bases")).poly
        rep = symmetrize_and_check(z)
        assert rep.base_sweep.all_verified and rep.symmetrized_verdict.verified
        assert not rep.counterexample
        assert rep.note == "input verified coefficientwise; symmetrization verified"

    def test_unverified_input(self):
        z = model_poly(graphic_matroid(complete_graph(4)), Model("bases")).poly
        rep = symmetrize_and_check(z)
        assert not rep.base_sweep.all_verified and not rep.counterexample
        assert rep.note == "input not verified coefficientwise; no conclusion about preservation"

    def test_counterexample_flagged(self, monkeypatch):
        z = model_poly(uniform_matroid(4, 2), Model("bases")).poly

        def refuted(seq):
            return RayleighVerdict("refuted", index=1)

        monkeypatch.setattr(rayleigh, "exchangeable_check", refuted)
        rep = symmetrize_and_check(z)
        assert rep.counterexample
        assert rep.note == "counterexample: verified input, refuted symmetrization"


class TestAssociation:
    def test_bases_pass(self):
        z = model_poly(graphic_matroid(complete_graph(4)), Model("bases")).poly
        point = {lab: F(1) for lab in z.ground.labels}
        report = negative_association_check(z, ("1", "2", "3"), ("4", "5", "6"), point)
        assert report.passed
        assert report.pairs_checked == 400

    def test_positive_correlation_fails(self):
        g = GroundSet(("1", "2"))
        z = SubsetPoly(g, {0: F(1), 3: F(1)})
        report = negative_association_check(z, ("1",), ("2",), {"1": F(1), "2": F(1)})
        assert not report.passed

    def test_validation(self):
        z = model_poly(uniform_matroid(4, 2), Model("bases")).poly
        pt = {lab: F(1) for lab in z.ground.labels}
        with pytest.raises(ValueError):
            negative_association_check(z, ("1", "2"), ("2", "3", "4"), pt)
        with pytest.raises(ValueError):
            negative_association_check(z, ("1",), ("2", "3"), pt)  # not a partition

    def test_missing_coordinate_named(self):
        z = model_poly(uniform_matroid(4, 2), Model("bases")).poly
        pt = {lab: F(1) for lab in ("1", "2", "4")}
        with pytest.raises(ValueError, match="'3'"):
            negative_association_check(z, ("1", "2"), ("3", "4"), pt)


class TestTriple:
    def test_k4_independent_holds(self):
        z = model_poly(graphic_matroid(complete_graph(4)), Model("independent")).poly
        report = triple_condition_check(z, "1", "6", "2", samples=20, seed=8)
        assert report.decomposition_ok
        assert report.holds

    def test_rank_one_slices(self):
        # contracting any variable of y1+y2+y3 kills the pair slices entirely
        z = symseq_to_poly(Seq(0, (F(0), F(1), F(0), F(0)), 3))
        report = triple_condition_check(z, "1", "2", "3", samples=5, seed=1)
        assert report.decomposition_ok and report.holds

    def test_decomposition_mismatch_reported(self, monkeypatch):
        # one extra constant term in the full pair difference must show
        z = model_poly(graphic_matroid(complete_graph(4)), Model("independent")).poly
        real = rayleigh.rayleigh_diff

        def skewed(z, e, f):
            diff = real(z, e, f)
            return diff + QuadPoly(diff.ground, {(0, 0): F(1)})

        monkeypatch.setattr(rayleigh, "rayleigh_diff", skewed)
        report = triple_condition_check(z, "1", "6", "2", samples=5, seed=8)
        assert not report.decomposition_ok
        assert report.holds

    def test_negative_theta_without_slack_fails(self):
        # Z = 1 + y1 y2 y3: D(1,2) = -y3, so theta = -1 while both slice
        # differences vanish, and theta^2 <= 4 * 0 * 0 fails at every point
        z = SubsetPoly(GroundSet(("1", "2", "3")), {0: F(1), 0b111: F(1)})
        report = triple_condition_check(z, "1", "2", "3", samples=5, seed=1)
        assert report.decomposition_ok
        assert not report.holds

    def test_zero_samples_refused(self):
        # holds over zero points would be vacuous
        z = model_poly(graphic_matroid(complete_graph(4)), Model("independent")).poly
        with pytest.raises(ValueError, match="samples must be at least 1"):
            triple_condition_check(z, "1", "6", "2", samples=0)


class TestProbe:
    def test_deterministic(self):
        z = model_poly(uniform_matroid(4, 2), Model("bases")).poly
        a = conjecture_probe(z, "1", "2", samples=12, seed=44)
        b = conjecture_probe(z, "1", "2", samples=12, seed=44)
        assert a == b
        assert a.nonnegative
        assert len(a.margins) == 12

    def test_validation(self):
        z = model_poly(uniform_matroid(2, 1), Model("bases")).poly
        with pytest.raises(ValueError):
            conjecture_probe(z, "1", "2")
        z4 = model_poly(uniform_matroid(4, 2), Model("bases")).poly
        with pytest.raises(ValueError):
            conjecture_probe(z4, "1", "1")


class TestEstimateQc:
    def test_uniform_exact_path(self):
        bracket = estimate_qc(uniform_matroid(4, 2))
        assert bracket.exact
        assert bracket.passed == 1
        assert bracket.refuted is None
        assert [q for q, _ in bracket.tested] == [F(1, 4), F(1, 2), F(3, 4), F(1)]
        assert all(status == "verified" for _, status in bracket.tested)

    # Refuting 3/4 alone leaves a Verified q above the smallest refuted one:
    # the bracket stays below 3/4 and is no longer exact.
    @pytest.mark.parametrize("refuted_qs, passed", [((F(3, 4),), F(1, 2)), ((F(3, 4), F(1)), F(1, 2))])
    def test_uniform_path_follows_verdicts(self, monkeypatch, refuted_qs, passed):
        real = rayleigh.exchangeable_check
        refuted_seqs = [uniform_potts_symseq(4, 2, q) for q in refuted_qs]

        def refute_at(seq):
            if seq in refuted_seqs:
                return RayleighVerdict("refuted", index=1)
            return real(seq)

        monkeypatch.setattr(rayleigh, "exchangeable_check", refute_at)
        bracket = estimate_qc(uniform_matroid(4, 2))
        assert [q for q, s in bracket.tested if s == "refuted"] == list(refuted_qs)
        assert bracket.refuted == F(3, 4)
        assert bracket.passed == passed
        assert bracket.passed < bracket.refuted
        assert bracket.exact == (F(1) in refuted_qs)

    def test_qc_scan_script(self):
        # the script brackets each subject once; only the uniform ones are exact
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        argv = [sys.executable, str(root / "scripts" / "qc_scan.py"), "--resolution", "2", "--budget", "4"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        names = ["uniform-4-2", "uniform-6-3", "triangle", "square", "k4", "path-4", "u42+u42"]
        assert [line.split()[0] for line in lines] == names
        assert [line.endswith("[exact]") for line in lines] == [True, True] + [False] * 5

    def test_bisection_path(self):
        bracket = estimate_qc(graphic_matroid(complete_graph(4)), resolution=4, budget=32, seed=DEFAULT_SEED)
        assert not bracket.exact
        assert len(bracket.tested) == 4
        assert 0 < bracket.passed < 1
        if bracket.refuted is not None:
            assert bracket.passed < bracket.refuted
