"""Acceptance battery: one test per shipping criterion, one pass/fail line each.

Each test either re-runs the matching corpus item with the default seed or
asserts the pinned golden values directly.  Stated time budgets are enforced
with wall-clock checks around the exact computation.
"""

import time
from fractions import Fraction

from rayleigh_forge.corpus import k4_certificates, run_corpus, weight_fuzz
from rayleigh_forge.matroids import (
    complete_graph,
    enumerate_family,
    graphic_matroid,
    invariant_sequences,
    uniform_matroid,
)
from rayleigh_forge.polynomials import rayleigh_diff
from rayleigh_forge.potts import Model, model_poly, uniform_potts_symseq
from rayleigh_forge.prng import DEFAULT_SEED
from rayleigh_forge.rayleigh import CoeffStrategy, check_all, exchangeable_check
from rayleigh_forge.sequences import check_condition, seq_from_values

F = Fraction


def corpus_item(name: str):
    results = run_corpus(only=name, seed=DEFAULT_SEED)
    assert len(results) == 1, f"corpus filter {name!r} selected {len(results)} items"
    item = results[0]
    assert item.passed, f"{item.name}: {item.detail}"
    return item


def test_criterion_01_window_table_boundaries():
    start = time.perf_counter()

    def holds(gamma, cond):
        seq = seq_from_values([1, 12, 60, 20 * F(gamma), 60, 12, 1], m=6)
        return bool(check_condition(seq, cond))

    for gamma, expect in ((F(4), True), (F(8), True), (F(399, 100), False), (F(801, 100), False)):
        assert holds(gamma, "a4") == expect
    for gamma, expect in ((F(3), True), (F(15), True), (F(299, 100), False), (F(1501, 100), False)):
        assert holds(gamma, "a2") == expect
    assert holds(F(3), "a1") and not holds(F(299, 100), "a1")
    for gamma in (F(0), F(3), F(4), F(8), F(15)):
        assert holds(gamma, "a0") == (gamma != 0)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_k4_certificates():
    start = time.perf_counter()
    z = model_poly(graphic_matroid(complete_graph(4)), Model("independent")).poly
    adjacent = rayleigh_diff(z, "1", "2")
    assert adjacent.is_coefficientwise_nonnegative()
    opposite = rayleigh_diff(z, "1", "6")
    certs = k4_certificates()
    residue = opposite - certs[("1", "6")].expand(opposite.ground)
    assert residue.is_coefficientwise_nonnegative()
    assert check_all(z, CoeffStrategy(certs)).summary == "verified"
    assert time.perf_counter() - start < 1.0


def test_criterion_03_uniform_exchangeable_grid():
    for m in range(1, 11):
        for r in range(m + 1):
            for q0 in (F(1, 4), F(1, 2), F(9, 10), F(1)):
                verdict = exchangeable_check(uniform_potts_symseq(m, r, q0))
                assert verdict.verified, (m, r, q0)
            refuted = exchangeable_check(uniform_potts_symseq(m, r, F(2))).refuted
            assert refuted == (0 < r < m), (m, r)


def test_criterion_04_slice_identities():
    item = corpus_item("slice-identity-sweep")
    assert item.seconds < 30.0, f"took {item.seconds:.1f}s"


def test_criterion_05_twosum_model_agreement():
    corpus_item("twosum-model-agreement")


def test_criterion_06_crosspair_factorization():
    corpus_item("twosum-crosspair-factorization")


def test_criterion_07_support_necessary_conditions():
    corpus_item("support-necessary-conditions")


def test_criterion_08_symmetric_equivalence():
    corpus_item("symmetric-equivalence-fuzz")


def test_criterion_09_convolution_identity():
    corpus_item("convolution-square-identity")


def test_criterion_10_forest_charpoly():
    item = corpus_item("forest-charpoly-identity")
    assert item.seconds < 60.0, f"took {item.seconds:.1f}s"


def test_criterion_11_golden_counts():
    k4 = invariant_sequences(graphic_matroid(complete_graph(4)), fixed=("1",))
    assert len(enumerate_family(graphic_matroid(complete_graph(4)), "bases").terms) == 16
    assert k4.I == (1, 6, 15, 16)
    assert k4.W == (1, 6, 7, 1)
    assert k4.c == (8, 8)
    u32 = invariant_sequences(uniform_matroid(3, 2))
    assert u32.chi == (1, 3, 2)
    assert u32.h == (F(1), F(1), F(1))


def test_criterion_12_window_flatten_triples_association():
    corpus_item("window-flatten-equivalence")
    corpus_item("triple-slack-and-association")


def test_criterion_13_soundness_fuzz():
    ok, detail = weight_fuzz(1000, DEFAULT_SEED)
    assert ok, detail
