"""Curated matroid/weight-function inventory and the named cross-check battery.

The inventory: uniform matroids through six elements, graphic matroids on at
most five vertices, and two-sums of those, each carried through the four
partition-function models, plus principal-minor weight functions and evaluated
Potts examples.  Each item below is a self-contained consistency check named
by what it verifies; run_corpus executes any substring-selected subset and
reports one pass/fail line per item.  Every item derives its randomness from
the run seed independently, so filtering does not change outcomes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .matroids import (
    Graph,
    Matroid,
    complete_graph,
    cycle_graph,
    enumerate_family,
    forest_identity_at,
    graphic_matroid,
    invariant_sequences,
    path_graph,
    two_sum,
    uniform_matroid,
)
from .polynomials import (
    GroundSet,
    SubsetPoly,
    mmatrix_weights,
    monomial_symmetric_expand,
    multiply_disjoint,
    pair_value,
    rayleigh_diff,
    rayleigh_pairs,
)
from .potts import (
    Model,
    model_poly,
    potts_poly,
    potts_slices,
    slice_inequality_scan,
    twosum_compose,
    uniform_potts_symseq,
)
from .prng import DEFAULT_SEED, DENOMINATOR_BITS, SplitMix64, derive, log_uniform_fraction, sample_point
from .rayleigh import (
    CoeffStrategy,
    SampleStrategy,
    SquareCertificate,
    check_all,
    exchangeable_check,
    negative_association_check,
    triple_condition_check,
)
from .sequences import (
    Seq,
    check_condition,
    convolution_identity,
    convolve,
    seq_from_values,
    symmetrize,
    symseq_to_poly,
)
from .supports import (
    disjoint_pair_exchange_witness,
    exchange_props_check,
    flatten,
    flatten_size_estimate,
    flattened_fresh_profile,
    full_support_check,
    is_convex,
    layers,
    log_submodular_witness,
    sea_check,
    size_window_sums,
)


@dataclass(frozen=True)
class ItemResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class CorpusContext:
    seed: int
    polys: tuple[tuple[str, SubsetPoly], ...]


# --- inventory -----------------------------------------------------------------


def _glued_uniform(m: int, r: int, prefix: str) -> Matroid:
    labels = [f"{prefix}{i + 1}" for i in range(m - 1)] + ["g"]
    return uniform_matroid(m, r, labels)


def _glued_cycle(n: int, prefix: str) -> Matroid:
    edges = tuple((i, i + 1, f"{prefix}{i + 1}") for i in range(n - 1)) + ((n - 1, 0, "g"),)
    return graphic_matroid(Graph(n, edges))


def _glued_k4(prefix: str) -> Matroid:
    edges = []
    idx = 0
    for u, v in itertools.combinations(range(4), 2):
        idx += 1
        edges.append((u, v, "g" if idx == 6 else f"{prefix}{idx}"))
    return graphic_matroid(Graph(4, tuple(edges)))


@lru_cache(maxsize=1)
def corpus_matroids() -> tuple[tuple[str, Matroid], ...]:
    out: list[tuple[str, Matroid]] = []
    for m in range(1, 7):
        for r in range(m + 1):
            out.append((f"uniform-{m}-{r}", uniform_matroid(m, r)))
    out.append(("graphic-triangle", graphic_matroid(cycle_graph(3))))
    out.append(("graphic-path-3", graphic_matroid(path_graph(3))))
    out.append(("graphic-path-4", graphic_matroid(path_graph(4))))
    out.append(("graphic-square", graphic_matroid(cycle_graph(4))))
    out.append(("graphic-pentagon", graphic_matroid(cycle_graph(5))))
    out.append(("graphic-k4", graphic_matroid(complete_graph(4))))
    out.append(("graphic-k5", graphic_matroid(complete_graph(5))))
    diamond = Graph(4, ((0, 1, "1"), (1, 2, "2"), (2, 0, "3"), (1, 3, "4"), (2, 3, "5")))
    out.append(("graphic-diamond", graphic_matroid(diamond)))
    doubled = Graph(3, ((0, 1, "1"), (0, 1, "2"), (1, 2, "3"), (2, 0, "4")))
    out.append(("graphic-parallel", graphic_matroid(doubled)))
    out.append(("twosum-triangle-triangle", two_sum(_glued_cycle(3, "a"), _glued_cycle(3, "b"), "g")))
    out.append(("twosum-square-pentagon", two_sum(_glued_cycle(4, "a"), _glued_cycle(5, "b"), "g")))
    out.append(("twosum-uniform-4-2", two_sum(_glued_uniform(4, 2, "a"), _glued_uniform(4, 2, "b"), "g")))
    out.append(("twosum-k4-uniform-3-2", two_sum(_glued_k4("a"), _glued_uniform(3, 2, "b"), "g")))
    out.append(("twosum-uniform-6-3", two_sum(_glued_uniform(6, 3, "a"), _glued_uniform(6, 3, "b"), "g")))
    return tuple(out)


def corpus_matroid(name: str) -> Matroid:
    for n, mat in corpus_matroids():
        if n == name:
            return mat
    raise KeyError(f"no corpus matroid named {name!r}")


def _seeded_mmatrix(n: int, seed: int) -> list[list[Fraction]]:
    """Symmetric, strictly diagonally dominant, nonpositive off-diagonal."""
    rng = derive(seed, 97)
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = -Fraction(rng.below(3))
    for i in range(n):
        a[i][i] = sum(-a[i][j] for j in range(n) if j != i) + 1 + rng.below(3)
    return a


@lru_cache(maxsize=1)
def corpus_polys() -> tuple[tuple[str, SubsetPoly], ...]:
    out: list[tuple[str, SubsetPoly]] = []
    for name, matroid in corpus_matroids():
        kinds = ("bases", "independent", "spanning") if matroid.ground.m <= 8 else ("bases",)
        for kind in kinds:
            out.append((f"{name}-{kind}", model_poly(matroid, Model(kind)).poly))
    for name in ("uniform-4-2", "uniform-5-2", "graphic-k4", "twosum-triangle-triangle"):
        out.append((f"{name}-potts-half", potts_poly(corpus_matroid(name), Fraction(1, 2)).poly))
    two = Fraction(2)
    minus = Fraction(-1)
    out.append(("mmatrix-2x2", mmatrix_weights([[two, minus], [minus, two]])))
    out.append(("mmatrix-4x4", mmatrix_weights(_seeded_mmatrix(4, DEFAULT_SEED))))
    return tuple(out)


def k4_certificates() -> dict[tuple[str, str], SquareCertificate]:
    """One square per opposite-edge pair; adjacent pairs need none."""

    def cert(a1: str, a2: str, b1: str, b2: str) -> SquareCertificate:
        return SquareCertificate(((Fraction(1), (a1, a2), (b1, b2)),))

    return {
        ("1", "6"): cert("2", "5", "3", "4"),
        ("2", "5"): cert("1", "6", "3", "4"),
        ("3", "4"): cert("1", "6", "2", "5"),
    }


# --- shared helpers --------------------------------------------------------------


def _random_weight_poly(rng: SplitMix64, m: int) -> SubsetPoly:
    ground = GroundSet(str(i + 1) for i in range(m))
    terms: dict[int, Fraction] = {}
    for w in range(1 << m):
        if rng.below(3) == 0:
            terms[w] = log_uniform_fraction(rng)
    if not terms:
        terms[(1 << m) - 1] = Fraction(1)
    return SubsetPoly(ground, terms)


# --- items -----------------------------------------------------------------------


def _item_gamma_window_table(ctx: CorpusContext) -> tuple[bool, str]:
    def holds(gamma: Fraction, cond: str) -> bool:
        seq = seq_from_values([1, 12, 60, 20 * gamma, 60, 12, 1], m=6)
        return bool(check_condition(seq, cond))

    F = Fraction
    checks = []
    for gamma, expect in ((F(4), True), (F(8), True), (F(399, 100), False), (F(801, 100), False)):
        checks.append(holds(gamma, "a4") == expect)
    for gamma, expect in ((F(3), True), (F(15), True), (F(299, 100), False), (F(1501, 100), False)):
        checks.append(holds(gamma, "a2") == expect)
    checks.append(holds(F(3), "a1"))
    checks.append(holds(F(301, 100), "a1"))
    checks.append(not holds(F(299, 100), "a1"))
    for gamma in (F(0), F(3), F(4), F(8), F(15), F(299, 100), F(1501, 100)):
        checks.append(holds(gamma, "a0") == (gamma != 0))

    def normalized_diff(gamma: Fraction):
        z = symseq_to_poly(seq_from_values([1, 2, 4, gamma, 4, 2, 1], m=6))
        return rayleigh_diff(z, "1", "2")

    def mono_nonneg(gamma: Fraction) -> bool:
        return all(c >= 0 for c in monomial_symmetric_expand(normalized_diff(gamma)).values())

    def diag_nonneg(gamma: Fraction) -> bool:
        return all(c >= 0 for c in normalized_diff(gamma).collapse_equal_variables())

    # the correlation test on the normalized weights turns exactly at the a4 window
    for gamma, expect in ((F(4), True), (F(8), True), (F(399, 100), False), (F(801, 100), False)):
        checks.append(mono_nonneg(gamma) == expect)
    # the diagonal restriction is strictly weaker; its lower turning point sits
    # below the window edge, bracketed here to two decimal places
    checks.append(diag_nonneg(F(262, 100)))
    checks.append(not diag_nonneg(F(261, 100)))
    checks.append(diag_nonneg(F(399, 100)))
    return all(checks), (
        f"{len(checks)} boundary checks; correlation window [4, 8], "
        "diagonal slack down to (261/100, 262/100]"
    )


def _item_uniform_exchangeable_grid(ctx: CorpusContext) -> tuple[bool, str]:
    verified_qs = (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10), Fraction(1))
    failures = []
    cells = 0
    for m in range(1, 11):
        for r in range(m + 1):
            for q0 in verified_qs:
                cells += 1
                verdict = exchangeable_check(uniform_potts_symseq(m, r, q0))
                if not verdict.verified:
                    failures.append((m, r, q0))
            cells += 1
            refuted = exchangeable_check(uniform_potts_symseq(m, r, Fraction(2))).refuted
            if refuted != (0 < r < m):
                failures.append((m, r, Fraction(2)))
    return not failures, f"{cells} grid cells over m <= 10; failures: {failures[:3]}"


def _item_k4_certificates(ctx: CorpusContext) -> tuple[bool, str]:
    z = model_poly(corpus_matroid("graphic-k4"), Model("independent")).poly
    checks = []
    d_adjacent = rayleigh_diff(z, "1", "2")
    checks.append(d_adjacent.is_coefficientwise_nonnegative() and not d_adjacent.is_zero())
    d_opposite = rayleigh_diff(z, "1", "6")
    checks.append(not d_opposite.is_coefficientwise_nonnegative())
    certs = k4_certificates()
    residue = d_opposite - certs[("1", "6")].expand(d_opposite.ground)
    checks.append(residue.is_coefficientwise_nonnegative())
    sweep = check_all(z, CoeffStrategy(certs))
    checks.append(sweep.summary == "verified")
    return all(checks), "adjacent pair coefficientwise, opposite pairs by square certificate"


def _item_slice_identity_sweep(ctx: CorpusContext) -> tuple[bool, str]:
    symbolic_fails: list[tuple[str, str]] = []
    sampled_fails: list[tuple[str, str]] = []
    elements = 0
    coloops = 0
    for idx, (name, matroid) in enumerate(corpus_matroids()):
        for lab, identities in potts_slices(matroid).items():
            elements += 1
            if not all(identities.values()):
                symbolic_fails.append((name, lab))
        for scan in slice_inequality_scan(matroid, samples=100, seed=derive(ctx.seed, 400 + idx).next_u64()):
            if scan.is_coloop and not scan.is_loop:
                coloops += 1
            if not scan.consistent:
                sampled_fails.append((name, scan.label))
    passed = not symbolic_fails and not sampled_fails and coloops > 0
    return passed, (
        f"{elements} non-loop elements symbolic, 100 points each sampled, "
        f"{coloops} coloop equality branches"
    )


_TWOSUM_POOL: tuple[tuple[str, Callable[[str], Matroid]], ...] = (
    ("uniform-2-1", lambda p: _glued_uniform(2, 1, p)),
    ("uniform-3-1", lambda p: _glued_uniform(3, 1, p)),
    ("uniform-3-2", lambda p: _glued_uniform(3, 2, p)),
    ("uniform-4-2", lambda p: _glued_uniform(4, 2, p)),
    ("uniform-4-3", lambda p: _glued_uniform(4, 3, p)),
    ("uniform-5-2", lambda p: _glued_uniform(5, 2, p)),
    ("uniform-5-3", lambda p: _glued_uniform(5, 3, p)),
    ("cycle-3", lambda p: _glued_cycle(3, p)),
    ("cycle-4", lambda p: _glued_cycle(4, p)),
    ("cycle-5", lambda p: _glued_cycle(5, p)),
    ("k4", _glued_k4),
)

_ALL_MODELS = (Model("bases"), Model("independent"), Model("spanning"), Model("potts"))


def _item_twosum_model_agreement(ctx: CorpusContext) -> tuple[bool, str]:
    rng = derive(ctx.seed, 5)
    fails = []
    for i in range(20):
        lname, lfac = _TWOSUM_POOL[rng.below(len(_TWOSUM_POOL))]
        rname, rfac = _TWOSUM_POOL[rng.below(len(_TWOSUM_POOL))]
        left_m, right_m = lfac("L"), rfac("R")
        direct_matroid = two_sum(left_m, right_m, "g")
        for model in _ALL_MODELS:
            composed = twosum_compose(model_poly(left_m, model), model_poly(right_m, model), "g")
            direct = model_poly(direct_matroid, model)
            if composed.poly != direct.poly:
                fails.append((i, lname, rname, model.kind))
    return not fails, f"20 random pairs x 4 models; failures: {fails[:3]}"


def _item_twosum_crosspair(ctx: CorpusContext) -> tuple[bool, str]:
    left = _glued_cycle(3, "a")
    right = _glued_cycle(3, "b")
    model = Model("independent")
    zn = model_poly(two_sum(left, right, "g"), model).poly
    zl = model_poly(left, model).poly
    zr = model_poly(right, model).poly
    fails = []
    for e in ("a1", "a2"):
        for f in ("b1", "b2"):
            dn = rayleigh_diff(zn, e, f)
            dl = rayleigh_diff(zl, e, "g")
            dr = rayleigh_diff(zr, "g", f)
            if multiply_disjoint(dl, dr) != dn:
                fails.append((e, f))
    return not fails, "4 cross pairs factor exactly through the glue element"


def _item_support_suite(ctx: CorpusContext) -> tuple[bool, str]:
    verified: list[tuple[str, SubsetPoly]] = []
    for name, z in ctx.polys:
        if check_all(z, CoeffStrategy()).all_verified:
            verified.append((name, z))
    fails: list[tuple[str, str]] = []
    flattened = 0
    for name, z in verified:
        if not is_convex(z):
            fails.append((name, "convexity"))
        if not sea_check(z):
            fails.append((name, "symmetric-exchange"))
        if log_submodular_witness(z) is not None:
            fails.append((name, "log-submodular"))
        if full_support_check(z) is False:
            fails.append((name, "full-support"))
        for layer in layers(z):
            if not layer.exchange_ok:
                fails.append((name, f"layer-{layer.k}"))
        m = z.ground.m
        if m <= 8:
            report = exchange_props_check(z)
            if not report.all_hold:
                fails.append((name, "exchange-props"))
        if m <= 7 and disjoint_pair_exchange_witness(z) is not None:
            fails.append((name, "disjoint-pair"))
        if m <= 6 and flatten_size_estimate(z) <= 400:
            flattened += 1
            if not flatten(z).exchange_ok:
                fails.append((name, "flatten-exchange"))
    detail = (
        f"{len(verified)}/{len(ctx.polys)} coefficientwise-verified; "
        f"{flattened} flattenings exchange-checked; failures: {fails[:3]}"
    )
    return not fails, detail


def _item_symmetric_equivalence_fuzz(ctx: CorpusContext) -> tuple[bool, str]:
    rng = derive(ctx.seed, 8)
    mismatches = []
    witnesses = 0
    for i in range(200):
        m = 2 + rng.below(7)
        entries = [
            Fraction(0) if rng.below(6) == 0 else log_uniform_fraction(rng) for _ in range(m + 1)
        ]
        if all(e == 0 for e in entries):
            entries[rng.below(m + 1)] = Fraction(1)
        seq = Seq(0, tuple(entries), m)
        verdict = exchangeable_check(seq)
        z = symseq_to_poly(seq)
        mono = monomial_symmetric_expand(rayleigh_diff(z, "1", "2"))
        coeff_ok = all(c >= 0 for c in mono.values())
        if coeff_ok != verdict.verified:
            mismatches.append(i)
        if verdict.refuted and verdict.witness is not None:
            witnesses += 1
    return not mismatches, f"200 sequences m <= 8; {witnesses} refutation witnesses re-evaluated"


def _signed_entries(rng: SplitMix64, length: int) -> list[Fraction]:
    out = []
    for _ in range(length):
        if rng.below(5) == 0:
            out.append(Fraction(0))
        else:
            v = log_uniform_fraction(rng)
            out.append(v if rng.below(2) == 0 else -v)
    return out


def _random_log_concave(rng: SplitMix64) -> Seq:
    length = 1 + rng.below(5)
    ratios = sorted((log_uniform_fraction(rng) for _ in range(length - 1)), reverse=True)
    entries = [log_uniform_fraction(rng)]
    for ratio in ratios:
        entries.append(entries[-1] * ratio)
    return Seq(rng.below(3), tuple(entries))


def _item_convolution_square_identity(ctx: CorpusContext) -> tuple[bool, str]:
    rng = derive(ctx.seed, 9)
    identity_fails = 0
    preserve_fails = 0
    for _ in range(200):
        a = _signed_entries(rng, 1 + rng.below(6))
        b = _signed_entries(rng, 1 + rng.below(6))
        for n in range(-2, len(a) + len(b) + 2):
            if not convolution_identity(a, b, n).equal:
                identity_fails += 1
        sa = _random_log_concave(rng)
        sb = _random_log_concave(rng)
        la, lb = ([x.at(k) for k in range(x.r + 1)] for x in (sa, sb))
        for n in range(sa.s - sb.r - 1, sa.r - sb.s + 2):
            if not convolution_identity(la, lb, n).equal:
                identity_fails += 1
        c = convolve(sa, sb)
        if not (check_condition(c, "a0") and check_condition(c, "a2")):
            preserve_fails += 1
    passed = identity_fails == 0 and preserve_fails == 0
    return passed, "200 signed pairs (identity) + 200 log-concave pairs (closure)"


def _random_connected_graph(rng: SplitMix64, n: int) -> Graph:
    edges: list[tuple[int, int, str]] = []
    for v in range(1, n):
        edges.append((rng.below(v), v, str(len(edges) + 1)))
    for _ in range(rng.below(4)):
        u = rng.below(n)
        v = rng.below(n)
        if u != v:
            edges.append((min(u, v), max(u, v), str(len(edges) + 1)))
    return Graph(n, tuple(edges))


def _item_forest_charpoly(ctx: CorpusContext) -> tuple[bool, str]:
    rng = derive(ctx.seed, 10)
    fails = []
    exhaustive = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = tuple((u, v, str(i + 1)) for i, (u, v) in enumerate(pairs) if mask >> i & 1)
            graph = Graph(n, edges)
            if not graph.is_connected():
                continue
            exhaustive += 1
            # forest_identity_at builds forest_weights, which raises if the
            # y = 1 charpoly identity breaks
            y = {lab: log_uniform_fraction(rng) for _, _, lab in graph.edges}
            if not forest_identity_at(graph, y):
                fails.append(("exhaustive", n, mask))
    for i in range(20):
        graph = _random_connected_graph(rng, 2 + rng.below(7))
        y = {lab: log_uniform_fraction(rng) for _, _, lab in graph.edges}
        if not forest_identity_at(graph, y):
            fails.append(("random", i))
    return not fails, f"{exhaustive} connected graphs n <= 5 exhaustively + 20 random n <= 8"


def _item_golden_invariant_counts(ctx: CorpusContext) -> tuple[bool, str]:
    k4 = corpus_matroid("graphic-k4")
    inv = invariant_sequences(k4, fixed=("1",))
    checks = [
        len(enumerate_family(k4, "bases").terms) == 16,
        inv.I == (1, 6, 15, 16),
        inv.W == (1, 6, 7, 1),
        inv.c == (8, 8),
    ]
    u32 = invariant_sequences(corpus_matroid("uniform-3-2"))
    checks += [
        u32.chi == (1, 3, 2),
        u32.h == (1, 1, 1),
        u32.W == (1, 3, 1),
        u32.I == (1, 3, 3),
    ]
    return all(checks), "fixed counting sequences for K4 and the rank-2 uniform on 3"


def _item_window_flatten_equivalence(ctx: CorpusContext) -> tuple[bool, str]:
    rng = derive(ctx.seed, 12)
    cases: list[tuple[str, SubsetPoly]] = list(ctx.polys)
    for i in range(40):
        cases.append((f"random-{i}", _random_weight_poly(rng, 2 + rng.below(5))))
    mismatches = []
    witnesses = 0
    rebuilt = 0
    for name, z in cases:
        window = size_window_sums(z)
        window_ok = bool(check_condition(window, "a0")) and bool(check_condition(window, "a2"))
        profile = flattened_fresh_profile(z)
        verdict = exchangeable_check(profile)
        if window_ok != verdict.verified:
            mismatches.append((name, "equivalence"))
        if verdict.refuted and verdict.witness is not None:
            witnesses += 1
        if window.r > window.s and z.ground.m <= 6 and flatten_size_estimate(z) <= 400:
            rebuilt += 1
            flat = flatten(z).weights
            for lab in z.ground.labels:
                flat = flat.delete(lab) + flat.contract(lab)
            if symmetrize(flat) != profile:
                mismatches.append((name, "flatten-profile"))
    detail = (
        f"{len(cases)} weight functions; {witnesses} window refutations re-evaluated; "
        f"{rebuilt} profiles rebuilt through explicit flattening"
    )
    return not mismatches, detail


def _item_triple_slack_and_association(ctx: CorpusContext) -> tuple[bool, str]:
    rng = derive(ctx.seed, 13)
    fails: list[tuple] = []

    small = [
        (name, z)
        for name, z in ctx.polys
        if 3 <= z.ground.m <= 4 and check_all(z, CoeffStrategy()).all_verified
    ]
    # every (e, f, g) of the small verified polynomials, then three K4 triples;
    # a triple's place in this list fixes its sampling seed
    jobs = [
        (name, z, tuple(x for x in combo if x != g) + (g,))
        for name, z in small
        for combo in itertools.combinations(z.ground.labels, 3)
        for g in combo
    ]
    jobs += [
        (name, z, triple)
        for name, z in ctx.polys
        if name == "graphic-k4-independent"
        for triple in (("1", "2", "3"), ("1", "6", "2"), ("2", "5", "6"))
    ]
    for i, (name, z, (e, f, g)) in enumerate(jobs):
        rep = triple_condition_check(z, e, f, g, samples=100, seed=derive(ctx.seed, 1300 + i).next_u64())
        if not (rep.holds and rep.decomposition_ok):
            fails.append((name, rep.triple))

    assoc_polys: list[tuple[str, SubsetPoly]] = []
    for name, z in ctx.polys:
        if z.ground.m != 6:
            continue
        window = size_window_sums(z)
        if window.r != window.s:
            continue
        if check_all(z, CoeffStrategy()).all_verified:
            assoc_polys.append((name, z))
    zb = model_poly(corpus_matroid("graphic-k4"), Model("bases")).poly
    if check_all(zb, CoeffStrategy(k4_certificates())).summary == "verified":
        assoc_polys.append(("graphic-k4-bases", zb))
    else:
        fails.append(("graphic-k4-bases", "certificate"))
    splits = 0
    for name, z in assoc_polys:
        labels = z.ground.labels
        for others in itertools.combinations(labels[1:], 2):
            block1 = (labels[0],) + others
            block2 = tuple(x for x in labels if x not in block1)
            splits += 1
            for _ in range(10):
                point = sample_point(rng, labels)
                if not negative_association_check(z, block1, block2, point).passed:
                    fails.append((name, block1, "association"))
                    break
    detail = (
        f"{len(jobs)} triples at 100 points; {len(assoc_polys)} homogeneous polynomials "
        f"x {splits // max(len(assoc_polys), 1)} splits x 10 points"
    )
    return not fails, detail


def weight_fuzz(count: int, seed: int) -> tuple[bool, str]:
    """Random weight functions: refutation witnesses must re-evaluate negative,
    coefficientwise-verified instances must sample nonnegative and stay verified
    under single-element minors and duality."""
    rng = derive(seed, 14)
    verified = refuted = inconclusive = 0
    problems: list[tuple] = []
    for i in range(count):
        m = 2 + rng.below(5)  # 2 <= m <= 6
        z = _random_weight_poly(rng, m)
        labels = z.ground.labels
        if check_all(z, CoeffStrategy()).all_verified:
            verified += 1
            pairs = list(itertools.combinations(labels, 2))
            diffs: dict[tuple[str, str], tuple] = {}
            for _ in range(100):
                e, f = pairs[rng.below(len(pairs))]
                point = sample_point(rng, labels)
                if (e, f) not in diffs:
                    diffs[e, f] = rayleigh_pairs(z, e, f)
                sub, den, diff_pairs = diffs[e, f]
                if pair_value(sub.coordinates(point), DENOMINATOR_BITS, den, *diff_pairs)[0] < 0:
                    problems.append((i, "negative-sample"))
                    break
            for lab in labels:
                if not check_all(z.delete(lab), CoeffStrategy()).all_verified:
                    problems.append((i, "delete-closure", lab))
                if not check_all(z.contract(lab), CoeffStrategy()).all_verified:
                    problems.append((i, "contract-closure", lab))
            if not check_all(z.dualize(), CoeffStrategy()).all_verified:
                problems.append((i, "dual-closure"))
        else:
            sweep = check_all(
                z, SampleStrategy(samples=40, seed=derive(seed, 1400 + i).next_u64())
            )
            if sweep.summary == "refuted":
                refuted += 1
            else:
                inconclusive += 1
    detail = (
        f"{count} instances: {verified} verified (sampled + minor/dual closure), "
        f"{refuted} refuted (witnesses re-evaluated), {inconclusive} inconclusive"
    )
    return not problems, detail


def _item_weight_function_fuzz(ctx: CorpusContext) -> tuple[bool, str]:
    return weight_fuzz(300, ctx.seed)


ITEM_ORDER: tuple[tuple[str, Callable[[CorpusContext], tuple[bool, str]]], ...] = (
    ("gamma-window-table", _item_gamma_window_table),
    ("uniform-exchangeable-grid", _item_uniform_exchangeable_grid),
    ("k4-opposite-edge-certificates", _item_k4_certificates),
    ("slice-identity-sweep", _item_slice_identity_sweep),
    ("twosum-model-agreement", _item_twosum_model_agreement),
    ("twosum-crosspair-factorization", _item_twosum_crosspair),
    ("support-necessary-conditions", _item_support_suite),
    ("symmetric-equivalence-fuzz", _item_symmetric_equivalence_fuzz),
    ("convolution-square-identity", _item_convolution_square_identity),
    ("forest-charpoly-identity", _item_forest_charpoly),
    ("golden-invariant-counts", _item_golden_invariant_counts),
    ("window-flatten-equivalence", _item_window_flatten_equivalence),
    ("triple-slack-and-association", _item_triple_slack_and_association),
    ("weight-function-fuzz", _item_weight_function_fuzz),
)


def run_corpus(
    only: str | None = None,
    seed: int = DEFAULT_SEED,
    extra_polys: Sequence[tuple[str, SubsetPoly]] = (),
) -> list[ItemResult]:
    """Run the battery (or the substring-selected part of it) in registry order
    and collect results.

    Each item's randomness is derived from the seed alone, so a filtered run
    returns the same verdicts the full run would.
    """
    ctx = CorpusContext(seed=seed, polys=corpus_polys() + tuple(extra_polys))
    results = []
    for name, fn in ITEM_ORDER:
        if only is not None and only not in name:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:
            passed, detail = False, f"exception: {exc!r}"
        results.append(ItemResult(name, passed, detail, time.perf_counter() - start))
    return results
