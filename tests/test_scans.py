"""The integer corpus scans against Fraction references.

`negative_association_check` and `slice_inequality_scan` sum Python ints
over one shared positive denominator.  The references here are the plain
`Fraction` loops: they evaluate monomials label by label and compare the
unscaled sums, so they share neither the scaling nor the word re-indexing
with the code under test.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_forge.matroids import (
    Graph,
    Matroid,
    complete_graph,
    graphic_matroid,
    parallel_extend,
    uniform_matroid,
)
from rayleigh_forge.polynomials import GroundSet, SubsetPoly
from rayleigh_forge.potts import SliceScan, slice_inequality_scan
from rayleigh_forge.prng import derive, sample_point, unit_fraction
from rayleigh_forge.corpus import corpus_matroids
from rayleigh_forge.rayleigh import (
    AssociationReport,
    _upset_chain,
    _upward_closed_families,
    negative_association_check,
)

F = Fraction

# --- negative association ---------------------------------------------------------


def ref_families(size: int) -> list[frozenset[int]]:
    """Every upward-closed family of subsets of a size-element block."""
    words = range(1 << size)
    families = []
    for pick in range(1 << len(words)):
        fam = frozenset(w for w in words if pick >> w & 1)
        if all(w | 1 << i in fam for w in fam for i in range(size)):
            families.append(fam)
    return families


def ref_association(z: SubsetPoly, b1: tuple, b2: tuple, point: dict) -> AssociationReport:
    masses = []
    total = F(0)
    for w, c in z.terms.items():
        labels = z.ground.labels_of(w)
        mass = c
        for lab in labels:
            mass *= point[lab]
        t1 = sum(1 << j for j, lab in enumerate(b1) if lab in labels)
        t2 = sum(1 << j for j, lab in enumerate(b2) if lab in labels)
        masses.append((t1, t2, mass))
        total += mass
    fams1, fams2 = ref_families(len(b1)), ref_families(len(b2))
    violations = []
    for fam1 in fams1:
        for fam2 in fams2:
            p1 = p2 = p12 = F(0)
            for t1, t2, mass in masses:
                if t1 in fam1:
                    p1 += mass
                if t2 in fam2:
                    p2 += mass
                if t1 in fam1 and t2 in fam2:
                    p12 += mass
            if p12 * total > p1 * p2:
                violations.append((fam1, fam2))
    return AssociationReport(pairs_checked=len(fams1) * len(fams2), violations=tuple(violations))


# positive, with the non-dyadic denominators the association cells must clear
COEFFS = st.builds(F, st.integers(1, 12), st.sampled_from((1, 3, 7, 9)))
# dyadic coordinates such as 3/8 next to non-dyadic ones such as 1/3
COORDS = st.builds(F, st.integers(1, 9), st.sampled_from((1, 2, 3, 8, 9)))


@st.composite
def association_cases(draw):
    m = draw(st.integers(1, 6))
    ground = GroundSet("abcdef"[:m])
    terms = draw(st.dictionaries(st.integers(0, ground.full), COEFFS, min_size=1, max_size=40))
    order = draw(st.permutations(ground.labels))
    k = draw(st.integers(max(0, m - 3), min(3, m)))
    point = {lab: draw(COORDS) for lab in ground.labels}
    return SubsetPoly(ground, terms), tuple(order[:k]), tuple(order[k:]), point


@settings(max_examples=120, deadline=None)
@given(association_cases())
def test_association_matches_fraction_reference(case):
    z, b1, b2, point = case
    assert negative_association_check(z, b1, b2, point) == ref_association(z, b1, b2, point)


def test_association_reference_sees_violations():
    # positively correlated weights: the comparison must find violations, in order
    z = SubsetPoly(GroundSet("abcd"), {0: F(1), 0b0101: F(5, 3), 0b1111: F(2, 7), 0b1010: F(1, 9)})
    point = {"a": F(1, 3), "b": F(3, 8), "c": F(2), "d": F(7, 9)}
    got = negative_association_check(z, ("a", "b"), ("c", "d"), point)
    assert got == ref_association(z, ("a", "b"), ("c", "d"), point)
    assert len(got.violations) > 1


def test_association_order_on_three_by_three_blocks():
    # both halves weigh together: most family pairs are violations, and the
    # reference fixes the order in which they are reported
    z = SubsetPoly(
        GroundSet("abcdef"),
        {0: F(1), 0b000111: F(2, 3), 0b111000: F(5, 7), 0b111111: F(4), 0b001001: F(3), 0b010010: F(1, 3)},
    )
    point = {lab: F(i + 1, 3) for i, lab in enumerate("abcdef")}
    got = negative_association_check(z, ("a", "b", "c"), ("d", "e", "f"), point)
    assert got == ref_association(z, ("a", "b", "c"), ("d", "e", "f"), point)
    assert got.pairs_checked == 400
    assert len(got.violations) == 289
    assert len({fam1 for fam1, _ in got.violations}) == 18


@pytest.mark.parametrize("size, count", [(0, 2), (1, 3), (2, 6), (3, 20)])
def test_upset_chain_builds_each_family_from_an_earlier_one(size, count):
    fams = _upward_closed_families(size)
    chain = _upset_chain(size)
    assert fams[0] == frozenset()
    assert len(fams) == len(set(fams)) == count
    assert set(fams) == set(ref_families(size))
    assert len(chain) == count - 1
    for j, (parent, word) in enumerate(chain, start=1):
        assert parent < j
        assert word not in fams[parent]
        assert fams[j] == fams[parent] | {word}


# --- slice inequality scan --------------------------------------------------------


def ref_scan(matroid: Matroid, samples: int, seed: int) -> list[SliceScan]:
    ground = matroid.ground
    labels = ground.labels
    full = ground.full
    loop = [matroid.is_loop(lab) for lab in labels]
    rng = derive(seed, 29)
    strict_ok = [True] * ground.m
    weak_ok = [True] * ground.m
    eq_count = [0] * ground.m
    for _ in range(samples):
        q0 = unit_fraction(rng)
        point = sample_point(rng, labels)
        for i, lab in enumerate(labels):
            if loop[i]:
                continue
            bit = ground.bit(lab)
            del_sum = con_sum = F(0)
            for w in range(full + 1):
                if w & bit:
                    continue
                mono = F(1)
                for other in ground.labels_of(w):
                    mono *= point[other]
                del_sum += q0 ** -matroid._rank_word(w) * mono
                con_sum += q0 ** -(matroid._rank_word(w | bit) - 1) * mono
            strict_ok[i] = strict_ok[i] and q0 * del_sum < con_sum
            weak_ok[i] = weak_ok[i] and con_sum <= del_sum
            eq_count[i] += con_sum == del_sum
    return [
        SliceScan(
            label=lab,
            is_loop=loop[i],
            is_coloop=matroid.is_coloop(lab),
            points=samples,
            strict_lower_ok=strict_ok[i],
            weak_upper_ok=weak_ok[i],
            equality_count=eq_count[i],
        )
        for i, lab in enumerate(labels)
    ]


def _with_loop(base: Matroid, label: str) -> Matroid:
    ground = GroundSet(base.ground.labels + (label,))
    return Matroid(ground, lambda w: base.rank(w & base.ground.full))


# a triangle with a pendant edge "4": a coloop
PENDANT = graphic_matroid(Graph(4, ((0, 1, "1"), (1, 2, "2"), (2, 0, "3"), (2, 3, "4"))))

SCAN_MATROIDS = {
    "uniform-4-2": uniform_matroid(4, 2),
    "uniform-3-3": uniform_matroid(3, 3),
    "uniform-2-0": uniform_matroid(2, 0),
    "graphic-k4": graphic_matroid(complete_graph(4)),
    "pendant-loop-parallel": _with_loop(parallel_extend(PENDANT, {"1": 2, "2": 2}), "z"),
    # not a matroid: rank 1 everywhere puts q * Z^g == Z_g exactly, the
    # boundary that tells the strict lower comparison from a weak one
    "constant-rank-1": Matroid(GroundSet("abc"), lambda w: 1, check=False),
}
# the two largest corpus matroids (m = 10): the halving folds run at every
# bit position of a full-width table; the Fraction reference is slow there
SCAN_MATROIDS.update(sorted(corpus_matroids(), key=lambda item: item[1].ground.m)[-2:])


@pytest.mark.parametrize("seed", [0xD1CE, 1, 7])
@pytest.mark.parametrize("name", list(SCAN_MATROIDS))
def test_scan_matches_fraction_reference(name, seed):
    matroid = SCAN_MATROIDS[name]
    samples = 2 if matroid.ground.m >= 10 else 6
    assert slice_inequality_scan(matroid, samples=samples, seed=seed) == ref_scan(matroid, samples, seed)


@st.composite
def rank_tables(draw):
    """Rank oracles that are not matroids, with values in 1..r and rank(E) = r.

    On a matroid every comparison comes out the same at every positive
    point, so a scan evaluated at a wrongly scaled point still agrees with
    the reference.  With arbitrary ranks the verdicts depend on the point.
    """
    m = draw(st.integers(1, 5))
    r = draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(1, r), min_size=(1 << m) - 1, max_size=(1 << m) - 1)) + [r]
    return Matroid(GroundSet("abcde"[:m]), table.__getitem__, check=False)


@settings(max_examples=60, deadline=None)
@given(rank_tables(), st.integers(0, 2**64 - 1))
def test_scan_matches_reference_on_arbitrary_ranks(matroid, seed):
    assert slice_inequality_scan(matroid, samples=4, seed=seed) == ref_scan(matroid, 4, seed)


def test_scan_inputs_reach_every_branch():
    scans = {
        name: slice_inequality_scan(matroid, samples=6, seed=1) for name, matroid in SCAN_MATROIDS.items()
    }
    mixed = scans["pendant-loop-parallel"]
    assert any(s.is_loop for s in mixed)
    assert any(s.is_coloop and s.equality_count == 6 for s in mixed)
    assert all(s.consistent for s in mixed)
    assert not any(s.strict_lower_ok for s in scans["constant-rank-1"])
