"""What the support of a negatively-correlated weight function must look like.

Pair-verified weight functions have supports that are convex delta-matroids,
log-submodular values, and flattenings that satisfy basis exchange.  Each
check here is exhaustive and returns an explicit witness on failure, so the
test suite can treat "verified polynomial with a bad support" as a hard bug.

A set family is the support of a `SubsetPoly`: the family checks read the
keys of `z.terms`, and a family without weights is passed with unit weights.
They walk the members in increasing word order, so witnesses do not depend
on the order the terms were inserted in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .matroids import exchange_axiom_witness
from .polynomials import GroundSet, SubsetPoly
from .sequences import Seq
from .words import bit_positions, popcount


def convexity_witness(z: SubsetPoly) -> tuple[int, int, int] | None:
    """A triple (S, T, S') with S, S' members, S ⊆ T ⊆ S', T missing; None if convex.

    It is enough to test one-element insertions T = S ∪ {x} over member pairs
    S ⊆ S': if all of those land in the support, induction on |T∖S| fills in
    every intermediate set.
    """
    member_set = z.terms
    if len(member_set) == 1 << z.ground.m:
        return None
    by_size = sorted(member_set, key=lambda w: (popcount(w), w))
    for i, small in enumerate(by_size):
        for big in by_size[i + 1 :]:
            if small & big != small or small == big:
                continue
            gap = big & ~small
            while gap:
                bit = gap & -gap
                gap ^= bit
                if small | bit not in member_set:
                    return (small, small | bit, big)
    return None


def is_convex(z: SubsetPoly) -> bool:
    return convexity_witness(z) is None


def symmetric_exchange_witness(z: SubsetPoly) -> tuple[int, int, int] | None:
    """A violating (A, B, e-bit) of the symmetric exchange axiom; None if it holds.

    The axiom: for members A, B and e in the symmetric difference there is an
    f in the symmetric difference (f = e allowed) with A △ {e,f} a member.
    """
    member_set = z.terms
    m = z.ground.m
    if len(member_set) == 1 << m:
        return None
    # toggles[w] = bitmask of positions whose single flip lands in the support
    toggles: dict[int, int] = {}

    def toggle_mask(word: int) -> int:
        got = toggles.get(word)
        if got is None:
            got = 0
            for i in range(m):
                if word ^ (1 << i) in member_set:
                    got |= 1 << i
            toggles[word] = got
        return got

    members = sorted(member_set)
    for a in members:
        for b in members:
            diff = a ^ b
            rest = diff
            while rest:
                ebit = rest & -rest
                rest ^= ebit
                flipped = a ^ ebit
                if flipped in member_set:
                    continue
                if toggle_mask(flipped) & diff & ~ebit:
                    continue
                return (a, b, ebit)
    return None


def sea_check(z: SubsetPoly) -> bool:
    return symmetric_exchange_witness(z) is None


def is_convex_delta_matroid(z: SubsetPoly) -> bool:
    return is_convex(z) and sea_check(z)


def log_submodular_witness(z: SubsetPoly) -> tuple[int, int] | None:
    """A pair (S, T) with coeff(S)coeff(T) < coeff(S∩T)coeff(S∪T); None if there is none.

    Exhaustive at every m.  A violation needs positive weight on both the
    meet and the join, so it suffices to scan member pairs C ⊆ U of the
    support and every split of U∖C into the two private parts; every subset
    pair (S, T) arises exactly once this way, and the cost depends on the
    support, not on m.
    """
    weights = z.terms  # zeros are already dropped
    for c in weights.values():
        if c < 0:
            raise ValueError("negative coefficient")
    for cw, base in weights.items():
        for uw, top in weights.items():
            if cw & uw != cw:
                continue
            rhs = base * top
            free = uw & ~cw
            sub = free
            while True:
                s_word = cw | sub
                t_word = uw ^ sub
                lhs = weights.get(s_word, Fraction(0)) * weights.get(t_word, Fraction(0))
                if lhs < rhs:
                    return (s_word, t_word)
                if sub == 0:
                    break
                sub = (sub - 1) & free
    return None


def log_submodular_check(z: SubsetPoly) -> bool:
    return log_submodular_witness(z) is None


# --- flattening ------------------------------------------------------------------


# all 2^6 subsets of six elements flatten to C(12, 6) = 924 members; seven give 3,432
FLATTEN_MEMBER_CAP = 1000


@dataclass(frozen=True)
class FlattenRecord:
    """A support made homogeneous of degree r by adjoining r-s free elements;
    `weights` carries the flattened ground set and support."""

    fresh: tuple[str, ...]
    weights: SubsetPoly
    exchange_ok: bool
    exchange_witness: tuple | None


def _fresh_labels(ground: GroundSet, count: int) -> tuple[str, ...]:
    prefix = "~"
    existing = set(ground.labels)
    while any(f"{prefix}{i}" in existing for i in range(1, count + 1)):
        prefix += "~"
    return tuple(f"{prefix}{i}" for i in range(1, count + 1))


def flatten_size_estimate(z: SubsetPoly) -> int:
    """The member count of `flatten(z)`, without building it: a size-k member
    has C(r - s, r - k) completions, s and r the least and largest sizes."""
    counts = Counter(map(popcount, z.terms))
    r = max(counts)
    ell = r - min(counts)
    return sum(cnt * comb(ell, r - k) for k, cnt in counts.items())


def flatten(z: SubsetPoly) -> FlattenRecord:
    """Pad every support member up to the maximum size r with fresh elements.

    The flattened system { S ∪ F : |S ∪ F| = r, S a member } is homogeneous;
    for a convex delta-matroid it satisfies basis exchange.  The padded
    weights keep the original coefficient on every completion, which matches
    multiplying each size-k layer by the elementary symmetric polynomial
    e_{r-k} of the fresh variables.  A set family flattens as its unit weights.

    The exchange scan is quadratic in the member count, so a flattening of
    more than FLATTEN_MEMBER_CAP members is refused before it is built.
    """
    window = size_window_sums(z)
    ground, r = z.ground, window.r
    ell = r - window.s
    if ground.m + ell > 30:
        raise ValueError("flattening overflows the 30-element ground cap")
    size = flatten_size_estimate(z)
    if size > FLATTEN_MEMBER_CAP:
        raise ValueError(f"flattening has {size} members, above the cap of {FLATTEN_MEMBER_CAP}")
    fresh = _fresh_labels(ground, ell)
    flat_ground = GroundSet(ground.labels + fresh)

    flat_terms: dict[int, Fraction] = {}
    fresh_bits = [flat_ground.bit(lab) for lab in fresh]
    for w in sorted(z.terms):
        coeff = z.terms[w]
        for pick in combinations(fresh_bits, r - popcount(w)):
            flat_terms[w | sum(pick)] = coeff
    witness = exchange_axiom_witness(sorted(flat_terms))
    return FlattenRecord(
        fresh=fresh,
        weights=SubsetPoly(flat_ground, flat_terms),
        exchange_ok=witness is None,
        exchange_witness=witness,
    )


def size_window_sums(z: SubsetPoly) -> Seq:
    """Seq(s, [f_s..f_r], m): total weight per support size over the support window.

    The one reader of the support's smallest and largest sizes s and r; the
    coefficients must be nonnegative rationals with a nonempty support.
    """
    for c in z.terms.values():  # zeros are already dropped
        if c < 0:
            raise ValueError("negative coefficient")
    if not z.terms:
        raise ValueError("empty support")
    sizes = list(map(popcount, z.terms))
    s = min(sizes)
    sums = [Fraction(0)] * (max(sizes) - s + 1)
    for k, c in zip(sizes, z.terms.values()):
        sums[k - s] += c
    return Seq(s, tuple(sums), z.ground.m)


def flattened_fresh_profile(z: SubsetPoly) -> Seq:
    """The flattening with every original variable set to 1, as an exchangeable
    sequence over the r - s fresh variables: entry j is the size-(r-j) layer sum."""
    window = size_window_sums(z)
    return Seq(0, window.entries[::-1], window.r - window.s)


# --- layers and exchange consequences ----------------------------------------------


@dataclass(frozen=True)
class LayerVerdict:
    k: int
    system: SubsetPoly
    exchange_ok: bool
    exchange_witness: tuple | None


def layers(z: SubsetPoly) -> list[LayerVerdict]:
    """Support members grouped by size, each layer with z's weights on it;
    each layer gets a basis-exchange verdict."""
    by_size: dict[int, list[int]] = {}
    for w in sorted(z.terms):
        by_size.setdefault(popcount(w), []).append(w)
    out = []
    for k in sorted(by_size):
        members = by_size[k]
        layer = SubsetPoly(z.ground, {w: z.terms[w] for w in members})
        witness = exchange_axiom_witness(members)
        out.append(
            LayerVerdict(k=k, system=layer, exchange_ok=witness is None, exchange_witness=witness)
        )
    return out


@dataclass(frozen=True)
class ExchangeReport:
    """Size-exchange consequences of being a convex delta-matroid.

    vacuous: the input was not a convex delta-matroid, so nothing is claimed.
    Otherwise each field must be True; any witness is a disproof of the
    corresponding consequence and fails the build.
    """

    vacuous: bool
    augment_up: bool
    shrink_down: bool
    exchange_from_equal: bool
    exchange_into_equal: bool
    max_equicardinal: bool
    min_equicardinal: bool
    witnesses: dict

    @property
    def all_hold(self) -> bool:
        return not self.vacuous and all(
            (
                self.augment_up,
                self.shrink_down,
                self.exchange_from_equal,
                self.exchange_into_equal,
                self.max_equicardinal,
                self.min_equicardinal,
            )
        )


def exchange_props_check(z: SubsetPoly) -> ExchangeReport:
    if not is_convex_delta_matroid(z):
        return ExchangeReport(True, False, False, False, False, False, False, {})
    member_set = z.terms
    members = sorted(member_set)
    witnesses: dict = {}

    augment = shrink = out_ok = in_ok = True
    for a in members:
        ca = popcount(a)
        for b in members:
            cb = popcount(b)
            if ca < cb:
                # some element of B∖A extends A; some drops B back toward A
                gain = b & ~a
                if not any(a | (1 << i) in member_set for i in bit_positions(gain)):
                    augment = False
                    witnesses.setdefault("augment_up", (a, b))
                if not any(b ^ (1 << i) in member_set for i in bit_positions(gain)):
                    shrink = False
                    witnesses.setdefault("shrink_down", (a, b))
            elif ca == cb:
                for i in bit_positions(a & ~b):
                    abit = 1 << i
                    swap_out = any(
                        (a ^ abit) | (1 << j) in member_set for j in bit_positions(b & ~a)
                    )
                    if not swap_out:
                        out_ok = False
                        witnesses.setdefault("exchange_from_equal", (a, b, abit))
                    swap_in = any(
                        (b ^ (1 << j)) | abit in member_set for j in bit_positions(b & ~a)
                    )
                    if not swap_in:
                        in_ok = False
                        witnesses.setdefault("exchange_into_equal", (a, b, abit))

    maximal = [w for w in members if not any(w != v and w & v == w for v in members)]
    minimal = [w for w in members if not any(w != v and w & v == v for v in members)]
    max_eq = len({popcount(w) for w in maximal}) == 1
    min_eq = len({popcount(w) for w in minimal}) == 1
    if not max_eq:
        witnesses["max_equicardinal"] = tuple(maximal)
    if not min_eq:
        witnesses["min_equicardinal"] = tuple(minimal)
    return ExchangeReport(
        vacuous=False,
        augment_up=augment,
        shrink_down=shrink,
        exchange_from_equal=out_ok,
        exchange_into_equal=in_ok,
        max_equicardinal=max_eq,
        min_equicardinal=min_eq,
        witnesses=witnesses,
    )


def disjoint_pair_exchange_witness(z: SubsetPoly) -> tuple | None:
    """Hunt for disjoint members A, B and {e,f} ⊆ B, g ∈ A such that no member
    contains e and g but not f, nor f and g but not e.  None if no such
    configuration exists (a necessary condition on supports of pair-verified
    weight functions)."""
    members = sorted(z.terms)
    for a in members:
        for b in members:
            if a & b or popcount(b) < 2:
                continue
            b_positions = list(bit_positions(b))
            for gi in bit_positions(a):
                gbit = 1 << gi
                for x in range(len(b_positions)):
                    ebit = 1 << b_positions[x]
                    for y in range(x + 1, len(b_positions)):
                        fbit = 1 << b_positions[y]
                        ok = any(
                            (w & (ebit | gbit)) == (ebit | gbit) and not w & fbit for w in members
                        ) or any(
                            (w & (fbit | gbit)) == (fbit | gbit) and not w & ebit for w in members
                        )
                        if not ok:
                            return (a, b, ebit, fbit, gbit)
    return None


def full_support_check(z: SubsetPoly) -> bool | None:
    """True/False: does the support contain ∅ and E and equal all of B(E)?
    None when ∅ or E is missing (the premise fails, nothing to check)."""
    size_window_sums(z)  # refuses what is not a weight function
    if 0 not in z.terms or z.ground.full not in z.terms:
        return None
    return len(z.terms) == 1 << z.ground.m
