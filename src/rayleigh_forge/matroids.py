"""Matroids as rank oracles, with the constructions used here.

A matroid is a ground set plus a rank function on subset words.  Every
construction (uniform, graphic, explicit basis list, minors, duals, two-sums,
parallel extensions) just wraps a new rank function.  The table of all 2^m
ranks is built at most once per matroid (`rank_table`); before that, each
rank query calls the oracle, and nothing is cached per word.  A set family
(bases, independent or spanning sets) is the key set of a unit-weight
`SubsetPoly`.  Construction runs a spot check of the rank axioms on random
subsets so that a bad oracle fails fast rather than corrupting downstream
verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

from .polynomials import GroundSet, SubsetPoly, charpoly_exact
from .prng import SplitMix64
from .words import expand, popcount

ENUM_LIMIT = 24


@dataclass(frozen=True)
class Graph:
    """Multigraph without loops: vertex count plus labeled edges (u, v, label)."""

    n: int
    edges: tuple[tuple[int, int, str], ...]

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("graph needs at least one vertex")
        labels = [lab for _, _, lab in self.edges]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate edge labels")
        for u, v, _ in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
            if u == v:
                raise ValueError("loops are not supported")

    def ground(self) -> GroundSet:
        return GroundSet(lab for _, _, lab in self.edges)

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        parent = list(range(self.n))
        for u, v, _ in self.edges:
            _union(parent, u, v)
        root = _find(parent, 0)
        return all(_find(parent, v) == root for v in range(self.n))


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], a: int, b: int) -> bool:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[ra] = rb
    return True


class BasisExchangeError(ValueError):
    """Raised when an alleged basis family violates the exchange axiom."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def exchange_axiom_witness(members: Sequence[int]) -> tuple[int, int, int] | None:
    """First (A, B, a) with no valid exchange, or None if the axiom holds.

    Exhaustive check: for all A, B in the family and a in A - B there must be
    b in B - A with A - a + b in the family.
    """
    family = set(members)
    mem = list(members)
    for a_word in mem:
        for b_word in mem:
            d = a_word & ~b_word
            while d:
                abit = d & -d
                d ^= abit
                ok = False
                s = b_word & ~a_word
                while s:
                    bbit = s & -s
                    s ^= bbit
                    if (a_word ^ abit) | bbit in family:
                        ok = True
                        break
                if not ok:
                    return (a_word, b_word, abit)
    return None


class Matroid:
    """Rank oracle over subset words; once `rank_table` has built the table
    of every rank, `rank` reads that instead of calling the oracle."""

    def __init__(
        self,
        ground: GroundSet,
        rank_word: Callable[[int], int],
        provenance: tuple = ("custom",),
        check: bool = True,
    ):
        self.ground = ground
        self._rank_word = rank_word
        self._table: bytes | None = None
        self.provenance = provenance
        if check:
            self._spot_check()
        self.r = self.rank(ground.full)

    def rank(self, word: int) -> int:
        if self._table is not None:
            return self._table[word]
        return self._rank_word(word)

    def _spot_check(self) -> None:
        if self.rank(0) != 0:
            raise ValueError("rank oracle broken: rank of the empty set is nonzero")
        m = self.ground.m
        rng = SplitMix64(0xA11CE)
        for _ in range(24):
            s = rng.next_u64() & self.ground.full
            t = rng.next_u64() & self.ground.full
            rs, rt = self.rank(s), self.rank(t)
            if self.rank(s | t) + self.rank(s & t) > rs + rt:
                raise ValueError("rank oracle broken: submodularity fails")
            if m:
                bit = 1 << rng.below(m)
                gain = self.rank(s | bit) - self.rank(s & ~bit)
                if gain not in (0, 1):
                    raise ValueError("rank oracle broken: unit increase fails")

    # element classification ------------------------------------------------

    def is_loop(self, label: str) -> bool:
        return self.rank(self.ground.bit(label)) == 0

    def is_coloop(self, label: str) -> bool:
        return self.rank(self.ground.full ^ self.ground.bit(label)) == self.r - 1

    # minors ------------------------------------------------------------------

    def delete(self, label: str) -> "Matroid":
        sub = self.ground.without(label)
        positions = tuple(map(self.ground.index, sub.labels))

        def rank_word(w: int) -> int:
            return self.rank(expand(w, positions))

        return Matroid(sub, rank_word, ("delete", self.provenance, label), check=False)

    def contract(self, label: str) -> "Matroid":
        sub = self.ground.without(label)
        positions = tuple(map(self.ground.index, sub.labels))
        bit = self.ground.bit(label)
        base = self.rank(bit)

        def rank_word(w: int) -> int:
            return self.rank(expand(w, positions) | bit) - base

        return Matroid(sub, rank_word, ("contract", self.provenance, label), check=False)

    def dual(self) -> "Matroid":
        full = self.ground.full
        r = self.r

        def rank_word(w: int) -> int:
            return popcount(w) + self.rank(full ^ w) - r

        return Matroid(self.ground, rank_word, ("dual", self.provenance), check=False)

    def __repr__(self):
        return f"Matroid(m={self.ground.m}, r={self.r}, provenance={self.provenance!r})"


def uniform_matroid(m: int, r: int, labels: Iterable[str] | None = None) -> Matroid:
    if not (0 <= r <= m):
        raise ValueError("rank out of range")
    ground = GroundSet(labels if labels is not None else (str(i + 1) for i in range(m)))
    if ground.m != m:
        raise ValueError("label count does not match m")
    return Matroid(ground, lambda w: min(r, popcount(w)), ("uniform", m, r), check=False)


def graphic_matroid(graph: Graph) -> Matroid:
    """The cycle matroid.  Only the vertices that edges touch are numbered, so
    isolated vertices, which do not change the matroid, cost nothing."""
    ground = graph.ground()
    index: dict[int, int] = {}
    ends = tuple(
        (index.setdefault(u, len(index)), index.setdefault(v, len(index))) for u, v, _ in graph.edges
    )
    n = len(index)

    def rank_word(w: int) -> int:
        parent = list(range(n))
        rank = 0
        i = 0
        ww = w
        while ww:
            if ww & 1:
                u, v = ends[i]
                if _union(parent, u, v):
                    rank += 1
            ww >>= 1
            i += 1
        return rank

    return Matroid(ground, rank_word, ("graphic", n, ends), check=False)


def matroid_from_bases(bases: SubsetPoly) -> Matroid:
    """Matroid whose bases are the support of `bases`; validates the exchange axiom."""
    members = sorted(bases.terms)
    if not members:
        raise ValueError("a matroid needs at least one basis")
    sizes = {popcount(w) for w in members}
    if len(sizes) != 1:
        raise ValueError("bases are not equicardinal")
    witness = exchange_axiom_witness(members)
    if witness is not None:
        a_word, b_word, abit = witness
        g = bases.ground
        raise BasisExchangeError(
            "basis exchange fails for "
            f"A={g.labels_of(a_word)}, B={g.labels_of(b_word)}, a={g.labels_of(abit)[0]!r}",
            (a_word, b_word, abit),
        )

    def rank_word(w: int) -> int:
        return max(popcount(w & b) for b in members)

    r = next(iter(sizes))
    m = bases.ground.m
    if len(members) == comb(m, r):
        # every r-subset is a basis: keep the uniform tag so exchangeable
        # shortcuts stay available
        return Matroid(bases.ground, rank_word, ("uniform", m, r), check=False)
    return Matroid(bases.ground, rank_word, ("bases", len(members)), check=False)


def two_sum(left: Matroid, right: Matroid, glue: str) -> Matroid:
    """Two-sum along a shared element that is neither a loop nor a coloop.

    The rank of S is rank_L(S_L) + rank_R(S_R) minus one exactly when the glue
    element lies in both closures.
    """
    lset, rset = set(left.ground.labels), set(right.ground.labels)
    if lset & rset != {glue}:
        raise ValueError("ground sets must share exactly the glue element")
    for side, mat in (("left", left), ("right", right)):
        if mat.is_loop(glue):
            raise ValueError(f"glue element is a loop in the {side} matroid")
        if mat.is_coloop(glue):
            raise ValueError(f"glue element is a coloop in the {side} matroid")
    llabels = [lab for lab in left.ground.labels if lab != glue]
    rlabels = [lab for lab in right.ground.labels if lab != glue]
    ground = GroundSet(llabels + rlabels)
    lpos = tuple(map(left.ground.index, llabels))
    rpos = tuple(map(right.ground.index, rlabels))
    nl = len(llabels)
    lmask = (1 << nl) - 1
    lbit = left.ground.bit(glue)
    rbit = right.ground.bit(glue)

    def rank_word(w: int) -> int:
        wl = expand(w & lmask, lpos)
        wr = expand(w >> nl, rpos)
        rl, rr = left.rank(wl), right.rank(wr)
        nu = int(left.rank(wl | lbit) == rl and right.rank(wr | rbit) == rr)
        return rl + rr - nu

    return Matroid(ground, rank_word, ("two_sum", left.provenance, right.provenance, glue))


def parallel_extend(matroid: Matroid, multiplicity: Mapping[str, int]) -> Matroid:
    """Replace each element by a positive number of parallel copies.

    Copy 1 keeps the original label; further copies get label#i suffixes.
    Missing entries default to multiplicity one.
    """
    new_labels: list[str] = []
    origins: list[int] = []
    for pos, lab in enumerate(matroid.ground.labels):
        count = multiplicity.get(lab, 1)
        if count < 1:
            raise ValueError(f"multiplicity of {lab!r} must be positive")
        for i in range(1, count + 1):
            new_labels.append(lab if i == 1 else f"{lab}#{i}")
            origins.append(pos)
    ground = GroundSet(new_labels)

    def rank_word(w: int) -> int:
        return matroid.rank(expand(w, origins))

    return Matroid(ground, rank_word, ("parallel", matroid.provenance), check=False)


def enumerate_family(matroid: Matroid, kind: str) -> SubsetPoly:
    """All independent / spanning sets or bases, read off the `rank_table`,
    as the unit-weight polynomial whose support they are."""
    table = rank_table(matroid)
    r = matroid.r
    if kind == "independent":
        out = [w for w, rk in enumerate(table) if rk == popcount(w)]
    elif kind == "spanning":
        out = [w for w, rk in enumerate(table) if rk == r]
    elif kind == "bases":
        out = [w for w, rk in enumerate(table) if rk == r == popcount(w)]
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    return SubsetPoly(matroid.ground, dict.fromkeys(out, Fraction(1)))


@dataclass(frozen=True)
class InvariantSequences:
    """The counting sequences attached to a matroid (and optional fixed subset)."""

    m: int
    r: int
    I: tuple[int, ...]
    W: tuple[int, ...]
    chi: tuple[int, ...]
    h: tuple[Fraction, ...]
    h_integral: bool
    loopless: bool
    c: tuple[int, ...] | None = None


def rank_table(matroid: Matroid) -> bytes:
    """rank(w) for every subset word w, indexed by w.

    The table is built on the first call and kept on the matroid, so every
    later call returns the same `bytes` object and `Matroid.rank` reads it;
    it is the one store of ranks, with no per-word cache beside it.  A
    graphic matroid fills it by a depth-first walk that adds edges in word
    order to a union-find and rolls each union back on the way out, so every
    subset costs one union attempt.  Any other matroid calls its rank oracle
    once per subset.  Minors, duals and two-sums of this matroid then query
    its table.
    """
    if matroid._table is not None:
        return matroid._table
    m = matroid.ground.m
    if m > ENUM_LIMIT:
        raise ValueError(f"enumeration capped at {ENUM_LIMIT} elements")
    if matroid.provenance[0] == "graphic":
        table = bytearray(1 << m)
        _, n, ends = matroid.provenance
        _graphic_ranks(table, n, ends)
    else:
        table = map(matroid._rank_word, range(1 << m))
    matroid._table = bytes(table)
    return matroid._table


def _graphic_ranks(table: bytearray, n: int, ends: Sequence[tuple[int, int]]) -> None:
    parent = list(range(n))
    size = [1] * n
    m = len(ends)

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def walk(start: int, word: int, rk: int) -> None:
        # every word is reached once, from word minus its top bit
        for i in range(start, m):
            w = word | 1 << i
            u, v = ends[i]
            ru, rv = find(u), find(v)
            joins = ru != rv
            if joins:
                if size[ru] > size[rv]:
                    ru, rv = rv, ru
                parent[ru] = rv
                size[rv] += size[ru]
            table[w] = rk + joins
            if i + 1 < m:
                walk(i + 1, w, rk + joins)
            if joins:
                parent[ru] = ru
                size[rv] -= size[ru]

    walk(0, 0, 0)


def invariant_sequences(matroid: Matroid, fixed: Iterable[str] | None = None) -> InvariantSequences:
    """Independent-set counts, flat counts by rank, characteristic-polynomial
    magnitudes, the h-vector of the independence complex, and (optionally)
    basis counts by intersection size with a fixed subset.  Every count reads
    the `rank_table`."""
    table = rank_table(matroid)
    m = matroid.ground.m
    full = matroid.ground.full
    r = table[full]
    I = [0] * (r + 1)
    W = [0] * (r + 1)
    char = [0] * (r + 1)  # coefficient of t^j at index j
    fixed_word = matroid.ground.word(fixed) if fixed is not None else None
    cmax = min(r, popcount(fixed_word)) if fixed_word is not None else 0
    c = [0] * (cmax + 1) if fixed_word is not None else None
    for w, rk in enumerate(table):
        size = popcount(w)
        if rk == size:
            I[size] += 1
        char[r - rk] += -1 if size & 1 else 1
        is_flat = True
        rest = full & ~w
        while rest:
            bit = rest & -rest
            rest ^= bit
            if table[w | bit] == rk:
                is_flat = False
                break
        if is_flat:
            W[rk] += 1
        if c is not None and rk == size == r:
            c[popcount(w & fixed_word)] += 1
    chi = tuple(abs(char[r - k]) for k in range(r + 1))
    # Solve sum(I_k t^k) = sum(h_k t^k (1+t)^(r-k)) by triangular elimination.
    h: list[Fraction] = []
    for n in range(r + 1):
        acc = Fraction(I[n])
        for k in range(n):
            acc -= h[k] * comb_frac(r - k, n - k)
        h.append(acc)
    return InvariantSequences(
        m=m,
        r=r,
        I=tuple(I),
        W=tuple(W),
        chi=chi,
        h=tuple(h),
        h_integral=all(x.denominator == 1 for x in h),
        loopless=all(table[1 << i] for i in range(m)),
        c=tuple(c) if c is not None else None,
    )


def comb_frac(n: int, k: int) -> Fraction:
    return Fraction(comb(n, k) if 0 <= k <= n else 0)


# --- spanning forests and the weighted Laplacian ------------------------------


@dataclass(frozen=True)
class ForestCharpolyRecord:
    size_sums: tuple[Fraction, ...]
    charpoly: tuple[Fraction, ...]  # coefficient of t^j at index j


def forest_weights(graph: Graph) -> tuple[SubsetPoly, ForestCharpolyRecord]:
    """Weight each spanning forest by the product of its component sizes.

    The size-k weight sums match the characteristic polynomial of the graph
    Laplacian: sum_k f_k t^(n-k) = det(tI + L).  That identity is recomputed
    here and a mismatch raises, since it would mean a counting bug.
    """
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    ground = graph.ground()
    n = graph.n
    edges = graph.edges
    terms: dict[int, Fraction] = {}
    sums = [Fraction(0)] * (n + 1)
    for w in ground.subsets():
        parent = list(range(n))
        ok = True
        ww, i = w, 0
        while ww:
            if ww & 1 and not _union(parent, edges[i][0], edges[i][1]):
                ok = False
                break
            ww >>= 1
            i += 1
        if not ok:
            continue
        sizes: dict[int, int] = {}
        for v in range(n):
            root = _find(parent, v)
            sizes[root] = sizes.get(root, 0) + 1
        weight = 1
        for s in sizes.values():
            weight *= s
        terms[w] = Fraction(weight)
        sums[popcount(w)] += weight
    poly = SubsetPoly(ground, terms)
    ones = {lab: Fraction(1) for lab in ground.labels}
    charpoly = weighted_laplacian_charpoly(graph, ones)
    expected = [Fraction(0)] * (n + 1)
    for k, fk in enumerate(sums):
        if fk:
            expected[n - k] += fk
    if tuple(expected) != charpoly:
        raise ArithmeticError("forest weight sums disagree with det(tI + L)")
    return poly, ForestCharpolyRecord(size_sums=tuple(sums), charpoly=charpoly)


def weighted_laplacian_charpoly(graph: Graph, y: Mapping[str, Fraction]) -> tuple[Fraction, ...]:
    """Coefficients of det(tI + D diag(y) D^T), exactly, low degree first.

    D is a signed incidence matrix; a label missing from y raises a
    `ValueError` that names it.
    """
    n = graph.n
    q = [[Fraction(0)] * n for _ in range(n)]
    for (u, v, _), w in zip(graph.edges, map(Fraction, graph.ground().coordinates(y))):
        q[u][u] += w
        q[v][v] += w
        q[u][v] -= w
        q[v][u] -= w
    return charpoly_exact(q)


def forest_size_sums(graph: Graph, y: Mapping[str, Fraction]) -> tuple[Fraction, ...]:
    """Coefficients of sum_S w(S) y^S t^(n-|S|) over the forests S, low degree first.

    The forest weights' `term_values` at y, exact ints over one scale,
    bucketed by forest size.  Like `weighted_laplacian_charpoly`, it reads
    each coordinate through `Fraction`.
    """
    poly, _ = forest_weights(graph)
    ground = poly.ground
    values, scale = poly.term_values(dict(zip(ground.labels, map(Fraction, ground.coordinates(y)))))
    n = graph.n
    sums = [0] * (n + 1)
    for w, v in zip(poly.terms, values):
        sums[n - popcount(w)] += v
    return tuple(Fraction(x, scale) for x in sums)


def forest_identity_at(graph: Graph, y: Mapping[str, Fraction]) -> bool:
    """Check sum_S w(S) y^S t^(n-|S|) == det(tI + D diag(y) D^T) at rational y."""
    return forest_size_sums(graph, y) == weighted_laplacian_charpoly(graph, y)


# --- small graph builders ------------------------------------------------------


def complete_graph(n: int) -> Graph:
    """K_n with edges in lexicographic vertex-pair order, labeled "1", "2", ..."""
    edges = []
    idx = 0
    for u, v in itertools.combinations(range(n), 2):
        idx += 1
        edges.append((u, v, str(idx)))
    return Graph(n, tuple(edges))


def cycle_graph(n: int, prefix: str = "") -> Graph:
    edges = tuple((i, (i + 1) % n, f"{prefix}{i + 1}") for i in range(n))
    return Graph(n, edges)


def path_graph(n: int, prefix: str = "") -> Graph:
    edges = tuple((i, i + 1, f"{prefix}{i + 1}") for i in range(n - 1))
    return Graph(n, edges)
