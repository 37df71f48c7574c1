"""Verifying and refuting negative pairwise correlation, exactly.

A weight function is Rayleigh when every pair difference
rayleigh_diff(Z, e, f) is nonnegative on the positive orthant.  Sufficient
routes to Verified:

  * every coefficient of the difference is nonnegative, or
  * the difference dominates an explicit sum of squares
    sum(lambda_i (y^Ai - y^Bi)^2) coefficientwise.

Refutation is a concrete positive rational point where the difference is
negative.  One search, `_first_negative`, looks for one on Python ints: Z is
scaled by the lcm of its denominators, each dyadic point by 2^shift, and
`pair_value` sums the four integer slices there, so only the sign of one int
is read per point.  The sampler feeds it log-uniform points and
`exchangeable_check` a dyadic ladder.  Before it returns a refuting point it
re-evaluates the point exactly by two routes, `scalar_pair_diff` (the same
slices, another evaluator) and `covariance` (the measure summed over the
whole of Z, no slicing), and all three values must agree exactly.  Each
re-check route clears the denominators of the point and of the
coefficients once and sums Python ints over its own scale, so it shares no
scaling step with `pair_value`.
Sampling that finds no negative point is only ever Inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping

from .matroids import Matroid
from .polynomials import (
    QuadPoly,
    SubsetPoly,
    elementary_values,
    pair_products,
    pair_value,
    rayleigh_diff,
    rayleigh_pairs,
    triple_pairs,
)
from .potts import potts_poly, uniform_potts_symseq
from .prng import DEFAULT_SEED, DENOMINATOR_BITS, SplitMix64, derive, log_uniform_fraction, sample_point
from .scalars import as_fraction, clear_denominators, format_rat
from .sequences import Seq, check_condition, symmetrize, symseq_to_poly
from .words import compress, term_value


@dataclass(frozen=True)
class SquareCertificate:
    """Nonnegative combination sum(lambda_i (y^Ai - y^Bi)^2) with monomial A, B.

    Each side is a label tuple in file order, so a refusal names its first
    unknown label.
    """

    terms: tuple[tuple[Fraction, tuple[str, ...], tuple[str, ...]], ...]

    def __post_init__(self):
        for lam, a, b in self.terms:
            if lam <= 0:
                raise ValueError("certificate multipliers must be positive")
            if set(a) == set(b):
                raise ValueError("certificate squares must be nonzero")

    def expand(self, ground) -> QuadPoly:
        out: dict[tuple[int, int], Fraction] = {}
        for lam, a, b in self.terms:
            lam = Fraction(lam)
            wa, wb = ground.word(a), ground.word(b)
            for key, c in (((wa, wa), lam), ((wb, wb), lam), ((wa | wb, wa & wb), -2 * lam)):
                out[key] = out.get(key, 0) + c
        return QuadPoly(ground, out)


@dataclass(frozen=True)
class CoeffStrategy:
    """Judge D's coefficients, less the pair's square certificate if it has one."""

    certificates: Mapping[tuple[str, str], SquareCertificate] = field(default_factory=dict)

    def certificate_for(self, e: str, f: str) -> SquareCertificate:
        got = self.certificates.get((e, f)) or self.certificates.get((f, e))
        return got if got is not None else SquareCertificate(())


@dataclass(frozen=True)
class SampleStrategy:
    samples: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, not {self.samples}")


Strategy = CoeffStrategy | SampleStrategy


@dataclass(frozen=True)
class RayleighVerdict:
    """Verified(method) / Refuted(pair, witness, value) / Inconclusive(samples, min)."""

    status: str
    method: str | None = None
    pair: tuple[str, str] | None = None
    witness: Mapping[str, Fraction] | None = None
    value: Fraction | None = None
    index: int | None = None
    samples: int = 0
    min_value: Fraction | None = None

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"

    def describe(self) -> str:
        if self.status == "verified":
            return f"Verified ({self.method})"
        if self.status == "refuted":
            where = (
                f" at index {self.index}"
                if self.witness is None
                else " at " + _point_text(self.witness) + f" (value {format_rat(self.value)})"
            )
            pair = f" pair {self.pair}" if self.pair else ""
            return f"Refuted{pair}{where}"
        extra = "" if self.min_value is None else f", min sampled {format_rat(self.min_value)}"
        return f"Inconclusive ({self.samples} samples{extra})"


def _point_text(point: Mapping[str, Fraction]) -> str:
    inner = ", ".join(f"{k}={format_rat(v)}" for k, v in sorted(point.items()))
    return "{" + inner + "}"


def _coordinates(z: SubsetPoly, point: Mapping[str, Fraction]) -> list[Fraction]:
    """The point's value for each ground label, in ground order; all positive."""
    for lab, v in point.items():
        if v <= 0:
            raise ValueError(f"coordinate {lab!r} must be positive")
    return z.ground.coordinates(point)


def covariance(z: SubsetPoly, e: str, f: str, point: Mapping[str, Fraction]) -> Fraction:
    """Cov(X_e, X_f) under the external-field measure at a positive point.

    Computed directly from the measure: <X_e X_f> - <X_e><X_f>.  Matches
    -(y_e y_f / Z^2) * rayleigh_diff evaluated at the same point.
    """
    total, p_e, p_f, p_ef = _masses(z, e, f, point)
    if total == 0:
        raise ZeroDivisionError("partition function vanishes at the point")
    return p_ef / total - (p_e / total) * (p_f / total)


def _masses(z: SubsetPoly, e: str, f: str, point: Mapping[str, Fraction]) -> tuple[Fraction, ...]:
    """Z(y) and the masses of the subsets holding e, holding f and holding both.

    Summed term by term over the whole of Z, with no slicing, on Python
    ints: with y_i = n_i / D over the lcm D of the point's denominators and
    the coefficients c L over the lcm L of theirs, the term on w adds
    term_value(c L, n, w) * D^(m - |w|), and each sum is divided once by
    L D^m.  A coordinate that is neither an int nor a Fraction is a
    TypeError.
    """
    nums, den = clear_denominators(map(as_fraction, _coordinates(z, point)))
    coeffs, scale = clear_denominators(z.terms.values())
    m = z.ground.m
    powers = [den**k for k in range(m + 1)]
    be, bf = z.ground.bit(e), z.ground.bit(f)
    total = p_e = p_f = p_ef = 0
    for w, c in zip(z.terms, coeffs):
        mass = term_value(c, nums, w) * powers[m - w.bit_count()]
        total += mass
        if w & be:
            p_e += mass
        if w & bf:
            p_f += mass
        if w & be and w & bf:
            p_ef += mass
    scale *= powers[m]
    return tuple(Fraction(x, scale) for x in (total, p_e, p_f, p_ef))


def scalar_pair_diff(z: SubsetPoly, e: str, f: str, point: Mapping[str, Fraction]) -> Fraction:
    """rayleigh_diff(z, e, f) at a point, via scalar slice arithmetic only.

    Shares the slice kernel with the sampler but neither the pair-product
    kernel nor the point evaluator; used to re-check refutation witnesses.
    """
    ze = z.contract(e)
    ze_f, zf_e, zef, znone = ze.delete(f), z.contract(f).delete(e), ze.contract(f), z.delete(e).delete(f)
    return ze_f.evaluate(point) * zf_e.evaluate(point) - zef.evaluate(point) * znone.evaluate(point)


def check_pair(z: SubsetPoly, e: str, f: str, strategy: Strategy) -> RayleighVerdict:
    """One pair, one strategy."""
    if isinstance(strategy, SampleStrategy):
        return _sample(z, e, f, strategy)
    return _judge(rayleigh_diff(z, e, f), (e, f), strategy.certificate_for(e, f))


def _recheck_witness(z: SubsetPoly, e: str, f: str, point: Mapping[str, Fraction], value: Fraction) -> None:
    """Re-evaluate a refuting point exactly by two more routes.

    `scalar_pair_diff` multiplies the slices' values from `evaluate`, not
    from the point evaluator, and the measure that `covariance` sums does
    not use the slices.  Each route clears the point's and the
    coefficients' denominators on its own and sums Python ints, with no
    2^shift scale shared with `pair_value`; unless both read the negative
    `value`, raise ArithmeticError.
    """
    sliced = scalar_pair_diff(z, e, f, point)
    # Cov = -y_e y_f D / Z(y)^2 for any positive y_e, y_f; at y_e = y_f = 1,
    # D = -Z^2 Cov = p_e p_f - p_ef Z
    total, p_e, p_f, p_ef = _masses(z, e, f, {**point, e: Fraction(1), f: Fraction(1)})
    measured = p_e * p_f - p_ef * total
    if not sliced == measured == value or sliced >= 0:
        raise ArithmeticError(
            f"witness for pair ({e},{f}) re-evaluates to {format_rat(sliced)} through slices "
            f"and to {format_rat(measured)} through the covariance, "
            f"not to the sampled {format_rat(value)}"
        )


def _judge(diff: QuadPoly, pair: tuple[str, str], cert: SquareCertificate) -> RayleighVerdict:
    """Verified when D less the certificate is coefficientwise nonnegative."""
    e, f = pair
    for lab in pair:
        if any(lab in a or lab in b for _, a, b in cert.terms):
            raise ValueError(f"certificate for pair ({e},{f}) names the pair's own element {lab!r}")
    if cert.terms:
        diff = diff - cert.expand(diff.ground)
    if diff.is_coefficientwise_nonnegative():
        return RayleighVerdict("verified", method="certificate" if cert.terms else "coeff-positive", pair=pair)
    return RayleighVerdict("inconclusive", pair=pair, samples=0)


def _first_negative(
    z: SubsetPoly, e: str, f: str, points: Iterable[Mapping[str, Fraction]], shift: int
) -> tuple[int, Mapping[str, Fraction] | None, Fraction | None]:
    """The first point where the pair difference is negative, compared on ints.

    `points` must not be empty, and every coordinate must be a multiple of
    2^-shift.  Returns (points read, point, exact value) once a point reads
    negative and passes `_recheck_witness`, else (points read, None, least
    value read).
    """
    sub, den, pairs = rayleigh_pairs(z, e, f)
    least = None
    for read, point in enumerate(points, 1):
        num, scale = pair_value(sub.coordinates(point), shift, den, *pairs)
        if num < 0:
            value = Fraction(num, scale)
            _recheck_witness(z, e, f, point, value)
            return read, point, value
        if least is None or num < least:
            least = num
    return read, None, Fraction(least, scale)


def _sample(z: SubsetPoly, e: str, f: str, strategy: SampleStrategy) -> RayleighVerdict:
    rng = SplitMix64(strategy.seed)
    labels = [lab for lab in z.ground.labels if lab != e and lab != f]
    points = (sample_point(rng, labels) for _ in range(strategy.samples))
    read, point, value = _first_negative(z, e, f, points, DENOMINATOR_BITS)
    if point is not None:
        return RayleighVerdict("refuted", pair=(e, f), witness=point, value=value, samples=read)
    return RayleighVerdict("inconclusive", pair=(e, f), samples=read, min_value=value)


@dataclass(frozen=True)
class PairSweep:
    """check_all output: per-pair verdicts plus the aggregated summary."""

    verdicts: dict[tuple[str, str], RayleighVerdict]
    summary: str

    @property
    def all_verified(self) -> bool:
        return self.summary == "verified"


def check_all(z: SubsetPoly, strategy: Strategy) -> PairSweep:
    """Every unordered pair, in label order.  Sampling gives pair number idx
    its own stream derive(seed, idx), so a pair's verdict is the one
    check_pair returns for that pair alone."""
    labels = z.ground.labels
    pairs = [(labels[i], labels[j]) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    verdicts = {}
    for idx, (e, f) in enumerate(pairs):
        strat = strategy
        if isinstance(strategy, SampleStrategy):
            strat = SampleStrategy(strategy.samples, derive(strategy.seed, idx).next_u64())
        verdicts[(e, f)] = check_pair(z, e, f, strat)
    if any(v.refuted for v in verdicts.values()):
        summary = "refuted"
    elif any(v.status == "inconclusive" for v in verdicts.values()):
        summary = "inconclusive"
    else:
        summary = "verified"
    return PairSweep(verdicts=verdicts, summary=summary)


# --- exchangeable weights -------------------------------------------------------


def exchangeable_check(seq: Seq) -> RayleighVerdict:
    """Exact Rayleigh test for the exchangeable weights sum(a_k e_k) of `seq`.

    An exchangeable partition function is Rayleigh iff its coefficient
    sequence is log-concave with no internal zeros: the ladder conditions a0
    and a2 of `sequences.check_condition`.  Refutations carry the first a0
    violation, else the first a2 one, as an index k in 0..m.  For m <= 8 an
    explicit refuting point is also sought by pushing the other variables
    toward 0/infinity along a dyadic ladder; the ladder may find none, and
    then the verdict carries the index alone.
    """
    m = seq.m
    if m is None:
        raise ValueError("exchangeable weights need the ambient size m")
    if not any(seq.entries):
        raise ValueError("sequence is identically zero")
    bad = check_condition(seq, "a0").witness
    if bad is None:
        bad = check_condition(seq, "a2").witness
    if bad is None:
        return RayleighVerdict("verified", method="exchangeable")
    if not 2 <= m <= 8:
        return RayleighVerdict("refuted", index=bad)
    z = symseq_to_poly(seq)
    labels = z.ground.labels
    # an internal zero at the boundary of the support moves the pair inward
    k = max(1, min(m - 1, bad))
    e, f = labels[k - 1], labels[k]
    rest = labels[: k - 1] + labels[k + 1 :]
    # every ladder coordinate 2^(+-step), step <= 40, is a multiple of 2^-40
    ladder = (
        {lab: Fraction(2**step) if i < k - 1 else Fraction(1, 2**step) for i, lab in enumerate(rest)}
        for step in range(1, 41)
    )
    _, point, value = _first_negative(z, e, f, ladder, 40)
    if point is None:
        return RayleighVerdict("refuted", index=bad)
    return RayleighVerdict("refuted", pair=(e, f), witness=point, value=value, index=bad)


@dataclass(frozen=True)
class SymmetrizationReport:
    base_sweep: PairSweep
    symmetrized_verdict: RayleighVerdict
    counterexample: bool
    note: str


def symmetrize_and_check(z: SubsetPoly) -> SymmetrizationReport:
    """Average the weights over subset sizes, then test the symmetrized function.

    A coefficientwise-Verified input whose symmetrization refutes would be a
    counterexample to the conjecture that averaging preserves the Rayleigh
    property; the report flags that combination explicitly.
    """
    base = check_all(z, CoeffStrategy())
    sym_verdict = exchangeable_check(symmetrize(z))
    counterexample = base.all_verified and sym_verdict.refuted
    if counterexample:
        note = "counterexample: verified input, refuted symmetrization"
    elif base.all_verified:
        note = "input verified coefficientwise; symmetrization " + sym_verdict.status
    else:
        note = "input not verified coefficientwise; no conclusion about preservation"
    return SymmetrizationReport(
        base_sweep=base,
        symmetrized_verdict=sym_verdict,
        counterexample=counterexample,
        note=note,
    )


@dataclass(frozen=True)
class MarginReport:
    """Sampled margins of the symmetrized-slice comparison for one pair.

    margin(y) = z_e(y) z_f(y) - z_ef(y) ztop(y) over the m-2 anonymous
    variables, where z_e symmetrizes the contraction slice at e (placed off
    the pair and restricted), z_ef symmetrizes the double contraction, and
    ztop is the doubly-deleted symmetrization of the input.  A probe, not a
    verdict: nonnegative margins prove nothing on their own.
    """

    pair: tuple[str, str]
    margins: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    min_margin: Fraction
    nonnegative: bool


def conjecture_probe(
    z: SubsetPoly, e: str, f: str, samples: int = 100, seed: int = DEFAULT_SEED
) -> MarginReport:
    m = z.ground.m
    if m < 3:
        raise ValueError("probe needs at least three elements")
    if e == f:
        raise ValueError("need two distinct elements")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")

    def truncated(entries: Iterable[Fraction]) -> tuple[Fraction, ...]:
        entries = tuple(entries)
        return entries[: m - 1]  # e_k over m-2 variables vanishes beyond k = m-2

    z_e = truncated(symmetrize(z.contract(e)).entries)
    z_f = truncated(symmetrize(z.contract(f)).entries)
    z_ef = truncated(symmetrize(z.contract(e).contract(f)).entries)
    z_top = truncated(symmetrize(z).entries)

    rng = SplitMix64(seed)
    margins = []
    min_margin: Fraction | None = None
    for _ in range(samples):
        coords = [log_uniform_fraction(rng) for _ in range(m - 2)]
        es = elementary_values(coords)

        def val(entries) -> Fraction:
            return sum((c * es[k] for k, c in enumerate(entries) if k < len(es)), Fraction(0))

        margin = val(z_e) * val(z_f) - val(z_ef) * val(z_top)
        margins.append((tuple(coords), margin))
        if min_margin is None or margin < min_margin:
            min_margin = margin
    return MarginReport(
        pair=(e, f),
        margins=tuple(margins),
        min_margin=min_margin if min_margin is not None else Fraction(0),
        nonnegative=min_margin is None or min_margin >= 0,
    )


# --- negative association over a two-block split ---------------------------------


@cache
def _upward_closed_families(universe_size: int) -> tuple[frozenset[int], ...]:
    words = list(range(1 << universe_size))
    families = []
    for pick in range(1 << len(words)):
        fam = frozenset(w for w in words if pick >> w & 1)
        ok = True
        for w in fam:
            for i in range(universe_size):
                if not w >> i & 1 and (w | 1 << i) not in fam:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            families.append(fam)
    return tuple(families)


@cache
def _upset_chain(universe_size: int) -> tuple[tuple[int, int], ...]:
    """(parent, word) for each non-empty upward-closed family, in `_upward_closed_families` order.

    Family j + 1 is family `parent` plus `word`, a word of least size in it:
    removing a minimal word keeps a family upward closed, and the parent's
    pick mask is a sub-mask of the family's, so the parent comes earlier.
    """
    fams = _upward_closed_families(universe_size)
    index = {fam: j for j, fam in enumerate(fams)}
    chain = []
    for fam in fams[1:]:
        word = min(fam, key=lambda w: (w.bit_count(), w))
        chain.append((index[fam - {word}], word))
    return tuple(chain)


@dataclass(frozen=True)
class AssociationReport:
    pairs_checked: int
    violations: tuple[tuple[frozenset, frozenset], ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def negative_association_check(
    z: SubsetPoly,
    block1: Iterable[str],
    block2: Iterable[str],
    point: Mapping[str, Fraction],
) -> AssociationReport:
    """P(A and B) <= P(A) P(B) for all upward-closed events on disjoint blocks.

    Exhaustive over every pair of upward-closed families on the two blocks
    (block sizes capped at 3: 20 families each).  Everything is a Python
    int over one positive scale: with y_i = n_i / D over the lcm D of the
    point's denominators and the coefficients c * L over the lcm L of
    theirs, the monomial y^w * D^m is the int built for every word by
    doubling, and each term's mass lands in the cell (trace on block 1,
    trace on block 2) of a table with at most 8 x 8 cells.  The families
    are walked along `_upset_chain`, each one an earlier family plus one
    word, so each family's P(A), each row of P(A and .) and each
    P(A and B) costs one addition.  The test p12 * total > p1 * p2 has
    degree two on both sides, so the common factor (L D^m)^2 > 0 cannot
    flip it.
    """
    b1 = tuple(block1)
    b2 = tuple(block2)
    if set(b1) & set(b2):
        raise ValueError("blocks must be disjoint")
    if set(b1) | set(b2) != set(z.ground.labels):
        raise ValueError("blocks must partition the ground set")
    if len(b1) > 3 or len(b2) > 3:
        raise ValueError("block size capped at 3")
    num, den = clear_denominators(_coordinates(z, point))
    y = [1]
    for n in num:
        y = [*map(den.__mul__, y), *map(n.__mul__, y)]
    coeffs, _ = clear_denominators(z.terms.values())

    pos1 = tuple(map(z.ground.index, b1))
    pos2 = tuple(map(z.ground.index, b2))
    n1, n2 = 1 << len(b1), 1 << len(b2)
    rows = [[0] * n2 for _ in range(n1)]
    for w, c in zip(z.terms, coeffs):
        rows[compress(w, pos1)][compress(w, pos2)] += c * y[w]
    row_sum = [sum(row) for row in rows]
    col_sum = [sum(col) for col in zip(*rows)]
    total = sum(row_sum)

    # P(A), the row P(A and .) and P(B), one family after another along the chains
    chain1 = _upset_chain(len(b1))
    chain2 = _upset_chain(len(b2))
    p1s = [0]
    in_fam1s = [[0] * n2]
    for parent, word in chain1:
        p1s.append(p1s[parent] + row_sum[word])
        in_fam1s.append([a + b for a, b in zip(in_fam1s[parent], rows[word])])
    p2s = [0]
    for parent, word in chain2:
        p2s.append(p2s[parent] + col_sum[word])
    fams1 = _upward_closed_families(len(b1))
    fams2 = _upward_closed_families(len(b2))
    violations = []
    for fam1, p1, in_fam1 in zip(fams1, p1s, in_fam1s):
        p12s = [0]
        for parent, word in chain2:
            p12s.append(p12s[parent] + in_fam1[word])
        for fam2, p12, p2 in zip(fams2, p12s, p2s):
            if p12 * total > p1 * p2:
                violations.append((fam1, fam2))
    return AssociationReport(pairs_checked=len(fams1) * len(fams2), violations=tuple(violations))


# --- the triple condition ---------------------------------------------------------


@dataclass(frozen=True)
class TripleReport:
    """Sampled check of theta >= -2 sqrt(diff_deleted * diff_contracted).

    Tested in squared form: wherever theta < 0, require
    theta^2 <= 4 * diff_deleted * diff_contracted.  The inequality is a
    consequence of the Rayleigh property of the two slices, which the
    caller asserts; it is not verified here.
    """

    triple: tuple[str, str, str]
    points: int
    holds: bool
    decomposition_ok: bool


def triple_condition_check(
    z: SubsetPoly,
    e: str,
    f: str,
    g: str,
    samples: int = 100,
    seed: int = DEFAULT_SEED,
) -> TripleReport:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    # decomposition: diff = diff_del + y_g theta + y_g^2 diff_con, where the
    # three parts are the kernel run on the slices the slack below reads
    sub, den, theta_pairs, del_pairs, con_pairs = triple_pairs(z, e, f, g)
    parts = tuple(pair_products(sub, den, *pairs) for pairs in (del_pairs, theta_pairs, con_pairs))
    decomposition_ok = rayleigh_diff(z, e, f).split_at(g) == parts

    # theta and both differences carry one positive scale S, so where
    # theta < 0 the squared form is compared on ints times S^2
    rng = SplitMix64(seed)
    holds = True
    for _ in range(samples):
        vals = sub.coordinates(sample_point(rng, sub.labels))
        t, _ = pair_value(vals, DENOMINATOR_BITS, den, *theta_pairs)
        if t < 0:
            a, _ = pair_value(vals, DENOMINATOR_BITS, den, *del_pairs)
            c, _ = pair_value(vals, DENOMINATOR_BITS, den, *con_pairs)
            if 4 * a * c < t * t:
                holds = False
    return TripleReport(triple=(e, f, g), points=samples, holds=holds, decomposition_ok=decomposition_ok)


# --- critical-q bracketing --------------------------------------------------------


@dataclass(frozen=True)
class QcBracket:
    """Empirical bracket for the largest q in (0, 1) that stays Rayleigh.

    `refuted` is the smallest refuted q (None if none found) and `passed`
    the largest tested q below it with no refutation, so passed < refuted.
    Heuristic unless `exact`: sampling cannot verify, only fail to refute.
    The uniform path is exact only when no Verified q lies above `refuted`,
    that is, when its verdicts are monotone in q.
    """

    passed: Fraction
    refuted: Fraction | None
    exact: bool
    tested: tuple[tuple[Fraction, str], ...]


def estimate_qc(
    matroid: Matroid,
    resolution: int = 10,
    budget: int = 128,
    seed: int = DEFAULT_SEED,
) -> QcBracket:
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, not {resolution}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, not {budget}")
    if matroid.provenance and matroid.provenance[0] == "uniform":
        _, m, r = matroid.provenance
        tested = []
        for num in (1, 2, 3, 4):
            q0 = Fraction(num, 4)
            verdict = exchangeable_check(uniform_potts_symseq(m, r, q0))
            tested.append((q0, verdict.status))
        refuted = min((q for q, s in tested if s == "refuted"), default=None)
        verified = [q for q, s in tested if s == "verified"]
        below = [q for q in verified if refuted is None or q < refuted]
        return QcBracket(
            passed=max(below, default=Fraction(0)),
            refuted=refuted,
            exact=len(below) == len(verified),
            tested=tuple(tested),
        )

    lo, hi = Fraction(0), Fraction(1)
    passed = Fraction(0)
    refuted: Fraction | None = None
    tested = []
    for step in range(resolution):
        q0 = (lo + hi) / 2
        sweep = check_all(
            potts_poly(matroid, q0).poly,
            SampleStrategy(budget, derive(seed, step).next_u64()),
        )
        tested.append((q0, sweep.summary))
        if sweep.summary == "refuted":
            refuted = q0 if refuted is None else min(refuted, q0)
            hi = q0
        else:
            passed = max(passed, q0)
            lo = q0
    return QcBracket(passed=passed, refuted=refuted, exact=False, tested=tuple(tested))
