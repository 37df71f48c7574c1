"""Random-cluster (Potts) partition functions and two-sum composition.

The Potts weight of a subset S is q^(-rank(S)), an exact rational.
Symbolic q is the fixed-q route at q = `SYMBOLIC_Q` = 2^-8, where the
symbolic identities below are decided exactly.  The same `ModelPoly`
wrapper also carries the frozen-family models (bases / independent /
spanning indicators).  Two-sum composition
treats all four alike: each part's slices

    Z^g  (delete: y_g = 0)        Z_g  (contract: the y_g coefficient)

give its `glue_weights` (alpha, beta), one row per model, and the other
part's slices are weighted by them.  The slices are themselves the model
polynomials of the deletion and contraction minors, Z_g up to a factor q
for Potts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .matroids import Matroid, enumerate_family, rank_table
from .polynomials import GroundSet, SubsetPoly, multiply_disjoint
from .prng import derive, sample_point, unit_fraction
from .scalars import SYMBOLIC_Q, clear_denominators
from .sequences import Seq
from .words import expand, monomial_table, popcount

MODEL_KINDS = ("bases", "independent", "spanning", "potts")


@dataclass(frozen=True)
class Model:
    """Which partition function: a frozen family, or Potts with symbolic/fixed q."""

    kind: str
    q0: Fraction | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind != "potts" and self.q0 is not None:
            raise ValueError("q0 only makes sense for the potts model")
        if self.q0 is not None and self.q0 <= 0:
            raise ValueError("q0 must be positive")

    @property
    def q(self) -> Fraction:
        """The Potts q: q0 when q is fixed, `SYMBOLIC_Q` when it is symbolic."""
        return SYMBOLIC_Q if self.q0 is None else self.q0


@dataclass(frozen=True)
class ModelPoly:
    """A partition function together with its model tag."""

    poly: SubsetPoly
    model: Model

    @property
    def ground(self) -> GroundSet:
        return self.poly.ground


def potts_poly(matroid: Matroid, q0: Fraction | None = None) -> ModelPoly:
    """Potts partition function: every subset weighted q^(-rank(S)).

    q0 = None is symbolic q, built at `SYMBOLIC_Q`.  The r + 1 weights are
    built once and indexed by the `rank_table`.
    """
    ground = matroid.ground
    if ground.m > 20:
        raise ValueError("potts_poly enumerates 2^m terms; m capped at 20")
    model = Model("potts", None if q0 is None else Fraction(q0))
    weights = [model.q**-k for k in range(matroid.r + 1)]
    terms = {w: weights[rk] for w, rk in enumerate(_potts_ranks(matroid))}
    return ModelPoly(SubsetPoly(ground, terms), model)


def _potts_ranks(matroid: Matroid) -> bytes:
    """The `rank_table`, refused if a subset (of a `check=False` oracle) outranks the ground set."""
    table = rank_table(matroid)
    top = max(table)
    if top > matroid.r:
        labels = ",".join(matroid.ground.labels_of(table.index(top)))
        raise ValueError(f"subset {{{labels}}} has rank {top}, above the rank {matroid.r} of the ground set")
    return table


def model_poly(matroid: Matroid, model: Model) -> ModelPoly:
    """Partition function of a matroid under any of the four models."""
    if model.kind == "potts":
        return potts_poly(matroid, model.q0)
    return ModelPoly(enumerate_family(matroid, model.kind), model)


def uniform_potts_symseq(m: int, r: int, q0: Fraction) -> Seq:
    """Exchangeable shortcut for uniform matroids: a_k = q0^(-min(r, k)), k = 0..m."""
    q = Model("potts", Fraction(q0)).q
    return Seq(0, tuple(q ** (-min(r, k)) for k in range(m + 1)), m)


# --- slices -------------------------------------------------------------------


def potts_slices(matroid: Matroid) -> dict[str, dict[str, bool]]:
    """Slice the symbolic Potts polynomial at every non-loop element and check the slice algebra.

    Z is built once.  For each non-loop element g, in ground order, both
    slices must equal the Potts polynomials of the deletion and contraction
    minors, and three more identities are checked, the closure split read
    off the matroid's `rank_table`:
      reconstruction   Z = Z^g + q^-1 y_g Z_g
      spanned_excluded Z^g - q^-1 Z_g  =  (1 - q^-1) * sum over S with g
                       outside the closure of S
      spanned_sum      (Z^g - Z_g) / (1 - q)  =  sum over S with g inside
                       the closure of S
    The identities are symbolic in q, and they are decided exactly at the
    one point q0 = 2^-8.  Write x = 1/q.  For each subset word, each side
    of each identity is a sum of at most two monomials +-x^k (spanned_sum
    is compared as (Z^g - Z_g) x = spanned (x - 1)), so the difference of
    the two sides is a Laurent polynomial R in x with integer coefficients
    of absolute value at most 4.  If R is nonzero, its lowest term c x^k
    has 0 < |c| < X, and R(X) = X^k (c + X * (an integer)) cannot vanish
    at x = X.  So R(X) = 0 exactly when R = 0, for any X = 2^B >= 5, and
    the fixed-q route reads the symbolic identities at X = 2^8 in exact
    rationals, with no polynomial arithmetic in q.  The sampled
    inequalities q Z^g < Z_g <= Z^g (equality exactly for coloops) are
    `slice_inequality_scan`'s job.
    """
    q0 = SYMBOLIC_Q
    mp = potts_poly(matroid)
    z = mp.poly
    ground = z.ground
    table = rank_table(matroid)
    q_inv = 1 / q0
    report: dict[str, dict[str, bool]] = {}
    for label in ground.labels:
        if matroid.is_loop(label):
            continue
        bit = ground.bit(label)
        sub = ground.without(label)
        pos = tuple(map(ground.index, sub.labels))
        del_poly = z.delete(label)
        con_poly = z.contract(label).scale(q0)
        identities = {
            "deleted_matches_minor": del_poly == potts_poly(matroid.delete(label)).poly,
            "contracted_matches_minor": con_poly == potts_poly(matroid.contract(label)).poly,
        }

        # reconstruction compares each coefficient of Z against Z^g + q^-1 y_g Z_g;
        # the weight of S in the closure split is Z's own coefficient q^-rank(S)
        recon = True
        spanned: dict[int, Fraction] = {}
        unspanned: dict[int, Fraction] = {}
        for w in sub.subsets():
            orig = expand(w, pos)
            c = z.terms[orig]
            if c != del_poly.coeff(w) or z.terms[orig | bit] != q_inv * con_poly.coeff(w):
                recon = False
            (spanned if table[orig | bit] == table[orig] else unspanned)[w] = c
        identities["reconstruction"] = recon

        lhs_b = del_poly - con_poly.scale(q_inv)
        rhs_b = SubsetPoly(sub, unspanned).scale(1 - q_inv)
        identities["spanned_excluded"] = lhs_b == rhs_b

        quot = _divide_one_minus_q(del_poly - con_poly, mp.model)
        identities["spanned_sum"] = quot == SubsetPoly(sub, spanned)
        report[label] = identities
    return report


@dataclass(frozen=True)
class SliceScan:
    """Sampled slice-inequality record for one element at shared random points."""

    label: str
    is_loop: bool
    is_coloop: bool
    points: int
    strict_lower_ok: bool
    weak_upper_ok: bool
    equality_count: int

    @property
    def consistent(self) -> bool:
        """q Z^g < Z_g <= Z^g at every point, equality exactly for coloops."""
        if self.is_loop:
            return True
        expected_eq = self.points if self.is_coloop else 0
        return self.strict_lower_ok and self.weak_upper_ok and self.equality_count == expected_eq


def slice_inequality_scan(
    matroid: Matroid, samples: int = 100, seed: int = 0xD1CE
) -> list[SliceScan]:
    """The sampled slice inequalities for every non-loop element at once.

    All sums are Python ints: with y_i = n_i / D over the lcm D of the
    point's denominators and q0 = a / b, the monomial y^w * D^m is the int
    prod(n_i) * D^(m - |w|), read for every word from `monomial_table`, and
    q0^-k * a^r is the int b^k * a^(r - k).  Each point costs one table
    base[w] = y^w * q0^-rank(w), scaled by a^r * D^m, and m halving folds
    of it: inc_i, the sum of base over the words that hold i, is the sum of
    the upper half once the bits above i are folded away.  That is about
    samples * 2^m * 4 int operations, whatever the number of elements.
    The deletion sum is total - inc_i, and the contraction sum needs no
    second rank lookup: with w' = w + i,
    q0^-(rank(w') - 1) * y^w = q0^-rank(w') * y^w' * (a D) / (b n_i), so
    con_i = inc_i * a D / (b n_i).  Cleared of these positive factors,
    q0 * del < con, con <= del and con == del are decided as
    n_i del < D inc_i, a D inc_i <= b n_i del and a D inc_i == b n_i del.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples}")
    ground = matroid.ground
    m = ground.m
    if m > 20:
        raise ValueError("scan enumerates 2^m terms; m capped at 20")
    labels = ground.labels
    r = matroid.r
    loop = [matroid.is_loop(lab) for lab in labels]
    coloop = [matroid.is_coloop(lab) for lab in labels]
    rank = _potts_ranks(matroid)
    rng = derive(seed, 29)

    strict_ok = [True] * m
    weak_ok = [True] * m
    eq_count = [0] * m
    for _ in range(samples):
        q0 = unit_fraction(rng)
        point = sample_point(rng, labels)
        num, den = clear_denominators(point[lab] for lab in labels)
        y = monomial_table(num, den)
        a, b = q0.numerator, q0.denominator
        qpow = [b**k * a ** (r - k) for k in range(r + 1)]
        # fold the top bit away each round: its upper half sums to inc_i
        folded = list(map(mul, y, map(qpow.__getitem__, rank)))
        inc = [0] * m
        for i in reversed(range(m)):
            half = 1 << i
            inc[i] = sum(folded[half:])
            folded = list(map(add, folded[:half], folded[half:]))
        total = folded[0]
        for i in range(m):
            if loop[i]:
                continue
            # del and con / q0, both times n_i at one positive scale
            n_del = (total - inc[i]) * num[i]
            d_inc = den * inc[i]
            if not n_del < d_inc:
                strict_ok[i] = False
            if not a * d_inc <= b * n_del:
                weak_ok[i] = False
            if a * d_inc == b * n_del:
                eq_count[i] += 1
    return [
        SliceScan(
            label=labels[i],
            is_loop=loop[i],
            is_coloop=coloop[i],
            points=samples,
            strict_lower_ok=strict_ok[i],
            weak_upper_ok=weak_ok[i],
            equality_count=eq_count[i],
        )
        for i in range(m)
    ]


# --- two-sum composition --------------------------------------------------------


def glue_weights(mp: ModelPoly, glue: str) -> tuple[SubsetPoly, SubsetPoly]:
    """The (alpha, beta) that a two-sum along `glue` puts on the other part's slices.

    With d = Z^g (the y_g = 0 slice) and c = Z_g (the plain y_g
    coefficient) of this part, the two-sum with a part L is
    N = L^g alpha + L_g beta, where (alpha, beta) is

      bases        (c, d)
      independent  (c, d - c)
      spanning     (c - d, d)
      potts        (q (c - d) / (1 - q), q (d - q c) / (1 - q))

    On a matroid's polynomial alpha = 0 exactly when g is a loop, and
    beta = 0 exactly when g is a coloop.
    """
    d, c = mp.poly.delete(glue), mp.poly.contract(glue)
    model = mp.model
    if model.kind == "bases":
        return c, d
    if model.kind == "independent":
        return c, d - c
    if model.kind == "spanning":
        return c - d, d
    q = model.q
    alpha = _divide_one_minus_q((c - d).scale(q), model)
    return alpha, _divide_one_minus_q((d - c.scale(q)).scale(q), model)


def twosum_compose(left: ModelPoly, right: ModelPoly, glue: str) -> ModelPoly:
    """Partition function of a two-sum: N = L^g alpha + L_g beta.

    L^g and L_g are the left part's slices at the glue element, and
    (alpha, beta) are the right part's `glue_weights`.  The model is the
    parts' own, and they must agree.  A part whose alpha or beta vanishes
    is refused: on a matroid that is a glue loop or coloop.  q = 1 is
    refused first.  For Potts, N must also equal the factored form
    L^g R^g - (1/(1-q)) (L^g - q L_g)(R^g - q R_g), built from the raw
    slices.

    Symbolic q is composed at the one point q = 2^-8, which decides the
    symbolic identities for matroid parts.  Write x = 1/q.  A matroid
    part's coefficients are monomials x^rank, so alpha and beta are 0 or
    one monomial per word, and each coefficient of N, of L^g R^g and of
    gaps = (L^g - q L_g)(R^g - q R_g) is a sum of at most 4 monomials
    +-x^k.  So (x - 1)(N - L^g R^g) + x gaps, which is (x - 1) times the
    difference of the two forms, is a Laurent polynomial R in x with
    integer coefficients of absolute value at most 10; so is (x - 1) times
    N minus the direct two-sum's Potts function, which the
    `twosum-model-agreement` corpus item compares.  If R is nonzero, its
    lowest term c x^k has 0 < |c| < X, and R(X) = X^k (c + X * (an
    integer)) cannot vanish at x = X = 2^8.  So the exact values there are
    equal exactly when the symbolic polynomials are.  A weight-file part
    has no q, and nothing symbolic is decided for it.
    """
    model = left.model
    if right.model != model:
        raise ValueError("model tags of the two parts must agree")
    lset, rset = set(left.ground.labels), set(right.ground.labels)
    if lset & rset != {glue}:
        raise ValueError("parts must share exactly the glue element")
    if model.kind == "potts" and model.q0 == 1:
        raise ValueError("two-sum composition is undefined at q = 1")
    for side, mp in (("left", left), ("right", right)):
        alpha, beta = glue_weights(mp, glue)
        if alpha.is_zero():
            raise ValueError(f"glue element is a loop on the {side} side")
        if beta.is_zero():
            raise ValueError(f"glue element is a coloop on the {side} side")

    # the loop leaves the right part's (alpha, beta)
    ld, lc = left.poly.delete(glue), left.poly.contract(glue)
    out = multiply_disjoint(ld, alpha) + multiply_disjoint(lc, beta)
    if model.kind == "potts":
        q = model.q
        rd, rc = right.poly.delete(glue), right.poly.contract(glue)
        gaps = multiply_disjoint(ld - lc.scale(q), rd - rc.scale(q))
        if multiply_disjoint(ld, rd) - _divide_one_minus_q(gaps, model) != out:
            raise ArithmeticError("the two Potts two-sum forms disagree")
    return ModelPoly(out, model)


def _divide_one_minus_q(poly: SubsetPoly, model: Model) -> SubsetPoly:
    if model.q == 1:
        raise ValueError("cannot divide by (1 - q): it vanishes at q = 1")
    return poly.scale(1 / (1 - model.q))


# --- q -> 0 scaling limits -------------------------------------------------------


def scaling_limit_support(matroid: Matroid, alpha: Fraction) -> frozenset[int]:
    """Subsets whose Potts weight dominates under y -> q^alpha y, Z -> q^((1-alpha) r) Z.

    The exponent of q on the term of S is (1-alpha)(r - rank S) + alpha(|S| - rank S);
    the q -> 0 limit keeps exactly the exponent-zero terms.  alpha = 0, 1/2, 1
    recover the spanning-set, basis and independent-set indicators.  The
    ranks come from the `rank_table`, which refuses more than ENUM_LIMIT
    elements.
    """
    alpha = Fraction(alpha)
    if not (0 <= alpha <= 1):
        raise ValueError("alpha must lie in [0, 1]")
    r = matroid.r
    best: Fraction | None = None
    arg: list[int] = []
    for w, rk in enumerate(rank_table(matroid)):
        expo = (1 - alpha) * (r - rk) + alpha * (popcount(w) - rk)
        if best is None or expo < best:
            best = expo
            arg = [w]
        elif expo == best:
            arg.append(w)
    return frozenset(arg)
