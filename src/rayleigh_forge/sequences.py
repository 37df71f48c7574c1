"""Exact coefficient sequences: the log-concavity ladder and exchangeable weights.

A `Seq` is a finite nonnegative rational sequence a_s .. a_r.  With its
ambient size m set it is also an exchangeable weight function, the
polynomial sum(a_k e_k(y), k = 0..m) in m variables: `symmetrize` averages a
weight function over subset sizes into one, and `symseq_to_poly` expands one
into an explicit multiaffine polynomial.

The ladder conditions, weakest useful first:

  a0  no internal zeros (support is an interval)
  a1  unimodal, plateaus allowed
  a2  a_k^2 >= a_{k-1} a_{k+1} on the interior
  a3  log-concave after weighting by k!
  a4  log-concave after dividing by C(m,k)   (needs the ambient size m)
  a5  log-concave after dividing by C(r,k)
  a6  sum a_k t^k has only real, nonpositive roots

a6 implies a5 and a0; a5 => a4 => a3 => a2; a2 plus a0 give a1.  All checks
are exact over the rationals; a6 counts roots with one fraction-free integer
Sturm chain rather than numeric root finding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, gcd
from typing import Iterable, Sequence

from .matroids import InvariantSequences, Matroid, comb_frac, invariant_sequences
from .polynomials import SubsetPoly, canonical_ground
from .scalars import as_fraction, clear_denominators
from .words import popcount

CONDITIONS = ("a0", "a1", "a2", "a3", "a4", "a5", "a6")


@dataclass(frozen=True)
class Seq:
    """Nonnegative rational entries a_s .. a_r, with an optional ambient size m.

    With m set, the sequence is also the exchangeable weight function
    sum(a_k e_k(y), k = 0..m), zero outside s..r.
    """

    offset: int
    entries: tuple[Fraction, ...]
    m: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(as_fraction, self.entries)))
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        if not self.entries:
            raise ValueError("empty sequence")
        if any(x < 0 for x in self.entries):
            raise ValueError("entries must be nonnegative")
        if self.m is not None and self.r > self.m:
            raise ValueError("top index exceeds the ambient size m")

    @property
    def s(self) -> int:
        return self.offset

    @property
    def r(self) -> int:
        return self.offset + len(self.entries) - 1

    def at(self, k: int) -> Fraction:
        """a_k with zero-padding outside [s, r]."""
        i = k - self.offset
        if 0 <= i < len(self.entries):
            return self.entries[i]
        return Fraction(0)


def seq_from_values(values: Iterable, m: int | None = None, offset: int = 0) -> Seq:
    return Seq(offset, tuple(values), m)


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    holds: bool
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.holds


def _log_concavity(seq: Seq, cond: str, weight) -> ConditionVerdict:
    # weighted entries b_k = weight(k) * a_k; check b_k^2 >= b_{k-1} b_{k+1}
    vals = [weight(seq.offset + i) * a for i, a in enumerate(seq.entries)]
    for i in range(1, len(vals) - 1):
        if vals[i] * vals[i] < vals[i - 1] * vals[i + 1]:
            return ConditionVerdict(cond, False, seq.offset + i)
    return ConditionVerdict(cond, True)


def check_condition(seq: Seq, cond: str) -> ConditionVerdict:
    """Exact verdict for one ladder condition, with a failing index when there is one."""
    entries = seq.entries
    n = len(entries)
    if cond == "a0":
        nz = [i for i, a in enumerate(entries) if a]
        if nz:
            for i in range(nz[0], nz[-1] + 1):
                if not entries[i]:
                    return ConditionVerdict(cond, False, seq.offset + i)
        return ConditionVerdict(cond, True)
    if cond == "a1":
        descended = False
        for i in range(1, n):
            if entries[i] < entries[i - 1]:
                descended = True
            elif entries[i] > entries[i - 1] and descended:
                return ConditionVerdict(cond, False, seq.offset + i)
        return ConditionVerdict(cond, True)
    if cond == "a2":
        return _log_concavity(seq, cond, lambda k: Fraction(1))
    if cond == "a3":
        return _log_concavity(seq, cond, lambda k: Fraction(factorial(k)))
    if cond == "a4":
        if seq.m is None:
            raise ValueError("condition a4 needs the ambient size m")
        m = seq.m
        return _log_concavity(seq, cond, lambda k: 1 / comb_frac(m, k))
    if cond == "a5":
        r = seq.r
        return _log_concavity(seq, cond, lambda k: 1 / comb_frac(r, k))
    if cond == "a6":
        return ConditionVerdict(cond, _real_rooted(seq))
    raise ValueError(f"unknown condition {cond!r}")


# --- exchangeable weights ------------------------------------------------------------


def symmetrize(z: SubsetPoly) -> Seq:
    """Averaged size-k weights a_k = f_k / C(m, k) of the symmetrized polynomial, as Seq(0, a, m)."""
    m = z.ground.m
    sums = [Fraction(0)] * (m + 1)
    for w, c in z.terms.items():
        sums[popcount(w)] += c
    return Seq(0, tuple(sums[k] / comb_frac(m, k) for k in range(m + 1)), m)


def symseq_to_poly(seq: Seq) -> SubsetPoly:
    """Expand sum(a_k e_k) over the m variables of `seq` into an explicit
    multiaffine polynomial on `canonical_ground(m)`."""
    if seq.m is None:
        raise ValueError("an exchangeable expansion needs the ambient size m")
    ground = canonical_ground(seq.m)
    terms = {}
    for w in ground.subsets():
        c = seq.at(popcount(w))
        if c:
            terms[w] = c
    return SubsetPoly(ground, terms)


# --- a6: one fraction-free Sturm chain ------------------------------------------------


def _primitive(coeffs: list[int]) -> list[int]:
    g = gcd(*coeffs)
    return [c // g for c in coeffs]


def _negated_prem(a: list[int], b: list[int]) -> list[int]:
    """-|lc(b)|^(deg a - deg b + 1) * (a mod b), divided by its positive content.

    Coefficients run low degree first.  Only positive scalars touch the Euclidean
    remainder, so the chain keeps the sign pattern of the classical Sturm chain
    (Collins, JACM 1967; Brown and Traub, JACM 1971).
    """
    lc = abs(b[-1])
    if b[-1] < 0:
        b = [-c for c in b]
    db = len(b) - 1
    r = list(a)
    for i in range(len(a) - 1 - db, -1, -1):
        top = r.pop()
        r = [lc * c for c in r]
        if top:
            for j in range(db):
                r[i + j] -= top * b[j]
    while r and not r[-1]:
        r.pop()
    return [-c for c in _primitive(r)] if r else r


def sturm_chain(seq: Seq) -> list[list[int]]:
    """Fraction-free Sturm chain of sum a_k t^k, low degree first; [] below degree 1.

    The entries are cleared by the lcm of their denominators and stripped of
    the factor t^offset, whose roots are real.  The chain is the primitive parts
    of p and p', then negated pseudo-remainders until one vanishes.  Element by
    element it is a positive multiple of the classical chain p, p', -rem, ...,
    and its last element is gcd(p, p') up to a scalar.
    """
    p, _ = clear_denominators(seq.entries)
    while p and not p[-1]:
        p.pop()
    low = 0
    while low < len(p) and not p[low]:
        low += 1
    p = p[low:]
    if len(p) < 2:
        return []
    chain = [_primitive(p), _primitive([i * c for i, c in enumerate(p) if i])]
    while len(chain[-1]) > 1:
        rem = _negated_prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return chain


def _real_rooted(seq: Seq) -> bool:
    """Whether sum a_k t^k has only real roots, counted with multiplicity.

    By Sturm's theorem V(-inf) - V(+inf) on `sturm_chain` counts the distinct
    real roots of p, and p has deg p - deg(last) distinct roots in all, so p is
    real-rooted exactly when the two agree.  `Seq` refuses negative entries, so
    p(t) > 0 for t > 0 and no root is positive: real-rooted already means real
    and nonpositive.
    """
    chain = sturm_chain(seq)
    if not chain:
        return True
    at_plus = [c[-1] > 0 for c in chain]
    # at -inf an odd degree (an even coefficient count) flips the leading sign
    at_minus = [(c[-1] > 0) != (len(c) % 2 == 0) for c in chain]
    v_minus = sum(x != y for x, y in zip(at_minus, at_minus[1:]))
    v_plus = sum(x != y for x, y in zip(at_plus, at_plus[1:]))
    return v_minus - v_plus == len(chain[0]) - len(chain[-1])


# --- convolution -------------------------------------------------------------------


@dataclass(frozen=True)
class ConvolutionRecord:
    n: int
    lhs: Fraction
    rhs: Fraction
    equal: bool


def _c_term(a: list[int], b: list[int], n: int) -> int:
    """c_n = sum_k a_{n+k} b_k over int lists indexed from 0, zero outside them."""
    return sum(a[n + k] * b[k] for k in range(max(0, -n), min(len(b), len(a) - n)))


def convolution_identity(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> ConvolutionRecord:
    """c_n := sum_k a_{n+k} b_k over rational lists indexed from 0, of any signs.
    Both sides of the exact square-difference expansion

        c_n^2 - c_{n-1} c_{n+1}
          = sum_{0<=j<=k} (a_{n+j}a_{n+k} - a_{n+j-1}a_{n+k+1})(b_j b_k - b_{j-1}b_{k+1})

    computed independently; equal must come back True on every input.  Each
    list is cleared of denominators once (a = A / La, b = B / Lb), and both
    sides, of degree 2 in a and in b, are compared as ints scaled by
    (La Lb)^2; lhs and rhs are divided back once."""
    (ia, la), (ib, lb) = clear_denominators(a), clear_denominators(b)

    def a_at(k: int) -> int:
        return ia[k] if 0 <= k < len(ia) else 0

    def b_at(k: int) -> int:
        return ib[k] if 0 <= k < len(ib) else 0

    c_prev, c_mid, c_next = (_c_term(ia, ib, n + d) for d in (-1, 0, 1))
    lhs = c_mid * c_mid - c_prev * c_next
    rhs = 0
    for k in range(len(ib) + 1):
        for j in range(k + 1):
            left = a_at(n + j) * a_at(n + k) - a_at(n + j - 1) * a_at(n + k + 1)
            right = b_at(j) * b_at(k) - b_at(j - 1) * b_at(k + 1)
            rhs += left * right
    scale = (la * lb) ** 2
    return ConvolutionRecord(n, Fraction(lhs, scale), Fraction(rhs, scale), lhs == rhs)


def convolve(a: Seq, b: Seq) -> Seq:
    """The sequence c_n = sum_k a_{n+k} b_k over its full window, re-anchored at 0.

    If a and b are both log-concave with no internal zeros, c is too.
    """
    (ia, la), (ib, lb) = (clear_denominators(x.at(k) for k in range(x.r + 1)) for x in (a, b))
    entries = [Fraction(_c_term(ia, ib, n), la * lb) for n in range(a.s - b.r, a.r - b.s + 1)]
    return Seq(0, tuple(entries), m=len(entries) - 1)


# --- matroid counting-sequence report -----------------------------------------------


@dataclass(frozen=True)
class MasonReport:
    """The ladder on I_k (rungs renamed i0..i5) and the h-vector tests, beside the
    counting sequences `inv` they were read from."""

    inv: InvariantSequences
    conditions: dict[str, ConditionVerdict]
    h_log_concave: bool
    h_lym_nonincreasing: bool

    @property
    def conjectured_ok(self) -> bool:
        """The conjectured conditions: ladder through a4 on I_k plus h log-concavity.

        a5 on I_k is reported but not gated; it already fails for small graphic
        matroids and nobody claims it.  h_lym_nonincreasing is likewise reported
        only: with h anchored so that h_0 = 1, the ratio h_k/C(m,k) rises again
        at the top for U(m,3) whenever m >= 5, so it cannot gate.
        """
        ladder = all(self.conditions[f"i{j}"].holds for j in range(5))
        return ladder and self.h_log_concave


def mason_report(matroid: Matroid) -> MasonReport:
    inv = invariant_sequences(matroid)
    iseq = Seq(0, inv.I, m=inv.m)
    conditions = {f"i{j}": replace(check_condition(iseq, f"a{j}"), condition=f"i{j}") for j in range(6)}
    h_ok = all(x >= 0 for x in inv.h)
    if h_ok:
        hseq = Seq(0, inv.h, m=inv.m)
        h_log = check_condition(hseq, "a0").holds and check_condition(hseq, "a2").holds
    else:
        h_log = False
    h_lym = all(
        inv.h[k] / comb_frac(inv.m, k) >= inv.h[k + 1] / comb_frac(inv.m, k + 1)
        for k in range(inv.r)
    )
    return MasonReport(inv=inv, conditions=conditions, h_log_concave=h_log, h_lym_nonincreasing=h_lym)
