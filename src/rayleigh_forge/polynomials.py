"""Multiaffine partition functions and their degree-two difference polynomials.

A ground set of at most 30 labeled elements is fixed per polynomial; subsets
are machine words with bit i standing for the i-th label.  `SubsetPoly` is a
sparse multiaffine polynomial (one term per subset); `QuadPoly` allows each
variable to reach degree two and keys its terms by the pair
(support word, squared word) with squared <= support bitwise.  Both keep
their terms in one dict and share its arithmetic, evaluation, printing and
disjoint product; only the key shape differs.  Coefficients are exact
`Fraction`s: an int is converted on construction, and any other type is a
TypeError there, so no later step tests the type.

Pair products (`multiply`, `rayleigh_diff`, `theta`) run on Python ints:
each factor is scaled by the lcm L of its denominators, and each summed
coefficient is divided back once at the end.  Scaling Z by L scales every
pair difference by L^2, so the integer sums already carry the signs that
the sign queries read, and the divided result is the exact rational
difference.  `pair_value` evaluates the same signed integer slices at a
dyadic point without building the product: with y_i = n_i / 2^s it sums
ints equal to L^2 2^(2sk) times the value.

The central construction is the Rayleigh difference

    rayleigh_diff(Z, e, f) = Z_e^f * Z_f^e - Z_ef * Z^ef

where subscripts are y-derivative slices and superscripts are y=0 slices.
Nonnegativity of this polynomial on the positive orthant is exactly the
negative-correlation inequality for the pair {e, f}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .scalars import as_fraction, clear_denominators, format_rat
from .words import bit_positions, compress, popcount, term_value

MAX_GROUND = 30


class GroundSet:
    """Ordered tuple of distinct element labels; subsets are bit words."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(str(x) for x in labels)
        if len(labels) > MAX_GROUND:
            raise ValueError(f"ground set larger than {MAX_GROUND} elements")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate element labels")
        if any(not lab for lab in labels):
            raise ValueError("empty element label")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def m(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> int:
        return (1 << len(self.labels)) - 1

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown element {label!r}") from None

    def bit(self, label: str) -> int:
        return 1 << self.index(label)

    def word(self, labels: Iterable[str]) -> int:
        w = 0
        for lab in labels:
            b = self.bit(lab)
            if w & b:
                raise ValueError(f"repeated element {lab!r} in subset")
            w |= b
        return w

    def coordinates(self, point: Mapping[str, object]) -> list:
        """The point's value for each label, in order; ValueError names a missing label."""
        try:
            return [point[lab] for lab in self.labels]
        except KeyError as exc:
            raise ValueError(f"point has no coordinate for {exc.args[0]!r}") from None

    def labels_of(self, word: int) -> tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.labels) if word >> i & 1)

    def subsets(self) -> range:
        return range(1 << len(self.labels))

    def without(self, *labels: str) -> "GroundSet":
        drop = {self.index(lab) for lab in labels}
        return GroundSet(lab for i, lab in enumerate(self.labels) if i not in drop)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"GroundSet({list(self.labels)!r})"


def canonical_ground(m: int) -> GroundSet:
    """Labels "1".."m"."""
    return GroundSet(str(i) for i in range(1, m + 1))


class _TermPoly:
    """Sparse coefficient dict on a ground set, zeros dropped.

    The subclass fixes the key shape: `_key(support, squared)` builds a key,
    `monomials()` yields (support, squared, coeff) for every term and
    `_max_power` is the highest exponent a variable may carry, so the
    arithmetic, evaluation, printing and disjoint products here are shared.
    """

    __slots__ = ("ground", "terms")

    def __init__(self, ground: GroundSet, terms: Mapping):
        if self._bad_keys(terms, ground.full):
            raise ValueError(self._bad_key_message)
        self.ground = ground
        self.terms = {k: c if isinstance(c, Fraction) else as_fraction(c) for k, c in terms.items() if c}

    @classmethod
    def zero(cls, ground: GroundSet):
        return cls(ground, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.ground == other.ground and self.terms == other.terms

    __hash__ = None  # mutable dict inside; structural equality only

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.ground != other.ground:
            raise ValueError("ground sets differ")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(self.ground, out)

    def __neg__(self):
        return type(self)(self.ground, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def scale(self, c):
        return type(self)(self.ground, {k: c * x for k, x in self.terms.items()})

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a point of ints and Fractions; any other coordinate type is a TypeError.

        Summed on Python ints: the point is cleared once to ints n_i over D
        and the coefficients to ints c L over L.  A term of degree d adds
        term_value(c L, n, ...) * D^(top - d), with top the largest degree
        of the kind (m for a SubsetPoly, 2m for a QuadPoly), and the sum is
        divided once by L D^top.  The CLI evaluates pair differences with
        `pair_value` instead, and the tests keep the term-by-term `Fraction`
        sum as the slow reference route.
        """
        nums, den = clear_denominators(map(as_fraction, self.ground.coordinates(point)))
        coeffs, scale = clear_denominators(self.terms.values())
        top = self._max_power * self.ground.m
        powers = [den**k for k in range(top + 1)]
        total = 0
        for (sup, sq, _), c in zip(self.monomials(), coeffs):
            total += term_value(c, nums, sup, sq) * powers[top - sup.bit_count() - sq.bit_count()]
        return Fraction(total, scale * powers[top])

    def __repr__(self):
        return f"{type(self).__name__}({poly_text(self)})"


class SubsetPoly(_TermPoly):
    """Sparse multiaffine polynomial: word -> coefficient, zeros dropped."""

    __slots__ = ()
    _bad_key_message = "subset word outside the ground set"
    _max_power = 1

    @staticmethod
    def _bad_keys(terms: Mapping[int, object], full: int) -> bool:
        return any(w & ~full for w in terms)

    @staticmethod
    def _key(sup: int, sq: int) -> int:
        return sup

    def monomials(self):
        return zip(self.terms, repeat(0), self.terms.values())

    def coeff(self, word: int):
        return self.terms.get(word, Fraction(0))

    # slices ----------------------------------------------------------------

    def delete(self, label: str) -> "SubsetPoly":
        """Set y_label = 0 and drop the variable from the ground set."""
        return self._slice_out(label, keep=0, zero=self.ground.bit(label))

    def contract(self, label: str) -> "SubsetPoly":
        """d/dy_label, dropping the variable from the ground set."""
        return self._slice_out(label, keep=self.ground.bit(label), zero=0)

    def _slice_out(self, label: str, keep: int, zero: int) -> "SubsetPoly":
        sub, s = _slicer(self.terms, self.ground, label)
        return SubsetPoly(sub, s(keep, zero))

    # transforms --------------------------------------------------------------

    def dualize(self) -> "SubsetPoly":
        """Swap the coefficient of y^S with the coefficient of y^(E \\ S)."""
        full = self.ground.full
        return SubsetPoly(self.ground, {full ^ w: c for w, c in self.terms.items()})


def poly_text(poly: _TermPoly, coeff_text: Callable[[Fraction], str] = format_rat) -> str:
    """Terms by degree, then by word; a square prints as y[a]^2, a constant as its `coeff_text`."""
    labels = poly.ground.labels
    parts = []
    for sup, sq, c in sorted(poly.monomials(), key=lambda t: (popcount(t[0]) + popcount(t[1]), t[0], t[1])):
        mono = "*".join(f"y[{labels[i]}]^2" if sq >> i & 1 else f"y[{labels[i]}]" for i in bit_positions(sup))
        cs = coeff_text(c)
        parts.append(cs if not mono else mono if cs == "1" else f"{cs}*{mono}")
    return " + ".join(parts) or "0"


def from_weights(ground: GroundSet, weights: Mapping[int, Fraction]) -> SubsetPoly:
    """Partition function of a nonnegative weight function with some support."""
    poly = SubsetPoly(ground, weights)
    for w, c in poly.terms.items():
        if c < 0:
            raise ValueError(f"negative weight on subset {ground.labels_of(w)}")
    if poly.is_zero():
        raise ValueError("weight function has empty support")
    return poly


class QuadPoly(_TermPoly):
    """Polynomial of per-variable degree at most two.

    Term keys are (support, squared): variables in `squared` carry exponent
    two, the rest of `support` exponent one.  squared is always a subset of
    support.
    """

    __slots__ = ()
    _bad_key_message = "malformed quadratic term key"
    _max_power = 2

    @staticmethod
    def _bad_keys(terms: Mapping[tuple[int, int], object], full: int) -> bool:
        return any(sup & ~full or sq & ~sup for sup, sq in terms)

    @staticmethod
    def _key(sup: int, sq: int) -> tuple[int, int]:
        return sup, sq

    def monomials(self):
        for (sup, sq), c in self.terms.items():
            yield sup, sq, c

    def coeff(self, sup: int, sq: int):
        return self.terms.get((sup, sq), Fraction(0))

    def split_at(self, label: str) -> tuple["QuadPoly", "QuadPoly", "QuadPoly"]:
        """(P0, P1, P2) on the ground set without label, with P = P0 + y P1 + y^2 P2 at y = y_label."""
        bit = self.ground.bit(label)
        sub = self.ground.without(label)
        pos = tuple(map(self.ground.index, sub.labels))
        parts: tuple[dict, dict, dict] = ({}, {}, {})
        for (sup, sq), c in self.terms.items():
            parts[bool(sup & bit) + bool(sq & bit)][compress(sup, pos), compress(sq, pos)] = c
        return tuple(QuadPoly(sub, part) for part in parts)

    def min_coefficient(self) -> Fraction:
        return min(self.terms.values(), default=Fraction(0))

    def is_coefficientwise_nonnegative(self) -> bool:
        return self.min_coefficient() >= 0

    def collapse_equal_variables(self) -> list[Fraction]:
        """Coefficient list of P(t,...,t) in t; exact."""
        degree = 0
        for sup, sq in self.terms:
            degree = max(degree, popcount(sup) + popcount(sq))
        out = [Fraction(0)] * (degree + 1)
        for (sup, sq), c in self.terms.items():
            out[popcount(sup) + popcount(sq)] += c
        return out


def multiply(p: SubsetPoly, q: SubsetPoly) -> QuadPoly:
    """Product of two multiaffine polynomials on one ground set."""
    if p.ground != q.ground:
        raise ValueError("ground sets differ")
    a, da = _scaled(p.terms)
    b, db = _scaled(q.terms)
    return pair_products(p.ground, da * db, (1, a, b))


def _scaled(terms: Mapping[int, object]) -> tuple[dict[int, int], int]:
    """Integer numerators c * L of rational terms, with L the lcm of their denominators."""
    ints, den = clear_denominators(terms.values())
    return dict(zip(terms, ints)), den


def pair_products(ground: GroundSet, den: int, *pairs: tuple[int, dict, dict]) -> QuadPoly:
    """sum(sign * A * B) / den over signed pairs of integer word-keyed slices.

    The one pair-product kernel: Python ints accumulate under the keys
    (w1 | w2, w1 & w2), and only the surviving sums become Fractions.
    """
    acc: dict[tuple[int, int], int] = {}
    get = acc.get
    for sign, a, b in pairs:
        b_items = tuple(b.items())
        for w1, c1 in a.items():
            c1 *= sign
            for w2, c2 in b_items:
                key = (w1 | w2, w1 & w2)
                acc[key] = get(key, 0) + c1 * c2
    return QuadPoly(ground, {k: Fraction(n, den) for k, n in acc.items() if n})


def pair_value(vals: Sequence[Fraction], shift: int, den: int, *pairs: tuple[int, dict, dict]) -> tuple[int, int]:
    """sum(sign * A(y) * B(y)) / den at y_i = vals[i], exactly, as ints (num, scale).

    The point evaluator beside `pair_products`, on the same signed pairs of
    integer slices over k = len(vals) variables.  Each y_i must be
    n_i / 2^shift for an int n_i, else ValueError.  A monomial y^w counts as
    prod(n_i for i in w) * 2^(shift * (k - |w|)), so the value is num / scale
    with scale = den * 2^(2 * shift * k) > 0, and num carries its sign.
    """
    one = 1 << shift
    nums = []
    for v in vals:
        if one % v.denominator:
            raise ValueError(f"coordinate {format_rat(v)} is not a multiple of 2^-{shift}")
        nums.append(v.numerator * (one // v.denominator))
    k = len(nums)
    num = 0
    for sign, a, b in pairs:
        prod = sign
        for slice_ in (a, b):
            value = 0
            for w, c in slice_.items():
                value += term_value(c, nums, w) << shift * (k - popcount(w))
            prod *= value
        num += prod
    return num, den << 2 * shift * k


def multiply_disjoint(p: _TermPoly, q: _TermPoly) -> _TermPoly:
    """Product of two polynomials of one kind on disjoint ground sets."""
    if type(p) is not type(q):
        raise TypeError("disjoint products need two polynomials of one kind")
    if set(p.ground.labels) & set(q.ground.labels):
        raise ValueError("ground sets overlap")
    shift = p.ground.m
    key = p._key
    right = [(s2 << shift, q2 << shift, c2) for s2, q2, c2 in q.monomials()]
    out: dict = {}
    for s1, q1, c1 in p.monomials():
        for s2, q2, c2 in right:
            k = key(s1 | s2, q1 | q2)
            c = c1 * c2
            out[k] = out[k] + c if k in out else c
    return type(p)(GroundSet(p.ground.labels + q.ground.labels), out)


def rayleigh_diff(z: SubsetPoly, e: str, f: str) -> QuadPoly:
    """The pair difference Z_e^f Z_f^e - Z_ef Z^ef on the ground set minus {e, f}.

    Nonnegative on the positive orthant iff the pair {e, f} is negatively
    correlated for every positive external field.
    """
    sub, den, pairs = rayleigh_pairs(z, e, f)
    return pair_products(sub, den, *pairs)


def rayleigh_pairs(z: SubsetPoly, e: str, f: str) -> tuple[GroundSet, int, tuple]:
    """The ground set minus {e, f}, L^2 and the two signed pairs of rayleigh_diff.

    The slices are Z scaled by the lcm L of its denominators, so
    sum(sign * A * B) is L^2 times the pair difference.  `pair_products`
    multiplies them out; `pair_value` evaluates them at a point.
    """
    if e == f:
        raise ValueError("the two elements must be distinct")
    be, bf = z.ground.bit(e), z.ground.bit(f)
    n, den = _scaled(z.terms)
    sub, s = _slicer(n, z.ground, e, f)
    return sub, den * den, _diff_pairs(s, be, bf)


def _diff_pairs(s, be: int, bf: int, keep: int = 0, zero: int = 0) -> tuple:
    """The signed slice pairs of the pair difference of the slice s(keep, zero)."""
    return (
        (1, s(be | keep, bf | zero), s(bf | keep, be | zero)),
        (-1, s(be | bf | keep, zero), s(keep, be | bf | zero)),
    )


def _slice_bits(terms: Mapping[int, object], keep: int, zero: int) -> dict[int, object]:
    """Take d/dy on `keep` bits and set `zero` bits to zero, staying word-keyed."""
    mask = keep | zero
    return {w ^ keep: c for w, c in terms.items() if w & mask == keep}


def _slicer(terms: Mapping[int, object], ground: GroundSet, *labels: str):
    """The ground set without `labels`, and s(keep, zero): _slice_bits re-keyed onto it."""
    sub = ground.without(*labels)
    pos = tuple(map(ground.index, sub.labels))

    def s(keep: int, zero: int) -> dict:
        return {compress(w, pos): c for w, c in _slice_bits(terms, keep, zero).items()}

    return sub, s


def theta(z: SubsetPoly, e: str, f: str, g: str) -> QuadPoly:
    """Linear-in-y_g part of rayleigh_diff(z, e, f):

        Z_e^{fg} Z_{fg}^e + Z_f^{eg} Z_{eg}^f - Z_g^{ef} Z_{ef}^g - Z_{efg} Z^{efg}

    so that  diff = diff^g + y_g * theta + y_g^2 * diff_g  holds exactly.
    """
    sub, den, pairs, _, _ = triple_pairs(z, e, f, g)
    return pair_products(sub, den, *pairs)


def triple_pairs(z: SubsetPoly, e: str, f: str, g: str) -> tuple[GroundSet, int, tuple, tuple, tuple]:
    """theta's four signed pairs and those of rayleigh_diff of Z^g and of Z_g.

    All three come from one scaling of Z by its lcm L and live on the ground
    set minus {e, f, g}, so each sum(sign * A * B) is L^2 times its value:
    (ground, L^2, theta pairs, deleted pairs, contracted pairs).
    """
    if len({e, f, g}) != 3:
        raise ValueError("need three distinct elements")
    gr = z.ground
    be, bf, bg = gr.bit(e), gr.bit(f), gr.bit(g)
    n, den = _scaled(z.terms)
    sub, s = _slicer(n, gr, e, f, g)
    theta_pairs = (
        (1, s(be, bf | bg), s(bf | bg, be)),
        (1, s(bf, be | bg), s(be | bg, bf)),
        (-1, s(bg, be | bf), s(be | bf, bg)),
        (-1, s(be | bf | bg, 0), s(0, be | bf | bg)),
    )
    return sub, den * den, theta_pairs, _diff_pairs(s, be, bf, zero=bg), _diff_pairs(s, be, bf, keep=bg)


# --- symmetric functions ------------------------------------------------------


def elementary_values(values: list[Fraction]) -> list[Fraction]:
    """e_0..e_n evaluated at the given coordinates."""
    es = [Fraction(1)]
    for v in values:
        nxt = [Fraction(1)]
        for k in range(1, len(es) + 1):
            prev = es[k] if k < len(es) else Fraction(0)
            nxt.append(prev + v * es[k - 1])
        es = nxt
    return es


def _swap_bits(word: int, i: int, j: int) -> int:
    bi, bj = word >> i & 1, word >> j & 1
    if bi == bj:
        return word
    return word ^ (1 << i) ^ (1 << j)


def monomial_symmetric_expand(p: QuadPoly) -> dict[tuple[int, int], Fraction]:
    """Coefficients of a symmetric QuadPoly over monomial symmetric polynomials.

    Returns {(j, k): c} meaning c times the monomial symmetric polynomial whose
    monomials have j squared variables and k - j linear ones.  The input must
    be symmetric under all variable transpositions; adjacent transpositions
    are checked (they generate the full symmetric group).
    """
    m = p.ground.m
    for i in range(m - 1):
        swapped = {
            (_swap_bits(sup, i, i + 1), _swap_bits(sq, i, i + 1)): c
            for (sup, sq), c in p.terms.items()
        }
        if swapped != p.terms:
            raise ValueError("polynomial is not symmetric in its variables")
    out: dict[tuple[int, int], Fraction] = {}
    for k in range(m + 1):
        sup = (1 << k) - 1
        for j in range(k + 1):
            c = p.terms.get((sup, (1 << j) - 1))
            if c:
                out[(j, k)] = c
    return out


# --- determinantal weights ---------------------------------------------------


def det_exact(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-free Bareiss elimination on the cleared ints.

    The entries are scaled to ints by the lcm L of their denominators.  Each
    Bareiss step divides exactly by the previous pivot, a row swap on a zero
    pivot flips the sign, and the integer determinant is divided by L^n once.
    """
    n = len(matrix)
    a, den = _cleared_rows(matrix)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        top, pivot = a[k], a[k][k]
        for row in a[k + 1 :]:
            head = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - head * top[j]) // prev
        prev = pivot
    return Fraction(sign * a[-1][-1] if n else 1, den**n)


def charpoly_exact(matrix: list[list[Fraction]]) -> tuple[Fraction, ...]:
    """Coefficients of det(tI + A), low degree first, by Faddeev-LeVerrier on ints.

    With B = L A the cleared integer matrix, det(tI + A) = sum c_k L^(k-n) t^k
    where det(sI + B) = sum c_k s^k.  The recurrence runs on M = -B:
    M_k = M M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(M M_k) / k.  An integer
    matrix has an integer characteristic polynomial, so each division by k
    is exact.
    """
    n = len(matrix)
    b, den = _cleared_rows(matrix)
    cols = [[-x for x in col] for col in zip(*b)]  # the columns of M
    c = [0] * n + [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M M_(k-1) = M_(k-1) M, since M_(k-1) is a polynomial in M
        mk = [[sum(map(mul, row, col)) for col in cols] for row in mk]
        for i in range(n):
            mk[i][i] += c[n - k + 1]
        c[n - k] = -sum(sum(map(mul, mk[i], cols[i])) for i in range(n)) // k
    return tuple(Fraction(ck, den ** (n - k)) for k, ck in enumerate(c))


def _cleared_rows(matrix: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """A square matrix of exact rationals as int rows times 1/L, L the lcm of denominators."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    flat, den = clear_denominators(Fraction(x) for row in matrix for x in row)
    return [flat[i * n : (i + 1) * n] for i in range(n)], den


def mmatrix_weights(matrix: list[list[Fraction]], labels: Iterable[str] | None = None) -> SubsetPoly:
    """Principal-minor weight function of a symmetric M-matrix.

    Requires: symmetric, every principal minor positive, and all off-diagonal
    entries of the matrix or of its inverse nonpositive.  The weight of a
    subset is the corresponding principal minor (empty minor = 1).
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if n == 0 or n > 12:
        raise ValueError("matrix size out of range")
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")

    ground = GroundSet(labels if labels is not None else (str(i + 1) for i in range(n)))
    if ground.m != n:
        raise ValueError("label count does not match the matrix")

    terms: dict[int, Fraction] = {}
    for w in ground.subsets():
        rows = [i for i in range(n) if w >> i & 1]
        minor = det_exact([[a[i][j] for j in rows] for i in rows])
        if minor <= 0:
            raise ValueError(f"principal minor on {ground.labels_of(w)} is not positive")
        terms[w] = minor

    # A is symmetric and det A > 0 (the full principal minor), so A^-1 is
    # symmetric and (A^-1)_ij has the sign of (-1)^(i+j) det(A without row j and column i)
    pairs = [(i, j) for i in range(n) for j in range(i)]
    if not all(a[i][j] <= 0 for i, j in pairs) and not all(
        (-1) ** (i + j) * det_exact([row[:i] + row[i + 1 :] for r, row in enumerate(a) if r != j]) <= 0
        for i, j in pairs
    ):
        raise ValueError("neither the matrix nor its inverse has nonpositive off-diagonal entries")
    return SubsetPoly(ground, terms)
