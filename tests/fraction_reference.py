"""Term-by-term `Fraction` sums: the tests' slow reference for the exact evaluators.

The package evaluates terms, polynomials, measures and forest size sums on
Python ints over one cleared scale.  The sums here walk every term label by label
and multiply `Fraction`s, with no scale and no evaluator of the package, so
an error in the package's scaling shows as a difference.
"""

from fractions import Fraction


def _monomial(c, labels, point, sup: int, sq: int = 0) -> Fraction:
    """c times y_lab for each label in sup, and once more for each label in sq."""
    prod = Fraction(c)
    for i, lab in enumerate(labels):
        if sup >> i & 1:
            prod *= Fraction(point[lab])
        if sq >> i & 1:
            prod *= Fraction(point[lab])
    return prod


def _keys(poly):
    """(support, squared) for each term of a SubsetPoly (int keys) or a QuadPoly (pair keys)."""
    for key, c in poly.terms.items():
        sup, sq = key if isinstance(key, tuple) else (key, 0)
        yield sup, sq, c


def term_values(poly, point) -> list[Fraction]:
    """Each term's value at the point, in term order."""
    labels = poly.ground.labels
    return [_monomial(c, labels, point, sup, sq) for sup, sq, c in _keys(poly)]


def poly_value(poly, point) -> Fraction:
    """The polynomial at a point, one term after another."""
    labels = poly.ground.labels
    return sum((_monomial(c, labels, point, sup, sq) for sup, sq, c in _keys(poly)), Fraction(0))


def masses(z, e: str, f: str, point) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Z(y) and the masses of the subsets holding e, holding f and holding both."""
    labels = z.ground.labels
    ie, jf = labels.index(e), labels.index(f)
    total = p_e = p_f = p_ef = Fraction(0)
    for w, c in z.terms.items():
        mass = _monomial(c, labels, point, w)
        total += mass
        holds_e, holds_f = w >> ie & 1, w >> jf & 1
        if holds_e:
            p_e += mass
        if holds_f:
            p_f += mass
        if holds_e and holds_f:
            p_ef += mass
    return total, p_e, p_f, p_ef


def covariance(z, e: str, f: str, point) -> Fraction:
    """<X_e X_f> - <X_e><X_f> under the measure of z at the point."""
    total, p_e, p_f, p_ef = masses(z, e, f, point)
    return p_ef / total - (p_e / total) * (p_f / total)


def size_sums(poly, n: int, point) -> tuple[Fraction, ...]:
    """sum over the terms S of c_S y^S, bucketed at index n - |S|."""
    labels = poly.ground.labels
    sums = [Fraction(0)] * (n + 1)
    for w, c in poly.terms.items():
        sums[n - w.bit_count()] += _monomial(c, labels, point, w)
    return tuple(sums)
