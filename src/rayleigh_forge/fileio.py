"""Text file formats and JSON payload helpers.

Three line-oriented input formats, all label-based:

  weights   header `elements: a,b,c`, then one `S : p/q` line per subset,
            with `-` standing for the empty set
  graph     `graph <n>`, then `<u> <v> <label>` per edge, vertices 0-based
  bases     header `elements: a,b,c`, then one comma-separated basis per line

Certificates are their own small format: each line `p/q : A | B` contributes
the term lambda (y^A - y^B)^2 with lambda = p/q > 0; no label repeats within A
or within B.

Blank lines and full-line `#` comments are ignored everywhere.  Labels used
in files must not contain whitespace, commas, colons, or pipes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .matroids import Graph
from .polynomials import GroundSet, QuadPoly, SubsetPoly, from_weights
from .rayleigh import SquareCertificate
from .scalars import format_rat, parse_rat, q_exponent


class InputFormatError(ValueError):
    """Malformed input text; the CLI maps this to exit code 3."""


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _parse_labels(field: str, what: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in field.split(","))
    if any(not lab for lab in labels):
        raise InputFormatError(f"empty label in {what}: {field!r}")
    for lab in labels:
        if any(ch in lab for ch in " \t:|,"):
            raise InputFormatError(f"illegal character in label {lab!r}")
    return labels


def _parse_header(line: str) -> tuple[str, ...]:
    if not line.startswith("elements:"):
        raise InputFormatError("expected an `elements:` header line")
    labels = _parse_labels(line[len("elements:") :].strip(), "elements header")
    if len(set(labels)) != len(labels):
        raise InputFormatError("duplicate labels in elements header")
    return labels


def _subset_word(ground: GroundSet, field: str, what: str) -> int:
    field = field.strip()
    if field == "-":
        return 0
    labels = _parse_labels(field, what)
    word = 0
    for lab in labels:
        try:
            bit = ground.bit(lab)
        except ValueError:
            raise InputFormatError(f"unknown label {lab!r} in {what}") from None
        if word & bit:
            raise InputFormatError(f"repeated label {lab!r} in {what}")
        word |= bit
    return word


def parse_weight_file(text: str) -> SubsetPoly:
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError("empty weight file")
    ground = GroundSet(_parse_header(lines[0]))
    terms: dict[int, Fraction] = {}
    for line in lines[1:]:
        parts = line.split(":")
        if len(parts) != 2:
            raise InputFormatError(f"expected `S : p/q`, got {line!r}")
        word = _subset_word(ground, parts[0], "weight line")
        if word in terms:
            raise InputFormatError(f"subset listed twice: {parts[0].strip()!r}")
        try:
            terms[word] = parse_rat(parts[1])
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None
    try:
        return from_weights(ground, terms)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def parse_graph_file(text: str) -> Graph:
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "graph" or not head[1].isdigit():
        raise InputFormatError("expected a `graph <n>` header line")
    n = int(head[1])
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise InputFormatError(f"expected `<u> <v> <label>`, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputFormatError(f"bad vertex index in {line!r}") from None
        labels = _parse_labels(parts[2], "edge line")
        if len(labels) != 1:
            raise InputFormatError(f"expected one edge label, got {parts[2]!r}")
        edges.append((u, v, labels[0]))
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def parse_bases_file(text: str) -> SubsetPoly:
    """The listed bases as the support of a unit-weight polynomial."""
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError("empty bases file")
    ground = GroundSet(_parse_header(lines[0]))
    if len(lines) == 1:
        raise InputFormatError("bases file lists no bases")
    words = [_subset_word(ground, line, "basis line") for line in lines[1:]]
    return SubsetPoly(ground, dict.fromkeys(words, Fraction(1)))


def parse_certificate_file(text: str) -> SquareCertificate:
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError("empty certificate file")
    terms = []
    for line in lines:
        parts = line.split(":")
        if len(parts) != 2:
            raise InputFormatError(f"expected `p/q : A | B`, got {line!r}")
        try:
            lam = parse_rat(parts[0])
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None
        sides = parts[1].split("|")
        if len(sides) != 2:
            raise InputFormatError(f"expected two `|`-separated subsets in {line!r}")
        a, b = (_parse_labels(side.strip(), "certificate") for side in sides)
        for labels in (a, b):
            repeated = [lab for i, lab in enumerate(labels) if lab in labels[:i]]
            if repeated:
                raise InputFormatError(f"repeated label {repeated[0]!r} in certificate")
        terms.append((lam, a, b))
    try:
        return SquareCertificate(tuple(terms))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def detect_format(text: str) -> str:
    """One of "graph", "weights", "bases" from the text alone."""
    lines = _content_lines(text)
    if not lines:
        raise InputFormatError("empty input file")
    if lines[0].startswith("graph"):
        return "graph"
    if lines[0].startswith("elements:"):
        return "weights" if any(":" in line for line in lines[1:]) else "bases"
    raise InputFormatError("unrecognized input format")


# --- JSON payloads ------------------------------------------------------------------


def q_power_text(c: Fraction) -> str:
    """A symbolic-q coefficient q^k as `poly_text` prints it: (q^k), and q^0 as (1)."""
    k = q_exponent(c)
    return f"(q^{k})" if k else "(1)"


def q_power_payload(c: Fraction) -> dict:
    """A symbolic-q coefficient q^k in the dense Laurent wire form {"min_exponent": k, "coeffs": ["1"]}."""
    return {"min_exponent": q_exponent(c), "coeffs": ["1"]}


def poly_payload(p: SubsetPoly | QuadPoly, coeff: Callable[[Fraction], object] = format_rat) -> list[dict]:
    """One entry per term, sorted by (support word, squared word); `coeff` writes a coefficient."""
    labels_of = p.ground.labels_of
    return [
        {"support": list(labels_of(sup)), "squared": list(labels_of(sq)), "coeff": coeff(c)}
        for sup, sq, c in sorted(p.monomials(), key=lambda t: t[:2])
    ]
