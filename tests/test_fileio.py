from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayleigh_forge.fileio import (
    InputFormatError,
    detect_format,
    parse_bases_file,
    parse_certificate_file,
    parse_graph_file,
    parse_weight_file,
    poly_payload,
    q_power_payload,
)
from rayleigh_forge.polynomials import GroundSet, QuadPoly, SubsetPoly, rayleigh_diff
from rayleigh_forge.scalars import SYMBOLIC_Q, format_rat

F = Fraction


def format_weight_file(z: SubsetPoly) -> str:
    """The weight-file text of a rational polynomial: the round-trip reference."""
    lines = ["elements: " + ",".join(z.ground.labels)]
    for word in sorted(z.terms):
        subset = ",".join(z.ground.labels_of(word)) or "-"
        lines.append(f"{subset} : {format_rat(z.terms[word])}")
    return "\n".join(lines) + "\n"


WEIGHTS = """\
# weight file
elements: a,b,c

- : 1
a : 1/2
a,b,c : 3
"""

GRAPH = """\
graph 3
0 1 e1
1 2 e2
2 0 e3
"""

BASES = """\
elements: 1,2,3
1,2
2,3
"""

CERT = "1 : 2,5 | 3,4\n1/2 : 1 | 2\n"


class TestWeightFiles:
    def test_parse(self):
        z = parse_weight_file(WEIGHTS)
        assert z.ground.labels == ("a", "b", "c")
        assert z.coeff(0) == 1
        assert z.coeff(z.ground.bit("a")) == F(1, 2)
        assert z.coeff(z.ground.full) == 3

    def test_roundtrip(self):
        z = parse_weight_file(WEIGHTS)
        assert parse_weight_file(format_weight_file(z)) == z

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "a,b\n- : 1",  # missing header keyword
            "elements: a,a\n- : 1",  # duplicate label
            "elements: a\n- : 1\n- : 2",  # subset listed twice
            "elements: a\nb : 1",  # unknown label
            "elements: a\na,a : 1",  # repeated label in subset
            "elements: a\na : 1 : 2",  # too many colons
            "elements: a\na : 1.5",  # not a rational
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(InputFormatError):
            parse_weight_file(bad)

    @given(
        st.dictionaries(
            st.integers(0, 15),
            st.fractions(min_value=0).filter(bool),  # a weight file is nonnegative, support nonempty
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random(self, terms):
        g = GroundSet(("1", "2", "3", "4"))
        z = SubsetPoly(g, {w: F(c) for w, c in terms.items()})
        assert parse_weight_file(format_weight_file(z)) == z


class TestGraphFiles:
    def test_parse(self):
        g = parse_graph_file(GRAPH)
        assert g.n == 3
        assert g.edges == ((0, 1, "e1"), (1, 2, "e2"), (2, 0, "e3"))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "graph x\n0 1 e",
            "graph 2\n0 1",  # missing label
            "graph 2\n0 a e",  # bad vertex
            "graph 2\n0 0 e",  # self-loop rejected by Graph
            "graph 2\n0 2 e",  # vertex out of range
            "graph 2\n0 1 a:b",  # illegal character in a label
            "graph 2\n0 1 c,d",  # two labels on one edge
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(InputFormatError):
            parse_graph_file(bad)


class TestBasesFiles:
    def test_parse(self):
        system = parse_bases_file(BASES)
        assert system.ground.labels == ("1", "2", "3")
        assert sorted(system.terms) == [3, 6]

    def test_rejects_empty_list(self):
        with pytest.raises(InputFormatError):
            parse_bases_file("elements: 1,2\n")


class TestCertificateFiles:
    def test_parse(self):
        cert = parse_certificate_file(CERT)
        assert len(cert.terms) == 2
        lam, a, b = cert.terms[0]
        assert lam == 1 and a == ("2", "5") and b == ("3", "4")

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "1 : 2,5",  # missing the | separator
            "x : 1 | 2",  # bad multiplier
            "-1 : 1 | 2",  # nonpositive multiplier
            "1 : 2 | 2",  # zero square
            "1 : 2,5 | 5,2",  # zero square: the sides are compared as sets
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(InputFormatError):
            parse_certificate_file(bad)


class TestDetect:
    def test_each_format(self):
        assert detect_format(GRAPH) == "graph"
        assert detect_format(WEIGHTS) == "weights"
        assert detect_format(BASES) == "bases"

    def test_colon_heuristic(self):
        # a bases file has no colons after the header; a weight file does
        assert detect_format("elements: a\na\n") == "bases"
        assert detect_format("elements: a\na : 2\n") == "weights"

    def test_unknown(self):
        with pytest.raises(InputFormatError):
            detect_format("whatever\n")
        with pytest.raises(InputFormatError):
            detect_format("# only comments\n")


class TestPayloads:
    def test_coeff_payload(self):
        # a rational coefficient by default; a symbolic one as its power of q
        z = SubsetPoly(GroundSet(("a",)), {0: F(3, 2), 1: SYMBOLIC_Q**-2})
        assert [t["coeff"] for t in poly_payload(z)] == ["3/2", "65536"]
        powers = SubsetPoly(z.ground, {0: F(1), 1: SYMBOLIC_Q**-2})
        assert [t["coeff"] for t in poly_payload(powers, q_power_payload)] == [
            {"min_exponent": 0, "coeffs": ["1"]},
            {"min_exponent": -2, "coeffs": ["1"]},
        ]
        with pytest.raises(ArithmeticError):
            poly_payload(z, q_power_payload)

    def test_laurent_payload_normalized(self):
        assert q_power_payload(SYMBOLIC_Q) == {
            "min_exponent": 1,
            "coeffs": ["1"],
        }

    def test_poly_payload_subset(self):
        g = GroundSet(("a", "b"))
        z = SubsetPoly(g, {0: F(1), 3: F(2)})
        payload = poly_payload(z)
        assert payload == [
            {"support": [], "squared": [], "coeff": "1"},
            {"support": ["a", "b"], "squared": [], "coeff": "2"},
        ]

    def test_poly_payload_quad(self):
        g = GroundSet(("a", "b", "c"))
        z = SubsetPoly(g, {1: F(1), 2: F(1), 4: F(1)})
        quad = rayleigh_diff(z, "a", "b")
        payload = poly_payload(quad)
        assert all(set(entry) == {"support", "squared", "coeff"} for entry in payload)

    def test_poly_payload_quad_order(self):
        # sorted by (support word, squared word), whatever the insertion order
        g = GroundSet(("a", "b"))
        quad = QuadPoly(g, {(3, 1): F(2), (1, 0): F(-1), (3, 0): F(5), (0, 0): F(4), (2, 2): F(1, 3)})
        assert poly_payload(quad) == [
            {"support": [], "squared": [], "coeff": "4"},
            {"support": ["a"], "squared": [], "coeff": "-1"},
            {"support": ["b"], "squared": ["b"], "coeff": "1/3"},
            {"support": ["a", "b"], "squared": [], "coeff": "5"},
            {"support": ["a", "b"], "squared": ["a"], "coeff": "2"},
        ]
