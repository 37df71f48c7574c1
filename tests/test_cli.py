import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rayleigh_forge import polynomials, rayleigh
from rayleigh_forge.cli import _build_parser, main
from rayleigh_forge.scalars import parse_rat
from rayleigh_forge.words import popcount

F = Fraction

K4_GRAPH = """\
graph 4
0 1 1
0 2 2
0 3 3
1 2 4
1 3 5
2 3 6
"""

TRI_GRAPH = """\
graph 3
0 1 a1
1 2 a2
2 0 g
"""

TRI2_GRAPH = """\
graph 3
0 1 b1
1 2 b2
2 0 g
"""

U32_BASES = """\
elements: 1,2,3
1,2
1,3
2,3
"""

POS_WEIGHTS = """\
elements: x,y
- : 1
x : 2
y : 3
x,y : 4
"""

CORR_WEIGHTS = """\
elements: x,y
- : 1
x,y : 1
"""

CORR3_WEIGHTS = """\
elements: x,y,z
- : 1
x,y : 1
z : 1
"""

# the triangle TRI_GRAPH as a weight file under each `twosum` model of
# TWOSUM_MODELS: its families, and its Potts function at q = 1/3 (which has
# constant coefficients, so symbolic q cannot use it)
TRI_FAMILIES = {
    "bases": "elements: a1,a2,g\na1,a2 : 1\na1,g : 1\na2,g : 1\n",
    "independent": "elements: a1,a2,g\n- : 1\na1 : 1\na2 : 1\ng : 1\na1,a2 : 1\na1,g : 1\na2,g : 1\n",
    "spanning": "elements: a1,a2,g\na1,a2 : 1\na1,g : 1\na2,g : 1\na1,a2,g : 1\n",
    "potts-1/3": "elements: a1,a2,g\n- : 1\na1 : 3\na2 : 3\ng : 3\na1,a2 : 9\na1,g : 9\na2,g : 9\na1,a2,g : 9\n",
}
TRI_FAMILIES["potts"] = TRI_FAMILIES["potts-1/3"]
TWOSUM_MODELS = {
    "bases": ["--model", "bases"],
    "independent": ["--model", "independent"],
    "spanning": ["--model", "spanning"],
    "potts": ["--model", "potts"],
    "potts-1/3": ["--model", "potts", "--q", "1/3"],
}
# exit code, stdout, stderr and JSON results of `twosum LEFT tri2.graph --glue g`
# for every model above, LEFT the triangle as a graph or as a weight file;
# recorded from an earlier `twosum_compose`, so a refactor must reproduce them
TWOSUM_GOLDEN = json.loads((Path(__file__).parent / "golden" / "twosum.json").read_text())

K4_CERT = "1 : 2,5 | 3,4\n"
DUP_CERT = "1 : 2,2,5 | 3,4\n"
STRAY_CERT = "1 : 2,9 | 3,4\n"

# the 16 bases of K4, listed out of word order
K4_BASES = """\
elements: 1,2,3,4,5,6
2,3,4
1,2,5
2,3,5
1,5,6
1,3,6
1,3,4
2,4,5
3,4,5
1,2,3
3,5,6
1,4,6
2,5,6
3,4,6
1,4,5
2,4,6
1,2,6
"""

# equicardinal but not a matroid: no basis exchange between {a,b} and {c,d}
SWAPLESS_BASES = """\
elements: a,b,c,d
c,d
a,b
a,c
"""


def unit_weight_text(bases_text: str) -> str:
    """The same family as a weight file with weight 1 on every listed set."""
    header, *rows = bases_text.splitlines()
    return "\n".join([header] + [f"{row} : 1" for row in rows]) + "\n"


# `delta check` results, stdout and exit codes for the two bases files above
K4_DELTA = {
    "convex": True,
    "sea": True,
    "log_submodular": True,
    "flatten": {"l": 0, "exchange_ok": True},
    "layers": [{"k": 3, "count": 16, "exchange_ok": True}],
}
K4_DELTA_STDOUT = (
    "convex: True\nsea: True\nlog_submodular: True\n"
    "flatten: l=0 exchange_ok=True\nlayer k=3: 16 members, exchange_ok=True\n"
)
SWAPLESS_DELTA = {
    "convex": True,
    "sea": False,
    "log_submodular": True,
    "flatten": {"l": 0, "exchange_ok": False},
    "layers": [{"k": 2, "count": 3, "exchange_ok": False}],
}
SWAPLESS_DELTA_STDOUT = (
    "convex: True\nsea: False\nlog_submodular: True\n"
    "flatten: l=0 exchange_ok=False\nlayer k=2: 3 members, exchange_ok=False\n"
)

# the K4 counting sequences that `matroid info` and `mason` report alike
K4_INVARIANTS = {
    "m": 6,
    "r": 3,
    "independent": [1, 6, 15, 16],
    "flats_by_rank": [1, 6, 7, 1],
    "charpoly_magnitudes": [1, 6, 11, 6],
    "h_vector": ["1", "3", "6", "6"],
    "h_integral": True,
}

# weight files that are not nonnegative weight functions with nonempty support
NEGATIVE_WEIGHTS = "elements: a,b\n- : 1\na : -1\nb : 1\na,b : 1\n"
ZERO_WEIGHTS = "elements: a,b\n- : 0\na : 0\nb : 0\na,b : 0\n"

# (support, exponent) of every term q^exponent of the symbolic `potts build`
# report for K4, in report order; recorded when symbolic q had a Laurent
# polynomial type of its own, whose report bytes the one-point route keeps
K4_POTTS_TERMS = [
    ("", 0), ("1", -1), ("2", -1), ("12", -2), ("3", -1), ("13", -2), ("23", -2), ("123", -3),
    ("4", -1), ("14", -2), ("24", -2), ("124", -2), ("34", -2), ("134", -3), ("234", -3), ("1234", -3),
    ("5", -1), ("15", -2), ("25", -2), ("125", -3), ("35", -2), ("135", -2), ("235", -3), ("1235", -3),
    ("45", -2), ("145", -3), ("245", -3), ("1245", -3), ("345", -3), ("1345", -3), ("2345", -3), ("12345", -3),
    ("6", -1), ("16", -2), ("26", -2), ("126", -3), ("36", -2), ("136", -3), ("236", -2), ("1236", -3),
    ("46", -2), ("146", -3), ("246", -3), ("1246", -3), ("346", -3), ("1346", -3), ("2346", -3), ("12346", -3),
    ("56", -2), ("156", -3), ("256", -3), ("1256", -3), ("356", -3), ("1356", -3), ("2356", -3), ("12356", -3),
    ("456", -2), ("1456", -3), ("2456", -3), ("12456", -3), ("3456", -3), ("13456", -3), ("23456", -3),
    ("123456", -3),
]

# the symbolic `twosum --model potts` of the two triangles glued along g
TWOSUM_POTTS_TERMS = [
    ("", 0), ("a1", -1), ("a2", -1), ("a1,a2", -2), ("b1", -1), ("a1,b1", -2), ("a2,b1", -2),
    ("a1,a2,b1", -3), ("b2", -1), ("a1,b2", -2), ("a2,b2", -2), ("a1,a2,b2", -3), ("b1,b2", -2),
    ("a1,b1,b2", -3), ("a2,b1,b2", -3), ("a1,a2,b1,b2", -3),
]
TWOSUM_POTTS_STDOUT = (
    "16 terms under the potts model\n"
    "(1) + (q^-1)*y[a1] + (q^-1)*y[a2] + (q^-1)*y[b1] + (q^-1)*y[b2] + (q^-2)*y[a1]*y[a2]"
    " + (q^-2)*y[a1]*y[b1] + (q^-2)*y[a2]*y[b1] + (q^-2)*y[a1]*y[b2] + (q^-2)*y[a2]*y[b2]"
    " + (q^-2)*y[b1]*y[b2] + (q^-3)*y[a1]*y[a2]*y[b1] + (q^-3)*y[a1]*y[a2]*y[b2]"
    " + (q^-3)*y[a1]*y[b1]*y[b2] + (q^-3)*y[a2]*y[b1]*y[b2] + (q^-3)*y[a1]*y[a2]*y[b1]*y[b2]\n"
)


def single_term_payload(terms):
    """Report entries for (support labels, exponent) pairs with coefficient q^exponent."""
    return [
        {"support": labels, "squared": [], "coeff": {"min_exponent": k, "coeffs": ["1"]}}
        for labels, k in terms
    ]


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "k4": write("k4.graph", K4_GRAPH),
        "tri": write("tri.graph", TRI_GRAPH),
        "tri2": write("tri2.graph", TRI2_GRAPH),
        "u32": write("u32.bases", U32_BASES),
        "pos": write("pos.weights", POS_WEIGHTS),
        "corr": write("corr.weights", CORR_WEIGHTS),
        "corr3": write("corr3.weights", CORR3_WEIGHTS),
        "cert": write("k4.cert", K4_CERT),
        "dup_cert": write("dup.cert", DUP_CERT),
        "stray_cert": write("stray.cert", STRAY_CERT),
        "k4_bases": write("k4.bases", K4_BASES),
        "k4_bases_unit": write("k4.weights", unit_weight_text(K4_BASES)),
        "swapless": write("swapless.bases", SWAPLESS_BASES),
        "swapless_unit": write("swapless.weights", unit_weight_text(SWAPLESS_BASES)),
        "neg": write("neg.weights", NEGATIVE_WEIGHTS),
        "zero": write("zero.weights", ZERO_WEIGHTS),
        "dir": tmp_path,
    }


def run(argv):
    return main([str(a) for a in argv])


def recheck_values(err: str) -> tuple[Fraction, Fraction, Fraction]:
    """The slice, covariance and sampled values named by a witness mismatch."""
    found = re.search(
        r"re-evaluates to (\S+) through slices and to (\S+) through the covariance, not to the sampled (\S+)",
        err,
    )
    assert found, err
    return tuple(parse_rat(x) for x in found.groups())


def run_twosum(tmp_path, capsys, model, side):
    left = tmp_path / f"left.{side}"
    left.write_text(TRI_GRAPH if side == "graph" else TRI_FAMILIES[model])
    right = tmp_path / "right.graph"
    right.write_text(TRI2_GRAPH)
    out = tmp_path / "twosum.json"
    code = run(["twosum", left, right, "--glue", "g", *TWOSUM_MODELS[model], "--json", out])
    captured = capsys.readouterr()
    results = json.loads(out.read_text())["results"] if out.exists() else None
    return {"exit_code": code, "stdout": captured.out, "stderr": captured.err, "results": results}


def run_json(files, argv, capsys):
    out = files["dir"] / "report.json"
    code = run(argv + ["--json", str(out)])
    capsys.readouterr()
    return code, json.loads(out.read_text())


class TestMatroidInfo:
    def test_k4_counts(self, files, capsys):
        assert run(["matroid", "info", files["k4"], "--fixed", "1"]) == 0
        out = capsys.readouterr().out
        assert "independent-set counts: 1, 6, 15, 16" in out
        assert "flats by rank: 1, 6, 7, 1" in out
        assert "h-vector: 1, 3, 6, 6" in out
        assert "bases by fixed-intersection size: 8, 8" in out

    def test_json_report_fields(self, files, capsys):
        code, report = run_json(files, ["matroid", "info", files["u32"]], capsys)
        assert code == 0
        assert report["schema"] == 1
        assert report["tool"] == "rayleigh-forge"
        assert report["exit_code"] == 0
        assert report["command"][0] == "matroid"
        assert list(report["inputs"]) == [files["u32"]]
        assert len(report["inputs"][files["u32"]]) == 64  # sha256 hex
        assert report["results"]["independent"] == [1, 3, 3]
        assert report["results"]["charpoly_magnitudes"] == [1, 3, 2]

    def test_exchange_failure_names_the_first_sorted_witness(self, files, capsys):
        # members are walked in word order ab < ac < cd, not in file order
        assert run(["matroid", "info", files["swapless"]]) == 3
        assert capsys.readouterr().err == "error: basis exchange fails for A=('a', 'b'), B=('c', 'd'), a='a'\n"

    def test_k4_fixed_golden(self, files, capsys):
        code, report = run_json(files, ["matroid", "info", files["k4"], "--fixed", "1"], capsys)
        assert code == 0
        assert report["results"] == {**K4_INVARIANTS, "loopless": True, "fixed_counts": [8, 8]}


class TestRayleighCheck:
    def test_coeff_verifies_bases(self, files):
        assert run(["rayleigh", "check", files["u32"]]) == 0

    def test_sample_refutes_correlated_weights(self, files, capsys):
        code, report = run_json(
            files, ["rayleigh", "check", files["corr"], "--strategy", "sample"], capsys
        )
        assert code == 1
        assert report["results"]["summary"] == "refuted"
        verdict = report["results"]["verdicts"]["x,y"]
        assert verdict["status"] == "refuted"
        assert "witness" in verdict and "value" in verdict

    def test_inconclusive_exit(self, files):
        code = run(["rayleigh", "check", files["corr"], "--strategy", "coeff"])
        assert code == 2

    def test_witness_mismatch_exits_3(self, files, monkeypatch, capsys):
        # the point evaluator off by one: the sampled value no longer agrees
        # with the scalar slice route, nor with the covariance
        real = rayleigh.pair_value

        def skewed(*args):
            num, scale = real(*args)
            return num - 1, scale

        monkeypatch.setattr(rayleigh, "pair_value", skewed)
        assert run(["rayleigh", "check", files["corr"], "--strategy", "sample"]) == 3
        sliced, measured, sampled = recheck_values(capsys.readouterr().err)
        assert sliced == measured != sampled

    def test_slice_skew_caught_by_covariance(self, files, monkeypatch, capsys):
        # a slice kernel that scales each contraction by 2 per contracted
        # element composes like the real one, so the sampler and the scalar
        # slice route agree on 4 * D; only the covariance, which sums the
        # measure over the whole of Z, still reads D
        real = polynomials._slice_bits

        def skewed(terms, keep, zero):
            return {w: c * 2 ** popcount(keep) for w, c in real(terms, keep, zero).items()}

        monkeypatch.setattr(polynomials, "_slice_bits", skewed)
        assert run(["rayleigh", "check", files["corr3"], "--strategy", "sample"]) == 3
        sliced, measured, sampled = recheck_values(capsys.readouterr().err)
        assert sliced == sampled == 4 * measured != measured

    def test_certificate_route(self, files):
        code = run(
            [
                "rayleigh",
                "check",
                files["k4"],
                "--model",
                "independent",
                "--strategy",
                "cert",
                "--pair",
                "1,6",
                "--certificate",
                files["cert"],
            ]
        )
        assert code == 0

    def test_cert_without_certificate_judges_like_coeff(self, files, capsys):
        # a pair no certificate covers is judged on D's own coefficients
        argv = ["rayleigh", "check", files["k4"], "--model", "independent", "--strategy"]
        _, coeff = run_json(files, argv + ["coeff"], capsys)
        _, cert = run_json(files, argv + ["cert"], capsys)
        assert (coeff["results"].pop("strategy"), cert["results"].pop("strategy")) == ("coeff", "cert")
        assert cert["results"] == coeff["results"]
        methods = {v.get("method") for v in cert["results"]["verdicts"].values()}
        assert methods == {"coeff-positive", None}
        _, certified = run_json(files, argv + ["cert", "--pair", "1,6", "--certificate", files["cert"]], capsys)
        assert certified["results"]["verdicts"]["1,6"]["method"] == "certificate"

    def test_certificate_repeated_label_refused(self, files, capsys):
        argv = ["rayleigh", "check", files["k4"], "--model", "independent", "--strategy", "cert",
                "--pair", "1,6", "--certificate", files["dup_cert"]]
        assert run(argv) == 3
        assert "repeated label '2' in certificate" in capsys.readouterr().err

    def test_certificate_naming_the_pair_refused(self, files, capsys):
        # 2 is an element of K4, but D for the pair (1,2) has no variable y_2
        argv = ["rayleigh", "check", files["k4"], "--model", "independent", "--strategy", "cert",
                "--pair", "1,2", "--certificate", files["cert"]]
        assert run(argv) == 3
        assert "certificate for pair (1,2) names the pair's own element '2'" in capsys.readouterr().err

    def test_certificate_unknown_label_refused(self, files, capsys):
        argv = ["rayleigh", "check", files["k4"], "--model", "independent", "--strategy", "cert",
                "--pair", "1,6", "--certificate", files["stray_cert"]]
        assert run(argv) == 3
        assert "unknown element '9'" in capsys.readouterr().err

    def test_certificate_names_the_first_unknown_label(self, files):
        # each side keeps its file order, whatever the string hash seed
        cert = files["dir"] / "unknown.cert"
        cert.write_text("1 : 7,8,9 | 3,4\n")
        src = Path(rayleigh.__file__).resolve().parent.parent
        argv = ["rayleigh", "check", files["k4"], "--model", "independent", "--strategy", "cert",
                "--pair", "1,6", "--certificate", str(cert)]
        for seed in range(4):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src)}
            proc = subprocess.run([sys.executable, "-m", "rayleigh_forge", *argv],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 3
            assert proc.stderr == "error: unknown element '7'\n", f"PYTHONHASHSEED={seed}"

    def test_cert_requires_pair(self, files, capsys):
        code = run(
            [
                "rayleigh",
                "check",
                files["k4"],
                "--strategy",
                "cert",
                "--certificate",
                files["cert"],
            ]
        )
        assert code == 3

    def test_model_synonyms(self, files):
        assert run(["rayleigh", "check", files["k4"], "--model", "indep",
                    "--strategy", "coeff", "--pair", "1,2"]) == 0

    def test_model_on_weight_file_rejected(self, files):
        assert run(["rayleigh", "check", files["pos"], "--model", "bases"]) == 3

    def test_potts_model_needs_q(self, files):
        assert run(["rayleigh", "check", files["k4"], "--model", "potts"]) == 3

    def test_certificate_needs_cert_strategy(self, files, capsys):
        missing = files["dir"] / "missing.cert"
        code = run(["rayleigh", "check", files["k4"], "--model", "indep", "--pair", "1,6",
                    "--certificate", missing])
        assert code == 3
        assert "--certificate needs --strategy cert" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["coeff", "sample"])
    @pytest.mark.parametrize("name", ["neg", "zero"])
    def test_weight_file_must_be_a_weight_function(self, files, capsys, name, strategy):
        assert run(["rayleigh", "check", files[name], "--strategy", strategy]) == 3
        assert re.search("negative weight|empty support", capsys.readouterr().err)


class TestPottsBuild:
    def test_symbolic(self, files, capsys):
        code, report = run_json(files, ["potts", "build", files["u32"]], capsys)
        assert code == 0
        terms = report["results"]["terms"]
        assert len(terms) == 8
        empty = next(t for t in terms if t["support"] == [])
        assert empty["coeff"] == {"min_exponent": 0, "coeffs": ["1"]}

    def test_evaluated(self, files, capsys):
        code, report = run_json(files, ["potts", "build", files["u32"], "--q", "1/2"], capsys)
        assert code == 0
        full = next(t for t in report["results"]["terms"] if len(t["support"]) == 3)
        assert full["coeff"] == "4"

    def test_symbolic_k4_golden(self, files, capsys):
        code, report = run_json(files, ["potts", "build", files["k4"]], capsys)
        assert code == 0
        assert report["results"]["q_mode"] == "symbolic"
        terms = [(list(labels), k) for labels, k in K4_POTTS_TERMS]
        assert report["results"]["terms"] == single_term_payload(terms)


class TestTwoSum:
    def test_bases_composition(self, files, capsys):
        code, report = run_json(
            files, ["twosum", files["tri"], files["tri2"], "--glue", "g"], capsys
        )
        assert code == 0
        terms = report["results"]["terms"]
        assert len(terms) == 4  # the four spanning trees of a square
        assert all(len(t["support"]) == 3 for t in terms)

    @pytest.mark.parametrize("side", ["graph", "weights"])
    @pytest.mark.parametrize("model", list(TWOSUM_MODELS))
    def test_pinned_outputs(self, tmp_path, capsys, model, side):
        assert run_twosum(tmp_path, capsys, model, side) == TWOSUM_GOLDEN[f"{model}/{side}"]

    def test_potts_needs_valid_q(self, files):
        assert run(["twosum", files["tri"], files["tri2"], "--glue", "g",
                    "--model", "potts", "--q", "1"]) == 3

    def test_potts_q_one_refused_before_classifying(self, tmp_path, capsys):
        # at q = 1 the coloop test cannot tell coloops apart, so the refusal
        # must come first; the {g} weights are not 1, so g reads as no loop
        left, right = tmp_path / "l.weights", tmp_path / "r.weights"
        left.write_text("elements: a,g\n- : 1\na : 2\ng : 2\na,g : 2\n")
        right.write_text("elements: b,g\n- : 1\nb : 3\ng : 3\nb,g : 3\n")
        code = run(["twosum", left, right, "--glue", "g", "--model", "potts", "--q", "1"])
        assert code == 3
        assert "undefined at q = 1" in capsys.readouterr().err

    def test_independent_weight_side_with_small_deleted_slice_composes(self, files, tmp_path, capsys):
        # the glue is judged by beta = d - c = -y[a], not by the deleted
        # slice's smaller sizes, so this side is no coloop side
        left = tmp_path / "l.weights"
        left.write_text("elements: a,g\n- : 1\ng : 1\na,g : 1\n")
        code = run(["twosum", left, files["tri2"], "--glue", "g", "--model", "independent"])
        assert code == 0
        assert capsys.readouterr().out == (
            "5 terms under the independent model\n1 + y[b1] + y[b2] + y[b1]*y[b2] + y[a]*y[b1]*y[b2]\n"
        )

    def test_bad_glue(self, files):
        assert run(["twosum", files["tri"], files["tri2"], "--glue", "a1"]) == 3

    def test_symbolic_potts_golden(self, files, capsys):
        out = files["dir"] / "twosum.json"
        code = run(["twosum", files["tri"], files["tri2"], "--glue", "g", "--model", "potts",
                    "--json", out])
        assert code == 0
        assert capsys.readouterr().out == TWOSUM_POTTS_STDOUT
        results = json.loads(out.read_text())["results"]
        terms = [(labels.split(",") if labels else [], k) for labels, k in TWOSUM_POTTS_TERMS]
        assert results == {"glue": "g", "model": "potts", "q": None, "terms": single_term_payload(terms)}

    def test_symbolic_potts_weight_side_not_divisible(self, files, tmp_path, capsys):
        # a weight-file side has constant coefficients, so its glue weight
        # q (L_g - L^g) is not divisible by 1 - q in symbolic q
        left = tmp_path / "l.weights"
        left.write_text("elements: a,g\n- : 1\na : 2\ng : 2\na,g : 2\n")
        code = run(["twosum", left, files["tri2"], "--glue", "g", "--model", "potts"])
        assert code == 3
        err = capsys.readouterr().err
        assert "not divisible by (1 - q) on the left side" in err
        assert "q must be given as a rational" in err


class TestDelta:
    def test_matroid_bases_pass(self, files):
        assert run(["delta", "check", files["u32"]]) == 0

    def test_gap_support_fails(self, files, capsys):
        code, report = run_json(files, ["delta", "check", files["corr"]], capsys)
        assert code == 1
        assert report["results"]["convex"] is False

    @pytest.mark.parametrize(
        "name,code,results,stdout",
        [("k4_bases", 0, K4_DELTA, K4_DELTA_STDOUT), ("swapless", 1, SWAPLESS_DELTA, SWAPLESS_DELTA_STDOUT)],
        ids=["k4", "swapless"],
    )
    def test_bases_file_report(self, files, capsys, name, code, results, stdout):
        assert run(["delta", "check", files[name]]) == code
        assert capsys.readouterr().out == stdout
        for path in (files[name], files[f"{name}_unit"]):
            got, report = run_json(files, ["delta", "check", path], capsys)
            assert (got, report["results"]) == (code, results)

    def test_flatten_member_cap(self, files, capsys):
        # unit weights on all 2^7 subsets flatten to C(14, 7) = 3,432 members:
        # refused before the exchange scan starts; all 2^6 give 924 and pass
        for m, code in ((6, 0), (7, 3)):
            labels = [chr(ord("a") + i) for i in range(m)]
            lines = [",".join(c) or "-" for k in range(m + 1) for c in itertools.combinations(labels, k)]
            path = files["dir"] / f"cube{m}.weights"
            path.write_text(f"elements: {','.join(labels)}\n" + "".join(f"{line} : 1\n" for line in lines))
            assert run(["delta", "check", path]) == code
        assert "3432 members, above the cap of 1000" in capsys.readouterr().err

    def test_log_submodular_exhaustive_above_ten(self, files, capsys):
        # w(a)w(b) = 1 < 2 = w(empty)w(ab) on 11 elements
        path = files["dir"] / "eleven.weights"
        path.write_text("elements: a,b,c,d,e,f,g,h,i,j,k\n- : 1\na : 1\nb : 1\na,b : 2\n")
        code, report = run_json(files, ["delta", "check", path], capsys)
        assert code == 1
        assert report["results"]["log_submodular"] is False


class TestSeq:
    def test_ladder_pass(self, files):
        assert run(["seq", "check", "--values", "1,3,3,1", "--m", "3"]) == 0

    def test_ladder_fail(self):
        assert run(["seq", "check", "--values", "1,1,4", "--conditions", "a2"]) == 1

    def test_a4_without_m_is_usage_error(self):
        assert run(["seq", "check", "--values", "1,2,1", "--conditions", "a4"]) == 3

    def test_unknown_condition(self):
        assert run(["seq", "check", "--values", "1,2,1", "--conditions", "a9"]) == 3

    def test_window_family_ladder(self):
        # the normalized comparison holds at the window edge but the
        # polynomial is not real-rooted, so the full ladder exits 1
        base = ["seq", "check", "--values", "1,12,60,80,60,12,1", "--m", "6"]
        assert run(base + ["--conditions", "a0,a2,a4"]) == 0
        assert run(base) == 1


class TestMason:
    def test_k4(self, files, capsys):
        code, report = run_json(files, ["mason", files["k4"]], capsys)
        assert code == 0
        res = report["results"]
        assert res["independent"] == [1, 6, 15, 16]
        assert res["conjectured_ok"] is True
        assert res["conditions"]["i5"] is False
        assert res["h_lym_nonincreasing"] is True

    def test_k4_golden(self, files, capsys):
        code, report = run_json(files, ["mason", files["k4"]], capsys)
        assert code == 0
        assert report["results"] == {
            **K4_INVARIANTS,
            "conditions": {"i0": True, "i1": True, "i2": True, "i3": True, "i4": True, "i5": False},
            "h_log_concave": True,
            "h_lym_nonincreasing": True,
            "conjectured_ok": True,
        }


class TestProbe:
    def test_margin_nonnegative_is_inconclusive(self, files):
        code = run(["probe", "margin", files["u32"], "--pair", "1,2", "--samples", "5"])
        assert code == 2

    def test_qc_uniform_exact(self, files, capsys):
        code, report = run_json(files, ["probe", "qc", files["u32"]], capsys)
        assert code == 0
        assert report["results"]["exact"] is True
        assert report["results"]["passed"] == "1"

    def test_qc_bisection_inexact(self, files, capsys):
        code, report = run_json(
            files,
            ["probe", "qc", files["tri"], "--resolution", "3", "--budget", "16"],
            capsys,
        )
        assert code == 2
        assert report["results"]["exact"] is False


class TestCorpus:
    def test_single_item(self, files, capsys):
        code, report = run_json(files, ["corpus", "--only", "golden-invariant"], capsys)
        assert code == 0
        assert report["results"]["items"][0]["name"] == "golden-invariant-counts"

    def test_filter_without_match(self, files):
        assert run(["corpus", "--only", "zz-no-such-item"]) == 3

    def test_extra_weight_file(self, files, capsys):
        code, report = run_json(
            files, ["corpus", files["pos"], "--only", "support-necessary"], capsys
        )
        assert code == 0


class TestUsageErrors:
    def test_missing_file(self, files):
        assert run(["matroid", "info", str(files["dir"] / "nope.graph")]) == 3

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 3

    def test_no_args(self, capsys):
        assert run([]) == 3

    def test_removed_options_are_unknown(self, files, capsys):
        assert run(["rayleigh", "check", files["k4"], "--threads", "4"]) == 3
        assert run(["potts", "build", files["u32"], "--symbolic"]) == 3

    def test_ambiguous_edge_labels(self, tmp_path, capsys):
        # `a:b` and `c,d` would make the pair key `a:b,c,d` ambiguous
        bad = tmp_path / "bad.graph"
        bad.write_text("graph 3\n0 1 a:b\n1 2 c,d\n")
        assert run(["rayleigh", "check", str(bad)]) == 3
        assert "label" in capsys.readouterr().err

    def test_corrupted_weight_file(self, files, tmp_path):
        bad = tmp_path / "bad.weights"
        bad.write_text("elements: a\na : 1.5\n")
        assert run(["rayleigh", "check", str(bad)]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["rayleigh", "check", "corr", "--strategy", "sample", "--samples", "-5"],
            ["probe", "margin", "u32", "--pair", "1,2", "--samples", "-3"],
            ["probe", "qc", "u32", "--resolution", "0"],
            ["probe", "qc", "tri", "--budget", "0"],
        ],
        ids=["check-samples", "margin-samples", "qc-resolution", "qc-budget"],
    )
    def test_nonpositive_count_refused(self, files, capsys, argv):
        argv = [files.get(a, a) for a in argv]
        assert run(argv) == 3
        assert "must be at least 1" in capsys.readouterr().err


def readme_commands() -> list[str]:
    """The `rayleigh-forge ...` lines of README's command-line block, continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("rayleigh-forge ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) == 11
    parser = _build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


class TestDeterminism:
    def test_same_invocation_same_report(self, files, capsys):
        _, first = run_json(files, ["rayleigh", "check", files["u32"],
                                    "--strategy", "sample", "--samples", "20"], capsys)
        _, second = run_json(files, ["rayleigh", "check", files["u32"],
                                     "--strategy", "sample", "--samples", "20"], capsys)
        for rep in (first, second):
            rep.pop("elapsed_seconds")
        assert first == second

    def test_seed_changes_samples(self, files, capsys):
        _, a = run_json(files, ["rayleigh", "check", files["corr3"], "--strategy",
                                "sample", "--pair", "x,y", "--seed", "1"], capsys)
        _, b = run_json(files, ["rayleigh", "check", files["corr3"], "--strategy",
                                "sample", "--pair", "x,y", "--seed", "2"], capsys)
        wa = a["results"]["verdicts"]["x,y"]["witness"]
        wb = b["results"]["verdicts"]["x,y"]["witness"]
        assert wa != wb

