"""The output gate: every check an op must pass to count as not failed.

An op fails when its exit code disagrees with its report under the 0/1/2
contract, when a Refuted witness does not re-evaluate through
`scalar_pair_diff` to the reported negative value, when a pair that must be
Verified is not, when a corpus item does not pass, or when its report differs
from the golden report kept with the benchmark.
"""

from __future__ import annotations

import copy

from rayleigh_forge.fileio import detect_format, parse_bases_file, parse_graph_file, parse_weight_file
from rayleigh_forge.matroids import graphic_matroid, matroid_from_bases
from rayleigh_forge.potts import Model, model_poly
from rayleigh_forge.rayleigh import scalar_pair_diff
from rayleigh_forge.scalars import format_rat, parse_rat

STATUS_EXIT = {"verified": 0, "refuted": 1, "inconclusive": 2}


def normalized(report: dict) -> dict:
    """The report without timing fields and without the path-bearing fields."""
    out = copy.deepcopy(report)
    for key in ("elapsed_seconds", "command", "inputs"):
        out.pop(key, None)
    for item in out.get("results", {}).get("items", ()):
        item.pop("seconds", None)
    return out


def sweep_summary(statuses) -> str:
    statuses = set(statuses)
    if "refuted" in statuses:
        return "refuted"
    if "inconclusive" in statuses:
        return "inconclusive"
    return "verified"


def partition_function(op):
    """The op's input as a rational SubsetPoly, for witness re-evaluation."""
    with open(op.path) as fh:
        text = fh.read()
    fmt = detect_format(text)
    if fmt == "weights":
        return parse_weight_file(text)
    if fmt == "graph":
        matroid = graphic_matroid(parse_graph_file(text))
    else:
        matroid = matroid_from_bases(parse_bases_file(text))
    return model_poly(matroid, Model(op.model, parse_rat(op.q) if op.q is not None else None)).poly


class Gate:
    """Checks op reports; keeps the partition functions it needed for witnesses."""

    def __init__(self, golden: dict[str, dict]):
        self.golden = golden
        self.witnesses_checked = 0
        self._polys: dict[str, object] = {}

    def check(self, op, code: int, report: dict) -> list[str]:
        problems = []
        if report.get("exit_code") != code:
            problems.append(f"report exit_code {report.get('exit_code')} but main returned {code}")
        results = report["results"]
        if op.kind in ("coeff", "sample"):
            verdicts = results["verdicts"]
            summary = sweep_summary(v["status"] for v in verdicts.values())
            if results["summary"] != summary:
                problems.append(f"summary {results['summary']} but verdicts give {summary}")
            expected = STATUS_EXIT[summary]
            if op.all_verified and summary != "verified":
                problems.append("a pair that must be Verified is not")
            problems += self._witnesses(op, verdicts)
        elif op.kind == "mason":
            expected = 0 if results["conjectured_ok"] else 1
        elif op.kind == "seq":
            expected = 0 if all(c["holds"] for c in results["conditions"].values()) else 1
        else:
            items = results["items"]
            if [i["name"] for i in items] != [op.item]:
                problems.append(f"expected the single item {op.item}, got {[i['name'] for i in items]}")
            if not all(i["passed"] for i in items):
                problems.append("corpus item failed: " + "; ".join(i["detail"] for i in items))
            expected = 0 if all(i["passed"] for i in items) else 1
        if code != expected:
            problems.append(f"exit code {code}, report implies {expected}")
        golden = self.golden.get(op.name)
        if golden is not None and normalized(report) != golden:
            problems.append("report differs from the golden report")
        return problems

    def _witnesses(self, op, verdicts: dict) -> list[str]:
        problems = []
        for key, v in verdicts.items():
            if v["status"] != "refuted":
                continue
            if op.path not in self._polys:
                self._polys[op.path] = partition_function(op)
            z = self._polys[op.path]
            e, f = key.split(",")
            point = {lab: parse_rat(x) for lab, x in v["witness"].items()}
            value = scalar_pair_diff(z, e, f, point)
            self.witnesses_checked += 1
            if not value < 0 or format_rat(value) != v["value"]:
                problems.append(f"pair {key}: witness re-evaluates to {format_rat(value)}, report says {v['value']}")
        return problems
