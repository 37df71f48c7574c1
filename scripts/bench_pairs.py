#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarize them as a BENCH_*.json.

Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 35 --trace 0

once in each of two checkouts, with one seed per pair for both sides and
the run length that the change's BENCHMARK.json declares.  The parent runs
first in pairs 1, 3, 5, ... and the change first in the others, so a slow
stretch of a shared machine falls on both sides alike.  For every
end-to-end metric that BENCHMARK.json declares, the summary gives both
sides' medians and inclusive quartiles, the parent's IQR over its median,
the ratio of the medians, and the per-pair ratios change / parent with the
number of pairs the change wins in the metric's better direction.

Usage:
  bench_pairs.py --parent DIR --change DIR --out BENCH_x.json --seeds 601-610
                 [--workloads W,W,...] [--claim WORKLOAD:METRIC] [--what TEXT]

Standard library only; needs nothing installed beyond each checkout's own
source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

RUN = ("python3", "perfbench/run.py")


def parse_seeds(text: str) -> list[int]:
    """"601-610" or "601,603,605" as a list of ints."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def first_sides(pairs: int) -> list[str]:
    return ["parent" if i % 2 == 0 else "change" for i in range(pairs)]


def quartiles(values: list[float]) -> tuple[float, float]:
    """Inclusive first and third quartiles."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize_metric(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's pairs, parent[i] and change[i] measured in pair i; better is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, not {better!r}")
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return {
        "parent_median": round(p_med, 6),
        "change_median": round(c_med, 6),
        "parent_quartiles": [round(q, 6) for q in p_q],
        "change_quartiles": [round(q, 6) for q in c_q],
        "parent_iqr_over_median": round((p_q[1] - p_q[0]) / p_med, 3),
        "median_ratio_change_over_parent": round(c_med / p_med, 3),
        "pairs_change_better": wins,
        "pair_ratios_change_over_parent": [round(c / p, 3) for p, c in zip(parent, change)],
        "parent_values": [round(v, 6) for v in parent],
        "change_values": [round(v, 6) for v in change],
    }


def summarize_workload(seeds: list[int], runs: list[dict], directions: dict[str, str]) -> dict:
    """runs[i] = {"parent": report, "change": report} for pair i; a report is run.py's JSON line."""
    metrics = {
        name: summarize_metric(
            [pair["parent"]["metrics"][name]["value"] for pair in runs],
            [pair["change"]["metrics"][name]["value"] for pair in runs],
            better,
        )
        for name, better in directions.items()
    }
    return {
        "pairs": len(runs),
        "seeds": seeds,
        "first_side": first_sides(len(runs)),
        "all_correct": all(pair[side]["correct"] for pair in runs for side in ("parent", "change")),
        "metrics": metrics,
    }


def claim_block(workload: str, metric: str, summary: dict, better: str) -> dict:
    """The claimed metric: medians and wins, and whether the change wins 9 pairs in 10 and
    its median is better than the parent's by more than the parent's IQR."""
    got = summary["metrics"][metric]
    q1, q3 = got["parent_quartiles"]
    iqr = round(q3 - q1, 6)
    gain = got["parent_median"] - got["change_median"]
    if better == "higher":
        gain = -gain
    pairs = summary["pairs"]
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": got["parent_median"],
        "change_median": got["change_median"],
        "pairs_change_better": got["pairs_change_better"],
        "pairs": pairs,
        "parent_iqr": iqr,
        "resolved": got["pairs_change_better"] * 10 >= 9 * pairs and gain > iqr,
    }


def dumps(doc: dict) -> str:
    """Indented JSON with each list of numbers or strings on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text) + "\n"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [*RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help='one seed per pair: "601-610" or "1,2,3"')
    parser.add_argument("--workloads", help="comma-separated; default: every workload in BENCHMARK.json")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--what", default="", help="one line on what the change does")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in declared["workloads"]]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = {}
    for workload in workloads:
        runs = []
        for seed, first in zip(args.seeds, first_sides(len(args.seeds))):
            order = ("parent", "change") if first == "parent" else ("change", "parent")
            pair = {side: run_once(checkouts[side], workload, seed, seconds) for side in order}
            p50 = {side: pair[side]["metrics"]["op_s.p50"]["value"] for side in order}
            print(f"# {workload} seed={seed} parent={p50['parent']:.6f} change={p50['change']:.6f}", file=sys.stderr)
            runs.append(pair)
        pairs[workload] = summarize_workload(args.seeds, runs, directions)

    doc = {"what": args.what}
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = claim_block(workload, metric, pairs[workload], directions[metric])
    doc.update(
        command=" ".join(RUN) + f" --workload W --seed S --seconds {seconds:g} --trace 0,"
        " run from a checkout of each commit",
        host=f"{os.cpu_count()}-core {platform.system()}, Python {platform.python_version()}",
        method=f"{len(args.seeds)} pairs per workload; one seed per pair for both sides; the parent runs "
        "first in pairs 1, 3, 5, ... and the change first in the others; ratios are change / parent; "
        "quartiles are inclusive",
        pairs=pairs,
    )
    args.out.write_text(dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
