"""The summary arithmetic of scripts/bench_pairs.py, on fixed numbers; no benchmark is started."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [0.06, 0.05, 0.07, 0.06, 0.08]
CHANGE = [0.03, 0.03, 0.02, 0.04, 0.03]


def test_seeds_and_sides():
    assert bench_pairs.parse_seeds("601-604") == [601, 602, 603, 604]
    assert bench_pairs.parse_seeds("7,9") == [7, 9]
    assert bench_pairs.first_sides(3) == ["parent", "change", "parent"]


def test_inclusive_quartiles():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0)


def test_metric_summary_lower_is_better():
    got = bench_pairs.summarize_metric(PARENT, CHANGE, "lower")
    assert got == {
        "parent_median": 0.06,
        "change_median": 0.03,
        "parent_quartiles": [0.06, 0.07],
        "change_quartiles": [0.03, 0.03],
        "parent_iqr_over_median": 0.167,
        "median_ratio_change_over_parent": 0.5,
        "pairs_change_better": 5,
        "pair_ratios_change_over_parent": [0.5, 0.6, 0.286, 0.667, 0.375],
        "parent_values": PARENT,
        "change_values": CHANGE,
    }


def test_metric_summary_higher_is_better():
    got = bench_pairs.summarize_metric([10.0, 20.0, 30.0], [12.0, 20.0, 29.0], "higher")
    assert got["pairs_change_better"] == 1  # a tie is no win
    assert got["pair_ratios_change_over_parent"] == [1.2, 1.0, 0.967]
    with pytest.raises(ValueError):
        bench_pairs.summarize_metric([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize_metric([1.0], [1.0], "faster")


def report(p50: float, rss: float, correct: bool = True) -> dict:
    return {"correct": correct, "metrics": {"op_s.p50": {"value": p50}, "peak_rss_mb": {"value": rss}}}


DIRECTIONS = {"op_s.p50": "lower", "peak_rss_mb": "lower"}


def test_workload_summary_and_claim():
    runs = [{"parent": report(p, 25.0), "change": report(c, 25.5)} for p, c in zip(PARENT, CHANGE)]
    summary = bench_pairs.summarize_workload([1, 2, 3, 4, 5], runs, DIRECTIONS)
    assert summary["pairs"] == 5 and summary["all_correct"]
    assert summary["first_side"] == ["parent", "change", "parent", "change", "parent"]
    assert summary["metrics"]["peak_rss_mb"]["median_ratio_change_over_parent"] == 1.02
    claim = bench_pairs.claim_block("w", "op_s.p50", summary, "lower")
    assert claim["parent_iqr"] == 0.01 and claim["pairs_change_better"] == 5 and claim["resolved"]

    # one failed op anywhere clears all_correct; a lost pair in five or a
    # median gap inside the parent's IQR leaves the claim unresolved
    runs[2]["change"] = report(0.09, 25.5, correct=False)
    summary = bench_pairs.summarize_workload([1, 2, 3, 4, 5], runs, DIRECTIONS)
    assert not summary["all_correct"]
    assert not bench_pairs.claim_block("w", "op_s.p50", summary, "lower")["resolved"]
    close = [{"parent": report(p, 25.0), "change": report(p - 0.001, 25.0)} for p in PARENT]
    claim = bench_pairs.claim_block(
        "w", "op_s.p50", bench_pairs.summarize_workload([1] * 5, close, DIRECTIONS), "lower"
    )
    assert claim["pairs_change_better"] == 5 and not claim["resolved"]
    # the same numbers read as a metric where higher is better: no gain
    assert not bench_pairs.claim_block("w", "op_s.p50", summary, "higher")["resolved"]


def test_main_alternates_sides(tmp_path, monkeypatch):
    declared = {
        "run_seconds": 35,
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": name, "better": better} for name, better in DIRECTIONS.items()],
    }
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(declared))
    calls = []
    values = {"parent": iter(PARENT), "change": iter(CHANGE)}

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return report(next(values[checkout.name]), 25.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH_test.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--out", str(out)]
    assert bench_pairs.main([*argv, "--seeds", "11-15", "--claim", "w:op_s.p50", "--what", "x"]) == 0
    assert [c[0] for c in calls[:4]] == ["parent", "change", "change", "parent"]
    assert [c[2] for c in calls[::2]] == [11, 12, 13, 14, 15]
    assert {c[1:4:2] for c in calls} == {("w", 35)}
    assert '"seeds": [11, 12, 13, 14, 15],' in out.read_text()
    doc = json.loads(out.read_text())
    assert doc["claim"]["resolved"]
    assert doc["pairs"]["w"]["metrics"]["op_s.p50"]["parent_values"] == PARENT
