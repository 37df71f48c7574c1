"""Benchmark for the rayleigh-forge command line.

    python3 perfbench/run.py --workload coeff-sweep --seed 1 --seconds 35 --trace 0

One process, one client, no threads: a closed loop calls
`rayleigh_forge.cli.main(argv)` once for each op of the workload.  The op
list is fixed per workload and sized to fit the `--seconds` the benchmark is
run with; it does not grow or shrink with the speed of the code under test,
so n and the tail percentile's rank are the same on every commit.  Every op passes
through the output gate in `gates.py`; with `--trace 1` each op is also
composed from the package's public functions and timed layer by layer
(`traced.py`), and the composed results must equal the CLI report.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Lines before it start with
`#` and record the run conditions, the inputs' sha256 and the tail
percentile.  `--write-golden` stores the reports of the default seed as the
golden reports.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
GOLDEN = HERE / "golden"
DEFAULT_SEED = 1
SETUP_REPEATS = 9

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import rayleigh_forge.cli; print(time.perf_counter() - t)"
)


def _conditions() -> str:
    try:
        load = Path("/proc/loadavg").read_text().strip()
    except OSError:
        load = "unavailable"
    return f"python={sys.version.split()[0]} nproc={os.cpu_count()} loadavg={load}"


def _import_seconds() -> float:
    """Import time of the CLI module in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    k = max(len(ordered) - 10, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


def _report_path(op) -> Path:
    return Path(op.argv[op.argv.index("--json") + 1])


def _run_cli(cli, op) -> tuple[int, dict, float]:
    path = _report_path(op)
    path.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = cli.main(list(op.argv))
    elapsed = time.perf_counter() - start
    if not path.exists():
        raise RuntimeError(f"exit {code} and no report: {sink.getvalue().strip()[-300:]}")
    return code, json.loads(path.read_text()), elapsed


def _load_golden(workload: str, ops, seed: int) -> dict[str, dict]:
    golden = {}
    for op in ops:
        path = GOLDEN / workload / f"{op.name}.json"
        if seed == DEFAULT_SEED or op.seed_free:
            if not path.exists():
                raise FileNotFoundError(f"missing golden report {path}")
            golden[op.name] = json.loads(path.read_text())
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="store this run's reports as golden")
    args = parser.parse_args(argv)
    if args.write_golden and args.seed != DEFAULT_SEED:
        parser.error(f"golden reports are kept for seed {DEFAULT_SEED} only")

    if not (SRC / "rayleigh_forge" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("RAYLEIGH_FORGE_THREADS", None)
    sys.path.insert(0, str(SRC))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# conditions at start: {_conditions()}")

    work = WORK / args.workload
    _import_seconds()  # untimed: fills the file cache, so set-ups time the import itself
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, work / "inputs", work / "reports")
        generated = time.perf_counter() - start
        setups.append(_import_seconds() + generated)
    (work / "reports").mkdir(parents=True, exist_ok=True)
    digest, nfiles = workloads.inputs_digest(work / "inputs")
    print(f"# inputs sha256={digest} files={nfiles}")

    # gates and traced import the package, so they load once src is on sys.path
    from rayleigh_forge import cli

    from gates import Gate, normalized

    gate = Gate({} if args.write_golden else _load_golden(args.workload, ops, args.seed))
    if args.trace:
        from traced import Tracer, compose

        tracer = Tracer()
        stats = dict.fromkeys(("coeff_pairs", "verified", "samples", "refuted"), 0)
        composed_seconds = 0.0
    op_seconds: list[float] = []
    failed = 0
    pairs = 0

    def run_op(op, op_id: int) -> None:
        nonlocal failed, pairs, composed_seconds
        try:
            code, report, elapsed = _run_cli(cli, op)
            op_seconds.append(elapsed)
            pairs += len(report["results"].get("verdicts", ()))
            problems = gate.check(op, code, report)
            if args.write_golden:
                path = GOLDEN / args.workload / f"{op.name}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(normalized(report), sort_keys=True) + "\n")
            if args.trace:
                tracer.begin_op(op_id)
                results, more, seconds = compose(op, tracer, stats)
                composed_seconds += seconds
                problems += more
                if results != normalized(report)["results"]:
                    problems.append("composed results differ from the CLI report")
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            print(f"# FAILED {op.name}: " + " | ".join(problems), file=sys.stderr)

    start = time.perf_counter()
    for i, op in enumerate(ops):
        run_op(op, i)
    window = time.perf_counter() - start

    attempted = len(ops)
    busy = sum(op_seconds)
    print(f"# ops={attempted} busy_s={busy:.3f} window_s={window:.3f} witnesses_rechecked={gate.witnesses_checked}")
    tail, pct = _tail(op_seconds)
    print(f"# op_s.tail is p{pct:.1f} of n={len(op_seconds)}")
    if args.trace:
        metrics = _layer_metrics(tracer, stats, attempted, composed_seconds, busy)
        metrics["pairs_per_s"] = {"value": pairs / busy, "unit": "1/s"}
        metrics["failed_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        trace_file = work / "trace.json"
        trace_file.write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters}) + "\n")
        print(f"# spans={len(tracer.spans)} written to {trace_file}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s.p50": {"value": statistics.median(op_seconds), "unit": "s"},
            "op_s.tail": {"value": tail, "unit": "s"},
            "ops_per_s": {"value": len(op_seconds) / busy, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(f"# conditions at end: {_conditions()}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(tracer, stats, attempted, composed_seconds, busy) -> dict:
    from traced import COUNTERS, LAYER_SPANS

    totals: dict[str, float] = {}
    for name, start, end, _parent, _op in tracer.spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    metrics = {}
    for layer in LAYER_SPANS:
        metrics[f"{layer}_s"] = {"value": totals.get(layer, 0.0) / attempted, "unit": "s/op"}
    for name, unit in COUNTERS.items():
        metrics[name] = {"value": sum(c[name] for c in tracer.counters.values()), "unit": unit}
    for item in workloads.CORPUS_ITEMS:
        metrics[f"corpus.{item}_s"] = {"value": totals.get(f"corpus.{item}", 0.0), "unit": "s"}
    metrics["rayleigh.verified_ratio"] = {
        "value": stats["verified"] / stats["coeff_pairs"] if stats["coeff_pairs"] else 0.0,
        "unit": "ratio",
    }
    metrics["rayleigh.refuted_per_sample"] = {
        "value": stats["refuted"] / stats["samples"] if stats["samples"] else 0.0,
        "unit": "ratio",
    }
    metrics["trace.overhead_ratio"] = {"value": composed_seconds / busy, "unit": "ratio"}
    layered = {k: v for k, v in totals.items() if k != "op"}
    layered["unattributed"] = composed_seconds - sum(layered.values())
    for name, seconds in sorted(layered.items(), key=lambda kv: -kv[1]):
        print(f"# share {name} {seconds / composed_seconds:.3f}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
