"""The traced run: each op composed from the package's public functions.

Spans are recorded from outside, around the call into each layer, and kept
in memory until the run writes them out.  Counters are recorded at the same
boundaries.  Every composed op returns the `results` object the CLI report
holds for the same op, so the two can be compared exactly.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from rayleigh_forge.corpus import run_corpus
from rayleigh_forge.fileio import detect_format, parse_bases_file, parse_graph_file, parse_weight_file
from rayleigh_forge.matroids import comb_frac, graphic_matroid, invariant_sequences, matroid_from_bases
from rayleigh_forge.polynomials import multiply, rayleigh_diff
from rayleigh_forge.potts import Model, model_poly
from rayleigh_forge.prng import SplitMix64, derive, sample_point
from rayleigh_forge.rayleigh import scalar_pair_diff
from rayleigh_forge.scalars import format_rat, parse_rat
from rayleigh_forge.sequences import CONDITIONS, Seq, check_condition, seq_from_values

from gates import sweep_summary

LAYER_SPANS = (
    "fileio.parse",
    "matroids.build",
    "matroids.enum",
    "potts.build",
    "polynomials.slice",
    "polynomials.product",
    "polynomials.diff",
    "rayleigh.judge_coeff",
    "rayleigh.judge_sample",
    "rayleigh.witness",
    "sequences.ladder",
    "sequences.sturm",
)

COUNTERS = {
    "fileio.parse_calls": "count",
    "fileio.input_bytes": "bytes",
    "matroids.rank_calls": "count",
    "potts.terms": "count",
    "polynomials.product_mults": "count",
    "polynomials.quad_terms": "count",
    "rayleigh.samples_drawn": "count",
    "rayleigh.witness_checks": "count",
    "sequences.check_calls": "count",
}

_PARSERS = {"graph": parse_graph_file, "bases": parse_bases_file, "weights": parse_weight_file}


class Tracer:
    """Spans (name, start, end, parent index, op id) and per-op counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self.op_id = -1

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.counters[op_id] = dict.fromkeys(COUNTERS, 0)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[self.op_id][name] += n

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)


def _count_rank_calls(matroid, tr: Tracer) -> None:
    inner = matroid.rank

    def rank(word: int) -> int:
        tr.count("matroids.rank_calls")
        return inner(word)

    matroid.rank = rank


def _load(op, tr: Tracer):
    with tr.span("fileio.parse"):
        data = Path(op.path).read_bytes()
        text = data.decode("utf-8")
        fmt = detect_format(text)
        parsed = _PARSERS[fmt](text)
    tr.count("fileio.parse_calls")
    tr.count("fileio.input_bytes", len(data))
    return fmt, parsed


def _verdict(status, pair, method=None, witness=None, value=None, samples=0, min_value=None) -> dict:
    """The CLI's verdict payload, field for field."""
    out: dict = {"status": status}
    if method is not None:
        out["method"] = method
    out["pair"] = list(pair)
    if witness is not None:
        out["witness"] = {k: format_rat(x) for k, x in sorted(witness.items())}
    if value is not None:
        out["value"] = format_rat(value)
    if samples:
        out["samples"] = samples
    if min_value is not None:
        out["min_sampled"] = format_rat(min_value)
    return out


def compose_rayleigh(op, tr: Tracer, stats: dict, problems: list[str]):
    """`rayleigh check` sweep; returns (results, first-pair check inputs)."""
    fmt, parsed = _load(op, tr)
    if fmt == "weights":
        z = parsed
    else:
        with tr.span("matroids.build"):
            matroid = graphic_matroid(parsed) if fmt == "graph" else matroid_from_bases(parsed)
        _count_rank_calls(matroid, tr)
        model = Model(op.model, parse_rat(op.q) if op.q is not None else None)
        with tr.span("potts.build"):
            z = model_poly(matroid, model).poly
        tr.count("potts.terms", len(z.terms))
    labels = z.ground.labels
    pairs = [(labels[i], labels[j]) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    verdicts = {}
    first = None
    for idx, (e, f) in enumerate(pairs):
        with tr.span("polynomials.slice"):
            ze, zf = z.contract(e), z.contract(f)
            a, b = ze.delete(f), zf.delete(e)
            c, d = ze.contract(f), z.delete(e).delete(f)
        with tr.span("polynomials.product"):
            left, right = multiply(a, b), multiply(c, d)
        tr.count("polynomials.product_mults", len(a.terms) * len(b.terms) + len(c.terms) * len(d.terms))
        with tr.span("polynomials.diff"):
            diff = left - right
        tr.count("polynomials.quad_terms", len(diff.terms))
        if first is None:
            first = (z, e, f, diff)
        if op.kind == "coeff":
            with tr.span("rayleigh.judge_coeff"):
                ok = diff.is_coefficientwise_nonnegative()
            stats["coeff_pairs"] += 1
            stats["verified"] += ok
            verdict = (
                _verdict("verified", (e, f), method="coeff-positive") if ok else _verdict("inconclusive", (e, f))
            )
        else:
            verdict = _judge_sample(op, tr, stats, problems, z, diff, idx, e, f)
        verdicts[f"{e},{f}"] = verdict
    summary = sweep_summary(v["status"] for v in verdicts.values())
    strategy = "coeff" if op.kind == "coeff" else "sample"
    return {"strategy": strategy, "verdicts": verdicts, "summary": summary}, first


def _judge_sample(op, tr, stats, problems, z, diff, idx, e, f) -> dict:
    """check_all's per-pair stream: SplitMix64(derive(seed, idx).next_u64())."""
    rng = SplitMix64(derive(op.seed, idx).next_u64())
    sample_labels = diff.ground.labels
    min_value = None
    refuted = None
    drawn = 0
    with tr.span("rayleigh.judge_sample"):
        for _ in range(op.samples):
            point = sample_point(rng, sample_labels)
            value = diff.evaluate(point)
            drawn += 1
            if min_value is None or value < min_value:
                min_value = value
            if value < 0:
                refuted = (point, value)
                break
    tr.count("rayleigh.samples_drawn", drawn)
    stats["samples"] += drawn
    if refuted is None:
        return _verdict("inconclusive", (e, f), samples=op.samples, min_value=min_value)
    point, value = refuted
    stats["refuted"] += 1
    with tr.span("rayleigh.witness"):
        again = scalar_pair_diff(z, e, f, point)
    tr.count("rayleigh.witness_checks")
    if again != value:
        problems.append(f"pair {e},{f}: witness re-evaluates to {format_rat(again)}, sampled {format_rat(value)}")
    return _verdict("refuted", (e, f), witness=point, value=value, samples=drawn)


def compose_mason(op, tr: Tracer):
    """`mason`: invariant counts, then the ladder a0..a5 and h log-concavity."""
    _, graph = _load(op, tr)
    with tr.span("matroids.build"):
        matroid = graphic_matroid(graph)
    _count_rank_calls(matroid, tr)
    with tr.span("matroids.enum"):
        inv = invariant_sequences(matroid)

    def ladder(seq: Seq, cond: str) -> bool:
        with tr.span("sequences.ladder"):
            holds = check_condition(seq, cond).holds
        tr.count("sequences.check_calls")
        return holds

    iseq = Seq(0, tuple(Fraction(x) for x in inv.I), m=inv.m)
    conditions = {f"i{j}": ladder(iseq, f"a{j}") for j in range(6)}
    h_log = False
    if all(x >= 0 for x in inv.h):
        hseq = Seq(0, inv.h, m=inv.m)
        h_log = ladder(hseq, "a0") and ladder(hseq, "a2")
    h_lym = all(
        inv.h[k] / comb_frac(inv.m, k) >= inv.h[k + 1] / comb_frac(inv.m, k + 1) for k in range(inv.r)
    )
    return {
        "m": inv.m,
        "r": inv.r,
        "independent": list(inv.I),
        "flats_by_rank": list(inv.W),
        "charpoly_magnitudes": list(inv.chi),
        "h_vector": [format_rat(h) for h in inv.h],
        "h_integral": inv.h_integral,
        "conditions": conditions,
        "h_log_concave": h_log,
        "h_lym_nonincreasing": h_lym,
        "conjectured_ok": all(conditions[f"i{j}"] for j in range(5)) and h_log,
    }


def compose_seq(op, tr: Tracer):
    """`seq check --m n`: a0..a5 on the ladder, a6 through Sturm chains."""
    seq = seq_from_values([parse_rat(v) for v in op.values], m=op.m)
    results = {}
    for cond in CONDITIONS:
        with tr.span("sequences.sturm" if cond == "a6" else "sequences.ladder"):
            verdict = check_condition(seq, cond)
        tr.count("sequences.check_calls")
        results[cond] = {"holds": verdict.holds, "witness": verdict.witness}
    return {"conditions": results}


def compose_corpus(op, tr: Tracer):
    with tr.span(f"corpus.{op.item}"):
        outcomes = run_corpus(only=op.item, seed=op.seed)
    return {"items": [{"name": i.name, "passed": i.passed, "detail": i.detail} for i in outcomes]}


def compose(op, tr: Tracer, stats: dict) -> tuple[dict, list[str], float]:
    """Run one composed op; returns its results, its problems and its traced time.

    For sweeps, the first pair's composed difference is compared with
    `rayleigh_diff` after the op's span has closed.
    """
    problems: list[str] = []
    first = None
    start = time.perf_counter()
    with tr.span("op"):
        if op.kind in ("coeff", "sample"):
            results, first = compose_rayleigh(op, tr, stats, problems)
        elif op.kind == "mason":
            results = compose_mason(op, tr)
        elif op.kind == "seq":
            results = compose_seq(op, tr)
        else:
            results = compose_corpus(op, tr)
    elapsed = time.perf_counter() - start
    if first is not None:
        z, e, f, diff = first
        if diff != rayleigh_diff(z, e, f):
            problems.append(f"composed difference for pair {e},{f} differs from rayleigh_diff")
    return results, problems, elapsed
