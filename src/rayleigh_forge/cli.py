"""Command-line front end: file ingestion, JSON reports, exit-code contract.

Exit codes: 0 every check passed or Verified; 1 something Refuted or false;
2 an Inconclusive result is present; 3 malformed input or usage error.
Reports are deterministic for fixed inputs and seed, up to timing fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from . import __version__
from .fileio import (
    InputFormatError,
    detect_format,
    parse_bases_file,
    parse_certificate_file,
    parse_graph_file,
    parse_weight_file,
    poly_payload,
    q_power_payload,
    q_power_text,
)
from .matroids import InvariantSequences, Matroid, graphic_matroid, invariant_sequences, matroid_from_bases
from .polynomials import SubsetPoly, poly_text
from .potts import Model, ModelPoly, model_poly, potts_poly, twosum_compose
from .prng import DEFAULT_SEED
from .rayleigh import (
    CoeffStrategy,
    RayleighVerdict,
    SampleStrategy,
    check_all,
    check_pair,
    conjecture_probe,
    estimate_qc,
)
from .scalars import format_rat, parse_rat
from .sequences import CONDITIONS, check_condition, mason_report, seq_from_values
from .supports import flatten, is_convex, layers, log_submodular_check, sea_check
from .corpus import run_corpus

_MODEL_NAMES = {
    "bases": "bases",
    "indep": "independent",
    "independent": "independent",
    "span": "spanning",
    "spanning": "spanning",
    "potts": "potts",
}

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract reserves 2 for
    Inconclusive, so usage problems are rerouted to exit 3."""

    def error(self, message):
        raise _UsageError(message)


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", default=hex(DEFAULT_SEED), help="PRNG seed (decimal or 0x hex)")
    common.add_argument("--json", metavar="PATH", default=None, help="write the JSON report here")
    return common


def _build_parser() -> _Parser:
    parser = _Parser(prog="rayleigh-forge", description=__doc__)
    common = [_common_flags()]
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matroid", parents=common, help="matroid reports")
    p.add_argument("action", choices=["info"])
    p.add_argument("path")
    p.add_argument("--fixed", default=None, help="comma-separated labels for fixed-subset basis counts")

    p = sub.add_parser("rayleigh", parents=common, help="pair-correlation verdicts")
    p.add_argument("action", choices=["check"])
    p.add_argument("path")
    p.add_argument("--model", default=None, choices=sorted(_MODEL_NAMES))
    p.add_argument("--q", default=None, help="rational q for the potts model")
    p.add_argument("--strategy", default="coeff", choices=["coeff", "sample", "cert"])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--pair", default=None, help="restrict to one pair, e.g. 1,2")
    p.add_argument("--certificate", default=None, help="square-certificate file (needs --pair)")

    p = sub.add_parser("potts", parents=common, help="random-cluster partition functions")
    p.add_argument("action", choices=["build"])
    p.add_argument("path")
    p.add_argument("--q", default=None, help="evaluate at this rational q (default: q stays symbolic)")

    p = sub.add_parser("twosum", parents=common, help="compose two inputs along a glue element")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--glue", required=True)
    p.add_argument("--model", default="bases", choices=sorted(_MODEL_NAMES))
    p.add_argument("--q", default=None)

    p = sub.add_parser("delta", parents=common, help="support structure of a weight function")
    p.add_argument("action", choices=["check"])
    p.add_argument("path")

    p = sub.add_parser("seq", parents=common, help="log-concavity condition ladder")
    p.add_argument("action", choices=["check"])
    p.add_argument("--values", required=True, help="comma-separated rationals")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--conditions", default=None, help="subset of a0..a6")

    p = sub.add_parser("mason", parents=common, help="counting-sequence report for a matroid")
    p.add_argument("path")

    p = sub.add_parser("probe", parents=common, help="conjecture probes (report margins only)")
    p.add_argument("action", choices=["margin", "qc"])
    p.add_argument("path")
    p.add_argument("--model", default=None, choices=sorted(_MODEL_NAMES))
    p.add_argument("--q", default=None)
    p.add_argument("--pair", default=None)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--resolution", type=int, default=10)
    p.add_argument("--budget", type=int, default=128)

    p = sub.add_parser("corpus", parents=common, help="run the built-in cross-check battery")
    p.add_argument("inputs", nargs="*", help="extra weight files to push through the support suite")
    p.add_argument("--only", default=None, help="run items whose name contains this substring")

    return parser


# --- input plumbing ---------------------------------------------------------------


def _read(path: str, digests: dict[str, str]) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    digests[path] = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8", errors="strict")


def _load_input(path: str, digests: dict[str, str]) -> tuple[str, object]:
    text = _read(path, digests)
    kind = detect_format(text)
    if kind == "graph":
        return "matroid", graphic_matroid(parse_graph_file(text))
    if kind == "bases":
        return "matroid", matroid_from_bases(parse_bases_file(text))
    return "poly", parse_weight_file(text)


def _model_of(name: str | None, q: str | None) -> Model:
    kind = _MODEL_NAMES[name or "bases"]
    if kind != "potts":
        if q is not None:
            raise InputFormatError("--q only applies to the potts model")
        return Model(kind)
    return Model("potts", parse_rat(q) if q is not None else None)


def _as_poly(loaded: tuple[str, object], model_name: str | None, q: str | None) -> SubsetPoly:
    kind, obj = loaded
    if kind == "poly":
        if model_name is not None:
            raise InputFormatError("--model does not apply to a weight-function file")
        return obj
    model = _model_of(model_name, q)
    if model.kind == "potts" and model.q0 is None:
        raise InputFormatError("sign decisions need a rational --q for the potts model")
    return model_poly(obj, model).poly


def _require_matroid(loaded: tuple[str, object], what: str) -> Matroid:
    kind, obj = loaded
    if kind != "matroid":
        raise InputFormatError(f"{what} expects a graph or bases file")
    return obj


def _parse_pair(text: str, z: SubsetPoly) -> tuple[str, str]:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 2 or parts[0] == parts[1]:
        raise InputFormatError("--pair takes two distinct labels, e.g. 1,2")
    for lab in parts:
        if lab not in z.ground.labels:
            raise InputFormatError(f"label {lab!r} is not in the ground set")
    return parts[0], parts[1]


def _verdict_payload(v: RayleighVerdict) -> dict:
    out: dict = {"status": v.status}
    if v.method is not None:
        out["method"] = v.method
    if v.pair is not None:
        out["pair"] = list(v.pair)
    if v.witness is not None:
        out["witness"] = {k: format_rat(x) for k, x in sorted(v.witness.items())}
    if v.value is not None:
        out["value"] = format_rat(v.value)
    if v.index is not None:
        out["index"] = v.index
    if v.samples:
        out["samples"] = v.samples
    if v.min_value is not None:
        out["min_sampled"] = format_rat(v.min_value)
    return out


_STATUS_EXIT = {"verified": EXIT_PASS, "refuted": EXIT_FAIL, "inconclusive": EXIT_INCONCLUSIVE}


# --- command handlers --------------------------------------------------------------


def _invariant_payload(inv: InvariantSequences) -> dict:
    """The report keys that `matroid info` and `mason` share."""
    return {
        "m": inv.m,
        "r": inv.r,
        "independent": list(inv.I),
        "flats_by_rank": list(inv.W),
        "charpoly_magnitudes": list(inv.chi),
        "h_vector": [format_rat(h) for h in inv.h],
        "h_integral": inv.h_integral,
    }


def _cmd_matroid(args, seed: int, digests) -> tuple[int, dict]:
    matroid = _require_matroid(_load_input(args.path, digests), "matroid info")
    fixed = tuple(s.strip() for s in args.fixed.split(",")) if args.fixed else None
    inv = invariant_sequences(matroid, fixed=fixed)
    results = {
        **_invariant_payload(inv),
        "loopless": inv.loopless,
        "fixed_counts": list(inv.c) if inv.c is not None else None,
    }
    print(f"m={inv.m} r={inv.r}")
    print("independent-set counts: " + ", ".join(map(str, inv.I)))
    print("flats by rank: " + ", ".join(map(str, inv.W)))
    print("charpoly magnitudes: " + ", ".join(map(str, inv.chi)))
    print("h-vector: " + ", ".join(format_rat(h) for h in inv.h))
    if inv.c is not None:
        print("bases by fixed-intersection size: " + ", ".join(map(str, inv.c)))
    return EXIT_PASS, results


def _cmd_rayleigh(args, seed: int, digests) -> tuple[int, dict]:
    if args.certificate is not None and args.strategy != "cert":
        raise InputFormatError("--certificate needs --strategy cert")
    if args.certificate is not None and args.pair is None:
        raise InputFormatError("--certificate needs --pair to say which pair it certifies")
    z = _as_poly(_load_input(args.path, digests), args.model, args.q)
    pair = _parse_pair(args.pair, z) if args.pair is not None else None
    if args.strategy == "sample":
        strategy = SampleStrategy(samples=args.samples, seed=seed)
    else:
        certs = {}
        if args.certificate is not None:
            certs[pair] = parse_certificate_file(_read(args.certificate, digests))
        strategy = CoeffStrategy(certs)
    if pair is not None:
        verdicts = {pair: check_pair(z, *pair, strategy)}
        summary = verdicts[pair].status
    else:
        sweep = check_all(z, strategy)
        verdicts, summary = sweep.verdicts, sweep.summary
    for (e, f), verdict in verdicts.items():
        print(f"pair ({e},{f}): {verdict.describe()}")
    if pair is None:
        print(f"summary: {summary}")
    return _STATUS_EXIT[summary], {
        "strategy": args.strategy,
        "verdicts": {f"{e},{f}": _verdict_payload(verdict) for (e, f), verdict in verdicts.items()},
        "summary": summary,
    }


def _cmd_potts(args, seed: int, digests) -> tuple[int, dict]:
    matroid = _require_matroid(_load_input(args.path, digests), "potts build")
    q0 = parse_rat(args.q) if args.q is not None else None
    mp = potts_poly(matroid, q0)
    q_mode = "symbolic" if q0 is None else format_rat(q0)
    print(f"{len(mp.poly.terms)} terms, q mode {q_mode}")
    coeff = q_power_payload if q0 is None else format_rat
    return EXIT_PASS, {"q_mode": q_mode, "terms": poly_payload(mp.poly, coeff)}


def _cmd_twosum(args, seed: int, digests) -> tuple[int, dict]:
    model = _model_of(args.model, args.q)
    symbolic = model.kind == "potts" and model.q0 is None
    sides = []
    for side, path in (("left", args.left), ("right", args.right)):
        kind, obj = _load_input(path, digests)
        if kind == "matroid":
            sides.append(model_poly(obj, model))
        elif symbolic:
            # a weight file has no q, so its glue weights are no polynomials in q
            raise InputFormatError(
                f"not divisible by (1 - q) on the {side} side: rational weights are not symbolic Potts slices,"
                " so q must be given as a rational"
            )
        else:
            sides.append(ModelPoly(obj, model))
    composed = twosum_compose(sides[0], sides[1], args.glue)
    print(f"{len(composed.poly.terms)} terms under the {model.kind} model")
    if len(composed.poly.terms) <= 64:
        print(poly_text(composed.poly, q_power_text if symbolic else format_rat))
    return EXIT_PASS, {
        "glue": args.glue,
        "model": model.kind,
        "q": format_rat(model.q0) if model.q0 is not None else None,
        "terms": poly_payload(composed.poly, q_power_payload if symbolic else format_rat),
    }


def _cmd_delta(args, seed: int, digests) -> tuple[int, dict]:
    text = _read(args.path, digests)
    kind = detect_format(text)
    if kind == "weights":
        z = parse_weight_file(text)
    elif kind == "bases":
        z = parse_bases_file(text)
    else:
        raise InputFormatError("delta check expects a weight-function or set-system file")
    record = flatten(z)
    layer_list = layers(z)
    results = {
        "convex": is_convex(z),
        "sea": sea_check(z),
        "log_submodular": log_submodular_check(z),
        "flatten": {"l": len(record.fresh), "exchange_ok": record.exchange_ok},
        "layers": [
            {"k": lv.k, "count": len(lv.system.terms), "exchange_ok": lv.exchange_ok}
            for lv in layer_list
        ],
    }
    ok = (
        results["convex"]
        and results["sea"]
        and results["log_submodular"]
        and record.exchange_ok
        and all(lv.exchange_ok for lv in layer_list)
    )
    for key in ("convex", "sea", "log_submodular"):
        print(f"{key}: {results[key]}")
    print(f"flatten: l={len(record.fresh)} exchange_ok={record.exchange_ok}")
    for lv in layer_list:
        print(f"layer k={lv.k}: {len(lv.system.terms)} members, exchange_ok={lv.exchange_ok}")
    return (EXIT_PASS if ok else EXIT_FAIL), results


def _cmd_seq(args, seed: int, digests) -> tuple[int, dict]:
    try:
        values = [parse_rat(v) for v in args.values.split(",")]
        seq = seq_from_values(values, m=args.m, offset=args.offset)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(str(exc)) from exc
    if args.conditions is None:
        conds = [c for c in CONDITIONS if c != "a4" or args.m is not None]
    else:
        conds = [c.strip() for c in args.conditions.split(",")]
        for c in conds:
            if c not in CONDITIONS:
                raise InputFormatError(f"unknown condition {c!r}")
    results = {}
    all_hold = True
    for cond in conds:
        try:
            verdict = check_condition(seq, cond)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
        results[cond] = {"holds": verdict.holds, "witness": verdict.witness}
        all_hold = all_hold and verdict.holds
        tail = f" (at index {verdict.witness})" if verdict.witness is not None else ""
        print(f"{cond}: {'holds' if verdict.holds else 'fails'}{tail}")
    return (EXIT_PASS if all_hold else EXIT_FAIL), {"conditions": results}


def _cmd_mason(args, seed: int, digests) -> tuple[int, dict]:
    matroid = _require_matroid(_load_input(args.path, digests), "mason")
    report = mason_report(matroid)
    results = {
        **_invariant_payload(report.inv),
        "conditions": {k: v.holds for k, v in sorted(report.conditions.items())},
        "h_log_concave": report.h_log_concave,
        "h_lym_nonincreasing": report.h_lym_nonincreasing,
        "conjectured_ok": report.conjectured_ok,
    }
    print(f"independent-set counts: {', '.join(map(str, report.inv.I))}")
    for k, v in sorted(report.conditions.items()):
        print(f"{k}: {'holds' if v.holds else 'fails'}")
    print(f"h-vector log-concave: {report.h_log_concave}")
    print(f"h_k/C(m,k) nonincreasing: {report.h_lym_nonincreasing}")
    print(f"conjectured conditions all hold: {report.conjectured_ok}")
    return (EXIT_PASS if report.conjectured_ok else EXIT_FAIL), results


def _cmd_probe(args, seed: int, digests) -> tuple[int, dict]:
    if args.action == "margin":
        z = _as_poly(_load_input(args.path, digests), args.model, args.q)
        if args.pair is None:
            raise InputFormatError("probe margin needs --pair")
        e, f = _parse_pair(args.pair, z)
        report = conjecture_probe(z, e, f, samples=args.samples, seed=seed)
        print(
            f"pair ({e},{f}): min margin {format_rat(report.min_margin)} "
            f"over {args.samples} points (margins prove nothing; probe only)"
        )
        results = {
            "kind": "margin",
            "pair": [e, f],
            "samples": args.samples,
            "min_margin": format_rat(report.min_margin),
            "nonnegative": report.nonnegative,
        }
        return (EXIT_INCONCLUSIVE if report.nonnegative else EXIT_FAIL), results
    matroid = _require_matroid(_load_input(args.path, digests), "probe qc")
    bracket = estimate_qc(matroid, resolution=args.resolution, budget=args.budget, seed=seed)
    print(
        f"q bracket: passed {format_rat(bracket.passed)}, "
        f"refuted {format_rat(bracket.refuted) if bracket.refuted is not None else 'none'}, "
        f"exact={bracket.exact}"
    )
    results = {
        "kind": "qc",
        "passed": format_rat(bracket.passed),
        "refuted": format_rat(bracket.refuted) if bracket.refuted is not None else None,
        "exact": bracket.exact,
        "tested": [[format_rat(q), status] for q, status in bracket.tested],
    }
    return (EXIT_PASS if bracket.exact else EXIT_INCONCLUSIVE), results


def _cmd_corpus(args, seed: int, digests) -> tuple[int, dict]:
    extra = []
    for path in args.inputs:
        extra.append((Path(path).name, parse_weight_file(_read(path, digests))))
    outcomes = run_corpus(only=args.only, seed=seed, extra_polys=extra)
    if not outcomes:
        raise InputFormatError(f"no corpus item matches {args.only!r}")
    for item in outcomes:
        mark = "PASS" if item.passed else "FAIL"
        print(f"{mark} {item.name} ({item.seconds:.2f}s) {item.detail}")
    results = {
        "items": [
            {"name": i.name, "passed": i.passed, "detail": i.detail, "seconds": round(i.seconds, 3)}
            for i in outcomes
        ]
    }
    return (EXIT_PASS if all(i.passed for i in outcomes) else EXIT_FAIL), results


_HANDLERS = {
    "matroid": _cmd_matroid,
    "rayleigh": _cmd_rayleigh,
    "potts": _cmd_potts,
    "twosum": _cmd_twosum,
    "delta": _cmd_delta,
    "seq": _cmd_seq,
    "mason": _cmd_mason,
    "probe": _cmd_probe,
    "corpus": _cmd_corpus,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        seed = int(str(args.seed), 0)
    except ValueError:
        print(f"error: bad --seed value {args.seed!r}", file=sys.stderr)
        return EXIT_INPUT
    digests: dict[str, str] = {}
    start = time.perf_counter()
    try:
        code, results = _HANDLERS[args.command](args, seed, digests)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json is not None:
        report = {
            "schema": 1,
            "tool": "rayleigh-forge",
            "version": __version__,
            "command": [args.command] + argv[1:] if argv[:1] == [args.command] else argv,
            "seed": seed,
            "inputs": digests,
            "exit_code": code,
            "results": results,
            "elapsed_seconds": round(time.perf_counter() - start, 3),
        }
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
