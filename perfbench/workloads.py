"""Seeded inputs and op lists for the benchmark workloads.

Inputs come from the standard library's `random.Random`, seeded with the
workload name and the benchmark seed, never from the package under test, so
two commits measured with one seed parse byte-identical files.  A workload
is a fixed list of ops, each op one `cli.main` argv, run once per run, so
every run of a workload has the same op mix and the same n on every commit.

The corpus items that reach code no other op reaches run as ops of their
own: the LaurentQ slice scans and the negative-association triples make the
corpus workload, the support suite rides in coeff-sweep and the forest
characteristic polynomials in invariants.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

WORKLOADS = ("coeff-sweep", "sample-sweep", "invariants", "corpus")

# Corpus items run as ops, by workload; each gets a `corpus.<item>_s` layer.
CORPUS_OPS = {
    "coeff-sweep": ("support-necessary-conditions",),
    "invariants": ("forest-charpoly-identity",),
    "corpus": ("slice-identity-sweep", "triple-slack-and-association"),
}
CORPUS_ITEMS = tuple(item for items in CORPUS_OPS.values() for item in items)

POTTS_QS = ("1/2", "2", "3/2")
POTTS_GRAPHS = 18
WEIGHT_SIZES = (7,) * 4 + (8,) * 24
INDEP_GRAPHS = 4
# invariants sorts by cost as seq 21, mason 14, seq 27, mason 16, seq 31: the
# median (rank 37 of 73) falls mid-way in the 24 length-27 seqs and the tail
# (rank 63) mid-way in the 18 length-31 seqs.  The seq kinds alternate with
# the mason kinds, so a slow stretch of the machine is spread over every class.
MASON_SHAPES = ((6, 14), (6, 14), (7, 16)) * 6
SEQ_LENGTHS = (21, 27, 31, 27, 21, 27, 31, 27, 31) * 6


@dataclass(frozen=True)
class Op:
    """One CLI command.  `kind` selects the gate and the composed (traced) path."""

    name: str
    kind: str  # "coeff", "sample", "mason", "seq" or "corpus"
    argv: tuple[str, ...]
    path: str | None = None
    model: str | None = None
    q: str | None = None
    samples: int = 0
    seed: int = 0
    values: tuple[str, ...] = ()
    m: int | None = None
    item: str | None = None
    all_verified: bool = False  # gate: every pair must be Verified
    seed_free: bool = False  # argv and input do not depend on the seed


def connected_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Simple connected graph: a random spanning tree plus random extra edges."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no simple connected graph with {n} vertices and {m} edges")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    rest = [pair for pair in combinations(range(n), 2) if pair not in edges]
    rng.shuffle(rest)
    edges.update(rest[: m - len(edges)])
    return sorted(edges)


def graph_text(n: int, edges: list[tuple[int, int]]) -> str:
    lines = [f"graph {n}"] + [f"{u} {v} e{i}" for i, (u, v) in enumerate(edges, 1)]
    return "\n".join(lines) + "\n"


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def weight_text(rng: random.Random, m: int) -> str:
    """A seeded third of the subsets, each weighted log-uniform dyadic in [2^-10, 2^10).

    The support size is fixed at round(2^m / 3), so inputs of one size cost
    about the same whatever the seed.
    """
    labels = [f"x{i}" for i in range(1, m + 1)]
    lines = ["elements: " + ",".join(labels)]
    for word in sorted(rng.sample(range(1 << m), round((1 << m) / 3))):
        k = rng.randrange(-10, 10)
        weight = Fraction(1024 + rng.randrange(1024), 1024) * Fraction(2) ** k
        subset = ",".join(lab for i, lab in enumerate(labels) if word >> i & 1) or "-"
        lines.append(f"{subset} : {_rat(weight)}")
    return "\n".join(lines) + "\n"


def twosum_uniform_bases_text() -> str:
    """Bases of the two-sum of U(6,3) with U(6,3) along g: 200 bases of rank 5.

    A basis is B1 + B2 - g with g in exactly one of B1, B2; labels follow the
    package's `twosum-uniform-6-3` corpus matroid (a1..a5, then b1..b5).
    """
    a = [f"a{i}" for i in range(1, 6)]
    b = [f"b{i}" for i in range(1, 6)]
    bases = [left + right for left in combinations(a, 2) for right in combinations(b, 3)]
    bases += [left + right for left in combinations(a, 3) for right in combinations(b, 2)]
    return "elements: " + ",".join(a + b) + "\n" + "".join(",".join(s) + "\n" for s in bases)


def perturbed_binomial(rng: random.Random, length: int) -> tuple[str, ...]:
    n = length - 1
    return tuple(str(comb(n, k) * (4 + rng.randrange(4))) for k in range(length))


def interleave(*groups: list[Op]) -> list[Op]:
    """Merge lists keeping each one's order, spreading each evenly over the result."""
    keyed = [((i + 1) / len(group), g, op) for g, group in enumerate(groups) for i, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def build(workload: str, seed: int, inputs: Path, reports: Path) -> list[Op]:
    """Write the workload's input files under `inputs` and return its ops."""
    rng = random.Random(f"{workload}/{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    def write(name: str, text: str) -> str:
        path = inputs / name
        path.write_text(text)
        return str(path)

    def report(name: str) -> tuple[str, str]:
        return ("--json", str(reports / f"{name}.json"))

    if workload == "coeff-sweep":
        for i in range(1, POTTS_GRAPHS + 1):
            name, q = f"potts-{i}", POTTS_QS[i % len(POTTS_QS)]
            path = write(f"{name}.graph", graph_text(6, connected_graph(rng, 6, 8)))
            argv = ("rayleigh", "check", path, "--model", "potts", "--q", q, "--strategy", "coeff")
            ops.append(Op(name, "coeff", argv + report(name), path, model="potts", q=q))
        name = "bases-twosum-uniform-6-3"
        path = write(f"{name}.bases", twosum_uniform_bases_text())
        argv = ("rayleigh", "check", path, "--strategy", "coeff")
        ops.append(
            Op(name, "coeff", argv + report(name), path, model="bases", all_verified=True, seed_free=True)
        )
    elif workload == "sample-sweep":
        for i, m in enumerate(WEIGHT_SIZES, 1):
            name = f"weights-{i}"
            path = write(f"{name}.txt", weight_text(rng, m))
            cli_seed = rng.getrandbits(32)
            argv = ("rayleigh", "check", path, "--strategy", "sample", "--samples", "200")
            argv += ("--seed", str(cli_seed))
            ops.append(Op(name, "sample", argv + report(name), path, samples=200, seed=cli_seed))
        for i in range(1, INDEP_GRAPHS + 1):
            name = f"indep-{i}"
            path = write(f"{name}.graph", graph_text(5, connected_graph(rng, 5, 8)))
            cli_seed = rng.getrandbits(32)
            argv = ("rayleigh", "check", path, "--model", "indep", "--strategy", "sample")
            argv += ("--samples", "20", "--seed", str(cli_seed))
            ops.append(
                Op(name, "sample", argv + report(name), path, model="independent", samples=20, seed=cli_seed)
            )
    elif workload == "invariants":
        masons, seqs = [], []
        for i, (n, m) in enumerate(MASON_SHAPES, 1):
            name = f"mason-{i}"
            path = write(f"{name}.graph", graph_text(n, connected_graph(rng, n, m)))
            masons.append(Op(name, "mason", ("mason", path) + report(name), path))
        for i, length in enumerate(SEQ_LENGTHS, 1):
            name = f"seq-{i}"
            values = perturbed_binomial(rng, length)
            path = write(f"{name}.seq", ",".join(values) + "\n")
            argv = ("seq", "check", "--values", ",".join(values), "--m", str(length - 1))
            seqs.append(Op(name, "seq", argv + report(name), path, values=values, m=length - 1))
        ops += interleave(masons, seqs)
    elif workload != "corpus":
        raise ValueError(f"unknown workload {workload!r}")
    for item in CORPUS_OPS.get(workload, ()):
        argv = ("corpus", "--only", item, "--seed", str(seed))
        ops.append(Op(f"corpus-{item}", "corpus", argv + report(f"corpus-{item}"), seed=seed, item=item))
    manifest = [list(op.argv) for op in ops]
    write("ops.json", json.dumps(manifest, indent=1) + "\n")
    return ops


def inputs_digest(inputs: Path) -> tuple[str, int]:
    """sha256 over every input file's name and bytes, in name order."""
    h = hashlib.sha256()
    files = sorted(p for p in inputs.iterdir() if p.is_file())
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest(), len(files)
