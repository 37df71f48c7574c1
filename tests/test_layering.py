"""Import layering of the package: every intra-package import sits at module
top, no module imports another's private names, and the module-level
imports form one acyclic order.  The benchmark scripts' imports from the
package must resolve, and the partition function they re-check witnesses
on must be the one the CLI judges."""

import ast
import importlib
import importlib.util
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import rayleigh_forge
from rayleigh_forge import cli
from rayleigh_forge.fileio import parse_graph_file
from rayleigh_forge.matroids import graphic_matroid
from rayleigh_forge.polynomials import SubsetPoly
from rayleigh_forge.potts import Model, model_poly
from rayleigh_forge.scalars import parse_rat

PACKAGE = Path(rayleigh_forge.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def package_targets(node: ast.AST) -> list[str]:
    """Package modules an import statement reads; `__init__` for names taken from the package itself."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            names = [node.module]
        elif node.module:
            names = ["rayleigh_forge." + node.module]
        else:
            names = ["rayleigh_forge." + alias.name for alias in node.names]
    else:
        return []
    out = []
    for name in names:
        parts = name.split(".")
        if parts[0] == "rayleigh_forge":
            out.append(parts[1] if len(parts) > 1 and parts[1] in MODULES else "__init__")
    return out


def test_no_import_below_module_top():
    nested = []
    for stem, tree in MODULES.items():
        top = {id(stmt) for stmt in tree.body}
        for node in ast.walk(tree):
            if id(node) not in top and package_targets(node):
                nested.append(f"{stem}.py:{node.lineno}")
    assert nested == []


def test_no_private_name_crosses_modules():
    crossing = [
        f"{stem}.py:{node.lineno} {alias.name}"
        for stem, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and package_targets(node)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert crossing == []


def test_module_imports_are_acyclic():
    graph = {
        stem: {t for stmt in tree.body for t in package_targets(stmt) if t != "__init__"}
        for stem, tree in MODULES.items()
        if stem != "__init__"
    }
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {exc.args[1]}")


def test_one_sparse_evaluator():
    """Only `polynomials` imports `term_value`: every other module evaluates a
    point through `_TermPoly.term_values` or `pair_value`."""
    importers = [
        f"{stem}.py:{node.lineno}"
        for stem, tree in MODULES.items()
        if stem != "polynomials"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and package_targets(node)
        for alias in node.names
        if alias.name == "term_value"
    ]
    assert importers == []


def test_benchmark_imports_resolve():
    """Every name perfbench/*.py imports from the package still exists; the test only reads perfbench/."""
    checked, missing = [], []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.startswith("rayleigh_forge")):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                checked.append(f"{node.module}.{alias.name}")
                # `from rayleigh_forge import cli` names a submodule, not an attribute
                is_submodule = hasattr(module, "__path__") and importlib.util.find_spec(checked[-1]) is not None
                if not (hasattr(module, alias.name) or is_submodule):
                    missing.append(f"{path.name}: {checked[-1]}")
    assert checked, f"no package imports found under {BENCH}"
    assert missing == []


K4_GRAPH = "graph 4\n0 1 1\n0 2 2\n0 3 3\n1 2 4\n1 3 5\n2 3 6\n"


@pytest.mark.parametrize("kind,q", [("bases", None), ("independent", None), ("spanning", None), ("potts", "1/3")])
def test_benchmark_partition_function_is_the_judged_one(kind, q, tmp_path, monkeypatch):
    """perfbench re-evaluates witnesses on `model_poly(m, Model(k, q)).poly`; it
    must be the `SubsetPoly` that `rayleigh check` judges."""
    path = tmp_path / "k4.graph"
    path.write_text(K4_GRAPH)
    judged = []
    check_all = cli.check_all
    monkeypatch.setattr(cli, "check_all", lambda z, strategy: judged.append(z) or check_all(z, strategy))
    argv = ["rayleigh", "check", str(path), "--model", kind, "--strategy", "coeff"]
    assert cli.main(argv + (["--q", q] if q else [])) in (0, 1, 2)
    matroid = graphic_matroid(parse_graph_file(K4_GRAPH))
    poly = model_poly(matroid, Model(kind, parse_rat(q) if q is not None else None)).poly
    assert isinstance(poly, SubsetPoly)
    assert judged == [poly]


def unused_imports(tree: ast.AST) -> list[str]:
    """Names a module imports and never reads; `__future__` imports do not bind names."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    root = Path(__file__).resolve().parent.parent
    paths = [p for folder in ("src", "tests", "scripts") for p in sorted((root / folder).rglob("*.py"))]
    unused = [
        f"{path.relative_to(root)}:{entry}"
        for path in paths
        if path.name != "__init__.py"
        for entry in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert paths
    assert unused == []
