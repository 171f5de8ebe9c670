"""The package's intra-package imports, function-level ones included,
form a DAG, and apparatus sits at its root beside errors."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twoslit"


def _import_graph() -> dict[str, set[str]]:
    """Module name -> the package modules it imports, from every import
    statement in the module (at any depth).  `from . import name` counts
    as an import of the submodule name if there is one, else of the
    package's __init__."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        edges = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(a.name if a.name in modules else "__init__" for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("twoslit"):
                parts = node.module.split(".")
                edges.add(parts[1] if len(parts) > 1 else "__init__")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "twoslit":
                        edges.add(parts[1] if len(parts) > 1 else "__init__")
        graph[name] = edges - {name}
    return graph


def test_package_imports_form_a_dag():
    graph = _import_graph()
    assert {"apparatus", "scenario", "analysis", "cli", "propagator"} <= set(graph)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert graph["apparatus"] == {"errors"}
    assert graph["errors"] == set()
