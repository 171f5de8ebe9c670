"""The package's intra-package imports, function-level ones included,
form a DAG, and apparatus sits at its root beside errors; loading and
validating a config imports no module it does not need, and the package
starts no thread."""

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twoslit"


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


_SETUP_GUARD = """
import sys, threading
import twoslit.cli
from twoslit.apparatus import validate
from twoslit.config import load_config

cfg = load_config(sys.argv[1])
validate(cfg.apparatus, cfg.detector, cfg.particle)
print(sorted(m for m in ("numpy.random", "numpy.fft", "concurrent.futures") if m in sys.modules))
from twoslit.paths import SpacetimeEvent, mc_kernel_estimate

particle = cfg.particle
end = SpacetimeEvent(0.0, 1e5, 1e5 / particle.velocity)
mc_kernel_estimate(SpacetimeEvent(0.0, 0.0, 0.0), end, particle, 100_000, 32, 7)
print(threading.active_count())
"""


def test_setup_loads_no_lazy_numpy_module_and_no_thread_starts():
    # numpy.random and numpy.fft are reached at call time, so importing
    # the CLI and validating desk (a run's set-up) pays for neither; a
    # multi-block kernel estimate then runs on the main thread alone
    run = subprocess.run(
        [sys.executable, "-c", _SETUP_GUARD, str(ROOT / "configs" / "desk.json")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.splitlines() == ["[]", "1"]
