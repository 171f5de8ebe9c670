"""The benchmark's per-layer tracer (perfbench/tracing.py, loaded as it
is) still finds every function and hook argument it reads: traced
in-process desk sweep and paths runs report every per-layer metric, none
absent, as strict JSON."""

import importlib.util
import json
import time
from pathlib import Path

from twoslit.cli import main

REPO = Path(__file__).resolve().parents[1]
DESK = str(REPO / "configs" / "desk.json")
COMMANDS = ("sweep", "paths")
DESK_SWEEP_GEOMETRIES = 10


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _timed_ops(tmp_path: Path, tag: str) -> list[float]:
    times = []
    for command in COMMANDS:
        t0 = time.perf_counter()
        assert main([command, "--config", DESK, "--out", str(tmp_path / f"{tag}-{command}")]) == 0
        times.append(time.perf_counter() - t0)
    return times


def test_tracer_reports_every_metric_on_desk_sweep_and_paths(tmp_path):
    tracing = _load_tracing()
    untraced = _timed_ops(tmp_path, "untraced")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _timed_ops(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert not hasattr(main, "__wrapped__")  # the package is left unwrapped
    values, absent = tracer.metrics(len(traced), DESK_SWEEP_GEOMETRIES + 1, traced, untraced)
    assert absent == {}
    assert tracer.missing == {}
    assert sorted(values) == sorted(name for name, *_ in tracing.PER_LAYER)
    assert values["propagator.propagate.calls"]["value"] > 0
    assert values["cli.bytes_written"]["value"] > 0
    json.dumps(values, allow_nan=False)
