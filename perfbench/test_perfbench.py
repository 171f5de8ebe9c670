"""Checks of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

The tiny runs start the benchmark from the command line and take about two
minutes in all, most of it the desk sweep.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args: str, cwd: Path = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env, check=False,
    )


def test_benchmark_json_matches_the_harness():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    # Every listed workload is one the harness runs, with the same reason;
    # simulate-paper runs on request but is not listed (see README.md).
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: why for name, why in workloads.WHY.items() if name != "simulate-paper"
    }
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in tracing.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_probes_are_spread_over_the_run():
    for workload in workloads.WHY:
        schedule = run.probe_schedule(workload, 50.0)
        first = [t for t, with_op in schedule if with_op]
        assert len(schedule) == run.SETUP_PROBES + len(first)
        assert len(first) == run.FIRST_OP_PROBES[workload]
        assert first[0] < 50.0 / len(first) and first[-1] > 50.0 * (1 - 1 / len(first))
        assert [t for t, _ in schedule] == sorted(t for t, _ in schedule)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples) == (90.0, 90, 10)
    assert run.tail(samples[:20]) == (10.0, 50, 10)
    assert run.tail(samples[:19]) == (19.0, 100, 0)


def test_compare_tolerates_reordering_but_not_a_wrong_channel():
    ref = workloads.reference()["sweep-desk"]
    peak = max(ref["visibility_det"])
    reordered = dict(ref, visibility_det=[v + 5e-11 * peak for v in ref["visibility_det"]])
    workloads.compare(reordered, ref)
    wrong = dict(ref, visibility_det=ref["visibility_null"])
    with pytest.raises(workloads.BenchFailure):
        workloads.compare(wrong, ref)
    with pytest.raises(workloads.BenchFailure):
        workloads.compare(dict(ref, onset_d=15.0), ref)


def test_perturbed_artifact_counts_as_failed(monkeypatch, capsys):
    real_run_op = workloads.run_op
    calls = []

    def perturbed(op, out, cfgs):
        rc, seconds, files = real_run_op(op, out, cfgs)
        calls.append(op.key)
        if len(calls) > 1:  # the first op stays clean; every loop op is perturbed
            files["summary.json"] = files["summary.json"].replace(b'"p_det": 0.4', b'"p_det": 0.5', 1)
        return rc, seconds, files

    monkeypatch.setattr(workloads, "run_op", perturbed)
    assert run.main(["--workload", "simulate-paper", "--seed", "3", "--seconds", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == detail["samples"]["loop_ops"] >= 1
    assert detail["fail_frac"]["value"] == result["failed"] / result["attempted"] > 0


def test_removed_function_or_broken_hook_makes_metrics_absent(monkeypatch, tmp_path):
    import twoslit.cli

    plan = workloads.make_plan("simulate-paper", 0, tmp_path)
    cfgs = workloads.load_configs(plan.configs)
    monkeypatch.delattr(twoslit.cli, "_svg_text")

    def broken(tracer, args, self_s, result):
        raise AttributeError("renamed")

    monkeypatch.setitem(tracing.HOOKS, "kernels.propagate_sum", (("quadrature_points",), broken))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc, seconds, files = workloads.run_op(plan.first, tmp_path / "out", cfgs)
    finally:
        tracer.uninstall()
    workloads.check("simulate-paper", plan.first, rc, files, cfgs)
    values, absent = tracer.metrics(1, 1, [seconds], [seconds])
    assert set(absent) == {"cli.serialize.s", "propagator.quadrature_points"}
    assert set(values) | set(absent) == {m[0] for m in tracing.PER_LAYER}
    assert values["propagator.propagate.calls"]["value"] == 14
    assert twoslit.cli.main is not None and not hasattr(twoslit.cli.main, "__wrapped__")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert not (ROOT / ".perfbench").exists()


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "simulate-paper", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_when_the_backend_is_not_the_one_asked_for():
    from twoslit import kernels

    if not hasattr(kernels, "BACKEND_ERROR"):
        pytest.skip("the program has a single backend")
    env = dict(os.environ, TWOSLIT_BACKEND="no-such-backend")
    proc = _run_bench("--workload", "simulate-paper", "--seed", "1", "--seconds", "1", env=env)
    assert proc.returncode == 2
    assert proc.stdout == "" and "refusing to run" in proc.stderr
