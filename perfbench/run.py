"""Closed-loop benchmark of the twoslit CLI.

One process, one client: the next op starts only after the previous one
returns.  An op is one ``twoslit.cli.main([...])`` call (see
workloads.py); its artifacts pass the correctness gate before it counts.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-desk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics.  The last
stdout line is the result object; the line before it holds what ran,
sample counts, the tail percentile and any failures.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads, here and in the
# probes that inherit this environment.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters, spread evenly over the timed loop so that their
# samples see the same host conditions as the ops: SETUP_PROBES time
# set-up only, FIRST_OP_PROBES time set-up and then the first op (the
# workload process's own first op is one more first-op sample).  A desk
# sweep op takes ~6 s, so it gets fewer.
SETUP_PROBES = 15
FIRST_OP_PROBES = {"sweep-desk": 3, "simulate-paper": 12, "paths-desk": 8}
PROBE_TIMEOUT_S = 170

END_TO_END = (
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("geometries_per_s", "1/s"),
    ("first_op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def probe_schedule(workload: str, seconds: float) -> list[tuple[float, bool]]:
    """(start offset, runs the first op) of each probe, in start order."""
    n_first = FIRST_OP_PROBES[workload]
    return sorted(
        [(i * seconds / SETUP_PROBES, False) for i in range(SETUP_PROBES)]
        + [((j + 0.5) * seconds / n_first, True) for j in range(n_first)]
    )


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  Below twenty samples that
    percentile would fall under the median, so the maximum is reported
    as percentile 100 instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100, 0
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))  # nearest-rank percentile
    return ordered[rank - 1], pct, n - rank


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}
        self.setup_samples: list[float] = []
        self.first_samples: list[float] = []

    def _record(self, op: workloads.Op, rc: int, files: dict, cfgs: dict) -> None:
        """Gate one op: the reference check, then byte identity with every
        earlier run of the same op."""
        self.attempted += 1
        try:
            workloads.check(self.workload, op, rc, files, cfgs)
            digests = workloads.digests(files)
            earlier = self.digests.setdefault(op.key, digests)
            if earlier != digests:
                raise workloads.BenchFailure(f"{op.key}: artifacts differ from an earlier run of the op")
        except workloads.BenchFailure as exc:
            self.failures.append(str(exc))

    def _execute(self, op: workloads.Op, cfgs: dict) -> float:
        t0 = time.perf_counter()
        try:
            rc, seconds, files = workloads.run_op(op, self.work / "out", cfgs)
        except Exception:  # the program raised instead of exiting: a failed op
            self.attempted += 1
            self.failures.append(f"{op.key}: {traceback.format_exc(limit=3)}")
            return time.perf_counter() - t0
        self._record(op, rc, files, cfgs)
        return seconds

    def _probe(self, i: int, plan: workloads.Plan, with_op: bool) -> None:
        """One fresh interpreter: a set-up sample and, ``with_op``, a
        checked first-op sample whose artifacts must match this process's
        first op byte for byte."""
        spec = {
            "workload": self.workload,
            "configs": list(plan.configs),
            "op": dataclasses.asdict(plan.first) if with_op else None,
            "out": str(self.work / f"probe{i}"),
        }
        proc = subprocess.run(
            [sys.executable, str(workloads.HERE / "probe.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        try:
            sample = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.attempted += 1
            self.failures.append(f"probe {i} exited {proc.returncode}: {proc.stderr[-2000:]}")
            return
        self.setup_samples.append(sample["setup_s"])
        if not with_op:
            return
        self.attempted += 1
        if sample["error"] is not None:
            self.failures.append(f"probe {i}: {sample['error']}")
        elif sample["digests"] != self.digests.get(plan.first.key):
            self.failures.append(f"probe {i}: the first op wrote other bytes than in this process")
        else:
            self.first_samples.append(sample["first_op_s"])

    def run(self) -> tuple[dict, dict]:
        plan = workloads.make_plan(self.workload, self.seed, self.work)
        cfgs = workloads.load_configs(plan.configs)
        schedule = probe_schedule(self.workload, self.seconds)
        # The run's seconds include the first op, which warms this process up.
        start = time.perf_counter()
        self.first_samples.append(self._execute(plan.first, cfgs))

        tracer = tracing.Tracer() if self.trace else None
        times = {False: [], True: []}
        geometries = {False: 0, True: 0}
        probes = rounds = 0
        while True:
            round_start = time.perf_counter()
            traced = tracer is not None and rounds % 2 == 1
            if traced:
                tracer.install()
            try:
                for op in plan.round:
                    # Probes are spread over the run, so set-up and first-op
                    # samples see the same host conditions as the ops.
                    while schedule and time.perf_counter() - start >= schedule[0][0]:
                        self._probe(probes, plan, schedule.pop(0)[1])
                        probes += 1
                    times[traced].append(self._execute(op, cfgs))
                    geometries[traced] += op.geometries
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
            # Runs end with whole rounds, at the round end nearest the deadline.
            now = time.perf_counter()
            if now - start + (now - round_start) / 2 >= self.seconds and (tracer is None or rounds >= 2):
                break
        for i, (_, with_op) in enumerate(schedule, start=probes):
            self._probe(i, plan, with_op)
        if not self.setup_samples:
            raise RuntimeError("every set-up probe failed: " + "; ".join(self.failures))

        failed = len(self.failures)
        detail = {
            "workload": self.workload,
            "why": workloads.WHY[self.workload],
            "seed": self.seed,
            "trace": int(self.trace),
            "ran": self._what_ran(plan),
            "samples": {
                "loop_ops": len(times[False]) + len(times[True]),
                "rounds": rounds,
            },
            "fail_frac": {"value": failed / self.attempted, "unit": "ratio"},
            "failures": self.failures[:10],
            "op_s": {"untraced": times[False], "traced": times[True]},
            "first_op_s": self.first_samples,
            "setup_s": self.setup_samples,
        }
        if tracer is None:
            loop = times[False]
            value, pct, beyond = tail(loop)
            detail["op_s_tail"] = {"percentile": pct, "beyond": beyond, "samples": len(loop)}
            values = {
                "op_s_p50": statistics.median(loop),
                "op_s_tail": value,
                "geometries_per_s": geometries[False] / math.fsum(loop),
                "first_op_s": statistics.median(self.first_samples),
                "setup_s": statistics.median(self.setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        else:
            n = len(times[True])
            metrics, absent = tracer.metrics(n, geometries[True], times[True], times[False])
            detail["absent"] = absent
            detail["propagate_by_shape"] = tracer.shape_table(n)
            traced_s = math.fsum(times[True])
            detail["layer_shares"] = {
                layer: tracer.layer_s[layer] / traced_s for layer in tracing.LAYERS
            }
        result = {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": metrics,
        }
        return result, detail

    def _what_ran(self, plan: workloads.Plan) -> dict:
        import numpy
        import twoslit
        from twoslit import kernels

        return {
            "backend": getattr(kernels, "BACKEND", None),  # None: no backend choice
            "twoslit": twoslit.__version__,
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "env": {v: os.environ.get(v) for v in THREAD_VARS + ("TWOSLIT_BACKEND",)},
            "configs": {
                Path(c).name: hashlib.sha256(Path(c).read_bytes()).hexdigest() for c in plan.configs
            },
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "twoslit" / "__init__.py").is_file() or not workloads.CONFIGS.is_dir():
        print(f"error: no twoslit source tree and configs under {workloads.ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    import twoslit.cli  # noqa: F401
    from twoslit import kernels

    if Path(twoslit.__file__).resolve().parent != (workloads.SRC / "twoslit").resolve():
        print(f"error: imported twoslit from {twoslit.__file__}, not from {workloads.SRC}", file=sys.stderr)
        return 2
    # A program with a single backend has no BACKEND_ERROR to check.
    backend_error = getattr(kernels, "BACKEND_ERROR", None)
    if backend_error is not None:
        print(f"error: refusing to run: {backend_error}", file=sys.stderr)
        return 2

    scratch = workloads.ROOT / ".perfbench"
    work = scratch / f"{args.workload}-{os.getpid()}"
    try:
        result, detail = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is using it, or it was never made
            pass
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
