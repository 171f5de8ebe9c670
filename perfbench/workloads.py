"""Workloads of the twoslit benchmark: generated inputs, one operation,
and the correctness gate every operation passes before it counts.

One operation ("op") is one call of ``twoslit.cli.main`` with ``--out``
pointing at a scratch directory, so it pays for config loading,
validation, compute, serialization and the atomic writes.  The paths
workload adds one ``twoslit.mc_kernel_estimate`` per op.

This module imports twoslit only inside functions, so a fresh-interpreter
probe can time the package import itself.
"""

from __future__ import annotations

import cmath
import csv
import functools
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
REFERENCE = HERE / "reference.json"

# One-line reason for each workload; BENCHMARK.json repeats them.
WHY = {
    "sweep-desk": "desk sweep over 10 separations, 131 propagations per op: "
    "propagator and kernels.propagate_sum take ~99% of the op",
    "simulate-paper": "paper simulate: small input grids, so CSV formatting and analysis "
    "show; paper sweep is left out because it exits 3 (d_values below slit_width)",
    "paths-desk": "desk paths over the sweep separations plus one 1e5x32 kernel estimate: "
    "segment crossings dominate and no propagation runs",
}

# The path-sum estimate the paths verdict uses: 1e5 paths x 32 slices.
MC_PATHS = 100_000
MC_SLICES = 32
# The estimator's sampling error at 1e5 paths is ~0.5%; a dropped
# normalisation factor or a wrong endpoint is off by tens of percent.
MC_REL_TOL = 0.05

# Verdict floats match the seed-commit reference within RTOL of the peak
# magnitude of their group (a CSV column, the visibility dict, ...).
# Reordered sums move them by ~1e-10 of the peak; a wrong channel moves
# them by percent.
RTOL = 1e-6

# Per-column intensity statistics of simulate's intensity.csv.
INTENSITY_STATS = ("sum", "sum_abs_x", "sum_sq", "max")
SWEEP_VERDICT_COLUMNS = (
    "d",
    "visibility_null",
    "visibility_det",
    "visibility_combined",
    "visibility_kick_reference",
    "p_det",
)
PATHS_HEADER = b"bundle_id,path_id,point_index,z_bohr,x_bohr,truncated\n"
PATHS_SCREEN_TARGETS = 5


class BenchFailure(Exception):
    """An op's exit code or artifacts failed the correctness gate."""


@dataclass(frozen=True)
class Op:
    key: str  # ops with equal keys must write byte-identical artifacts
    command: str
    config: str
    geometries: int  # apparatus geometries the op evaluates
    seed: int | None = None  # paths: --seed and the kernel-estimate seed

    def argv(self, out: Path) -> list[str]:
        argv = [self.command, "--config", self.config, "--out", str(out)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv


@dataclass(frozen=True)
class Plan:
    configs: tuple[str, ...]  # generated configs, loaded and validated in set-up
    first: Op  # first op of every fresh process; checked against the reference
    round: tuple[Op, ...]  # one round of the timed loop


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return str(path)


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    """Write the workload's configs under ``work`` and list its ops.

    The same seed gives the same configs and ops."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "sweep-desk":
        desk = json.loads((CONFIGS / "desk.json").read_text())
        cfg = _write_config(work / "desk.json", desk)
        op = Op(key="sweep", command="sweep", config=cfg, geometries=len(desk["sweep"]["d_values"]))
        return Plan(configs=(cfg,), first=op, round=(op,))
    if workload == "simulate-paper":
        cfg = _write_config(work / "paper.json", json.loads((CONFIGS / "paper.json").read_text()))
        op = Op(key="simulate", command="simulate", config=cfg, geometries=1)
        return Plan(configs=(cfg,), first=op, round=(op,))
    if workload == "paths-desk":
        desk = json.loads((CONFIGS / "desk.json").read_text())
        mid = 0.5 * (desk["apparatus"]["slit_A_center"] + desk["apparatus"]["slit_B_center"])
        configs = {}
        for d in desk["sweep"]["d_values"]:
            cfg = json.loads(json.dumps(desk))
            cfg["apparatus"]["slit_A_center"] = mid - 0.5 * d
            cfg["apparatus"]["slit_B_center"] = mid + 0.5 * d
            configs[d] = _write_config(work / f"desk_d{d:g}.json", cfg)
        # Every round runs each sweep separation once, so every run holds
        # the same mix of crossing-free and crossing-heavy geometries; the
        # seed picks the order and each op's --seed.
        rng = random.Random(seed)
        order = list(configs)
        rng.shuffle(order)
        ops = tuple(
            Op(key=f"d={d:g} seed={s}", command="paths", config=configs[d], geometries=1, seed=s)
            for d, s in ((d, rng.randrange(1, 2**31)) for d in order)
        )
        ref = reference()["paths-desk"]
        first = Op(
            key="reference", command="paths", config=configs[ref["d"]], geometries=1,
            seed=ref["seed"],
        )
        return Plan(configs=tuple(configs.values()), first=first, round=ops)
    raise ValueError(f"unknown workload {workload!r}")


def load_configs(paths: tuple[str, ...]) -> dict:
    """Set-up work: load and validate each config, as the CLI does."""
    from twoslit import load_config, validate

    cfgs = {}
    for path in paths:
        cfg = load_config(path)
        report = validate(cfg.apparatus, cfg.detector, cfg.particle)
        if not report.ok:
            raise BenchFailure(f"{path}: invalid physics configuration")
        cfgs[path] = cfg
    return cfgs


def _mc_endpoints(cfg):
    from twoslit import SpacetimeEvent

    app = cfg.apparatus
    start = SpacetimeEvent(x=app.source_x, z=0.0, t=0.0)
    end = SpacetimeEvent(x=app.slit_A_center, z=app.L1, t=app.L1 / cfg.particle.velocity)
    return start, end


def run_op(op: Op, out: Path, cfgs: dict) -> tuple[int, float, dict[str, bytes]]:
    """Run one op into an emptied ``out``; return exit code, wall time and
    the artifacts it wrote.  Only the CLI call and the kernel estimate
    are timed."""
    import twoslit
    import twoslit.cli

    shutil.rmtree(out, ignore_errors=True)
    estimate = None
    t0 = time.perf_counter()
    rc = twoslit.cli.main(op.argv(out))
    if op.seed is not None and rc == 0:
        cfg = cfgs[op.config]
        start, end = _mc_endpoints(cfg)
        estimate = twoslit.mc_kernel_estimate(
            start, end, cfg.particle, MC_PATHS, MC_SLICES, op.seed
        )
    seconds = time.perf_counter() - t0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    if estimate is not None:
        files["mc_kernel_estimate"] = repr(complex(estimate)).encode()
    return rc, seconds, files


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


@functools.cache
def reference() -> dict:
    return json.loads(REFERENCE.read_text())


def compare(got, ref, where: str = "", peak: float | None = None) -> None:
    """Raise BenchFailure unless ``got`` matches ``ref``: same structure,
    equal ints, strings, booleans and None, and floats within RTOL of the
    peak magnitude of their enclosing all-float list or dict (of their
    own magnitude elsewhere)."""
    if isinstance(ref, (dict, list)):
        if type(got) is not type(ref) or (
            sorted(got) != sorted(ref) if isinstance(ref, dict) else len(got) != len(ref)
        ):
            raise BenchFailure(f"{where}: structure {got!r} != reference {ref!r}")
        pairs = [(k, got[k], ref[k]) for k in ref] if isinstance(ref, dict) else [
            (i, g, r) for i, (g, r) in enumerate(zip(got, ref))
        ]
        floats = [abs(r) for _, _, r in pairs if type(r) is float]
        inner = max(floats) if floats and len(floats) == len(pairs) else None
        for k, g, r in pairs:
            compare(g, r, f"{where}.{k}" if where else str(k), inner)
        return
    if type(ref) is float and type(got) is float:
        scale = abs(ref) if peak is None else peak
        if not abs(got - ref) <= RTOL * scale:
            raise BenchFailure(f"{where}: {got!r} differs from reference {ref!r}")
        return
    if type(got) is not type(ref) or got != ref:
        raise BenchFailure(f"{where}: {got!r} != reference {ref!r}")


def sweep_verdicts(files: dict[str, bytes]) -> dict:
    rows = list(csv.DictReader(io.StringIO(files["sweep.csv"].decode())))
    verdicts = {c: [float(r[c]) for r in rows] for c in SWEEP_VERDICT_COLUMNS}
    verdicts["onset_d"] = json.loads(files["sweep_digest.json"])["onset_d"]
    return verdicts


def simulate_verdicts(files: dict[str, bytes]) -> dict:
    import numpy as np

    s = json.loads(files["summary.json"])
    table = np.loadtxt(io.BytesIO(files["intensity.csv"]), delimiter=",", skiprows=1, ndmin=2)
    x, cols = table[:, 0], table[:, 1:]
    stats = {
        "sum": cols.sum(axis=0),
        "sum_abs_x": (np.abs(x)[:, None] * cols).sum(axis=0),
        "sum_sq": (cols * cols).sum(axis=0),
        "max": cols.max(axis=0),
    }
    return {
        "config_valid": s["config_valid"],
        "detector_enabled": s["detector_enabled"],
        "p_det": s["p_det"],
        "fringe_spacing_no_detector": s["fringe_spacing_no_detector"],
        "visibility": s["visibility"],
        "onset_null_side": s["onset_null"]["onset_side"],
        "onset_detected_side": s["onset_detected"]["onset_side"],
        "intensity": {k: [float(v) for v in stats[k]] for k in INTENSITY_STATS},
    }


def _kernel(dx: float, mass: float, t: float) -> complex:
    """Closed-form free kernel, written here so the check does not rely
    on the code it checks."""
    return cmath.sqrt(mass / (2j * math.pi * t)) * cmath.exp(1j * mass * dx * dx / (2.0 * t))


def _check_paths(op: Op, files: dict[str, bytes], cfgs: dict) -> None:
    cfg = cfgs[op.config]
    crossings = json.loads(files["crossings.json"])
    pairs = crossings["pairs"]
    if crossings["seed"] != op.seed:
        raise BenchFailure(f"crossings.json seed {crossings['seed']} != --seed {op.seed}")
    expected_pairs = {f"S_to_B x A_to_screen_{k}" for k in range(PATHS_SCREEN_TARGETS)}
    if set(pairs) != expected_pairs or sum(pairs.values()) != crossings["total"]:
        raise BenchFailure(f"crossings.json is inconsistent: {crossings}")
    table = files["paths.csv"]
    per_bundle = cfg.paths.n_paths * (cfg.paths.n_slices + 1)
    full_bundles = 1 + 2 * PATHS_SCREEN_TARGETS  # every bundle but the truncated S_to_B
    rows = table.count(b"\n") - 1
    if not table.startswith(PATHS_HEADER) or not (
        full_bundles * per_bundle + cfg.paths.n_paths <= rows <= (full_bundles + 1) * per_bundle
    ):
        raise BenchFailure(f"paths.csv has {rows} rows or a wrong header")
    start, end = _mc_endpoints(cfg)
    exact = _kernel(end.x - start.x, cfg.particle.mass, end.t - start.t)
    estimate = complex(files["mc_kernel_estimate"].decode())
    err = abs(estimate - exact) / abs(exact)
    if not err < MC_REL_TOL:
        raise BenchFailure(f"kernel estimate off by {err:.3g} (bound {MC_REL_TOL})")
    if op.key == "reference":
        ref = reference()["paths-desk"]
        compare({"pairs": pairs, "total": crossings["total"]}, ref["crossings"], "crossings")


ARTIFACTS = {
    "sweep-desk": {"sweep.csv", "sweep_digest.json"},
    "simulate-paper": {"intensity.csv", "summary.json"},
    "paths-desk": {"paths.csv", "crossings.json", "mc_kernel_estimate"},
}


def check(workload: str, op: Op, rc: int, files: dict[str, bytes], cfgs: dict) -> None:
    """The correctness gate: raise BenchFailure when the op failed."""
    if rc != 0:
        raise BenchFailure(f"{op.command} exited {rc}")
    if set(files) != ARTIFACTS[workload]:
        raise BenchFailure(f"artifacts {sorted(files)} != {sorted(ARTIFACTS[workload])}")
    try:
        if workload == "sweep-desk":
            compare(sweep_verdicts(files), reference()[workload], "sweep")
        elif workload == "simulate-paper":
            compare(simulate_verdicts(files), reference()[workload], "simulate")
        else:
            _check_paths(op, files, cfgs)
    except (KeyError, ValueError, TypeError) as exc:
        raise BenchFailure(f"unreadable artifacts: {exc!r}") from exc
