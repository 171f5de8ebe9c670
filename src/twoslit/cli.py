"""Command-line interface.

Subcommands: simulate | sweep | paths | uncertainty.  Config-driven
commands take --config plus optional --out (overrides the output
directory), --seed (overrides paths.seed), and --threads (accepted and
ignored: the numpy kernels take no worker count, and results never
depended on it).

The CLI parses, dispatches, serializes and writes.  simulate measures
the ChannelSet of the Geometry validate returns with the config's
AnalysisSettings (analysis.measure_channels): 3 propagations (the slit
pair counts as one), 5 when slit A's cone reaches the disc, 1 with the
detector off.  scenario.sweep_interslit does the same per validated
sweep.d_values entry of that Geometry; both first check, on its screen
grid, that analysis.central_window holds enough screen samples and, with
the detector on, that analysis.local_window_width spans enough of them.
sweep refuses a run with the detector off before any propagation.  paths
writes the bundles and crossing counts of paths.experiment_paths on the
Geometry validate returns, and runs no propagation.

Exit codes: 0 success; 2 unusable input (missing/invalid config file,
schema violation, bad uncertainty arguments); 3 physically invalid
configuration; 4 internal numerical failure (a field or profile with
non-finite values, NumericalError).

All artifacts are computed fully before anything is written, each as a
sequence of text chunks (paths.csv one chunk per bundle, so no single
string holds the whole table; every other file one chunk).  Each file's
chunks go into a temp file, then an atomic rename, so a failed run leaves
no partial outputs.  Floats are serialized with repr (shortest
round-trip decimal); CSV uses LF line endings; JSON keys keep insertion
order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__, analysis, scenario
from . import paths as paths_mod
from .apparatus import Geometry, ValidationReport, make_particle, validate
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    InvalidArgumentError,
    InvalidStateError,
    NoFringesError,
    NumericalError,
    PhysicsValidationError,
)
from .uncertainty import packet_uncertainties

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PHYSICS = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to path through a temp file and an
    atomic rename; on any failure, even one raised while producing a
    chunk, neither path nor the temp file is left behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    lines = [",".join(header)]
    n = len(columns[0])
    for i in range(n):
        lines.append(",".join(_fmt(col[i]) for col in columns))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _svg_text(x: np.ndarray, series: dict[str, np.ndarray]) -> str:
    """Minimal multi-polyline plot; cosmetic only."""
    width, height, pad = 800.0, 400.0, 40.0
    x0, x1 = float(x[0]), float(x[-1])
    ymax = max(float(np.max(v)) for v in series.values()) or 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
    ]
    for i, (label, v) in enumerate(series.items()):
        pts = []
        for xi, vi in zip(x, v):
            px = pad + (xi - x0) / (x1 - x0) * (width - 2 * pad)
            py = height - pad - (vi / ymax) * (height - 2 * pad)
            pts.append(f"{px:.2f},{py:.2f}")
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{" ".join(pts)}"/>'
        )
        parts.append(
            f'<text x="{pad + 4:g}" y="{pad + 14 * (i + 1):g}" fill="{color}" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _onset_payload(report: analysis.OnsetReport) -> dict:
    return {
        "onset_side": report.onset_side,
        "visibility_centroid_x": report.visibility_centroid_x,
        "asymmetry_index": report.asymmetry_index,
    }


def _validated(cfg: RunConfig) -> ValidationReport:
    report = validate(cfg.apparatus, cfg.detector, cfg.particle)
    if not report.ok:
        raise PhysicsValidationError(report)
    return report


def _check_window(cfg: RunConfig, geometry: Geometry) -> None:
    """Refuse a central window with too few screen samples, or (with the
    detector on) a local window narrower than the onset statistics
    accept, before any propagation."""
    screen = geometry.screen
    ana = cfg.analysis
    try:
        analysis.window_mask(screen.x, ana.central_window)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"analysis.central_window: {exc}") from None
    if cfg.detector.enabled:
        try:
            analysis.check_window_width(ana.local_window_width, screen.dx)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"analysis.local_window_width: {exc}") from None


def _simulate_artifacts(cfg: RunConfig) -> dict[str, list[str]]:
    """Compute every simulate artifact as text chunks; raises before
    writing anything on any failure."""
    det, ana = cfg.detector, cfg.analysis
    report = _validated(cfg)
    _check_window(cfg, report.geometry)

    channels = scenario.ChannelSet(report.geometry)
    i_two = analysis.intensity(channels.no_detector)
    x = i_two.x

    summary: dict = {"config_valid": True, "detector_enabled": det.enabled}
    try:
        summary["fringe_spacing_no_detector"] = analysis.fringe_spacing(i_two)
    except NoFringesError:
        summary["fringe_spacing_no_detector"] = None
    vis: dict = {"no_detector": analysis.visibility(i_two, ana.central_window)}
    columns = {"I_no_detector": i_two.values}

    if det.enabled:
        m = analysis.measure_channels(channels, ana)
        vis.update(m.visibility)
        summary["p_det"] = m.p_det
        summary["onset_null"] = _onset_payload(m.onset_null)
        summary["onset_detected"] = _onset_payload(m.onset_detected)
        columns.update((f"I_{k}", prof.values) for k, prof in m.profiles.items())
    else:
        # Detector-off runs still emit all columns; the channel columns
        # are zero and the summary says why.
        summary["p_det"] = None
        summary["note"] = "detector disabled: channel columns are zero"
        for k in ("null", "detected", "combined", "kick_reference"):
            columns[f"I_{k}"] = np.zeros_like(i_two.values)
    summary["visibility"] = vis
    summary["warnings"] = [
        {"code": issue.code, "message": issue.message} for issue in report.warnings()
    ]

    artifacts: dict[str, list[str]] = {}
    if cfg.output.emit_csv:
        artifacts["intensity.csv"] = [_csv_text(["x_bohr", *columns], [x, *columns.values()])]
    if cfg.output.emit_json:
        artifacts["summary.json"] = [_json_text(summary)]
    if cfg.output.emit_svg:
        artifacts["intensity.svg"] = [_svg_text(x, columns)]
    return artifacts


def _sweep_artifacts(cfg: RunConfig) -> dict[str, list[str]]:
    if cfg.sweep_d_values is None:
        raise ConfigError("sweep.d_values", "missing required key for the sweep command")
    if len(cfg.sweep_d_values) < 2:
        raise ConfigError("sweep.d_values", "need at least 2 entries")
    geometry = _validated(cfg).geometry
    _check_window(cfg, geometry)
    ana = cfg.analysis
    rows = scenario.sweep_interslit(geometry, list(cfg.sweep_d_values), ana)
    onset_d = next((row.d for row in rows if row.visibility_combined > ana.onset_threshold), None)
    digest = {
        "onset_threshold": ana.onset_threshold,
        "onset_d": onset_d,
        "d_values": list(cfg.sweep_d_values),
    }
    artifacts: dict[str, list[str]] = {}
    if cfg.output.emit_csv:
        cols = [f.name for f in fields(analysis.SweepRow)]
        artifacts["sweep.csv"] = [_csv_text(cols, [[getattr(r, c) for r in rows] for c in cols])]
    if cfg.output.emit_json:
        artifacts["sweep_digest.json"] = [_json_text(digest)]
    return artifacts


def _bundle_rows(bundle_id: str, bundle: paths_mod.PathBundle) -> str:
    """One bundle's CSV rows, one per valid event, each ending in a line
    feed, as one string; each z and x is formatted once."""
    events = [f"{k},{z!r}" for k, z in enumerate(bundle.z.tolist())]
    rows = zip(bundle.x.tolist(), bundle.lengths.tolist(), bundle.truncated.tolist())
    lines = []
    for pid, (xs, n, cut) in enumerate(rows):
        head, tail = f"{bundle_id},{pid},", ",true\n" if cut else ",false\n"
        lines.extend([f"{head}{ev},{x!r}{tail}" for ev, x in zip(events[:n], xs)])
    return "".join(lines)


def _paths_artifacts(cfg: RunConfig, seed_override: int | None) -> dict[str, list[str]]:
    if cfg.paths is None:
        raise ConfigError("paths", "missing required section for the paths command")
    geometry = _validated(cfg).geometry
    ps = cfg.paths
    seed = ps.seed if seed_override is None else seed_override
    bundles, pairs = paths_mod.experiment_paths(geometry, ps.n_paths, ps.n_slices, seed)
    crossings = {"seed": seed, "pairs": pairs, "total": sum(pairs.values())}

    artifacts: dict[str, list[str]] = {}
    if cfg.output.emit_csv:
        header = "bundle_id,path_id,point_index,z_bohr,x_bohr,truncated\n"
        artifacts["paths.csv"] = [header, *(_bundle_rows(b_id, b) for b_id, b in bundles.items())]
    if cfg.output.emit_json:
        artifacts["crossings.json"] = [_json_text(crossings)]
    return artifacts


def cmd_uncertainty(confinement_size: float, mass: float, kinetic_energy: float) -> int:
    particle = make_particle(mass=mass, kinetic_energy=kinetic_energy)
    rep = packet_uncertainties(particle, confinement_size)
    payload = {
        "confinement_size": rep.confinement_size,
        "delta_p": rep.delta_p,
        "delta_x": rep.delta_x,
        "delta_E": rep.delta_E,
        "delta_t": rep.delta_t,
    }
    print(json.dumps(payload, allow_nan=False))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twoslit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"twoslit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "sweep", "paths"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", help="output directory (overrides output.directory)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides paths.seed)")
        p.add_argument("--threads", type=int, help="ignored; kept so existing invocations still parse")

    u = sub.add_parser("uncertainty")
    u.add_argument("D", type=float, help="confinement size in bohr")
    u.add_argument("mass", type=float)
    u.add_argument("kinetic_energy", type=float)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "uncertainty":
        try:
            return cmd_uncertainty(args.D, args.mass, args.kinetic_energy)
        except InvalidArgumentError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, output=replace(cfg.output, directory=args.out))
        if args.command == "simulate":
            artifacts = _simulate_artifacts(cfg)
        elif args.command == "sweep":
            artifacts = _sweep_artifacts(cfg)
        else:
            artifacts = _paths_artifacts(cfg, seed_override=args.seed)
        for name, chunks in artifacts.items():
            _write_atomic(Path(cfg.output.directory) / name, chunks)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PhysicsValidationError as exc:
        print(f"invalid physics configuration: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (InvalidArgumentError, InvalidStateError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
