"""Run configuration: a strict JSON schema mapped onto the domain
objects.  Unknown keys are rejected with their dotted path so a typo
fails loudly instead of silently taking a default."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .apparatus import Apparatus, DetectorConfig, Particle, make_detector, make_particle
from .errors import ConfigError

_NUMBER = (int, float)


@dataclass(frozen=True)
class AnalysisSettings:
    central_window: tuple[float, float]
    local_window_width: float
    onset_threshold: float = 0.02


@dataclass(frozen=True)
class PathsSettings:
    n_paths: int
    n_slices: int
    seed: int


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    emit_csv: bool = True
    emit_json: bool = True
    emit_svg: bool = False


@dataclass(frozen=True)
class RunConfig:
    particle: Particle
    apparatus: Apparatus
    detector: DetectorConfig
    analysis: AnalysisSettings
    output: OutputSettings
    sweep_d_values: tuple[float, ...] | None = None
    paths: PathsSettings | None = None


def _require_dict(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {type(node).__name__}")
    return node


def _check_keys(node: dict, path: str, required: set[str], optional: set[str]) -> None:
    for key in node:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in node:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")


def _number(node: dict, path: str, key: str) -> float:
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, _NUMBER):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {type(v).__name__}")
    return float(v)


def _integer(node: dict, path: str, key: str) -> int:
    v = node[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {type(v).__name__}")
    return v


def _boolean(node: dict, path: str, key: str) -> bool:
    v = node[key]
    if not isinstance(v, bool):
        raise ConfigError(f"{path}.{key}", f"expected a boolean, got {type(v).__name__}")
    return v


def load_config(config_path: str | Path) -> RunConfig:
    p = Path(config_path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(p), f"cannot read config: {exc}") from exc
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(p), f"invalid JSON: {exc}") from exc
    return parse_config(root)


def parse_config(root: Any) -> RunConfig:
    root = _require_dict(root, "")
    _check_keys(
        root,
        "",
        required={"particle", "apparatus", "detector", "analysis"},
        optional={"sweep", "paths", "output"},
    )

    part_node = _require_dict(root["particle"], "particle")
    _check_keys(part_node, "particle", {"mass", "kinetic_energy"}, set())
    particle = make_particle(
        mass=_number(part_node, "particle", "mass"),
        kinetic_energy=_number(part_node, "particle", "kinetic_energy"),
    )

    app_node = _require_dict(root["apparatus"], "apparatus")
    app_keys = {
        "source_x",
        "L1",
        "L2",
        "slit_A_center",
        "slit_B_center",
        "slit_width",
        "screen_min",
        "screen_max",
        "screen_samples",
        "aperture_samples",
    }
    _check_keys(app_node, "apparatus", app_keys, set())
    apparatus = Apparatus(
        source_x=_number(app_node, "apparatus", "source_x"),
        L1=_number(app_node, "apparatus", "L1"),
        L2=_number(app_node, "apparatus", "L2"),
        slit_A_center=_number(app_node, "apparatus", "slit_A_center"),
        slit_B_center=_number(app_node, "apparatus", "slit_B_center"),
        slit_width=_number(app_node, "apparatus", "slit_width"),
        screen_min=_number(app_node, "apparatus", "screen_min"),
        screen_max=_number(app_node, "apparatus", "screen_max"),
        screen_samples=_integer(app_node, "apparatus", "screen_samples"),
        aperture_samples=_integer(app_node, "apparatus", "aperture_samples"),
    )

    det_node = _require_dict(root["detector"], "detector")
    _check_keys(
        det_node,
        "detector",
        {"enabled", "photon_wavelength"},
        {"radius_rho", "depth_epsilon", "detection_probability_override"},
    )
    detector = make_detector(
        enabled=_boolean(det_node, "detector", "enabled"),
        photon_wavelength=_number(det_node, "detector", "photon_wavelength"),
        radius_rho=(
            _number(det_node, "detector", "radius_rho") if "radius_rho" in det_node else None
        ),
        depth_epsilon=(
            _number(det_node, "detector", "depth_epsilon")
            if "depth_epsilon" in det_node
            else None
        ),
        detection_probability_override=(
            _number(det_node, "detector", "detection_probability_override")
            if "detection_probability_override" in det_node
            else None
        ),
    )

    ana_node = _require_dict(root["analysis"], "analysis")
    _check_keys(
        ana_node, "analysis", {"central_window", "local_window_width"}, {"onset_threshold"}
    )
    win = ana_node["central_window"]
    if (
        not isinstance(win, list)
        or len(win) != 2
        or any(isinstance(v, bool) or not isinstance(v, _NUMBER) for v in win)
    ):
        raise ConfigError("analysis.central_window", "expected [lo, hi]")
    analysis = AnalysisSettings(
        central_window=(float(win[0]), float(win[1])),
        local_window_width=_number(ana_node, "analysis", "local_window_width"),
        onset_threshold=(
            _number(ana_node, "analysis", "onset_threshold")
            if "onset_threshold" in ana_node
            else 0.02
        ),
    )

    sweep_d_values: tuple[float, ...] | None = None
    if "sweep" in root:
        sweep_node = _require_dict(root["sweep"], "sweep")
        _check_keys(sweep_node, "sweep", set(), {"d_values"})
        if "d_values" in sweep_node:
            dv = sweep_node["d_values"]
            if (
                not isinstance(dv, list)
                or any(isinstance(v, bool) or not isinstance(v, _NUMBER) for v in dv)
            ):
                raise ConfigError("sweep.d_values", "expected an array of numbers")
            sweep_d_values = tuple(float(v) for v in dv)

    paths: PathsSettings | None = None
    if "paths" in root:
        paths_node = _require_dict(root["paths"], "paths")
        _check_keys(paths_node, "paths", {"n_paths", "n_slices", "seed"}, set())
        paths = PathsSettings(
            n_paths=_integer(paths_node, "paths", "n_paths"),
            n_slices=_integer(paths_node, "paths", "n_slices"),
            seed=_integer(paths_node, "paths", "seed"),
        )
        for key in ("n_paths", "n_slices"):
            if getattr(paths, key) < 1:
                raise ConfigError(f"paths.{key}", "must be >= 1")

    output = OutputSettings()
    if "output" in root:
        out_node = _require_dict(root["output"], "output")
        _check_keys(out_node, "output", set(), {"directory", "emit_csv", "emit_json", "emit_svg"})
        directory = out_node.get("directory", OutputSettings.directory)
        if not isinstance(directory, str):
            raise ConfigError("output.directory", "expected a string")
        output = OutputSettings(
            directory=directory,
            emit_csv=_boolean(out_node, "output", "emit_csv") if "emit_csv" in out_node else True,
            emit_json=(
                _boolean(out_node, "output", "emit_json") if "emit_json" in out_node else True
            ),
            emit_svg=_boolean(out_node, "output", "emit_svg") if "emit_svg" in out_node else False,
        )

    return RunConfig(
        particle=particle,
        apparatus=apparatus,
        detector=detector,
        analysis=analysis,
        output=output,
        sweep_d_values=sweep_d_values,
        paths=paths,
    )
