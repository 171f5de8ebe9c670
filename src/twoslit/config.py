"""Run configuration: a strict JSON schema mapped onto the domain
objects.  _SCHEMA lists every key once, in read order: section -> key
-> (reader, default or _REQUIRED).  Unknown keys, missing keys, wrong
types and non-finite numbers (NaN and +-Infinity, which Python's json
accepts and 1e999 reads as) fail with their dotted path.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .apparatus import Apparatus, DetectorConfig, Particle, make_detector, make_particle
from .errors import ConfigError

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


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v: Any, path: str) -> float:
    if not _is_number(v):
        raise ConfigError(path, f"expected a number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal past the double range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, f"expected a finite number, got {x!r}")
    return x


def _integer(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(path, f"expected an integer, got {type(v).__name__}")
    return v


def _count(v: Any, path: str) -> int:
    if _integer(v, path) < 1:
        raise ConfigError(path, "must be >= 1")
    return v


def _boolean(v: Any, path: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(path, f"expected a boolean, got {type(v).__name__}")
    return v


def _string(v: Any, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(path, "expected a string")
    return v


def _window(v: Any, path: str) -> tuple[float, float]:
    if not isinstance(v, list) or len(v) != 2 or not all(map(_is_number, v)):
        raise ConfigError(path, "expected [lo, hi]")
    return (_number(v[0], path), _number(v[1], path))


def _numbers(v: Any, path: str) -> tuple[float, ...]:
    if not isinstance(v, list) or not all(map(_is_number, v)):
        raise ConfigError(path, "expected an array of numbers")
    return tuple(_number(x, path) for x in v)


_REQUIRED = object()
_NUM = (_number, _REQUIRED)
_INT = (_integer, _REQUIRED)

_SCHEMA: dict[str, tuple[Any, Any]] = {
    "particle": ({"mass": _NUM, "kinetic_energy": _NUM}, _REQUIRED),
    "apparatus": (
        {
            "source_x": _NUM, "L1": _NUM, "L2": _NUM,
            "slit_A_center": _NUM, "slit_B_center": _NUM, "slit_width": _NUM,
            "screen_min": _NUM, "screen_max": _NUM, "screen_samples": _INT, "aperture_samples": _INT,
        },
        _REQUIRED,
    ),
    # None leaves radius_rho and depth_epsilon to make_detector's defaults.
    "detector": (
        {
            "enabled": (_boolean, _REQUIRED), "photon_wavelength": _NUM,
            "radius_rho": (_number, None), "depth_epsilon": (_number, None),
            "detection_probability_override": (_number, None),
        },
        _REQUIRED,
    ),
    "analysis": (
        {
            "central_window": (_window, _REQUIRED), "local_window_width": _NUM,
            "onset_threshold": (_number, AnalysisSettings.onset_threshold),
        },
        _REQUIRED,
    ),
    "sweep": ({"d_values": (_numbers, None)}, {}),
    "paths": ({"n_paths": (_count, _REQUIRED), "n_slices": (_count, _REQUIRED), "seed": _INT}, None),
    "output": (
        {
            "directory": (_string, OutputSettings.directory),
            "emit_csv": (_boolean, OutputSettings.emit_csv),
            "emit_json": (_boolean, OutputSettings.emit_json),
            "emit_svg": (_boolean, OutputSettings.emit_svg),
        },
        {},
    ),
}


def _section(node: Any, path: str, spec: dict[str, tuple[Any, Any]]) -> dict[str, Any]:
    """Read node by spec: unknown keys, then missing required keys in sorted
    order, then each value in table order; an absent key takes its default."""
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {type(node).__name__}")
    prefix = f"{path}." if path else ""
    for key in node:
        if key not in spec:
            raise ConfigError(prefix + key, "unknown key")
    for key in sorted(k for k, (_, default) in spec.items() if default is _REQUIRED):
        if key not in node:
            raise ConfigError(prefix + key, "missing required key")
    return {
        key: default if key not in node
        else _section(node[key], prefix + key, read) if isinstance(read, dict)
        else read(node[key], prefix + key)
        for key, (read, default) in spec.items()
    }


def load_config(config_path: str | Path) -> RunConfig:
    p = Path(config_path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(p), f"cannot read config: {exc}") from exc
    try:
        root = json.loads(text)
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise ConfigError(str(p), f"invalid JSON: {exc}") from exc
    return parse_config(root)


def parse_config(root: Any) -> RunConfig:
    c = _section(root, "", _SCHEMA)
    return RunConfig(
        particle=make_particle(**c["particle"]),
        apparatus=Apparatus(**c["apparatus"]),
        detector=make_detector(**c["detector"]),
        analysis=AnalysisSettings(**c["analysis"]),
        output=OutputSettings(**c["output"]),
        sweep_d_values=c["sweep"].get("d_values"),
        paths=PathsSettings(**c["paths"]) if c["paths"] is not None else None,
    )
