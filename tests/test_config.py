import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twoslit.config import OutputSettings, load_config, parse_config
from twoslit.errors import ConfigError, InvalidArgumentError

BASE = {
    "particle": {"mass": 1.0, "kinetic_energy": 0.5},
    "apparatus": {
        "source_x": 0.0,
        "L1": 1e5,
        "L2": 1e5,
        "slit_A_center": -250.0,
        "slit_B_center": 250.0,
        "slit_width": 1.0,
        "screen_min": -2e5,
        "screen_max": 2e5,
        "screen_samples": 512,
        "aperture_samples": 16,
    },
    "detector": {"enabled": True, "photon_wavelength": 20.0},
    "analysis": {"central_window": [-1.55e5, 1.55e5], "local_window_width": 8e4},
}


def _base() -> dict:
    return copy.deepcopy(BASE)


def test_parse_minimal():
    cfg = parse_config(_base())
    assert cfg.particle.momentum == 1.0
    assert cfg.apparatus.slit_separation == 500.0
    # detector defaults: radius = photon wavelength, depth = radius
    assert cfg.detector.radius_rho == 20.0
    assert cfg.detector.depth_epsilon == 20.0
    assert cfg.analysis.onset_threshold == 0.02
    assert cfg.sweep_d_values is None
    assert cfg.paths is None
    assert cfg.output == OutputSettings()


def test_parse_full_sections():
    root = _base()
    root["detector"]["radius_rho"] = 20.0
    root["detector"]["depth_epsilon"] = 5.0
    root["sweep"] = {"d_values": [100, 10.0]}
    root["paths"] = {"n_paths": 8, "n_slices": 4, "seed": 7}
    root["output"] = {"directory": "x", "emit_svg": True}
    cfg = parse_config(root)
    assert cfg.detector.depth_epsilon == 5.0
    assert cfg.sweep_d_values == (100.0, 10.0)
    assert cfg.paths.seed == 7
    assert cfg.output.directory == "x"
    assert cfg.output.emit_svg and cfg.output.emit_csv


# Valid contents for the optional sections, so one key can be set wrong.
OPTIONAL_SECTIONS = {"sweep": {}, "paths": {"n_paths": 4, "n_slices": 2, "seed": 1}, "output": {}}

# One wrong-typed value for each of the 28 keys a config accepts.
WRONG_TYPES = [
    ("particle", "mass", "heavy"),
    ("particle", "kinetic_energy", None),
    ("apparatus", "source_x", "0"),
    ("apparatus", "L1", [1e5]),
    ("apparatus", "L2", {}),
    ("apparatus", "slit_A_center", True),
    ("apparatus", "slit_B_center", "250"),
    ("apparatus", "slit_width", None),
    ("apparatus", "screen_min", [-2e5]),
    ("apparatus", "screen_max", False),
    ("apparatus", "screen_samples", 2.5),
    ("apparatus", "aperture_samples", "16"),
    ("detector", "enabled", "yes"),
    ("detector", "photon_wavelength", "20"),
    ("detector", "radius_rho", True),
    ("detector", "depth_epsilon", [5.0]),
    ("detector", "detection_probability_override", "0.5"),
    ("analysis", "central_window", {"lo": 0.0, "hi": 1.0}),
    ("analysis", "local_window_width", None),
    ("analysis", "onset_threshold", "0.02"),
    ("sweep", "d_values", 10.0),
    ("paths", "n_paths", 4.0),
    ("paths", "n_slices", "2"),
    ("paths", "seed", 1.5),
    ("output", "directory", ["out"]),
    ("output", "emit_csv", 1),
    ("output", "emit_json", "true"),
    ("output", "emit_svg", None),
]

# Every key a config must give, each as its dotted path.
REQUIRED_KEYS = [
    "particle",
    "apparatus",
    "detector",
    "analysis",
    "particle.mass",
    "particle.kinetic_energy",
    "apparatus.source_x",
    "apparatus.L1",
    "apparatus.L2",
    "apparatus.slit_A_center",
    "apparatus.slit_B_center",
    "apparatus.slit_width",
    "apparatus.screen_min",
    "apparatus.screen_max",
    "apparatus.screen_samples",
    "apparatus.aperture_samples",
    "detector.enabled",
    "detector.photon_wavelength",
    "analysis.central_window",
    "analysis.local_window_width",
    "paths.n_paths",
    "paths.n_slices",
    "paths.seed",
]


def _setter(section: str, key: str, value):
    def mutate(root: dict) -> None:
        root.setdefault(section, copy.deepcopy(OPTIONAL_SECTIONS.get(section)))[key] = value

    return mutate


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda r: r["apparatus"].update(LL1=3.0), "apparatus.LL1"),
        (lambda r: r.update(extra={}), "extra"),
        (lambda r: r["particle"].pop("mass"), "particle.mass"),
        (lambda r: r["particle"].update(mass=True), "particle.mass"),
        (lambda r: r["particle"].update(mass="heavy"), "particle.mass"),
        (lambda r: r["apparatus"].update(screen_samples=2.5), "apparatus.screen_samples"),
        (lambda r: r["detector"].update(enabled="yes"), "detector.enabled"),
        (lambda r: r["analysis"].update(central_window=[1.0]), "analysis.central_window"),
        (lambda r: r["analysis"].update(central_window=[1.0, True]), "analysis.central_window"),
        (lambda r: r.update(sweep={"d_values": ["wide"]}), "sweep.d_values"),
        (lambda r: r.update(sweep={"dvalues": [1.0]}), "sweep.dvalues"),
        (lambda r: r.update(output={"directory": 3}), "output.directory"),
        (lambda r: r.update(paths={"n_paths": 4, "n_slices": 2}), "paths.seed"),
        (lambda r: r.update(paths={"n_paths": 0, "n_slices": 2, "seed": 1}), "paths.n_paths"),
        (lambda r: r.update(paths={"n_paths": 4, "n_slices": -3, "seed": 1}), "paths.n_slices"),
        *(
            pytest.param(_setter(section, key, value), f"{section}.{key}", id=f"{section}.{key}={value!r}")
            for section, key, value in WRONG_TYPES
        ),
    ],
)
def test_parse_rejects_with_dotted_path(mutate, path):
    root = _base()
    mutate(root)
    with pytest.raises(ConfigError) as err:
        parse_config(root)
    assert err.value.path == path
    assert path in str(err.value)


@pytest.mark.parametrize("path", REQUIRED_KEYS)
def test_parse_reports_each_missing_required_key(path):
    root = _base()
    root["paths"] = dict(OPTIONAL_SECTIONS["paths"])
    *parents, key = path.split(".")
    node = root[parents[0]] if parents else root
    del node[key]
    with pytest.raises(ConfigError) as err:
        parse_config(root)
    assert err.value.path == path
    assert str(err.value) == f"{path}: missing required key"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
@pytest.mark.parametrize(
    "path",
    [
        "particle.mass",
        "apparatus.source_x",
        "detector.depth_epsilon",
        "analysis.onset_threshold",
        "analysis.central_window",
        "sweep.d_values",
    ],
)
def test_parse_rejects_non_finite_numbers(path, value):
    root = _base()
    section, key = path.split(".")
    if path == "analysis.central_window":
        value = [-1.0, value]
    elif path == "sweep.d_values":
        value = [10.0, value]
    root.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(root)
    assert err.value.path == path
    assert "expected a finite number" in str(err.value)


def test_parse_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])
    root = _base()
    root["particle"] = 7
    with pytest.raises(ConfigError):
        parse_config(root)


def test_parse_detector_override_domain():
    root = _base()
    root["detector"]["detection_probability_override"] = 1.5
    # a value with the right type but outside the physical domain
    with pytest.raises(InvalidArgumentError):
        parse_config(root)


def test_load_config_round_trip(tmp_path: Path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(_base()), encoding="utf-8")
    cfg = load_config(p)
    assert cfg.apparatus.screen_samples == 512


def test_load_config_missing_file(tmp_path: Path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_load_config_bad_json(tmp_path: Path):
    p = tmp_path / "run.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(p)
    # json refuses an integer literal past Python's 4300-digit limit
    # with a plain ValueError
    p.write_text('{"particle": {"mass": 1' + "0" * 5000 + "}}", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_repo_configs_parse():
    here = Path(__file__).resolve().parent.parent
    for name in ("desk.json", "paper.json"):
        cfg = load_config(here / "configs" / name)
        assert cfg.sweep_d_values is not None
        assert cfg.paths is not None


def test_missing_key_report_is_independent_of_hash_seed():
    # key sets iterate in hash order; under these two seeds that order
    # put a different root key first
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from twoslit.config import parse_config\n"
        "try:\n    parse_config({})\n"
        "except Exception as exc:\n    print(exc)\n"
    )
    messages = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        messages.append(run.stdout)
    assert messages[0] == messages[1] == "analysis: missing required key\n"
