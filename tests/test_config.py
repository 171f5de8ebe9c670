import copy
import json
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
    ],
)
def test_parse_rejects_with_dotted_path(mutate, path):
    root = _base()
    mutate(root)
    with pytest.raises(ConfigError) as err:
        parse_config(root)
    assert err.value.path == path
    assert path in str(err.value)


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


def test_repo_configs_parse():
    here = Path(__file__).resolve().parent.parent
    for name in ("desk.json", "paper.json"):
        cfg = load_config(here / "configs" / name)
        assert cfg.sweep_d_values is not None
        assert cfg.paths is not None
