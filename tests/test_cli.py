import csv
import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import twoslit
from twoslit import kernels, scenario
from twoslit.apparatus import make_particle
from twoslit.cli import _write_atomic, main
from twoslit.paths import SpacetimeEvent, mc_kernel_estimate

DATA = Path(__file__).resolve().parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
OK = str(DATA / "golden_ok.json")
BAD_SCHEMA = str(DATA / "golden_bad_schema.json")
BAD_PHYSICS = str(DATA / "golden_bad_physics.json")


def test_simulate_golden_ok(tmp_path: Path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", OK, "--out", str(out)]) == 0

    csv_lines = (out / "intensity.csv").read_text().splitlines()
    assert csv_lines[0] == "x_bohr,I_no_detector,I_null,I_detected,I_combined,I_kick_reference"
    assert len(csv_lines) == 1 + 1024

    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_valid"] is True
    assert summary["detector_enabled"] is True
    assert 0.0 < summary["p_det"] < 1.0
    assert set(summary["visibility"]) == {"no_detector", "null", "detected", "combined", "kick_reference"}
    assert summary["visibility"]["no_detector"] > 0.8
    # d = 25 rho: interference is destroyed in every detector channel
    assert summary["visibility"]["combined"] < 0.05
    spacing = summary["fringe_spacing_no_detector"]
    assert spacing == pytest.approx(2.0 * 3.141592653589793 * 1e5 / 500.0, rel=0.02)
    assert summary["onset_null"]["onset_side"] in {"left", "right", "center", "none"}
    assert (out / "intensity.svg").read_text().startswith("<svg")


def test_simulate_deterministic_across_runs_and_threads(tmp_path: Path):
    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert main(["simulate", "--config", OK, "--out", str(outs[0])]) == 0
    assert main(["simulate", "--config", OK, "--out", str(outs[1]), "--threads", "1"]) == 0
    assert main(["simulate", "--config", OK, "--out", str(outs[2]), "--threads", "4"]) == 0
    ref_csv = (outs[0] / "intensity.csv").read_bytes()
    ref_json = (outs[0] / "summary.json").read_bytes()
    for out in outs[1:]:
        assert (out / "intensity.csv").read_bytes() == ref_csv
        assert (out / "summary.json").read_bytes() == ref_json


def test_schema_error_exits_2_without_artifacts(tmp_path: Path, capsys):
    out = tmp_path / "never"
    assert main(["simulate", "--config", BAD_SCHEMA, "--out", str(out)]) == 2
    assert "apparatus.LL1" in capsys.readouterr().err
    assert not out.exists()


def test_physics_error_exits_3_without_artifacts(tmp_path: Path, capsys):
    out = tmp_path / "never"
    assert main(["simulate", "--config", BAD_PHYSICS, "--out", str(out)]) == 3
    assert "slits overlap" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path: Path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def _variant(tmp_path: Path, **changes) -> str:
    root = json.loads(Path(OK).read_text())
    for key, value in changes.items():
        section, _, name = key.partition(".")
        if value is None and not name:
            root.pop(section, None)
        elif name:
            root[section][name] = value
        else:
            root[section] = value
    p = tmp_path / "variant.json"
    p.write_text(json.dumps(root), encoding="utf-8")
    return str(p)


def test_simulate_detector_off_emits_zero_columns(tmp_path: Path):
    cfg = _variant(tmp_path, **{"detector.enabled": False})
    out = tmp_path / "off"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["detector_enabled"] is False
    assert summary["p_det"] is None
    assert "channel columns are zero" in summary["note"]
    assert set(summary["visibility"]) == {"no_detector"}
    for line in (out / "intensity.csv").read_text().splitlines()[1:]:
        cols = line.split(",")
        assert cols[2] == cols[3] == cols[4] == cols[5] == "0.0"


def test_sweep_golden_ok(tmp_path: Path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", OK, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("d,d_over_lambda_ph,visibility_null")
    assert len(lines) == 1 + 3
    digest = json.loads((out / "sweep_digest.json").read_text())
    assert digest["d_values"] == [2000.0, 25.0, 10.0]
    assert digest["onset_threshold"] == 0.02
    # fringes return somewhere between d = 25 rho and d = 1.25 rho
    assert digest["onset_d"] == 25.0


def test_sweep_requires_d_values(tmp_path: Path, capsys):
    cfg = _variant(tmp_path, sweep=None)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "sweep.d_values" in capsys.readouterr().err


def test_sweep_deterministic(tmp_path: Path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", OK, "--out", str(a)]) == 0
    assert main(["sweep", "--config", OK, "--out", str(b), "--threads", "4"]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_paths_golden_ok(tmp_path: Path):
    out = tmp_path / "paths"
    assert main(["paths", "--config", OK, "--out", str(out)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "bundle_id,path_id,point_index,z_bohr,x_bohr,truncated"
    ids = {line.split(",", 1)[0] for line in lines[1:]}
    assert ids == (
        {"S_to_A", "S_to_B"}
        | {f"A_to_screen_{k}" for k in range(5)}
        | {f"B_to_screen_{k}" for k in range(5)}
    )
    # every B-bound path ends inside the disc
    assert all(line.rsplit(",", 1)[1] == "true" for line in lines[1:] if line.startswith("S_to_B,"))
    crossings = json.loads((out / "crossings.json").read_text())
    assert crossings["seed"] == 11
    assert crossings["total"] == sum(crossings["pairs"].values())


# Desk crossing totals per slit separation at seed 20240811: none while
# the bundles behind the barrier are apart, then more as d shrinks to the
# disc scale (rho = 20).
DESK_CROSSING_TOTALS = {
    2000.0: 0, 1200.0: 0, 600.0: 0, 300.0: 0, 100.0: 0, 50.0: 0,
    25.0: 512, 15.0: 2560, 10.0: 3072, 5.0: 3072,
}


def test_paths_desk_crossing_totals_per_separation(tmp_path: Path):
    desk = json.loads((CONFIGS / "desk.json").read_text())
    assert list(DESK_CROSSING_TOTALS) == desk["sweep"]["d_values"]
    mid = 0.5 * (desk["apparatus"]["slit_A_center"] + desk["apparatus"]["slit_B_center"])
    totals = {}
    for d in desk["sweep"]["d_values"]:
        desk["apparatus"]["slit_A_center"] = mid - 0.5 * d
        desk["apparatus"]["slit_B_center"] = mid + 0.5 * d
        cfg = tmp_path / f"desk_d{d:g}.json"
        cfg.write_text(json.dumps(desk), encoding="utf-8")
        out = tmp_path / f"out_d{d:g}"
        assert main(["paths", "--config", str(cfg), "--out", str(out), "--seed", "20240811"]) == 0
        totals[d] = json.loads((out / "crossings.json").read_text())["total"]
    assert totals == DESK_CROSSING_TOTALS


# sha256 of (paths.csv, crossings.json), recorded before bundles became
# arrays; any change to a sampled coordinate, its formatting or a count
# changes them.
PATHS_DIGESTS = {
    "golden": (
        "0648ddb150104b23208958cabcb18acd3a47c018ff290ee1ceb8bb553b0bd32b",
        "7e1ba323e4da04b1e064d8d81dac77bad837eb49d607e88f104be1a8a7a91f4b",
    ),
    "desk d=10": (
        "b745a0baddb84488298bd6daf48ef31fe660e11d9a72a8db3866b8da61238956",
        "845efc920999c06bf528a65dfccb58ebf52c08f8d958fb1c4501c3fb129814ab",
    ),
}


def test_paths_artifact_bytes_are_pinned(tmp_path: Path):
    desk = json.loads((CONFIGS / "desk.json").read_text())
    desk["apparatus"]["slit_A_center"], desk["apparatus"]["slit_B_center"] = -5.0, 5.0
    desk_d10 = tmp_path / "desk_d10.json"
    desk_d10.write_text(json.dumps(desk), encoding="utf-8")
    runs = {"golden": ["--config", OK], "desk d=10": ["--config", str(desk_d10), "--seed", "20240811"]}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(["paths", *argv, "--out", str(out)]) == 0
        got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("paths.csv", "crossings.json"))
        assert got == PATHS_DIGESTS[name], name


def test_desk_paths_run_peaks_under_twice_its_csv(tmp_path: Path):
    # paths.csv is held as one string per bundle and written chunk by
    # chunk, so no copy of the whole table is made.
    desk = str(CONFIGS / "desk.json")
    assert main(["paths", "--config", desk, "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main(["paths", "--config", desk, "--out", str(tmp_path / "run")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (tmp_path / "run" / "paths.csv").stat().st_size


def test_write_atomic_leaves_nothing_when_a_chunk_fails(tmp_path: Path):
    def chunks():
        yield "bundle_id,path_id\n"
        yield "x" * (1 << 20)  # past the write buffer, so bytes reach the temp file
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        _write_atomic(tmp_path / "paths.csv", chunks())
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "paths.csv").write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError, match="chunk failed"):
        _write_atomic(tmp_path / "paths.csv", chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["paths.csv"]
    assert (tmp_path / "paths.csv").read_text(encoding="utf-8") == "old\n"


# Desk sweep verdict columns, recorded with every propagation a direct sum.
# Checked within 1e-9 of each column's peak, like the benchmark's gate
# (which allows 1e-6); visibility_kick_reference at d = 10 hangs on an
# exact tie of two screen samples and moves by 0.0026 if the aperture
# fields' rounding changes.
DESK_SWEEP_VERDICTS = {
    "d": [2000.0, 1200.0, 600.0, 300.0, 100.0, 50.0, 25.0, 15.0, 10.0, 5.0],
    "visibility_null": [
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.8634015195638276, 0.9633641390860415, 0.9999896307881312, 0.9999853009052995,
    ],
    "visibility_det": [
        0.007273327386825231, 0.007272819643800292, 0.007272606068505001, 0.007272551805426563,
        0.007272536258427987, 0.007272534484067218, 0.007272534882044318,
        0.9402175264647656, 0.9994648650954031, 0.9999922198226752,
    ],
    "visibility_combined": [
        0.002495678998686491, 0.0024943614417070855, 0.0024938076776653893, 0.0024936682234296447,
        0.0024936276411665834, 0.0024936231831411294, 0.3433032407577957,
        0.885958315633547, 0.9990356493898428, 0.9999800154540861,
    ],
    "visibility_kick_reference": [
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.07191904220761147, 0.2778282024084259, 0.7222978595648739,
    ],
    "p_det": [
        0.4115070012256294, 0.41150817652146243, 0.4115086719381773, 0.4115087958954593,
        0.4115088326235492, 0.41150883606680777, 0.4115088369276224, 0.4115088371112629,
        0.41150883716865044, 0.41150883720308307,
    ],
}


def test_desk_sweep_verdicts_are_pinned(tmp_path: Path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(CONFIGS / "desk.json"), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    for column, want in DESK_SWEEP_VERDICTS.items():
        got = [float(r[column]) for r in rows]
        assert len(got) == len(want), column
        peak = max(abs(v) for v in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9 * peak, column
    assert json.loads((out / "sweep_digest.json").read_text())["onset_d"] == 25.0


# Numeric summary.json fields of simulate on the shipped configs, grouped
# and checked within 1e-9 of each group's peak (a group whose values are
# all zero must stay exactly zero).  Paper visibility.no_detector hangs
# on an exact tie of two screen samples, like the desk sweep's d = 10
# kick value.
SIMULATE_SUMMARIES = {
    "desk.json": {
        "visibility": {
            "no_detector": 0.9995011462778518, "null": 0.0, "detected": 0.007272583717051133,
            "combined": 0.002493750909369177, "kick_reference": 0.0,
        },
        "p_det": {"p_det": 0.4115087224392881},
        "fringe_spacing": {"fringe_spacing_no_detector": 1257.3536886378686},
        "onset": {
            "onset_null.visibility_centroid_x": 0.0, "onset_null.asymmetry_index": 0.0,
            "onset_detected.visibility_centroid_x": 0.0, "onset_detected.asymmetry_index": 0.0,
        },
    },
    "paper.json": {
        "visibility": {
            "no_detector": 0.9999999533614096, "null": 0.0, "detected": 0.0,
            "combined": 0.0, "kick_reference": 0.0,
        },
        "p_det": {"p_det": 0.40931255483004747},
        "fringe_spacing": {"fringe_spacing_no_detector": 133185782.16804297},
        "onset": {
            "onset_null.visibility_centroid_x": 0.0, "onset_null.asymmetry_index": 0.0,
            "onset_detected.visibility_centroid_x": 0.0, "onset_detected.asymmetry_index": 0.0,
        },
    },
}


@pytest.mark.parametrize("name", SIMULATE_SUMMARIES)
def test_simulate_summaries_are_pinned(name, tmp_path: Path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for group, want in SIMULATE_SUMMARIES[name].items():
        node = summary["visibility"] if group == "visibility" else summary
        peak = max(abs(v) for v in want.values())
        for path, value in want.items():
            got = functools.reduce(lambda d, k: d[k], path.split("."), node)
            assert abs(got - value) <= 1e-9 * peak, (group, path, got)


def _desk_variant(tmp_path: Path, section: str, **changes) -> str:
    root = json.loads((CONFIGS / "desk.json").read_text())
    root[section].update(changes)
    p = tmp_path / "desk_variant.json"
    p.write_text(json.dumps(root), encoding="utf-8")
    return str(p)


# Two screen samples of desk's 4096 fall inside [-50, 50]; a local
# window of 1000 bohr spans about 10 of desk's ~97.7 bohr cells.
NARROW_WINDOWS = {
    "central_window": {"central_window": [-50.0, 50.0]},
    "local_window_width": {"local_window_width": 1000.0},
}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_narrow_window_fails_before_any_propagation(command, tmp_path: Path, capsys, kernel_calls):
    for key, change in NARROW_WINDOWS.items():
        cfg = _desk_variant(tmp_path, "analysis", **change)
        out = tmp_path / "never"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3, key
        assert f"analysis.{key}" in capsys.readouterr().err
        assert kernel_calls == [], key
        assert not out.exists(), key


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_off_axis_grid_fails_before_any_propagation(command, tmp_path: Path, capsys, kernel_calls):
    # Golden moved 2e7 bohr off axis with a 0.3 bohr slit: rounding at
    # that magnitude spaces the 32 aperture points unevenly.
    root = json.loads(Path(OK).read_text())
    shift = 2e7
    for key in ("source_x", "slit_A_center", "slit_B_center", "screen_min", "screen_max"):
        root["apparatus"][key] += shift
    root["apparatus"]["slit_width"] = 0.3
    root["analysis"]["central_window"] = [x + shift for x in root["analysis"]["central_window"]]
    cfg = tmp_path / "golden_off_axis.json"
    cfg.write_text(json.dumps(root), encoding="utf-8")
    out = tmp_path / "never"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "apparatus.slit_A_center: the slit A aperture grid must be uniform" in err
    assert kernel_calls == []
    assert not out.exists()


# Non-finite numbers as JSON spells them: Python's json reads 1e999 as
# inf and accepts NaN and Infinity.
NON_FINITE = [
    ("particle", "mass", "1e999"),
    ("analysis", "onset_threshold", "NaN"),
    ("apparatus", "source_x", "NaN"),
    ("analysis", "central_window", "[-1.55e5, Infinity]"),
    ("sweep", "d_values", "[10.0, -Infinity]"),
]


@pytest.mark.parametrize("command", ["simulate", "sweep", "paths"])
def test_non_finite_numbers_exit_2_naming_the_key(command, tmp_path: Path, capsys):
    for section, key, literal in NON_FINITE:
        root = json.loads((CONFIGS / "desk.json").read_text())
        root[section][key] = "@"
        cfg = tmp_path / "non_finite.json"
        cfg.write_text(json.dumps(root).replace('"@"', literal), encoding="utf-8")
        out = tmp_path / "never"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2, key
        assert f"config error: {section}.{key}: expected a finite number" in capsys.readouterr().err
        assert not out.exists(), key


def test_overflowing_momentum_exits_3_naming_particle(tmp_path: Path, capsys):
    cfg = _desk_variant(tmp_path, "particle", mass=1e308, kinetic_energy=1e308)
    out = tmp_path / "never"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "invalid configuration: particle:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "paths"])
def test_tiny_depth_epsilon_never_exits_1(command, tmp_path: Path, capsys):
    # The kernel phase over a depth of 1e-308 is not finite: validate
    # refuses it, naming the key, before anything propagates.
    cfg = _desk_variant(tmp_path, "detector", depth_epsilon=1e-308)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert "detector.depth_epsilon: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "paths"])
def test_depth_epsilon_not_below_L2_exits_3_naming_the_key(command, tmp_path: Path, capsys, kernel_calls):
    # A disc at or past the screen (desk L2 = 1e5) is refused by
    # validate, before any propagation, for every command.
    for eps in (1e5, 2e5):
        cfg = _desk_variant(tmp_path, "detector", depth_epsilon=eps)
        out = tmp_path / "never"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3, eps
        err = capsys.readouterr().err
        assert f"detector.depth_epsilon={eps} must be smaller than apparatus.L2=100000.0" in err, eps
        assert kernel_calls == [], eps
        assert not out.exists(), eps
    # With the detector off there is no disc, and the depth is not
    # checked (sweep measures the detector channels, so it needs one).
    if command != "sweep":
        cfg = _desk_variant(tmp_path, "detector", enabled=False, depth_epsilon=1e5)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "off")]) == 0


def test_kernel_phase_past_2_53_exits_3_naming_L1(tmp_path: Path, capsys, kernel_calls):
    # Over L1 = 1e-200 the kernel phase is ~3e204 rad: finite, but a
    # double holds no digit of it modulo 2 pi.
    cfg = _desk_variant(tmp_path, "apparatus", L1=1e-200)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "apparatus.L1: " in capsys.readouterr().err
    assert kernel_calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "paths"])
def test_unresolvable_disc_grid_exits_3(command, tmp_path: Path, capsys, kernel_calls):
    # At depth_epsilon = 1e-3 the disc grid needs ~3.4e6 samples, past
    # the cap: refused, not clamped to an aliased grid.
    cfg = _desk_variant(tmp_path, "detector", depth_epsilon=1e-3)
    out = tmp_path / "run"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert "detector.depth_epsilon, detector.radius_rho: " in capsys.readouterr().err
    assert kernel_calls == []
    assert not out.exists()


def test_sweep_with_detector_off_exits_3_naming_the_key(tmp_path: Path, capsys, kernel_calls, monkeypatch):
    # The sweep measures only the detector channels: with the detector
    # off it is refused before any entry is validated or propagated.
    entries = []
    real = scenario.validate_geometry
    monkeypatch.setattr(scenario, "validate_geometry", lambda *args: entries.append(args) or real(*args))
    cfg = _desk_variant(tmp_path, "detector", enabled=False)
    out = tmp_path / "never"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert "invalid configuration: detector.enabled is false" in capsys.readouterr().err
    assert kernel_calls == [] and entries == []
    assert not out.exists()


def test_non_finite_field_exits_4(tmp_path: Path, capsys, monkeypatch):
    # A propagation that returns NaN is a numerical failure, not an
    # invalid configuration.
    monkeypatch.setattr(kernels, "propagate_sum", lambda x_out, *args: np.full(x_out.size, np.nan, complex))
    out = tmp_path / "never"
    assert main(["simulate", "--config", str(CONFIGS / "desk.json"), "--out", str(out)]) == 4
    assert "numerical failure: field values must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_one_point_apertures_run(command, tmp_path: Path):
    # One aperture point per slit: the disc captures are chirp-z sums of
    # a one-point input.
    cfg = _desk_variant(tmp_path, "apparatus", aperture_samples=1)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 0


def test_narrow_local_window_is_ignored_without_detector(tmp_path: Path):
    # a detector-off simulate never computes local visibility
    root = json.loads((CONFIGS / "desk.json").read_text())
    root["analysis"]["local_window_width"] = 1000.0
    root["detector"]["enabled"] = False
    cfg = tmp_path / "desk_off.json"
    cfg.write_text(json.dumps(root), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["p_det"] is None


def _guard_package(monkeypatch) -> list[str]:
    """Rebind every name in the package that refers to one of its
    module-level functions (as perfbench/tracing.py does) to a wrapper
    that records calls made off the main thread."""
    off_main: list[str] = []
    modules = [twoslit] + [
        importlib.import_module(f"twoslit.{m.name}")
        for m in pkgutil.iter_modules(twoslit.__path__)
        if m.name != "__main__"
    ]
    found = {
        id(fn): (f"{mod.__name__}.{name}", fn)
        for mod in modules
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__
    }

    def guard(qual, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(qual)
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {key: guard(qual, fn) for key, (qual, fn) in found.items()}
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                monkeypatch.setattr(mod, name, wrappers[id(value)])
    return off_main


def test_worker_threads_run_no_module_level_function(tmp_path: Path, monkeypatch):
    # perfbench/tracing.py keeps one frame stack for the main thread, so
    # the kernel pool may run only nested closures and numpy.
    monkeypatch.setattr(kernels, "_WORKERS", max(2, kernels._WORKERS))
    monkeypatch.setattr(kernels, "_POOL", None)
    off_main = _guard_package(monkeypatch)
    try:
        sweep = _desk_variant(tmp_path, "sweep", d_values=[15.0, 10.0])
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")]) == 0
        desk = str(CONFIGS / "desk.json")
        assert main(["paths", "--config", desk, "--out", str(tmp_path / "paths")]) == 0
        particle = make_particle(mass=1.0, kinetic_energy=0.5)
        end = SpacetimeEvent(-250.0, 1e5, 1e5 / particle.velocity)  # desk source to slit A
        mc_kernel_estimate(SpacetimeEvent(0.0, 0.0, 0.0), end, particle, 10_000, 32, 7)
        assert kernels._POOL is not None  # the pool did run blocks
    finally:
        if kernels._POOL is not None:
            kernels._POOL.shutdown()
    assert off_main == []


def test_paths_seed_override_and_determinism(tmp_path: Path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["paths", "--config", OK, "--out", str(a), "--seed", "123"]) == 0
    assert main(["paths", "--config", OK, "--out", str(b), "--seed", "123"]) == 0
    assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()
    assert json.loads((a / "crossings.json").read_text())["seed"] == 123
    c = tmp_path / "c"
    assert main(["paths", "--config", OK, "--out", str(c), "--seed", "124"]) == 0
    assert (a / "paths.csv").read_bytes() != (c / "paths.csv").read_bytes()


def test_paths_requires_section(tmp_path: Path, capsys):
    cfg = _variant(tmp_path, paths=None)
    assert main(["paths", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "paths" in capsys.readouterr().err


# Every shipped config against every command it has a section for
# (simulate needs only the always-required sections).
SHIPPED_RUNS = [
    (path.name, command)
    for path in sorted(CONFIGS.glob("*.json"))
    for command in ("simulate", "sweep", "paths")
    if command == "simulate" or command in json.loads(path.read_text())
]


@pytest.mark.parametrize("name, command", SHIPPED_RUNS)
def test_shipped_config_runs(name, command, tmp_path: Path):
    out = tmp_path / "run"
    assert main([command, "--config", str(CONFIGS / name), "--out", str(out)]) == 0
    assert any(out.iterdir())


def test_uncertainty_stdout(capsys):
    assert main(["uncertainty", "1e9", "1.0", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_p"] == 1e-9
    assert payload["delta_x"] == 1e9
    assert payload["delta_E"] == 1e-9
    assert payload["delta_t"] == 1e9


@pytest.mark.parametrize("size", ["0.0", "nan", "inf", "1e-320"])
def test_uncertainty_bad_input(capsys, size):
    assert main(["uncertainty", size, "1.0", "0.5"]) == 2
    assert "confinement_size" in capsys.readouterr().err


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
