"""ChannelSet: one geometry's channels, each propagation at most once,
shared by simulate and sweep."""

import json
from pathlib import Path

import numpy as np
import pytest

from twoslit import scenario
from twoslit.analysis import intensity, measure_channels
from twoslit.apparatus import Geometry, make_detector
from twoslit.cli import main
from twoslit.config import AnalysisSettings, load_config
from twoslit.errors import InvalidStateError
from twoslit.propagator import GridSpec, PlaneField, propagate, propagate_pair
from twoslit.scenario import ChannelSet, barrier_field, stub_source, sweep_interslit

REPO = Path(__file__).resolve().parent.parent
DESK = REPO / "configs" / "desk.json"
PAPER = REPO / "configs" / "paper.json"

# d = 500 = 25 rho: A's cone misses the disc.  d = 10 = rho/2: it hits.
SEPARATIONS = [500.0, 10.0]


@pytest.fixture
def count_propagations(monkeypatch):
    """Propagations a ChannelSet asks for; the slit pair counts as one."""
    calls = []
    for name in ("propagate", "propagate_pair"):
        real = getattr(scenario, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(scenario, name, counted)
    return calls


@pytest.mark.parametrize("d", SEPARATIONS)
def test_detected_image_propagates_the_disc_sum(d, desk_apparatus, desk_detector, desk_particle):
    # The detected channel is the propagated sum stub + trapped, formed
    # at the disc, not the sum of the two screen images.
    app = desk_apparatus.with_slit_separation(d)
    stub = stub_source(Geometry(app, desk_detector, desk_particle))
    trapped = ChannelSet(Geometry(app, desk_detector, desk_particle)).trapped
    if trapped is not None:
        stub = PlaneField(stub.grid, stub.values + trapped.values)
    screen = Geometry(app, desk_detector, desk_particle).screen
    want = propagate(stub, app.L2 - desk_detector.depth_epsilon, desk_particle, screen)
    cs = ChannelSet(Geometry(app, desk_detector, desk_particle))
    assert np.array_equal(cs.detected.values, want.values)
    assert (cs.detected is cs.stub_image) == (trapped is None)


@pytest.mark.parametrize("d, expected", [(500.0, 3), (10.0, 5)])
def test_each_propagation_runs_once(
    d, expected, count_propagations, desk_apparatus, desk_detector, desk_particle, desk_window
):
    app = desk_apparatus.with_slit_separation(d)
    cs = ChannelSet(Geometry(app, desk_detector, desk_particle))
    measure_channels(cs, AnalysisSettings(desk_window, 8.0e4))
    intensity(cs.no_detector)
    assert len(count_propagations) == expected <= 5


def test_sweep_propagations_per_geometry(
    count_propagations, desk_apparatus, desk_detector, desk_particle, desk_window
):
    sweep_interslit(
        Geometry(desk_apparatus, desk_detector, desk_particle), SEPARATIONS, AnalysisSettings(desk_window, 8.0e4)
    )
    assert len(count_propagations) == 3 + 5


@pytest.fixture
def grid_builds(monkeypatch):
    """Logs of the grids whose points or uniformity verdict are computed,
    of the geometries whose disc need is computed, and of the
    barrier_field calls."""
    logs = {"points": [], "verdicts": [], "disc_need": [], "barrier": []}
    for cls, name, log in (
        (GridSpec, "x", logs["points"]),
        (GridSpec, "step_error", logs["verdicts"]),
        (Geometry, "disc_need", logs["disc_need"]),
    ):
        cached = cls.__dict__[name]  # a functools.cached_property

        def logged(obj, _func=cached.func, _log=log):
            _log.append(obj)  # keeps the object alive, so its id stays unique
            return _func(obj)

        monkeypatch.setattr(cached, "func", logged)
    real = scenario.barrier_field
    monkeypatch.setattr(scenario, "barrier_field", lambda *args: logs["barrier"].append(args) or real(*args))
    return logs


def test_simulate_builds_each_grid_and_barrier_field_once(tmp_path, grid_builds):
    # A desk simulate validates one Geometry, which computes the points
    # of its 4 grids (screen, two apertures, disc) and its disc need
    # once; the window check and the ChannelSet read that geometry, and
    # the set builds the two barrier fields once.  Only validate asks
    # for a uniformity verdict: building a PlaneField asks for none.
    assert main(["simulate", "--config", str(DESK), "--out", str(tmp_path / "run")]) == 0
    assert [slit for *_, slit in grid_builds["barrier"]] == ["A", "B"]
    points = grid_builds["points"]
    assert len(points) == 4 and len({id(grid) for grid in points}) == 4
    assert len(grid_builds["verdicts"]) == 4
    assert len(grid_builds["disc_need"]) == 1


def test_sweep_builds_each_grid_once_per_geometry(tmp_path, grid_builds):
    # A desk sweep validates the config and each of its 10 separations:
    # 11 geometries, each computing its disc need and the points of its
    # 2 aperture grids and its disc grid once.  The screen does not
    # depend on d: every separation reads the config geometry's screen,
    # whose points and uniformity verdict are computed once.  Each
    # separation's ChannelSet is built on the geometry its validation
    # checked and makes that separation's 2 barrier fields.
    n = len(json.loads(DESK.read_text())["sweep"]["d_values"])
    assert main(["sweep", "--config", str(DESK), "--out", str(tmp_path / "run")]) == 0
    points = grid_builds["points"]
    assert n == 10 and len(points) == 3 * (n + 1) + 1 == 34 and len({id(grid) for grid in points}) == 34
    screens = [grid for grid in points if not grid.cell_centered]
    assert len(screens) == 1 and [grid for grid in grid_builds["verdicts"] if grid is screens[0]] == screens
    assert len(grid_builds["disc_need"]) == n + 1
    assert [slit for *_, slit in grid_builds["barrier"]] == ["A", "B"] * n


@pytest.mark.parametrize("d", SEPARATIONS)
def test_sweep_row_matches_simulate(d, tmp_path):
    cfg = json.loads(DESK.read_text())
    mid = 0.5 * (cfg["apparatus"]["slit_A_center"] + cfg["apparatus"]["slit_B_center"])
    cfg["apparatus"]["slit_A_center"] = mid - 0.5 * d
    cfg["apparatus"]["slit_B_center"] = mid + 0.5 * d
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(cfg))

    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
    summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
    run = load_config(str(path))
    (row,) = sweep_interslit(Geometry(run.apparatus, run.detector, run.particle), [d], run.analysis)
    vis = summary["visibility"]
    assert row.visibility_null == vis["null"]
    assert row.visibility_det == vis["detected"]
    assert row.visibility_combined == vis["combined"]
    assert row.visibility_kick_reference == vis["kick_reference"]
    assert row.p_det == summary["p_det"]
    assert row.centroid_null == summary["onset_null"]["visibility_centroid_x"]
    assert row.asymmetry_det == summary["onset_detected"]["asymmetry_index"]


def test_sweep_rejects_bad_entry_before_computing(count_propagations, tmp_path, capsys):
    # d_values 9450 and 4725 lie below the paper slit_width = 1e4
    cfg = json.loads(PAPER.read_text())
    cfg["sweep"]["d_values"][8:] = [9450.0, 4725.0]
    path = tmp_path / "paper_bad_sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "paper"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 3
    assert "sweep.d_values[8]=9450.0 gives invalid geometry: " in capsys.readouterr().err
    assert count_propagations == []
    assert not out.exists()


def test_channels_without_detector(desk_apparatus, desk_particle, count_propagations):
    cs = ChannelSet(Geometry(desk_apparatus, make_detector(enabled=False, photon_wavelength=20.0), desk_particle))
    # the expected sum calls the propagator directly, past the counter
    geometry = cs.geometry
    pair = propagate_pair(
        *(barrier_field(geometry, slit) for slit in "AB"), desk_apparatus.L2, desk_particle, geometry.screen
    )
    assert np.array_equal(cs.no_detector.values, pair[0].values + pair[1].values)
    for name in ("p_det", "null", "detected", "stub_image", "kick_reference"):
        with pytest.raises(InvalidStateError):
            getattr(cs, name)
    assert len(count_propagations) == 1
