"""ChannelSet: one geometry's channels, each propagation at most once,
shared by simulate and sweep."""

import json
from pathlib import Path

import numpy as np
import pytest

from twoslit import scenario
from twoslit.analysis import intensity, measure_channels, sweep_interslit
from twoslit.apparatus import make_detector
from twoslit.cli import main
from twoslit.config import load_config
from twoslit.errors import InvalidStateError
from twoslit.propagator import PlaneField, propagate, propagate_pair
from twoslit.scenario import ChannelSet, barrier_field, screen_grid, stub_source, trapped_a_source

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
    stub = stub_source(app, desk_detector, desk_particle)
    trapped = trapped_a_source(app, desk_detector, desk_particle)
    if trapped is not None:
        stub = PlaneField(z_label=stub.z_label, x=stub.x, values=stub.values + trapped.values, dx=stub.dx)
    want = propagate(stub, app.L2 - desk_detector.depth_epsilon, desk_particle, screen_grid(app))
    cs = ChannelSet(app, desk_detector, desk_particle)
    assert np.array_equal(cs.detected.values, want.values)
    assert (cs.detected is cs.stub_image) == (trapped is None)


@pytest.mark.parametrize("d, expected", [(500.0, 3), (10.0, 5)])
def test_each_propagation_runs_once(
    d, expected, count_propagations, desk_apparatus, desk_detector, desk_particle, desk_window
):
    app = desk_apparatus.with_slit_separation(d)
    cs = ChannelSet(app, desk_detector, desk_particle)
    measure_channels(cs, desk_window, 8.0e4)
    intensity(cs.no_detector)
    assert len(count_propagations) == expected <= 5


def test_sweep_propagations_per_geometry(
    count_propagations, desk_apparatus, desk_detector, desk_particle, desk_window
):
    sweep_interslit(
        desk_apparatus, desk_detector, desk_particle, SEPARATIONS,
        central_window=desk_window, local_window_width=8.0e4,
    )
    assert len(count_propagations) == 3 + 5


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
    (row,) = sweep_interslit(
        run.apparatus, run.detector, run.particle, [d],
        central_window=run.analysis.central_window,
        local_window_width=run.analysis.local_window_width,
        onset_threshold=run.analysis.onset_threshold,
    ).rows
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
    assert "d_values[8]=9450" in capsys.readouterr().err
    assert count_propagations == []
    assert not out.exists()


def test_channels_without_detector(desk_apparatus, desk_particle, count_propagations):
    cs = ChannelSet(desk_apparatus, make_detector(enabled=False, photon_wavelength=20.0), desk_particle)
    # the expected sum calls the propagator directly, past the counter
    pair = propagate_pair(
        *(barrier_field(desk_apparatus, desk_particle, slit) for slit in "AB"),
        desk_apparatus.L2, desk_particle, screen_grid(desk_apparatus),
    )
    assert np.array_equal(cs.no_detector.values, pair[0].values + pair[1].values)
    for name in ("p_det", "null", "detected", "stub_image", "kick_reference"):
        with pytest.raises(InvalidStateError):
            getattr(cs, name)
    assert len(count_propagations) == 1
