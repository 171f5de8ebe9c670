"""ChannelSet: one geometry's channels, each propagation at most once,
bit-identical to the per-channel functions and shared by simulate and
sweep."""

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
from twoslit.propagator import PlaneField, propagate
from twoslit.scenario import (
    ChannelSet,
    combined_intensity,
    detected_channel_amplitude,
    detection_probability,
    kick_reference_intensity,
    null_channel_amplitude,
    one_slit_amplitude,
    screen_grid,
    stub_source,
    trapped_a_source,
    two_slit_amplitude,
)

REPO = Path(__file__).resolve().parent.parent
DESK = REPO / "configs" / "desk.json"
PAPER = REPO / "configs" / "paper.json"

# d = 500 = 25 rho: A's cone misses the disc.  d = 10 = rho/2: it hits.
SEPARATIONS = [500.0, 10.0]


@pytest.fixture
def count_propagations(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(scenario, "propagate", counted)
    return calls


@pytest.mark.parametrize("d", SEPARATIONS)
def test_channels_equal_per_channel_functions(d, desk_apparatus, desk_detector, desk_particle):
    app = desk_apparatus.with_slit_separation(d)
    args = (app, desk_detector, desk_particle)
    cs = ChannelSet(*args)
    assert (cs.trapped is None) == (d == 500.0)

    assert np.array_equal(cs.psi_a.values, one_slit_amplitude(app, desk_particle, "A").field.values)
    assert np.array_equal(cs.psi_b.values, one_slit_amplitude(app, desk_particle, "B").field.values)
    assert np.array_equal(cs.no_detector.field.values, two_slit_amplitude(app, desk_particle).field.values)
    assert cs.p_det == detection_probability(*args)
    for got, want in [
        (cs.null, null_channel_amplitude(*args)),
        (cs.detected, detected_channel_amplitude(*args)),
        (cs.detected_baseline, detected_channel_amplitude(*args, include_trapped=False)),
    ]:
        assert got.channel == want.channel
        assert got.probability_weight == want.probability_weight
        assert np.array_equal(got.field.values, want.field.values)
    want_comb = combined_intensity(null_channel_amplitude(*args), detected_channel_amplitude(*args), cs.p_det)
    assert np.array_equal(cs.combined.values, want_comb.values)
    assert np.array_equal(cs.kick_reference.values, kick_reference_intensity(*args).values)


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
    assert np.array_equal(cs.detected_image.values, want.values)
    assert (cs.detected_image is cs.stub_image) == (trapped is None)


@pytest.mark.parametrize("d, expected", [(500.0, 4), (10.0, 6)])
def test_each_propagation_runs_once(
    d, expected, count_propagations, desk_apparatus, desk_detector, desk_particle, desk_window
):
    app = desk_apparatus.with_slit_separation(d)
    cs = ChannelSet(app, desk_detector, desk_particle)
    measure_channels(cs, desk_window, 8.0e4)
    intensity(cs.no_detector.field)
    assert len(count_propagations) == expected <= 6


def test_sweep_propagations_per_geometry(
    count_propagations, desk_apparatus, desk_detector, desk_particle, desk_window
):
    sweep_interslit(
        desk_apparatus, desk_detector, desk_particle, SEPARATIONS,
        central_window=desk_window, local_window_width=8.0e4,
    )
    assert len(count_propagations) == 4 + 6


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
    assert np.array_equal(
        cs.no_detector.field.values, two_slit_amplitude(desk_apparatus, desk_particle).field.values
    )
    for name in ("p_det", "null", "detected", "detected_baseline", "kick_reference"):
        with pytest.raises(InvalidStateError):
            getattr(cs, name)
    # two_slit_amplitude above adds its own 2
    assert len(count_propagations) == 2 + 2
