import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoslit.analysis import (
    fraunhofer_oracle,
    fringe_spacing,
    intensity,
    local_visibility_profile,
    onset_metrics,
    unit_area,
    visibility,
)
from twoslit.errors import InvalidArgumentError, NoFringesError, NumericalError
from twoslit.apparatus import Geometry
from twoslit.config import AnalysisSettings, load_config
from twoslit.propagator import GridSpec, PlaneField
from twoslit.scenario import ChannelSet, _mixture, sweep_interslit

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"


def _profile(x: np.ndarray, values: np.ndarray) -> PlaneField:
    """values on the uniform grid from x[0] to x[-1] with x.size points."""
    return PlaneField(GridSpec(float(x[0]), float(x[-1]), x.size), values)


def _tone(cycles: float, n: int = 2048, offset: float = 1.0, amp: float = 1.0):
    """offset + amp*cos over [0, cycles] periods, 32 samples per period."""
    x = np.arange(n) * (cycles * 2.0 * math.pi / n)
    return _profile(x, offset + amp * np.cos(x * 1.0))


def test_intensity_normalizes(desk_particle):
    grid = GridSpec(-2.0, 2.0, 101)
    x = grid.x
    f = PlaneField(grid, (1.0 + x**2).astype(complex))
    prof = intensity(f)
    assert float(np.trapezoid(prof.values, x)) == pytest.approx(1.0, rel=1e-12)
    assert prof.grid is grid and prof.x is x and prof.dx == grid.dx


def test_profile_refuses_wrong_shape_and_non_finite_values():
    grid = GridSpec(-1.0, 1.0, 16)
    for values in (np.ones(15), np.ones((16, 1)), np.ones(17)):
        with pytest.raises(InvalidArgumentError, match="one value per grid point"):
            PlaneField(grid, values)
    for bad in (math.nan, math.inf, -math.inf):
        values = np.ones(16)
        values[3] = bad
        with pytest.raises(NumericalError, match="finite"):
            PlaneField(grid, values)


def test_unit_area_scales_to_unit_area_and_refuses_zeros():
    grid = GridSpec(0.0, 3.0, 4)
    prof = unit_area(grid, np.array([1.0, 2.0, 2.0, 1.0]))
    assert prof.grid is grid
    assert np.array_equal(prof.values, np.array([1.0, 2.0, 2.0, 1.0]) / 5.0)
    for zero in (np.zeros(4), np.array([1.0, -1.0, -1.0, 1.0])):
        with pytest.raises(InvalidArgumentError, match="zero-intensity"):
            unit_area(grid, zero)


def test_mixture_refuses_profiles_on_different_grids():
    a = PlaneField(GridSpec(-1.0, 1.0, 16), np.ones(16))
    shifted = PlaneField(GridSpec(-0.5, 1.5, 16), np.ones(16))
    denser = PlaneField(GridSpec(-1.0, 1.0, 17), np.ones(17))
    for other in (shifted, denser):
        with pytest.raises(InvalidArgumentError, match="different grids"):
            _mixture(a, other, 0.5)
    same = PlaneField(GridSpec(-1.0, 1.0, 16), np.full(16, 3.0))  # an equal grid, not the same object
    assert np.array_equal(_mixture(a, same, 0.5).values, np.full(16, 2.0))


def test_intensity_zero_field():
    f = PlaneField(GridSpec(-1.0, 1.0, 16), np.zeros(16, dtype=complex))
    with pytest.raises(InvalidArgumentError):
        intensity(f)


def test_visibility_full_contrast():
    # cos^2 fringes swing between 0 and 1: unit visibility
    n = 2048
    x = np.arange(n) * (16.0 * 2.0 * math.pi / n)
    prof = _profile(x, np.cos(x) ** 2)
    assert visibility(prof, (float(x[0]), float(x[-1]))) == pytest.approx(1.0, abs=1e-9)


def test_visibility_flat_is_zero():
    x = np.linspace(0.0, 10.0, 256)
    prof = _profile(x, np.full(256, 3.7))
    assert visibility(prof, (0.0, 10.0)) == 0.0


def test_visibility_partial_contrast():
    # extrema on samples: (3 - 1) / (3 + 1) with no refinement error
    prof = _tone(cycles=16.0, offset=2.0, amp=1.0)
    v = visibility(prof, (float(prof.x[0]), float(prof.x[-1])))
    assert v == pytest.approx(0.5, abs=1e-12)


def test_visibility_partial_contrast_off_grid():
    # extrema between samples: parabolic refinement keeps the error tiny
    n = 2000
    x = np.arange(n) * (16.37 * 2.0 * math.pi / n) + 0.13
    prof = _profile(x, 2.0 + np.cos(x))
    v = visibility(prof, (float(x[0]), float(x[-1])))
    assert v == pytest.approx(0.5, abs=1e-4)


@given(scale=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_visibility_scale_invariant(scale):
    prof = _tone(cycles=12.0, offset=2.0, amp=0.8)
    scaled = _profile(prof.x, prof.values * scale)
    window = (float(prof.x[0]), float(prof.x[-1]))
    assert visibility(scaled, window) == pytest.approx(visibility(prof, window), rel=1e-12)


def test_visibility_window_domain():
    prof = _tone(cycles=8.0)
    with pytest.raises(InvalidArgumentError):
        visibility(prof, (5.0, 5.0))
    with pytest.raises(InvalidArgumentError):
        visibility(prof, (0.0, 2.0 * float(prof.dx)))  # too few samples


def test_local_visibility_flat():
    x = np.linspace(0.0, 100.0, 512)
    prof = _profile(x, np.ones(512))
    lv = local_visibility_profile(prof, window_width=10.0)
    assert np.all(lv == 0.0)


def _local_visibility_oracle(profile: PlaneField, window_width: float) -> np.ndarray:
    """local_visibility_profile one sample at a time: each window's
    extrema found by searching the extremum positions for its edges."""
    x, v = profile.x, profile.values
    mid = v[1:-1]
    imax = np.nonzero((mid > v[:-2]) & (mid > v[2:]))[0] + 1
    imin = np.nonzero((mid < v[:-2]) & (mid < v[2:]))[0] + 1
    half = 0.5 * window_width
    out = np.zeros(x.size, dtype=np.float64)

    def window_mean(idx: np.ndarray, csum: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        pos = x[idx]
        a = np.searchsorted(pos, lo, side="left")
        b = np.searchsorted(pos, hi, side="right")
        return b - a, csum[b] - csum[a]

    cmax = np.concatenate([[0.0], np.cumsum(v[imax])])
    cmin = np.concatenate([[0.0], np.cumsum(v[imin])])
    lo = x - half
    hi = x + half
    n_up, s_up = window_mean(imax, cmax, lo, hi)
    n_dn, s_dn = window_mean(imin, cmin, lo, hi)
    ok = (n_up > 0) & (n_dn > 0)
    mu_up = np.where(ok, s_up / np.maximum(n_up, 1), 0.0)
    mu_dn = np.where(ok, s_dn / np.maximum(n_dn, 1), 0.0)
    denom = mu_up + mu_dn
    ok &= denom > 0.0
    out[ok] = (mu_up[ok] - mu_dn[ok]) / denom[ok]
    return np.clip(out, 0.0, 1.0)


def _assert_matches_oracle(profile: PlaneField, window_width: float) -> None:
    got = local_visibility_profile(profile, window_width)
    want = _local_visibility_oracle(profile, window_width)
    assert got.dtype == np.float64 and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_local_visibility_matches_oracle_on_desk_channels():
    run = load_config(str(DESK))
    geometry = Geometry(run.apparatus, run.detector, run.particle)
    width = run.analysis.local_window_width
    for d in run.sweep_d_values:
        channels = ChannelSet(geometry.with_slit_separation(d))
        for name in ("null", "detected", "psi_a", "stub_image"):
            for w in (width, width / 8.0, 5.0 * width):
                _assert_matches_oracle(channels.unit_intensity(name), w)


def test_local_visibility_matches_oracle_where_window_edges_hit_samples():
    # On an integer grid, x +- w/2 lands exactly on samples, extrema
    # included, for every even w: an edge on an extremum holds it.
    rng = np.random.default_rng(20240811)
    for n in (16, 17, 40, 257):
        grid = GridSpec(0.0, float(n - 1), n)
        assert np.array_equal(grid.x, np.arange(n, dtype=np.float64))
        profiles = [
            1.0 + np.cos(np.arange(n) * (2.0 * math.pi / 6.0)),
            rng.random(n),
            np.round(rng.random(n) * 3.0),  # plateaus: runs of equal samples
            np.round(rng.random(n) * 2.0) + 1.0,
        ]
        for values in profiles:
            for w in (15.0, 16.0, 17.0, 15.5, float(n), 2.0 * n):
                _assert_matches_oracle(PlaneField(grid, values), w)


def test_local_visibility_matches_oracle_on_plateau_profiles():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(16, 300))
        grid = GridSpec(float(rng.normal()), float(rng.normal()) + n * 0.37, n)
        values = np.round(rng.random(n) * rng.integers(1, 6)) * rng.random() + rng.integers(0, 3)
        for w in (15.0 * grid.dx, float(rng.uniform(15.0, 3.0 * n)) * grid.dx):
            _assert_matches_oracle(PlaneField(grid, values), w)


def test_local_visibility_with_fewer_than_two_extrema_is_zero():
    grid = GridSpec(-1.0, 1.0, 65)  # x = 0 is a sample: one strict extremum there
    x = grid.x
    for values in (np.ones(65), x + 2.0, 2.0 - x, 1.0 - x * x, 1.0 + x * x, np.abs(x)):
        prof = PlaneField(grid, values)
        lv = local_visibility_profile(prof, 0.5)
        assert np.array_equal(lv, np.zeros(65))
        _assert_matches_oracle(prof, 0.5)


@pytest.mark.parametrize("n", [2, 3, 4096])
@pytest.mark.parametrize("kind", ["screen", "cell_centered"])
def test_unit_area_matches_trapezoid_bit_for_bit(n, kind):
    grid = GridSpec(-2e5, 2e5, n) if kind == "screen" else GridSpec(-0.5, 0.5, n, cell_centered=True)
    values = np.random.default_rng(n).random(n) + 0.1
    want = values / float(np.trapezoid(values, grid.x))
    assert np.array_equal(unit_area(grid, values).values.view(np.uint64), want.view(np.uint64))


def test_local_visibility_fringes():
    prof = _tone(cycles=32.0, offset=1.0, amp=1.0)  # swings 0..2: V = 1
    width = 4.0 * 2.0 * math.pi
    lv = local_visibility_profile(prof, window_width=width)
    interior = (prof.x > prof.x[0] + width) & (prof.x < prof.x[-1] - width)
    assert np.min(lv[interior]) > 0.999
    with pytest.raises(InvalidArgumentError):
        local_visibility_profile(prof, window_width=float(prof.dx))


def test_fringe_spacing_exact_tone():
    prof = _tone(cycles=16.0)
    want = 2.0 * math.pi
    assert fringe_spacing(prof) == pytest.approx(want, rel=1e-9)


def test_fringe_spacing_off_bin_tone():
    # spectral leakage caps the accuracy when the tone is between bins
    n = 2048
    cycles = 16.37
    x = np.arange(n) * (cycles * 2.0 * math.pi / n)
    prof = _profile(x, 1.0 + np.cos(x))
    assert fringe_spacing(prof) == pytest.approx(2.0 * math.pi, rel=2e-2)


def test_fringe_spacing_rejects_featureless():
    x = np.linspace(0.0, 1.0, 128)
    with pytest.raises(NoFringesError):
        fringe_spacing(_profile(x, np.full(128, 2.0)))
    with pytest.raises(NoFringesError):
        fringe_spacing(_profile(x[:3], np.array([1.0, 2.0, 1.0])))


def test_fraunhofer_oracle(desk_apparatus, desk_detector, desk_particle):
    prof = fraunhofer_oracle(Geometry(desk_apparatus, desk_detector, desk_particle))
    assert float(np.trapezoid(prof.values, prof.x)) == pytest.approx(1.0, rel=1e-12)
    want = desk_particle.de_broglie_wavelength * desk_apparatus.L2 / desk_apparatus.slit_separation
    assert fringe_spacing(prof) == pytest.approx(want, rel=1e-3)
    # symmetric source: even pattern
    sym = prof.values[::-1]
    assert np.max(np.abs(prof.values - sym)) / np.max(prof.values) < 1e-12


def test_fraunhofer_center_tracks_source(desk_apparatus, desk_detector, desk_particle):
    fine = dataclasses.replace(desk_apparatus, screen_samples=16384)
    on_axis = fraunhofer_oracle(Geometry(fine, desk_detector, desk_particle))
    moved = dataclasses.replace(fine, source_x=100.0)
    shifted = fraunhofer_oracle(Geometry(moved, desk_detector, desk_particle))
    # source at +100 projects the whole pattern to -100 on an L1 = L2
    # system: the shifted oracle is the on-axis one translated by -100
    interior = np.abs(shifted.x) < 1.0e5
    translated = np.interp(shifted.x[interior] + 100.0, on_axis.x, on_axis.values)
    err = np.max(np.abs(shifted.values[interior] - translated))
    assert err / np.max(on_axis.values) < 2e-3


def _onset_fixture():
    n = 4096
    x = np.linspace(-100.0, 100.0, n)
    flat = np.ones(n)
    fringes = 1.0 + 0.8 * np.cos(2.0 * math.pi * x / 2.5)
    return x, flat, fringes


def test_onset_none_when_profiles_match():
    x, flat, _ = _onset_fixture()
    rep = onset_metrics(_profile(x, flat), _profile(x, flat), window_width=20.0)
    assert rep.onset_side == "none"
    assert rep.visibility_centroid_x == 0.0
    assert rep.asymmetry_index == 0.0


def test_onset_against_itself_computes_one_profile(monkeypatch):
    # null is psi_A itself when the crossing window misses the screen,
    # and detected the stub image when nothing is trapped: the profile
    # is its own baseline and its local visibility is computed once.
    x, _, fringes = _onset_fixture()
    p = _profile(x, fringes)
    want = local_visibility_profile(p, 20.0)
    calls = []

    def counted(*args):
        calls.append(args)
        return local_visibility_profile(*args)

    monkeypatch.setattr("twoslit.analysis.local_visibility_profile", counted)
    rep = onset_metrics(p, p, window_width=20.0)
    assert len(calls) == 1
    assert (rep.onset_side, rep.visibility_centroid_x, rep.asymmetry_index) == ("none", 0.0, 0.0)
    assert np.array_equal(rep.local_visibility.view(np.uint64), want.view(np.uint64))


def test_onset_right_sided():
    x, flat, fringes = _onset_fixture()
    vals = np.where(x > 40.0, fringes, 1.0)
    rep = onset_metrics(_profile(x, vals), _profile(x, flat), window_width=20.0)
    assert rep.onset_side == "right"
    assert rep.asymmetry_index == pytest.approx(1.0, abs=1e-9)
    assert rep.visibility_centroid_x > 40.0


def test_onset_symmetric_is_center():
    x, flat, fringes = _onset_fixture()
    rep = onset_metrics(_profile(x, fringes), _profile(x, flat), window_width=20.0)
    assert rep.onset_side == "center"
    assert abs(rep.asymmetry_index) < 0.05
    assert abs(rep.visibility_centroid_x) < 1.0


def test_onset_grid_mismatch():
    x, flat, fringes = _onset_fixture()
    shifted = PlaneField(GridSpec(-99.0, 101.0, x.size), flat)
    with pytest.raises(InvalidArgumentError, match="different grids"):
        onset_metrics(_profile(x, fringes), shifted, window_width=20.0)


def test_sweep_rejects_bad_separation(desk_apparatus, desk_detector, desk_particle, desk_window):
    geometry = Geometry(desk_apparatus, desk_detector, desk_particle)
    settings = AnalysisSettings(desk_window, 8.0e4)
    # the second value puts the slits on top of each other
    with pytest.raises(InvalidArgumentError, match=r"^sweep\.d_values\[1\]=0\.5 gives invalid geometry: "):
        sweep_interslit(geometry, [100.0, 0.5], settings)
    with pytest.raises(InvalidArgumentError, match=r"^sweep\.d_values is empty"):
        sweep_interslit(geometry, [], settings)


def test_sweep_row_contents(desk_apparatus, desk_detector, desk_particle, desk_window):
    rows = sweep_interslit(
        Geometry(desk_apparatus, desk_detector, desk_particle), [600.0, 10.0], AnalysisSettings(desk_window, 8.0e4)
    )
    assert isinstance(rows, tuple) and len(rows) == 2
    wide, narrow = rows
    assert wide.d == 600.0 and narrow.d == 10.0
    assert wide.d_over_lambda_ph == pytest.approx(30.0)
    for row in rows:
        assert 0.0 <= row.p_det <= 1.0
        for col in dataclasses.fields(row):
            assert math.isfinite(getattr(row, col.name))
    # fringes are back at d = rho/2 and absent at d = 30 rho
    assert narrow.visibility_combined > 0.5
    assert wide.visibility_combined < 0.01
