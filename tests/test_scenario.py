import dataclasses
import math

import numpy as np
import pytest

from twoslit.analysis import intensity, local_visibility_profile, visibility
from twoslit.apparatus import Apparatus, DetectorConfig, make_detector, make_particle
from twoslit.errors import InvalidArgumentError, InvalidStateError
from twoslit.propagator import GridSpec, point_source_field, propagate, propagate_pair, transmitted_power
from twoslit.scenario import (
    ChannelSet,
    barrier_field,
    combined_intensity,
    crossing_window,
    detection_probability,
    disc_window,
    kick_visibility_factor,
    screen_grid,
    stub_source,
)


def test_screen_grid(desk_apparatus):
    g = screen_grid(desk_apparatus)
    assert (g.lo, g.hi, g.n) == (-2.0e5, 2.0e5, 4096)
    assert np.array_equal(g.x, -g.x[::-1])


def test_two_slit_is_sum_of_one_slit(desk_apparatus, desk_detector, desk_particle):
    # Each slit field is the pair sum's output, and its own propagation
    # (a chirp-z sum) up to rounding.
    cs = ChannelSet(desk_apparatus, desk_detector, desk_particle)
    sources = [barrier_field(desk_apparatus, desk_particle, slit) for slit in "AB"]
    pair = propagate_pair(*sources, desk_apparatus.L2, desk_particle, screen_grid(desk_apparatus))
    for src, psi, got in zip(sources, (cs.psi_a, cs.psi_b), pair):
        assert np.array_equal(psi.values, got.values)
        want = propagate(src, desk_apparatus.L2, desk_particle, screen_grid(desk_apparatus)).values
        assert np.max(np.abs(psi.values - want)) <= 1e-9 * np.max(np.abs(want))
    assert np.array_equal(cs.no_detector.values, cs.psi_a.values + cs.psi_b.values)


def test_one_slit_bad_label(desk_apparatus, desk_particle):
    with pytest.raises(InvalidArgumentError):
        barrier_field(desk_apparatus, desk_particle, "C")


def test_two_slit_mirror_symmetric(desk_apparatus, desk_detector, desk_particle):
    prof = intensity(ChannelSet(desk_apparatus, desk_detector, desk_particle).no_detector)
    flipped = prof.values[::-1]
    assert np.max(np.abs(prof.values - flipped)) / np.max(prof.values) < 1e-9


def test_one_slit_has_no_fringes(desk_apparatus, desk_detector, desk_particle, desk_window):
    prof = intensity(ChannelSet(desk_apparatus, desk_detector, desk_particle).psi_a)
    assert visibility(prof, desk_window) < 0.05


def test_disc_window():
    u = np.array([-1.5, -1.0, -0.8, -0.3, 0.0, 0.5, 0.8, 0.9, 1.0, 2.0])
    w = disc_window(u)
    assert np.all(w[np.abs(u) >= 1.0] == 0.0)
    assert np.all(w[np.abs(u) <= 0.8] == 1.0)
    assert 0.0 < w[np.where(u == 0.9)[0][0]] < 1.0
    # edge decreases monotonically
    edge = disc_window(np.linspace(0.8, 1.0, 50))
    assert np.all(np.diff(edge) <= 0.0)


def _small_apparatus() -> Apparatus:
    return Apparatus(
        source_x=0.0,
        L1=100.0,
        L2=100.0,
        slit_A_center=-5.0,
        slit_B_center=5.0,
        slit_width=0.5,
        screen_min=-50.0,
        screen_max=50.0,
        screen_samples=256,
        aperture_samples=16,
    )


def test_crossing_window_geometry():
    app = _small_apparatus()
    det = make_detector(enabled=True, photon_wavelength=1.0, radius_rho=1.0, depth_epsilon=1.0)
    win = crossing_window(app, det)
    assert win.slope_lo == pytest.approx(9.0)
    assert win.slope_hi == pytest.approx(11.0)
    assert win.screen_lo == pytest.approx(895.0)
    assert win.screen_hi == pytest.approx(1095.0)
    assert not win.intersects(-50.0, 50.0)
    assert win.intersects(900.0, 1000.0)
    assert win.intersects(1095.0, 2000.0)  # closed at the edges

    # once d <= rho the window straddles slope zero
    win0 = crossing_window(app.with_slit_separation(0.8), det)
    assert win0.slope_lo < 0.0 < win0.slope_hi


def test_crossing_window_domain():
    app = _small_apparatus()
    with pytest.raises(InvalidStateError):
        crossing_window(app, make_detector(enabled=False, photon_wavelength=1.0))
    bad = DetectorConfig(enabled=True, photon_wavelength=1.0, radius_rho=1.0, depth_epsilon=0.0)
    with pytest.raises(InvalidArgumentError):
        crossing_window(app, bad)


def test_stub_source_confined_to_disc(desk_apparatus, desk_detector, desk_particle):
    stub = stub_source(desk_apparatus, desk_detector, desk_particle)
    assert np.all(np.abs(stub.x - desk_apparatus.slit_B_center) <= desk_detector.radius_rho)
    peak = float(np.max(np.abs(stub.values)))
    assert abs(stub.values[0]) < 1e-3 * peak
    assert abs(stub.values[-1]) < 1e-3 * peak


def test_disc_operations_require_detector(desk_apparatus, desk_particle):
    off = make_detector(enabled=False, photon_wavelength=20.0)
    for fn in (stub_source, detection_probability):
        with pytest.raises(InvalidStateError):
            fn(desk_apparatus, off, desk_particle)
    for name in ("trapped", "null", "detected"):
        with pytest.raises(InvalidStateError):
            getattr(ChannelSet(desk_apparatus, off, desk_particle), name)
    deep = make_detector(enabled=True, photon_wavelength=20.0, depth_epsilon=2.0e5)
    with pytest.raises(InvalidArgumentError):
        stub_source(desk_apparatus, deep, desk_particle)


def test_trapped_a_gating(desk_apparatus, desk_detector, desk_particle):
    # slits 25 disc radii apart: A's cone cannot reach the disc
    assert ChannelSet(desk_apparatus, desk_detector, desk_particle).trapped is None
    close = desk_apparatus.with_slit_separation(10.0)
    trapped = ChannelSet(close, desk_detector, desk_particle).trapped
    assert trapped is not None
    assert np.any(np.abs(trapped.values) > 0.0)


def test_detection_probability_override(desk_apparatus, desk_particle):
    det = make_detector(
        enabled=True, photon_wavelength=20.0, radius_rho=20.0, depth_epsilon=5.0,
        detection_probability_override=0.25,
    )
    assert detection_probability(desk_apparatus, det, desk_particle) == 0.25


def test_detection_probability_full_capture(desk_apparatus, desk_particle):
    # a disc much wider than slit B, just behind it, captures half of the
    # total transmitted amplitude when the slits match
    det = make_detector(enabled=True, photon_wavelength=20.0, radius_rho=60.0, depth_epsilon=1.0)
    p = detection_probability(desk_apparatus, det, desk_particle)
    assert p == pytest.approx(0.5, abs=0.01)


def test_detection_probability_scales_with_slit_power(desk_apparatus, desk_particle):
    # |K| is position-independent, so transmitted power is proportional
    # to aperture width; a twice-as-wide B slit under full capture gives
    # p = 2/(1+2)
    app = desk_apparatus
    single = GridSpec(249.5, 250.5, 64, cell_centered=True)
    double = GridSpec(249.0, 251.0, 128, cell_centered=True)
    p_single = transmitted_power(point_source_field(0.0, single, app.L1, desk_particle))
    p_double = transmitted_power(point_source_field(0.0, double, app.L1, desk_particle))
    assert p_double == pytest.approx(2.0 * p_single, rel=1e-12)
    p = p_double / (p_single + p_double)
    assert p == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_null_channel_reduces_to_one_slit(desk_apparatus, desk_detector, desk_particle):
    # crossing window far beyond the screen: the null record IS one-slit A
    far = desk_apparatus.with_slit_separation(2000.0)
    cs = ChannelSet(far, desk_detector, desk_particle)
    assert cs.null is cs.psi_a
    psi_a = ChannelSet(far, desk_detector, desk_particle).psi_a
    assert np.array_equal(cs.null.values, psi_a.values)


def test_null_channel_gains_fringes_at_small_d(desk_apparatus, desk_detector, desk_particle):
    cs = ChannelSet(desk_apparatus.with_slit_separation(20.0), desk_detector, desk_particle)
    null = intensity(cs.null)
    base = intensity(cs.psi_a)
    width = 8.0e4
    lv_null = local_visibility_profile(null, width)
    lv_base = local_visibility_profile(base, width)
    zone = (null.x > 0.2e5) & (null.x < 1.4e5)
    assert float(np.max(lv_null[zone])) > 2.0 * max(float(np.max(lv_base[zone])), 0.01)


def test_detected_channel_weights(desk_apparatus, desk_detector, desk_particle):
    cs = ChannelSet(desk_apparatus, desk_detector, desk_particle)
    p = detection_probability(desk_apparatus, desk_detector, desk_particle)
    assert cs.p_det == p
    assert 0.0 < p < 1.0
    # d = 25 rho: no trapped A amplitude, so the stub-only baseline equals
    # the full detected channel
    assert np.array_equal(cs.detected.values, cs.stub_image.values)
    # at d = rho/2 the trapped contribution changes the pattern
    close = ChannelSet(desk_apparatus.with_slit_separation(10.0), desk_detector, desk_particle)
    assert not np.array_equal(close.detected.values, close.stub_image.values)


def test_combined_intensity_limits(desk_apparatus, desk_detector, desk_particle):
    cs = ChannelSet(desk_apparatus.with_slit_separation(50.0), desk_detector, desk_particle)
    null, det = cs.null, cs.detected
    i_null = intensity(null)
    i_det = intensity(det)
    assert np.array_equal(combined_intensity(null, det, 0.0).values, i_null.values)
    assert np.array_equal(combined_intensity(null, det, 1.0).values, i_det.values)
    assert np.array_equal(cs.combined.values, combined_intensity(null, det, cs.p_det).values)
    mix = combined_intensity(null, det, 0.3)
    want = 0.7 * i_null.values + 0.3 * i_det.values
    assert np.allclose(mix.values, want, rtol=0.0, atol=1e-18)
    with pytest.raises(InvalidArgumentError):
        combined_intensity(null, det, 1.5)


def test_kick_visibility_factor():
    assert kick_visibility_factor(0.0, 20.0) == 1.0
    assert kick_visibility_factor(20.0, 20.0) == pytest.approx(math.exp(-0.5 * math.pi**2), rel=1e-12)
    ds = np.linspace(0.0, 100.0, 11)
    gammas = [kick_visibility_factor(float(d), 20.0) for d in ds]
    assert all(b < a for a, b in zip(gammas, gammas[1:]))


def test_kick_reference_intensity(desk_apparatus, desk_detector, desk_particle):
    prof = ChannelSet(desk_apparatus, desk_detector, desk_particle).kick_reference
    assert float(np.trapezoid(prof.values, prof.x)) == pytest.approx(1.0, rel=1e-9)
    flipped = prof.values[::-1]
    assert np.max(np.abs(prof.values - flipped)) / np.max(prof.values) < 1e-9
    off = make_detector(enabled=False, photon_wavelength=20.0)
    with pytest.raises(InvalidStateError):
        ChannelSet(desk_apparatus, off, desk_particle).kick_reference
