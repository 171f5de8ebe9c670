import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoslit.apparatus import (
    BOHR_PER_CM,
    DISC_N_MAX,
    Apparatus,
    cm_to_bohr,
    disc_samples_required,
    make_detector,
    make_particle,
    validate,
)
from twoslit.errors import InvalidArgumentError

positive = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False, allow_infinity=False)


def test_cm_to_bohr():
    assert cm_to_bohr(1.0) == BOHR_PER_CM
    assert cm_to_bohr(0.0) == 0.0
    assert cm_to_bohr(2.5) == pytest.approx(2.5 * 1.8897261246e8, rel=1e-15)


def test_particle_desk_values(desk_particle):
    p = desk_particle
    assert p.momentum == 1.0
    assert p.velocity == 1.0
    assert p.de_broglie_wavelength == 2.0 * math.pi


@given(mass=positive, energy=positive)
def test_particle_invariants(mass, energy):
    p = make_particle(mass=mass, kinetic_energy=energy)
    assert p.momentum * p.de_broglie_wavelength == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert p.velocity * p.mass == pytest.approx(p.momentum, rel=1e-14)
    assert p.momentum == pytest.approx(math.sqrt(2.0 * mass * energy), rel=1e-14)


@pytest.mark.parametrize("mass,energy", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_particle_domain(mass, energy):
    with pytest.raises(InvalidArgumentError):
        make_particle(mass=mass, kinetic_energy=energy)


@pytest.mark.parametrize("mass,energy", [(1e308, 1e308), (1e-300, 1e-300), (5e-324, 1e308)])
def test_particle_refuses_non_finite_kinematics(mass, energy):
    # momentum overflows, underflows to 0, or the velocity overflows
    with pytest.raises(InvalidArgumentError, match="^particle: "):
        make_particle(mass=mass, kinetic_energy=energy)


def test_slit_geometry(desk_apparatus):
    a = desk_apparatus
    assert a.slit_separation == 500.0
    assert a.slit_A_interval == (-250.5, -249.5)
    assert a.slit_B_interval == (249.5, 250.5)


def test_with_slit_separation_keeps_midpoint(desk_apparatus):
    moved = desk_apparatus.with_slit_separation(30.0)
    assert moved.slit_A_center == -15.0
    assert moved.slit_B_center == 15.0
    assert moved.slit_separation == 30.0
    assert moved.slit_width == desk_apparatus.slit_width
    assert moved.L1 == desk_apparatus.L1


def test_detector_defaults():
    det = make_detector(enabled=True, photon_wavelength=17.0)
    assert det.radius_rho == 17.0
    assert det.depth_epsilon == 17.0
    det = make_detector(enabled=True, photon_wavelength=17.0, radius_rho=3.0)
    assert det.depth_epsilon == 3.0


def test_detector_override_domain():
    with pytest.raises(InvalidArgumentError):
        make_detector(enabled=True, photon_wavelength=1.0, detection_probability_override=1.5)
    with pytest.raises(InvalidArgumentError):
        make_detector(enabled=True, photon_wavelength=1.0, detection_probability_override=-0.1)
    det = make_detector(enabled=True, photon_wavelength=1.0, detection_probability_override=0.0)
    assert det.detection_probability_override == 0.0


def test_validate_clean(desk_apparatus, desk_detector, desk_particle):
    report = validate(desk_apparatus, desk_detector, desk_particle)
    assert report.ok
    assert report.errors() == []


def test_validate_overlapping_slits(desk_apparatus, desk_detector, desk_particle):
    bad = desk_apparatus.with_slit_separation(0.5)  # below slit_width = 1
    report = validate(bad, desk_detector, desk_particle)
    assert not report.ok
    assert any("slits overlap" in i.message for i in report.errors())


@pytest.mark.parametrize(
    "patch",
    [
        {"L1": 0.0},
        {"L2": -1.0},
        {"slit_width": 0.0},
        {"screen_min": 10.0, "screen_max": -10.0},
        {"screen_samples": 1},
        {"aperture_samples": 0},
        {"L1": 1e-308},  # the kernel phase over L1 is not finite
        {"L2": 1e-308},
    ],
)
def test_validate_geometry_errors(desk_apparatus, desk_detector, desk_particle, patch):
    import dataclasses

    bad = dataclasses.replace(desk_apparatus, **patch)
    assert not validate(bad, desk_detector, desk_particle).ok


def test_validate_detector_errors(desk_apparatus, desk_particle):
    det = make_detector(enabled=True, photon_wavelength=20.0, radius_rho=20.0)
    import dataclasses

    for patch in ({"radius_rho": -1.0}, {"depth_epsilon": 0.0}, {"photon_wavelength": -2.0}):
        bad = dataclasses.replace(det, **patch)
        assert not validate(desk_apparatus, bad, desk_particle).ok
        # disabled detectors are not checked
        off = dataclasses.replace(bad, enabled=False)
        assert validate(desk_apparatus, off, desk_particle).ok


def test_validate_warnings(desk_apparatus, desk_particle):
    import dataclasses

    small = make_detector(enabled=True, photon_wavelength=20.0, radius_rho=0.25)
    codes = {i.code for i in validate(desk_apparatus, small, desk_particle).warnings()}
    assert "detector_smaller_than_slit" in codes

    coarse = dataclasses.replace(desk_apparatus, aperture_samples=1)
    det = make_detector(enabled=True, photon_wavelength=20.0, radius_rho=20.0, depth_epsilon=5.0)
    codes = {i.code for i in validate(coarse, det, desk_particle).warnings()}
    assert "aliasing_risk" in codes

    near = dataclasses.replace(desk_apparatus, slit_width=5000.0, slit_A_center=-10000.0, slit_B_center=10000.0)
    codes = {i.code for i in validate(near, det, desk_particle).warnings()}
    assert "near_field" in codes


def test_validate_warns_when_disc_grid_is_clamped(desk_apparatus, desk_particle):
    det = make_detector(enabled=True, photon_wavelength=20.0, radius_rho=20.0, depth_epsilon=5.0)
    assert disc_samples_required(desk_apparatus, det, desk_particle) == 993
    assert "disc_grid_clamped" not in {i.code for i in validate(desk_apparatus, det, desk_particle).warnings()}

    wide = make_detector(enabled=True, photon_wavelength=20.0, radius_rho=1000.0, depth_epsilon=5.0)
    need = disc_samples_required(desk_apparatus, wide, desk_particle)
    assert need > DISC_N_MAX
    report = validate(desk_apparatus, wide, desk_particle)
    assert report.ok
    (issue,) = [i for i in report.warnings() if i.code == "disc_grid_clamped"]
    assert str(need) in issue.message and str(DISC_N_MAX) in issue.message


def test_infinite_disc_requirement_reads_as_clamped(desk_apparatus, desk_particle):
    # (rho + w) / epsilon overflows to inf at epsilon = 1e-308
    thin = make_detector(enabled=True, photon_wavelength=20.0, radius_rho=20.0, depth_epsilon=1e-308)
    assert disc_samples_required(desk_apparatus, thin, desk_particle) == 2**53
    # the kernel phase over that depth is not finite either: an error on the key
    report = validate(desk_apparatus, thin, desk_particle)
    assert not report.ok
    (issue,) = report.errors()
    assert issue.code == "infinite_phase" and issue.message.startswith("detector.depth_epsilon: ")
    # a finite depth past the cap is clamped with a warning
    shallow = make_detector(enabled=True, photon_wavelength=20.0, radius_rho=20.0, depth_epsilon=1e-3)
    assert disc_samples_required(desk_apparatus, shallow, desk_particle) > DISC_N_MAX
    report = validate(desk_apparatus, shallow, desk_particle)
    assert report.ok
    assert "disc_grid_clamped" in {i.code for i in report.warnings()}
