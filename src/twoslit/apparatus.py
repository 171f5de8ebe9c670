"""Units, particle kinematics, experiment geometry, and validation.

Atomic units throughout: hbar = electron mass = bohr = 1.  Energies in
hartree, times in a.u.  The only unit boundary is cm_to_bohr.

Geometry (1 transverse dimension x, longitudinal axis z treated
classically at speed v):

    source plane  z = 0        point source at x = source_x
    barrier plane z = L1       slits A and B, centers slit_*_center, width w
    screen plane  z = L1 + L2  uniform sample grid

The detector is a disc of radius rho centered at (slit_B_center, L1 +
epsilon), i.e. just behind slit B.  Time of flight between planes a
distance L apart is T = L / v (paraxial reduction).

A Geometry builds every grid a run samples, and the disc need that sizes
the disc grid, once.  validate() returns the one it checked, and
everything that reads a run's setup takes it: the CLI,
scenario.ChannelSet and its wrappers, scenario.crossing_window,
analysis.fraunhofer_oracle and paths.experiment_paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError

BOHR_PER_CM = 1.8897261246e8


def cm_to_bohr(x_cm: float) -> float:
    """Convert centimeters to bohr (CODATA bohr radius)."""
    return x_cm * BOHR_PER_CM


@dataclass(frozen=True)
class Particle:
    """Massive particle with derived kinematic quantities.

    momentum = sqrt(2 m E), velocity = p / m, de Broglie wavelength
    = 2 pi / p.  Invariants: p * lambda = 2 pi and v * m = p, exactly.
    """

    mass: float
    kinetic_energy: float
    momentum: float
    velocity: float
    de_broglie_wavelength: float


def make_particle(mass: float, kinetic_energy: float) -> Particle:
    if not (mass > 0.0):
        raise InvalidArgumentError(f"mass must be > 0, got {mass}")
    if not (kinetic_energy > 0.0):
        raise InvalidArgumentError(f"kinetic_energy must be > 0, got {kinetic_energy}")
    p = math.sqrt(2.0 * mass * kinetic_energy)
    v, lam = p / mass, (2.0 * math.pi / p if p > 0.0 else math.inf)
    if not all(0.0 < q < math.inf for q in (p, v, lam)):
        raise InvalidArgumentError(
            f"particle: mass={mass} and kinetic_energy={kinetic_energy} give momentum={p}, "
            f"velocity={v}, de Broglie wavelength={lam}; each must be finite and > 0"
        )
    return Particle(
        mass=mass,
        kinetic_energy=kinetic_energy,
        momentum=p,
        velocity=v,
        de_broglie_wavelength=lam,
    )


@dataclass(frozen=True)
class Apparatus:
    """Source, barrier, and screen geometry (all lengths in bohr)."""

    source_x: float
    L1: float
    L2: float
    slit_A_center: float
    slit_B_center: float
    slit_width: float
    screen_min: float
    screen_max: float
    screen_samples: int
    aperture_samples: int

    @property
    def slit_separation(self) -> float:
        """d = slit_B_center - slit_A_center."""
        return self.slit_B_center - self.slit_A_center

    @property
    def slit_A_interval(self) -> tuple[float, float]:
        h = 0.5 * self.slit_width
        return (self.slit_A_center - h, self.slit_A_center + h)

    @property
    def slit_B_interval(self) -> tuple[float, float]:
        h = 0.5 * self.slit_width
        return (self.slit_B_center - h, self.slit_B_center + h)

    def with_slit_separation(self, d: float) -> "Apparatus":
        """Same apparatus with the slits moved to separation d about
        their current midpoint."""
        mid = 0.5 * (self.slit_A_center + self.slit_B_center)
        return replace(self, slit_A_center=mid - 0.5 * d, slit_B_center=mid + 0.5 * d)


@dataclass(frozen=True)
class DetectorConfig:
    """Photon-beam detection disc behind slit B.

    radius_rho defaults to the photon wavelength (the interaction
    range); depth_epsilon defaults to radius_rho.  Use make_detector to
    apply the defaults.
    """

    enabled: bool
    photon_wavelength: float
    radius_rho: float
    depth_epsilon: float
    detection_probability_override: float | None = None


def make_detector(
    enabled: bool,
    photon_wavelength: float,
    radius_rho: float | None = None,
    depth_epsilon: float | None = None,
    detection_probability_override: float | None = None,
) -> DetectorConfig:
    rho = photon_wavelength if radius_rho is None else radius_rho
    eps = rho if depth_epsilon is None else depth_epsilon
    if detection_probability_override is not None and not (
        0.0 <= detection_probability_override <= 1.0
    ):
        raise InvalidArgumentError(
            f"detection_probability_override must lie in [0,1], got {detection_probability_override}"
        )
    return DetectorConfig(
        enabled=enabled,
        photon_wavelength=photon_wavelength,
        radius_rho=rho,
        depth_epsilon=eps,
        detection_probability_override=detection_probability_override,
    )


# Disc-plane quadrature: points per radian of the fastest integrand phase,
# at least DISC_N_MIN samples; above DISC_N_MAX the grid is refused (it aliases).
_DISC_POINTS_PER_RADIAN = 4.0
DISC_N_MIN = 128
DISC_N_MAX = 32768


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [lo, hi].

    cell_centered=False: n nodes including both endpoints (screen-type
    grids).  cell_centered=True: n midpoints of equal cells (quadrature
    grids for apertures and the detection disc).  Points are built
    symmetrically about the interval midpoint so that a sign-symmetric
    interval yields an exactly sign-symmetric point set.  The spacing
    dx, the read-only points x and the uniformity verdict step_error are
    each computed once, on first use.
    """

    lo: float
    hi: float
    n: int
    cell_centered: bool = False

    # Largest departure of a step from dx, relative to dx.  Rounding
    # leaves ~1e-12; the chirp-z propagation assumes uniform grids.
    _RTOL = 1e-9

    @cached_property
    def dx(self) -> float:
        if not (self.hi > self.lo):
            raise InvalidArgumentError(f"grid bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 1 or (not self.cell_centered and self.n < 2):
            raise InvalidArgumentError(f"grid needs at least {1 if self.cell_centered else 2} points, got {self.n}")
        return (self.hi - self.lo) / (self.n if self.cell_centered else self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        offsets = np.arange(self.n, dtype=np.float64) - 0.5 * (self.n - 1)
        x = 0.5 * (self.lo + self.hi) + offsets * self.dx
        x.setflags(write=False)
        return x

    @cached_property
    def step_error(self) -> str | None:
        """Why the points are not uniform to _RTOL of dx (far off axis,
        rounding can space a narrow grid unevenly), or None."""
        off = np.abs(np.diff(self.x) - self.dx)
        if np.all(off <= self._RTOL * abs(self.dx)):
            return None
        worst = float(np.max(off))
        return f"grid must be uniform with spacing dx={self.dx!r}; a step is off by {worst!r}"


@dataclass(frozen=True)
class Geometry:
    """One run's apparatus, detector and particle, and every grid a run
    of them samples, each built on first use and kept."""

    apparatus: Apparatus
    detector: DetectorConfig
    particle: Particle

    @cached_property
    def screen(self) -> GridSpec:
        a = self.apparatus
        return GridSpec(a.screen_min, a.screen_max, a.screen_samples)

    @cached_property
    def apertures(self) -> dict[str, GridSpec]:
        """Midpoint quadrature grid across each slit, keyed "A" and "B"."""
        a = self.apparatus
        return {
            slit: GridSpec(lo, hi, a.aperture_samples, cell_centered=True)
            for slit, (lo, hi) in (("A", a.slit_A_interval), ("B", a.slit_B_interval))
        }

    @cached_property
    def disc_need(self) -> int | None:
        """Disc-plane samples needed to resolve the incoming stub phase
        and the outgoing screen phase, or None when there is no disc to
        sample: the detector is off, or depth_epsilon >= L2.  A need past
        2^53 (an infinite one, say, from a tiny depth_epsilon) reads as
        2^53."""
        a, det = self.apparatus, self.detector
        if not (det.enabled and det.depth_epsilon < a.L2):
            return None
        rho, eps = det.radius_rho, det.depth_epsilon
        screen_abs = max(abs(a.screen_min), abs(a.screen_max))
        rate = self.particle.momentum * (
            (rho + a.slit_width) / eps + (screen_abs + rho + abs(a.slit_B_center)) / (a.L2 - eps)
        )
        return int(math.ceil(min(2.0 * rho * rate * _DISC_POINTS_PER_RADIAN, 2.0**53)))

    @cached_property
    def disc(self) -> GridSpec | None:
        """Disc-plane grid of disc_need samples (at least DISC_N_MIN), or
        None with no disc; refused when the need exceeds DISC_N_MAX."""
        need = self.disc_need
        if need is None:
            return None
        if need > DISC_N_MAX:
            raise InvalidArgumentError(
                f"detector.depth_epsilon, detector.radius_rho: resolving the disc-plane phase "
                f"needs {need} samples, more than the cap of {DISC_N_MAX}; a larger depth_epsilon "
                f"or a smaller radius_rho needs fewer"
            )
        x_b, rho = self.apparatus.slit_B_center, self.detector.radius_rho
        return GridSpec(x_b - rho, x_b + rho, max(need, DISC_N_MIN), cell_centered=True)


@dataclass(frozen=True)
class Issue:
    severity: str  # "error" | "warning"
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    geometry: Geometry
    issues: tuple[Issue, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return all(i.severity != "error" for i in self.issues)

    def errors(self) -> list[Issue]:
        return [i for i in self.issues if i.severity == "error"]

    def warnings(self) -> list[Issue]:
        return [i for i in self.issues if i.severity == "warning"]


def validate(apparatus: Apparatus, detector: DetectorConfig, particle: Particle) -> ValidationReport:
    """Check every configuration invariant and the geometry's grids; the
    findings and that Geometry go in the report.

    Errors mark configurations no downstream operation accepts; warnings
    flag regimes where results are numerically or physically suspect.
    """
    geometry = Geometry(apparatus, detector, particle)
    issues: list[Issue] = []

    def err(code: str, message: str) -> None:
        issues.append(Issue("error", code, message))

    def warn(code: str, message: str) -> None:
        issues.append(Issue("warning", code, message))

    a = apparatus
    if not (a.L1 > 0.0):
        err("nonpositive_L1", f"L1 must be > 0, got {a.L1}")
    if not (a.L2 > 0.0):
        err("nonpositive_L2", f"L2 must be > 0, got {a.L2}")
    if not (a.slit_width > 0.0):
        err("nonpositive_slit_width", f"slit_width must be > 0, got {a.slit_width}")
    d = a.slit_separation
    if not (d > a.slit_width):
        err("slits_overlap", f"slits overlap: separation d={d} must exceed slit_width={a.slit_width}")
    if not (a.screen_min < a.screen_max):
        err("bad_screen_bounds", f"screen_min={a.screen_min} must be < screen_max={a.screen_max}")
    if a.screen_samples < 2:
        err("too_few_screen_samples", f"screen_samples must be >= 2, got {a.screen_samples}")
    if a.aperture_samples < 1:
        err("too_few_aperture_samples", f"aperture_samples must be >= 1, got {a.aperture_samples}")

    if detector.enabled:
        if not (detector.radius_rho > 0.0):
            err("nonpositive_radius", f"radius_rho must be > 0, got {detector.radius_rho}")
        if not (detector.depth_epsilon > 0.0):
            err("nonpositive_depth", f"depth_epsilon must be > 0, got {detector.depth_epsilon}")
        if not (detector.depth_epsilon < a.L2):
            err("depth_past_screen",
                f"detector.depth_epsilon={detector.depth_epsilon} must be smaller than apparatus.L2={a.L2}")
        if not (detector.photon_wavelength > 0.0):
            err("nonpositive_photon_wavelength",
                f"photon_wavelength must be > 0, got {detector.photon_wavelength}")

    # The disc grid must resolve its phase within DISC_N_MAX samples, and
    # every grid a run samples must be uniform (the chirp-z propagation
    # assumes it); far off axis, rounding can space narrow grids unevenly.
    # Every propagation's largest kernel phase p*dx^2/(2L), over the
    # spans it connects, must be below 2^53 rad: past that a double keeps
    # no digit of it modulo 2 pi.
    if not issues:
        grids = [(f"apparatus.slit_{s}_center", f"slit {s} aperture", g) for s, g in geometry.apertures.items()]
        grids.append(("apparatus.screen_samples", "screen", geometry.screen))
        try:
            if geometry.disc is not None:
                grids.append(("detector.radius_rho", "detection-disc", geometry.disc))
        except InvalidArgumentError as exc:
            err("unresolved_disc_grid", str(exc))
        for key, name, grid in grids:
            if grid.step_error is not None:
                err("nonuniform_grid", f"{key}: the {name} {grid.step_error}")
        slits = (a.slit_A_interval[0], a.slit_B_interval[1])
        screen = (a.screen_min, a.screen_max)
        legs = [
            ("apparatus.L1", a.L1, (a.source_x, a.source_x), slits),
            ("apparatus.L2", a.L2, slits, screen),
        ]
        if geometry.disc_need is not None:
            eps, rho = detector.depth_epsilon, detector.radius_rho
            disc = (a.slit_B_center - rho, a.slit_B_center + rho)
            legs += [
                ("detector.depth_epsilon", eps, slits, disc),
                ("detector.depth_epsilon", a.L2 - eps, disc, screen),
            ]
        for key, L, (in_lo, in_hi), (out_lo, out_hi) in legs:
            reach = max(abs(out_hi - in_lo), abs(in_hi - out_lo))
            phase = particle.momentum * reach * reach / (2.0 * L)
            if not phase < 2.0**53:
                err("phase_too_large",
                    f"{key}: the kernel phase p*dx^2/(2L) over L={L!r} is {phase!r} rad, not below 2^53")

    # Warnings are only meaningful on an otherwise sound geometry.
    if not [i for i in issues if i.severity == "error"]:
        lam = particle.de_broglie_wavelength
        screen_span = a.screen_max - a.screen_min
        aperture_span = (a.slit_B_center + 0.5 * a.slit_width) - (a.slit_A_center - 0.5 * a.slit_width)
        spacing = a.slit_width / a.aperture_samples
        bound = lam * a.L2 / (2.0 * (screen_span + aperture_span))
        if spacing > bound:
            warn(
                "aliasing_risk",
                f"aliasing risk: aperture sample spacing {spacing:.6g} exceeds "
                f"lambda*L2/(2*(screen span + aperture span)) = {bound:.6g}",
            )
        if detector.enabled and detector.radius_rho < 0.5 * a.slit_width:
            warn(
                "detector_smaller_than_slit",
                f"detector does not cover slit B: radius_rho={detector.radius_rho} "
                f"< slit_width/2={0.5 * a.slit_width}",
            )
        fresnel = a.slit_width**2 / (lam * a.L2)
        if fresnel > 0.1:
            warn(
                "near_field",
                f"far-field oracle inapplicable: Fresnel number w^2/(lambda*L2) = {fresnel:.6g} > 0.1",
            )

    return ValidationReport(geometry=geometry, issues=tuple(issues))
