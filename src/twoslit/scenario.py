"""Screen amplitudes of one apparatus geometry, built by ChannelSet:
the two-slit pattern, the null- and detected-measurement channels,
their probabilistic mixture, a momentum-kick reference model, and sweeps.

Channel construction
--------------------
psi_A, psi_B     point source -> one slit aperture -> screen
no_detector      psi_A + psi_B (coherent)
null             psi_A(x) + W(x) * psi_stub(x): the B amplitude survives
                 only as the stub terminated on the detection disc, and
                 it contributes on the screen only inside the geometric
                 crossing window W of straight lines from slit A through
                 the disc
detected         the disc re-emits what it captured: the B stub plus
                 whatever part of A's forward cone lies inside the disc
                 (zero once the cone and disc are disjoint)
combined         (1 - p_det) |null|^2 + p_det |detected|^2, each unit-area
kick_reference   |psi_A|^2 + |psi_B|^2 + 2*gamma*Re(psi_A conj(psi_B))
                 with gamma = exp(-(pi*d/lambda_ph)^2 / 2), an
                 independent decoherence surrogate used as an oracle

The channels are PlaneFields on the set's screen grid; the detection
probability p_det weighs them in the mixture.  Every function here that
reads a run's setup takes one apparatus.Geometry; the detector channels,
crossing_window and sweep_interslit refuse one with the detector off (naming
detector.enabled) or a disc outside (0, L2).  A ChannelSet reads the
grids and legs of its Geometry and builds the two barrier fields (each
slit's source amplitude across its aperture) once; the slit pair, p_det,
the stub and the trapped capture all read them.  It propagates each
field once, in order: psi_A and psi_B at the screen, as one pair; the B stub
at the disc (p_det from its power, or the override); the trapped A
field at the disc, only when A's cone reaches it; the stub's screen
image (stub_image, also the detected channel's no-interference
baseline); the detected channel propagate(stub + trapped), the stub
image itself when nothing is trapped.  That is 3 propagations per
geometry, 5 when A's cone reaches the disc.  Each channel's intensity
is a PlaneField of real values on the screen grid, scaled by
analysis.unit_area; it is built once and shared by the measurements and
the mixture, and ChannelSet.combined is the only mixture.
sweep_interslit measures one such set per validated slit separation of
a run's Geometry, with the run's config.AnalysisSettings; every
separation reads the run's screen grid.

The disc restriction multiplies by a flat-top window with C-infinity
edges (support exactly [x_B - rho, x_B + rho]); a hard edge would add
knife-edge ripples that are artifacts of the restriction, not of the
model.  All propagation is the midpoint-quadrature kernel sum, as a
chirp-z convolution.  When the slits mirror each other about the source
axis (source_x = 0, slits at +-d/2: every shipped config and sweep
entry), psi_B is psi_A read backwards, but for the two screen samples
next to x = 0, which are direct sums since the kick-reference verdict
at desk d = rho/2 hangs on their exact tie (see kernels).  Every
channel is deterministic to the bit for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import SweepRow, intensity, measure_channels, unit_area
from .apparatus import Geometry, validate_geometry
from .config import AnalysisSettings
from .errors import InvalidArgumentError, InvalidStateError
from .propagator import (
    PlaneField,
    point_source_field,
    propagate,
    propagate_pair,
    transmitted_power,
)

# Flat fraction of the disc window; the outer 1 - DISC_EDGE_FLAT of each
# side is the C-infinity bump edge exp(1 - 1/(1 - t^2)).  The flat core
# must reach past |u| = 0.5 so that at d = rho/2 the trapped slit-A
# amplitude (centered at u = -0.5) re-emits both directions unattenuated.
DISC_EDGE_FLAT = 0.8


@dataclass(frozen=True)
class CrossingWindow:
    """Slope band of straight lines from slit A passing within rho of
    the disc center, and its image on the screen plane."""

    slope_lo: float
    slope_hi: float
    screen_lo: float
    screen_hi: float

    def intersects(self, lo: float, hi: float) -> bool:
        return self.screen_hi >= lo and self.screen_lo <= hi


def barrier_field(geometry: Geometry, slit: str) -> PlaneField:
    """Source amplitude across one slit aperture at the barrier plane."""
    if slit not in ("A", "B"):
        raise InvalidArgumentError(f"slit must be 'A' or 'B', got {slit!r}")
    L = geometry.legs["source_slits"].L
    return point_source_field(geometry.apparatus.source_x, geometry.apertures[slit], L, geometry.particle)


def disc_window(u: np.ndarray) -> np.ndarray:
    """Flat-top window on [-1, 1]: 1 on |u| <= DISC_EDGE_FLAT, bump edge
    outside, exactly 0 for |u| >= 1."""
    au = np.abs(np.asarray(u, dtype=np.float64))
    w = np.zeros_like(au)
    w[au <= DISC_EDGE_FLAT] = 1.0
    edge = (au > DISC_EDGE_FLAT) & (au < 1.0)
    t = (au[edge] - DISC_EDGE_FLAT) / (1.0 - DISC_EDGE_FLAT)
    w[edge] = np.exp(1.0 - 1.0 / (1.0 - t * t))
    return w


def _require_detector(geometry: Geometry) -> None:
    """Refuse a geometry with no disc: the detector is off, or the disc
    does not lie between the barrier and the screen."""
    det, L2 = geometry.detector, geometry.apparatus.L2
    if not det.enabled:
        raise InvalidStateError("detector.enabled is false: the detector is disabled")
    if not (0.0 < det.depth_epsilon < L2):
        raise InvalidArgumentError(
            f"detector.depth_epsilon={det.depth_epsilon} must lie between 0 and apparatus.L2={L2}"
        )


def stub_source(geometry: Geometry) -> PlaneField:
    """Slit-B amplitude carried to the disc plane and terminated there
    (see ChannelSet.stub)."""
    return ChannelSet(geometry).stub


def crossing_window(geometry: Geometry) -> CrossingWindow:
    """Slope band [(d - rho)/eps, (d + rho)/eps] from slit A, imaged to
    the screen as x = slit_A_center + slope * L2."""
    _require_detector(geometry)
    a, det = geometry.apparatus, geometry.detector
    d, rho, eps = a.slit_separation, det.radius_rho, det.depth_epsilon
    s_lo, s_hi = (d - rho) / eps, (d + rho) / eps
    return CrossingWindow(
        slope_lo=s_lo,
        slope_hi=s_hi,
        screen_lo=a.slit_A_center + s_lo * a.L2,
        screen_hi=a.slit_A_center + s_hi * a.L2,
    )


class ChannelSet:
    """Every channel of one geometry.  Each field and channel is computed
    on first use and kept, so each slit's barrier field is built once
    and each distinct propagation runs at most once; the grids are the
    geometry's.  A set shares nothing with any other set but its
    geometry."""

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self.apparatus, self.detector, self.particle = geometry.apparatus, geometry.detector, geometry.particle
        self._unit_intensities: dict[int, PlaneField] = {}  # by id of a kept field

    @cached_property
    def _barrier(self) -> dict[str, PlaneField]:
        return {slit: barrier_field(self.geometry, slit) for slit in "AB"}

    def _disc_capture(self, slit: str) -> PlaneField:
        """One slit's amplitude carried along slit_disc to the disc window."""
        f = propagate(self._barrier[slit], self.geometry.legs["slit_disc"].L, self.particle, self.geometry.disc)
        w = disc_window((f.x - self.apparatus.slit_B_center) / self.detector.radius_rho)
        return PlaneField(f.grid, f.values * w)

    def _disc_to_screen(self, source: PlaneField) -> PlaneField:
        return propagate(source, self.geometry.legs["disc_screen"].L, self.particle, self.geometry.screen)

    @cached_property
    def _psi_pair(self) -> tuple[PlaneField, PlaneField]:
        L = self.geometry.legs["slits_screen"].L
        return propagate_pair(*self._barrier.values(), L, self.particle, self.geometry.screen)

    @property
    def psi_a(self) -> PlaneField:
        return self._psi_pair[0]

    @property
    def psi_b(self) -> PlaneField:
        return self._psi_pair[1]

    @cached_property
    def stub(self) -> PlaneField:
        """Slit-B amplitude propagated over epsilon, then restricted to
        the disc window."""
        _require_detector(self.geometry)
        return self._disc_capture("B")

    @cached_property
    def trapped(self) -> PlaneField | None:
        """Part of slit A's amplitude captured by the disc.

        A's forward cone is bounded by the straight lines from the
        source through the slit edges, advanced by epsilon to the disc
        plane.  None (an exact zero contribution) when that cone misses
        the disc support entirely; otherwise the A amplitude at the disc
        plane restricted by the disc window.
        """
        _require_detector(self.geometry)
        legs, x_s = self.geometry.legs, self.apparatus.source_x
        eps, L1 = legs["slit_disc"].L, legs["source_slits"].L
        cone_lo, cone_hi = (edge + eps * (edge - x_s) / L1 for edge in self.apparatus.slit_A_interval)
        disc = self.geometry.disc
        if cone_hi <= disc.lo or cone_lo >= disc.hi:
            return None
        return self._disc_capture("A")

    @cached_property
    def p_det(self) -> float:
        """Probability that the detector fires: disc-captured B power over
        total transmitted power (or the configured override)."""
        _require_detector(self.geometry)
        det = self.detector
        if det.detection_probability_override is not None:
            return det.detection_probability_override
        total = sum(transmitted_power(f) for f in self._barrier.values())
        return min(max(transmitted_power(self.stub) / total, 0.0), 1.0)

    @cached_property
    def stub_image(self) -> PlaneField:
        """Stub-only re-emission: the detected channel's baseline."""
        return self._disc_to_screen(self.stub)

    @cached_property
    def no_detector(self) -> PlaneField:
        return PlaneField(self.geometry.screen, self.psi_a.values + self.psi_b.values)

    @cached_property
    def null(self) -> PlaneField:
        """psi_A plus the stub image masked to the crossing window, ramped
        over one grid cell; psi_A alone when the window misses the screen."""
        psi_a = self.psi_a
        win = crossing_window(self.geometry)
        x, dx = psi_a.x, psi_a.dx
        if not win.intersects(x[0] - dx, x[-1] + dx):
            return psi_a
        ramp_lo = (x - (win.screen_lo - dx)) / dx
        ramp_hi = ((win.screen_hi + dx) - x) / dx
        w = np.clip(np.minimum(ramp_lo, ramp_hi), 0.0, 1.0)
        return PlaneField(psi_a.grid, psi_a.values + w * self.stub_image.values)

    @cached_property
    def detected(self) -> PlaneField:
        """propagate(stub + trapped): the sum is formed at the disc, not on
        the screen.  With nothing trapped it is the stub image itself."""
        if self.trapped is None:
            return self.stub_image
        return self._disc_to_screen(PlaneField(self.geometry.disc, self.stub.values + self.trapped.values))

    def unit_intensity(self, name: str) -> PlaneField:
        """Unit-area intensity of the named field ("null", "detected",
        "psi_a", ...), built once per field: null is psi_a itself when
        the crossing window misses the screen, and detected the stub
        image when nothing is trapped."""
        field = getattr(self, name)
        if id(field) not in self._unit_intensities:
            self._unit_intensities[id(field)] = intensity(field)
        return self._unit_intensities[id(field)]

    @cached_property
    def combined(self) -> PlaneField:
        return _mixture(self.unit_intensity("null"), self.unit_intensity("detected"), self.p_det)

    @cached_property
    def kick_reference(self) -> PlaneField:
        """Two-slit pattern with the cross term damped by gamma(d, lambda_ph)."""
        _require_detector(self.geometry)
        a, b = self.psi_a.values, self.psi_b.values
        gamma = kick_visibility_factor(self.apparatus.slit_separation, self.detector.photon_wavelength)
        vals = np.abs(a) ** 2 + np.abs(b) ** 2 + 2.0 * gamma * np.real(a * np.conj(b))
        return unit_area(self.psi_a.grid, vals)


def detection_probability(geometry: Geometry) -> float:
    """Probability that the detector fires (see ChannelSet.p_det)."""
    return ChannelSet(geometry).p_det


def _mixture(i_null: PlaneField, i_det: PlaneField, p_det: float) -> PlaneField:
    """Convex mixture of the unit-area channel intensities."""
    if not (0.0 <= p_det <= 1.0):
        raise InvalidArgumentError(f"p_det must lie in [0,1], got {p_det}")
    if i_null.grid != i_det.grid:
        raise InvalidArgumentError("null and detected channels are on different grids")
    if p_det == 0.0:
        return i_null
    if p_det == 1.0:
        return i_det
    return PlaneField(i_null.grid, (1.0 - p_det) * i_null.values + p_det * i_det.values)


def kick_visibility_factor(d: float, photon_wavelength: float) -> float:
    """gamma = exp(-(pi d / lambda_ph)^2 / 2)."""
    u = math.pi * d / photon_wavelength
    return math.exp(-0.5 * u * u)


def sweep_interslit(
    geometry: Geometry, d_values: list[float], settings: AnalysisSettings
) -> tuple[SweepRow, ...]:
    """Run every channel of the geometry at each slit separation and
    tabulate the verdict measurements.  A geometry with the detector off
    is refused before anything else.  Every re-centered apparatus is
    validated before any is computed; an invalid entry aborts naming
    its key, sweep.d_values[i]; then one ChannelSet at a time measures
    each geometry."""
    _require_detector(geometry)
    if len(d_values) == 0:
        raise InvalidArgumentError("sweep.d_values is empty")
    geometries = []
    for i, d in enumerate(d_values):
        report = validate_geometry(geometry.with_slit_separation(d))
        if not report.ok:
            issues = "; ".join(issue.message for issue in report.errors())
            raise InvalidArgumentError(f"sweep.d_values[{i}]={d} gives invalid geometry: {issues}")
        geometries.append(report.geometry)
    rows = []
    for d in d_values:  # each geometry's grids are freed once it is measured
        m = measure_channels(ChannelSet(geometries.pop(0)), settings)
        rows.append(
            SweepRow(
                d=d,
                d_over_lambda_ph=d / geometry.detector.photon_wavelength,
                visibility_null=m.visibility["null"],
                visibility_det=m.visibility["detected"],
                visibility_combined=m.visibility["combined"],
                visibility_kick_reference=m.visibility["kick_reference"],
                centroid_null=m.onset_null.visibility_centroid_x,
                asymmetry_det=m.onset_detected.asymmetry_index,
                p_det=m.p_det,
            )
        )
    return tuple(rows)
