"""Screen amplitudes of one apparatus geometry, built by ChannelSet:
the two-slit pattern, the null- and detected-measurement channels,
their probabilistic mixture, and a momentum-kick reference model.

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

The channels are plain PlaneFields; the detection probability p_det
weighs them in the mixture.  ChannelSet propagates each field once, in
order: psi_A and psi_B at the screen; the B stub at the disc (p_det from
its power, or the override); the trapped A field at the disc, only when
A's cone reaches it; the stub's screen image (stub_image, also the
detected channel's no-interference baseline); the detected channel
propagate(stub + trapped), the stub image itself when nothing is
trapped.  That is 4 propagations per geometry, 6 when A's cone reaches
the disc.

The disc restriction multiplies by a flat-top window with C-infinity
edges (support exactly [x_B - rho, x_B + rho]); a hard edge would add
knife-edge ripples that are artifacts of the restriction, not of the
model.  All propagation is the midpoint-quadrature kernel sum: a direct
sum from the slit apertures (psi_A, psi_B, the stub and the trapped
field) and from disc grids of at most 256 points, a chirp-z convolution
from finer disc grids (the stub and detected images on desk).  Every
channel is deterministic to the bit for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import IntensityProfile, intensity
from .apparatus import (
    DISC_N_MAX,
    DISC_N_MIN,
    Apparatus,
    DetectorConfig,
    Particle,
    disc_samples_required,
)
from .errors import InvalidArgumentError, InvalidStateError
from .propagator import GridSpec, PlaneField, point_source_field, propagate, transmitted_power

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


def screen_grid(apparatus: Apparatus) -> GridSpec:
    return GridSpec(apparatus.screen_min, apparatus.screen_max, apparatus.screen_samples)


def _aperture_grid(apparatus: Apparatus, interval: tuple[float, float]) -> GridSpec:
    lo, hi = interval
    return GridSpec(lo, hi, apparatus.aperture_samples, cell_centered=True)


def barrier_field(apparatus: Apparatus, particle: Particle, slit: str) -> PlaneField:
    """Source amplitude across one slit aperture at the barrier plane."""
    if slit == "A":
        interval = apparatus.slit_A_interval
    elif slit == "B":
        interval = apparatus.slit_B_interval
    else:
        raise InvalidArgumentError(f"slit must be 'A' or 'B', got {slit!r}")
    return point_source_field(
        apparatus.source_x, _aperture_grid(apparatus, interval), apparatus.L1, particle
    )


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


def _disc_grid(apparatus: Apparatus, detector: DetectorConfig, particle: Particle) -> GridSpec:
    """Disc-plane grid fine enough for the incoming stub phase and the
    outgoing screen phase, within the sample-count clamp (validate warns
    when the clamp bites)."""
    n = min(max(disc_samples_required(apparatus, detector, particle), DISC_N_MIN), DISC_N_MAX)
    x_b, rho = apparatus.slit_B_center, detector.radius_rho
    return GridSpec(x_b - rho, x_b + rho, n, cell_centered=True)


def _require_detector(apparatus: Apparatus, detector: DetectorConfig) -> None:
    if not detector.enabled:
        raise InvalidStateError("detector is disabled")
    if not (detector.depth_epsilon < apparatus.L2):
        raise InvalidArgumentError(
            f"depth_epsilon={detector.depth_epsilon} must be smaller than L2={apparatus.L2}"
        )


def _disc_capture(
    apparatus: Apparatus, detector: DetectorConfig, particle: Particle, slit: str
) -> PlaneField:
    """One slit's amplitude carried over epsilon to the disc window."""
    grid = _disc_grid(apparatus, detector, particle)
    f = propagate(barrier_field(apparatus, particle, slit), detector.depth_epsilon, particle, grid)
    w = disc_window((f.x - apparatus.slit_B_center) / detector.radius_rho)
    return PlaneField(z_label=f.z_label, x=f.x, values=f.values * w, dx=f.dx)


def stub_source(apparatus: Apparatus, detector: DetectorConfig, particle: Particle) -> PlaneField:
    """Slit-B amplitude carried to the disc plane and terminated there:
    propagated over epsilon, then restricted to the disc window."""
    _require_detector(apparatus, detector)
    return _disc_capture(apparatus, detector, particle, "B")


def trapped_a_source(
    apparatus: Apparatus, detector: DetectorConfig, particle: Particle
) -> PlaneField | None:
    """Part of slit A's amplitude captured by the disc.

    A's forward cone is bounded by the straight lines from the source
    through the slit edges, advanced by epsilon to the disc plane.
    Returns None (an exact zero contribution) when that cone misses the
    disc support entirely; otherwise the A amplitude at the disc plane
    restricted by the disc window.
    """
    _require_detector(apparatus, detector)
    eps = detector.depth_epsilon
    rho = detector.radius_rho
    lo_edge, hi_edge = apparatus.slit_A_interval
    src = apparatus.source_x
    cone_lo = lo_edge + eps * (lo_edge - src) / apparatus.L1
    cone_hi = hi_edge + eps * (hi_edge - src) / apparatus.L1
    disc_lo = apparatus.slit_B_center - rho
    disc_hi = apparatus.slit_B_center + rho
    if cone_hi <= disc_lo or cone_lo >= disc_hi:
        return None
    return _disc_capture(apparatus, detector, particle, "A")


def crossing_window(apparatus: Apparatus, detector: DetectorConfig) -> CrossingWindow:
    """Slope band [(d - rho)/eps, (d + rho)/eps] from slit A, imaged to
    the screen as x = slit_A_center + slope * L2."""
    if not detector.enabled:
        raise InvalidStateError("detector is disabled")
    if not (detector.depth_epsilon > 0.0):
        raise InvalidArgumentError(f"depth_epsilon must be > 0, got {detector.depth_epsilon}")
    d = apparatus.slit_separation
    s_lo = (d - detector.radius_rho) / detector.depth_epsilon
    s_hi = (d + detector.radius_rho) / detector.depth_epsilon
    return CrossingWindow(
        slope_lo=s_lo,
        slope_hi=s_hi,
        screen_lo=apparatus.slit_A_center + s_lo * apparatus.L2,
        screen_hi=apparatus.slit_A_center + s_hi * apparatus.L2,
    )


class ChannelSet:
    """Every channel of one apparatus geometry.  Each field and channel
    is computed on first use and kept, so each distinct propagation runs
    at most once; a set shares nothing with any other set."""

    def __init__(self, apparatus: Apparatus, detector: DetectorConfig, particle: Particle):
        self.apparatus, self.detector, self.particle = apparatus, detector, particle

    def _slit_to_screen(self, slit: str) -> PlaneField:
        app, part = self.apparatus, self.particle
        return propagate(barrier_field(app, part, slit), app.L2, part, screen_grid(app))

    def _disc_to_screen(self, source: PlaneField) -> PlaneField:
        app = self.apparatus
        return propagate(source, app.L2 - self.detector.depth_epsilon, self.particle, screen_grid(app))

    @cached_property
    def psi_a(self) -> PlaneField:
        return self._slit_to_screen("A")

    @cached_property
    def psi_b(self) -> PlaneField:
        return self._slit_to_screen("B")

    @cached_property
    def stub(self) -> PlaneField:
        return stub_source(self.apparatus, self.detector, self.particle)

    @cached_property
    def trapped(self) -> PlaneField | None:
        return trapped_a_source(self.apparatus, self.detector, self.particle)

    @cached_property
    def p_det(self) -> float:
        """Probability that the detector fires: disc-captured B power over
        total transmitted power (or the configured override)."""
        app, det, part = self.apparatus, self.detector, self.particle
        _require_detector(app, det)
        if det.detection_probability_override is not None:
            return det.detection_probability_override
        total = sum(transmitted_power(barrier_field(app, part, slit)) for slit in "AB")
        return min(max(transmitted_power(self.stub) / total, 0.0), 1.0)

    @cached_property
    def stub_image(self) -> PlaneField:
        """Stub-only re-emission: the detected channel's baseline."""
        return self._disc_to_screen(self.stub)

    @cached_property
    def no_detector(self) -> PlaneField:
        a, b = self.psi_a, self.psi_b
        return PlaneField(a.z_label, a.x, a.values + b.values, a.dx)

    @cached_property
    def null(self) -> PlaneField:
        """psi_A plus the stub image masked to the crossing window, ramped
        over one grid cell; psi_A alone when the window misses the screen."""
        psi_a = self.psi_a
        win = crossing_window(self.apparatus, self.detector)
        dx = psi_a.dx
        if not win.intersects(psi_a.grid_min - dx, psi_a.grid_max + dx):
            return psi_a
        ramp_lo = (psi_a.x - (win.screen_lo - dx)) / dx
        ramp_hi = ((win.screen_hi + dx) - psi_a.x) / dx
        w = np.clip(np.minimum(ramp_lo, ramp_hi), 0.0, 1.0)
        return PlaneField(psi_a.z_label, psi_a.x, psi_a.values + w * self.stub_image.values, dx)

    @cached_property
    def detected(self) -> PlaneField:
        """propagate(stub + trapped): the sum is formed at the disc, not on
        the screen.  With nothing trapped it is the stub image itself."""
        if self.trapped is None:
            return self.stub_image
        src = self.stub
        both = PlaneField(src.z_label, src.x, src.values + self.trapped.values, src.dx)
        return self._disc_to_screen(both)

    @cached_property
    def combined(self) -> IntensityProfile:
        return combined_intensity(self.null, self.detected, self.p_det)

    @cached_property
    def kick_reference(self) -> IntensityProfile:
        """Two-slit pattern with the cross term damped by gamma(d, lambda_ph)."""
        if not self.detector.enabled:
            raise InvalidStateError("detector is disabled")
        a, b = self.psi_a.values, self.psi_b.values
        gamma = kick_visibility_factor(self.apparatus.slit_separation, self.detector.photon_wavelength)
        vals = np.abs(a) ** 2 + np.abs(b) ** 2 + 2.0 * gamma * np.real(a * np.conj(b))
        area = float(np.trapezoid(vals, self.psi_a.x))
        if not (area > 0.0):
            raise InvalidArgumentError("kick reference pattern has zero total intensity")
        return IntensityProfile(x=self.psi_a.x, values=vals / area, dx=self.psi_a.dx, normalized=True)


def detection_probability(
    apparatus: Apparatus, detector: DetectorConfig, particle: Particle
) -> float:
    """Probability that the detector fires (see ChannelSet.p_det)."""
    return ChannelSet(apparatus, detector, particle).p_det


def combined_intensity(null: PlaneField, det: PlaneField, p_det: float) -> IntensityProfile:
    """Convex mixture of the unit-area channel intensities."""
    if not (0.0 <= p_det <= 1.0):
        raise InvalidArgumentError(f"p_det must lie in [0,1], got {p_det}")
    if null.x.size != det.x.size or not np.array_equal(null.x, det.x):
        raise InvalidArgumentError("null and detected channels are on different grids")
    if p_det == 0.0:
        return intensity(null)
    if p_det == 1.0:
        return intensity(det)
    vals = (1.0 - p_det) * intensity(null).values + p_det * intensity(det).values
    return IntensityProfile(x=null.x, values=vals, dx=null.dx, normalized=True)


def kick_visibility_factor(d: float, photon_wavelength: float) -> float:
    """gamma = exp(-(pi d / lambda_ph)^2 / 2)."""
    u = math.pi * d / photon_wavelength
    return math.exp(-0.5 * u * u)

