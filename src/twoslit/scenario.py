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

The channels are PlaneFields on the set's screen grid; the detection
probability p_det weighs them in the mixture.  A ChannelSet builds the
screen grid, the disc grid and the two barrier fields (each slit's
source amplitude across its aperture) once; the slit pair, p_det, the
stub and the trapped capture all read them.  It propagates each field
once, in order: psi_A and psi_B at the screen, as one pair; the B stub
at the disc (p_det from its power, or the override); the trapped A
field at the disc, only when A's cone reaches it; the stub's screen
image (stub_image, also the detected channel's no-interference
baseline); the detected channel propagate(stub + trapped), the stub
image itself when nothing is trapped.  That is 3 propagations per
geometry, 5 when A's cone reaches the disc.  Each channel's unit-area
intensity is built once and shared by the measurements and the
mixture.

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
from .propagator import (
    GridSpec,
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


def sampled_grids(
    apparatus: Apparatus, detector: DetectorConfig, particle: Particle
) -> list[tuple[str, str, GridSpec]]:
    """(config key, name, grid) of every grid a run of this geometry
    samples: the slit apertures, the screen and, with the detector on,
    the disc."""
    grids = [
        ("apparatus.slit_A_center", "slit A aperture", _aperture_grid(apparatus, apparatus.slit_A_interval)),
        ("apparatus.slit_B_center", "slit B aperture", _aperture_grid(apparatus, apparatus.slit_B_interval)),
        ("apparatus.screen_samples", "screen", screen_grid(apparatus)),
    ]
    if detector.enabled and detector.depth_epsilon < apparatus.L2:
        grids.append(("detector.radius_rho", "detection-disc", _disc_grid(apparatus, detector, particle)))
    return grids


def _require_detector(apparatus: Apparatus, detector: DetectorConfig) -> None:
    if not detector.enabled:
        raise InvalidStateError("detector is disabled")
    if not (detector.depth_epsilon < apparatus.L2):
        raise InvalidArgumentError(
            f"depth_epsilon={detector.depth_epsilon} must be smaller than L2={apparatus.L2}"
        )


def stub_source(apparatus: Apparatus, detector: DetectorConfig, particle: Particle) -> PlaneField:
    """Slit-B amplitude carried to the disc plane and terminated there
    (see ChannelSet.stub)."""
    return ChannelSet(apparatus, detector, particle).stub


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
    """Every channel of one apparatus geometry.  Each grid, field and
    channel is computed on first use and kept, so the screen grid, the
    disc grid and each slit's barrier field are built once and each
    distinct propagation runs at most once; a set shares nothing with
    any other set."""

    def __init__(self, apparatus: Apparatus, detector: DetectorConfig, particle: Particle):
        self.apparatus, self.detector, self.particle = apparatus, detector, particle
        self._screen = screen_grid(apparatus)
        self._unit_intensities: dict[int, IntensityProfile] = {}  # by id of a kept field

    @cached_property
    def _disc(self) -> GridSpec:
        return _disc_grid(self.apparatus, self.detector, self.particle)

    @cached_property
    def _barrier(self) -> dict[str, PlaneField]:
        return {slit: barrier_field(self.apparatus, self.particle, slit) for slit in "AB"}

    def _disc_capture(self, slit: str) -> PlaneField:
        """One slit's amplitude carried over epsilon to the disc window."""
        det = self.detector
        f = propagate(self._barrier[slit], det.depth_epsilon, self.particle, self._disc)
        w = disc_window((f.x - self.apparatus.slit_B_center) / det.radius_rho)
        return PlaneField(f.grid, f.values * w)

    def _disc_to_screen(self, source: PlaneField) -> PlaneField:
        L = self.apparatus.L2 - self.detector.depth_epsilon
        return propagate(source, L, self.particle, self._screen)

    @cached_property
    def _psi_pair(self) -> tuple[PlaneField, PlaneField]:
        return propagate_pair(*self._barrier.values(), self.apparatus.L2, self.particle, self._screen)

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
        _require_detector(self.apparatus, self.detector)
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
        app, det = self.apparatus, self.detector
        _require_detector(app, det)
        eps = det.depth_epsilon
        lo_edge, hi_edge = app.slit_A_interval
        cone_lo = lo_edge + eps * (lo_edge - app.source_x) / app.L1
        cone_hi = hi_edge + eps * (hi_edge - app.source_x) / app.L1
        disc_lo = app.slit_B_center - det.radius_rho
        disc_hi = app.slit_B_center + det.radius_rho
        if cone_hi <= disc_lo or cone_lo >= disc_hi:
            return None
        return self._disc_capture("A")

    @cached_property
    def p_det(self) -> float:
        """Probability that the detector fires: disc-captured B power over
        total transmitted power (or the configured override)."""
        det = self.detector
        _require_detector(self.apparatus, det)
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
        return PlaneField(self._screen, self.psi_a.values + self.psi_b.values)

    @cached_property
    def null(self) -> PlaneField:
        """psi_A plus the stub image masked to the crossing window, ramped
        over one grid cell; psi_A alone when the window misses the screen."""
        psi_a = self.psi_a
        win = crossing_window(self.apparatus, self.detector)
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
        return self._disc_to_screen(PlaneField(self._disc, self.stub.values + self.trapped.values))

    def unit_intensity(self, name: str) -> IntensityProfile:
        """Unit-area intensity of the named field ("null", "detected",
        "psi_a", ...), built once per field: null is psi_a itself when
        the crossing window misses the screen, and detected the stub
        image when nothing is trapped."""
        field = getattr(self, name)
        if id(field) not in self._unit_intensities:
            self._unit_intensities[id(field)] = intensity(field)
        return self._unit_intensities[id(field)]

    @cached_property
    def combined(self) -> IntensityProfile:
        return _mixture(self.unit_intensity("null"), self.unit_intensity("detected"), self.p_det)

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
        return IntensityProfile(x=self.psi_a.x, values=vals / area, dx=self.psi_a.dx)


def detection_probability(
    apparatus: Apparatus, detector: DetectorConfig, particle: Particle
) -> float:
    """Probability that the detector fires (see ChannelSet.p_det)."""
    return ChannelSet(apparatus, detector, particle).p_det


def combined_intensity(null: PlaneField, det: PlaneField, p_det: float) -> IntensityProfile:
    """Convex mixture of the unit-area channel intensities."""
    return _mixture(intensity(null), intensity(det), p_det)


def _mixture(i_null: IntensityProfile, i_det: IntensityProfile, p_det: float) -> IntensityProfile:
    if not (0.0 <= p_det <= 1.0):
        raise InvalidArgumentError(f"p_det must lie in [0,1], got {p_det}")
    if i_null.x.size != i_det.x.size or not np.array_equal(i_null.x, i_det.x):
        raise InvalidArgumentError("null and detected channels are on different grids")
    if p_det == 0.0:
        return i_null
    if p_det == 1.0:
        return i_det
    vals = (1.0 - p_det) * i_null.values + p_det * i_det.values
    return IntensityProfile(x=i_null.x, values=vals, dx=i_null.dx)


def kick_visibility_factor(d: float, photon_wavelength: float) -> float:
    """gamma = exp(-(pi d / lambda_ph)^2 / 2)."""
    u = math.pi * d / photon_wavelength
    return math.exp(-0.5 * u * u)

