"""Measurements on screen intensity profiles: fringe visibility (global
and locally windowed), fringe spacing, a closed-form far-field oracle on
a Geometry's screen grid, onset-of-interference statistics, and the rows
of the slit-separation sweep (scenario.sweep_interslit fills them).

An intensity profile is a propagator.PlaneField with real values;
profiles on equal GridSpecs share a grid.  unit_area(grid, values) is
the one place an intensity is scaled to unit area.

Visibility here is an extremum-ensemble contrast,

    V = (mean of local maxima - mean of local minima)
        / (mean of local maxima + mean of local minima),

over strict interior extrema of the windowed profile.  Two refinements
keep it honest on sampled data: extremum values are sharpened with a
three-point parabolic fit, and adjacent max/min pairs closer than
PRUNE_REL times the window's value range are treated as sampling ripple
and removed.  A window with no surviving maxima or no surviving minima
has V = 0 by definition (a featureless profile has nothing to
contrast).  local_visibility_profile deliberately skips both
refinements: it is a threshold detector for "are there fringes here at
all", and the raw alternation signal is what the onset statistics
want.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .apparatus import Geometry, GridSpec
from .config import AnalysisSettings
from .errors import InvalidArgumentError, NoFringesError
from .propagator import PlaneField

# Adjacent extrema whose value gap is below PRUNE_REL * (window value
# range) are discarded as a pair before visibility is computed.
PRUNE_REL = 1e-4

# Minimum number of profile samples a visibility window must contain.
MIN_WINDOW_SAMPLES = 16


def unit_area(grid: GridSpec, values: np.ndarray) -> PlaneField:
    """values on grid, scaled to unit trapezoid area."""
    area = float(np.trapezoid(values, grid.x))
    if not (area > 0.0):
        raise InvalidArgumentError("cannot normalize a zero-intensity profile")
    return PlaneField(grid, values / area)


@dataclass(frozen=True)
class OnsetReport:
    local_visibility: np.ndarray
    onset_side: str  # left | right | center | none
    visibility_centroid_x: float
    asymmetry_index: float


@dataclass(frozen=True)
class SweepRow:
    d: float
    d_over_lambda_ph: float
    visibility_null: float
    visibility_det: float
    visibility_combined: float
    visibility_kick_reference: float
    centroid_null: float
    asymmetry_det: float
    p_det: float


def intensity(field_in: PlaneField) -> PlaneField:
    """|field|^2 scaled to unit trapezoid area."""
    return unit_area(field_in.grid, np.abs(field_in.values) ** 2)


def _strict_extrema(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of strict interior local maxima and minima."""
    v = values
    if v.size < 3:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    mid = v[1:-1]
    up = (mid > v[:-2]) & (mid > v[2:])
    dn = (mid < v[:-2]) & (mid < v[2:])
    return np.nonzero(up)[0] + 1, np.nonzero(dn)[0] + 1


def _parabolic_value(values: np.ndarray, i: int) -> float:
    """Extremum value refined by the parabola through (i-1, i, i+1)."""
    a, b, c = float(values[i - 1]), float(values[i]), float(values[i + 1])
    denom = a - 2.0 * b + c
    if denom == 0.0:
        return b
    delta = 0.5 * (a - c) / denom
    if not (-1.0 < delta < 1.0):
        return b
    return b - 0.25 * (a - c) * delta


def _pruned_extrema(values: np.ndarray) -> tuple[list[float], list[float]]:
    """Refined extremum values with sampling-ripple pairs removed."""
    imax, imin = _strict_extrema(values)
    order = np.argsort(np.concatenate([imax, imin]), kind="stable")
    kinds = np.concatenate([np.ones(imax.size, dtype=np.int8), -np.ones(imin.size, dtype=np.int8)])
    idx_all = np.concatenate([imax, imin])[order]
    kind_all = kinds[order]
    refined = [_parabolic_value(values, int(i)) for i in idx_all]
    # An extremum sitting exactly between two samples leaves two equal
    # neighbors of the other kind; merge same-kind runs (keeping the
    # more extreme value) so the sequence alternates max/min strictly.
    vals: list[float] = []
    tags: list[int] = []
    for v, t in zip(refined, kind_all):
        if tags and tags[-1] == t:
            if (t > 0 and v > vals[-1]) or (t < 0 and v < vals[-1]):
                vals[-1] = v
            continue
        vals.append(v)
        tags.append(int(t))
    span = float(np.max(values) - np.min(values))
    threshold = PRUNE_REL * span
    # Adjacent max/min pairs closer than the ripple threshold carry no
    # fringe signal; removing a pair preserves alternation.
    while len(vals) >= 2:
        gaps = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
        j = int(np.argmin(gaps))
        if gaps[j] >= threshold:
            break
        del vals[j : j + 2]
        del tags[j : j + 2]
    maxima = [v for v, t in zip(vals, tags) if t > 0]
    minima = [v for v, t in zip(vals, tags) if t < 0]
    return maxima, minima


def window_mask(x: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """The samples of x inside [window_lo, window_hi]; raises when they
    are fewer than MIN_WINDOW_SAMPLES."""
    lo, hi = window
    if not (lo < hi):
        raise InvalidArgumentError(f"empty visibility window [{lo}, {hi}]")
    sel = (x >= lo) & (x <= hi)
    n_sel = int(np.count_nonzero(sel))
    if n_sel < MIN_WINDOW_SAMPLES:
        raise InvalidArgumentError(
            f"visibility window holds {n_sel} samples; need at least {MIN_WINDOW_SAMPLES}"
        )
    return sel


def visibility(profile: PlaneField, window: tuple[float, float]) -> float:
    """Extremum-ensemble fringe contrast inside [window_lo, window_hi]."""
    maxima, minima = _pruned_extrema(profile.values[window_mask(profile.x, window)])
    if not maxima or not minima:
        return 0.0
    hi_mean = float(np.mean(maxima))
    lo_mean = float(np.mean(minima))
    total = hi_mean + lo_mean
    if total <= 0.0:
        return 0.0
    return min(max((hi_mean - lo_mean) / total, 0.0), 1.0)


def check_window_width(window_width: float, dx: float) -> None:
    """Refuse a sliding window narrower than MIN_WINDOW_SAMPLES samples
    of spacing dx."""
    if not (window_width > 0.0):
        raise InvalidArgumentError(f"window_width must be > 0, got {window_width}")
    if window_width < (MIN_WINDOW_SAMPLES - 1) * dx:
        raise InvalidArgumentError(
            f"window_width={window_width} spans fewer than {MIN_WINDOW_SAMPLES} samples"
        )


def local_visibility_profile(profile: PlaneField, window_width: float) -> np.ndarray:
    """Sliding-window visibility at every sample point.

    Raw strict extrema only (no refinement, no pruning); windows where
    either extremum set is empty score 0.  Global extrema are indexed
    once and each window reads its slice through prefix sums.
    """
    check_window_width(window_width, profile.dx)
    x, v = profile.x, profile.values
    imax, imin = _strict_extrema(v)
    half = 0.5 * window_width
    out = np.zeros(x.size, dtype=np.float64)

    def window_mean(idx: np.ndarray, csum: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        # Positions of extrema, searched once per window edge.
        pos = x[idx]
        a = np.searchsorted(pos, lo, side="left")
        b = np.searchsorted(pos, hi, side="right")
        count = b - a
        total = csum[b] - csum[a]
        return count, total

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


def fringe_spacing(profile: PlaneField) -> float:
    """Dominant fringe period from the profile's spectrum.

    The mean-removed profile must show a spectral peak at least 3x the
    median non-DC magnitude; otherwise NoFringesError.  The peak bin is
    sharpened by parabolic interpolation.
    """
    v = profile.values - float(np.mean(profile.values))
    n = v.size
    if n < 4:
        raise NoFringesError("profile too short for spectral estimate")
    mag = np.abs(np.fft.rfft(v))
    body = mag[1:]
    k = int(np.argmax(body)) + 1
    floor = float(np.median(body))
    if mag[k] <= 0.0 or mag[k] < 3.0 * floor:
        raise NoFringesError("no dominant fringe frequency")
    k_star = float(k)
    if 1 <= k - 1 and k + 1 < mag.size:
        a, b, c = float(mag[k - 1]), float(mag[k]), float(mag[k + 1])
        denom = a - 2.0 * b + c
        if denom != 0.0:
            delta = 0.5 * (a - c) / denom
            if -0.5 <= delta <= 0.5:
                k_star = k + delta
    return n * profile.dx / k_star


def fraunhofer_oracle(geometry: Geometry) -> PlaneField:
    """Closed-form far-field two-slit pattern on the geometry's screen
    grid: cos^2(pi d u) * sinc^2(w u) with u = x' / (lambda L2), x'
    measured from the projected pattern center, unit-area normalized."""
    a, grid = geometry.apparatus, geometry.screen
    mid = 0.5 * (a.slit_A_center + a.slit_B_center)
    center = mid + (mid - a.source_x) * a.L2 / a.L1
    u = (grid.x - center) / (geometry.particle.de_broglie_wavelength * a.L2)
    d = a.slit_separation
    w = a.slit_width
    return unit_area(grid, np.cos(np.pi * d * u) ** 2 * np.sinc(w * u) ** 2)


def onset_metrics(
    profile: PlaneField,
    baseline: PlaneField,
    window_width: float,
    threshold: float = AnalysisSettings.onset_threshold,
) -> OnsetReport:
    """Where does the profile show fringes that its baseline lacks?

    Excess local visibility (clipped at zero, then gated at threshold)
    is treated as a mass distribution over x; the report carries its
    left/right split and centroid.  |asymmetry| < 0.1 counts as center.
    """
    if profile.grid != baseline.grid:
        raise InvalidArgumentError("profile and baseline are on different grids")
    lv = local_visibility_profile(profile, window_width)
    lv_base = lv if baseline is profile else local_visibility_profile(baseline, window_width)
    excess = np.clip(lv - lv_base, 0.0, None)
    mass = np.where(excess >= threshold, excess, 0.0)
    total = float(np.sum(mass))
    if total <= 0.0:
        return OnsetReport(lv, "none", 0.0, 0.0)
    right = float(np.sum(mass[profile.x > 0.0])) + 0.5 * float(np.sum(mass[profile.x == 0.0]))
    left = total - right
    asym = (right - left) / total
    centroid = float(np.sum(profile.x * mass) / total)
    if abs(asym) < 0.1:
        side = "center"
    else:
        side = "right" if asym > 0.0 else "left"
    return OnsetReport(lv, side, centroid, asym)


@dataclass(frozen=True)
class ChannelMeasurements:
    profiles: dict[str, PlaneField]  # null, detected, combined, kick_reference
    visibility: dict[str, float]  # same keys, over the central window
    onset_null: OnsetReport
    onset_detected: OnsetReport
    p_det: float


def measure_channels(channels, settings: AnalysisSettings) -> ChannelMeasurements:
    """Intensities, visibilities and onset reports of the detector
    channels of one scenario.ChannelSet, with the run's analysis
    settings.  The null channel's onset baseline is one-slit A; the
    detected channel's is its stub-only re-emission."""
    profiles = {
        "null": channels.unit_intensity("null"),
        "detected": channels.unit_intensity("detected"),
        "combined": channels.combined,
        "kick_reference": channels.kick_reference,
    }
    onset = (settings.local_window_width, settings.onset_threshold)
    return ChannelMeasurements(
        profiles=profiles,
        visibility={k: visibility(v, settings.central_window) for k, v in profiles.items()},
        onset_null=onset_metrics(profiles["null"], channels.unit_intensity("psi_a"), *onset),
        onset_detected=onset_metrics(
            profiles["detected"], channels.unit_intensity("stub_image"), *onset
        ),
        p_det=channels.p_det,
    )
