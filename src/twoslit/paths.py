"""Monte Carlo path bundles, truncation, crossings, and a path-sum
estimator of the free kernel.

A bundle between two space-time events holds n_paths discrete paths on
n_slices equal time slices.  Each path is the straight line between
the endpoints plus a Brownian-bridge perturbation that vanishes at both
ends.  Bundle randomness is counter-based: the normal draw for (path p,
slice k) depends only on (seed, p, k), so bundles are reproducible for
any worker count.

A PathBundle is arrays: z and t per event slice, shared by every path;
x per path and slice; per path, its count of valid events and a
truncation flag.  bundle.paths gives per-path views (Path) that build
event objects only when asked, which the paths command never does, and
crossing_count returns the crossing points as arrays z and x.

experiment_paths builds the paths command's bundles from a run's
validated apparatus.Geometry.

The estimator mc_kernel_estimate averages exp(i(S_path - S_classical))
over a bridge ensemble and multiplies by the analytically known mean of
that phase under the bridge measure, so its expectation is exactly the
closed-form kernel.  Estimator paths use a narrower bridge than
sample_bundle's geometric bundles (see MC_BRIDGE_SCALE): the estimator
is unbiased for any scale, and a narrower bridge keeps the phase
variance, hence the Monte Carlo error, small at practical path counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .apparatus import Geometry, Particle
from .errors import InvalidArgumentError
from .propagator import free_kernel

# Bridge step scale, in units of sqrt(hbar*dt/m), used by the kernel
# estimator.  Geometric bundles (sample_bundle) use 1.0, the free
# spreading scale.  0.5 quarters the phase variance per slice.
MC_BRIDGE_SCALE = 0.5

# Screen points per slit for experiment_paths, from screen_min to screen_max.
SCREEN_PATH_TARGETS = 5


@dataclass(frozen=True)
class SpacetimeEvent:
    x: float
    z: float
    t: float


@dataclass(frozen=True, eq=False)
class PathBundle:
    """Path i is the events (x[i, j], z[j], t[j]) for j < lengths[i]; x
    past a path's length is stale.  Derived bundles share arrays with
    the bundles they came from, so no array is written after creation."""

    start: SpacetimeEvent
    end: SpacetimeEvent
    seed: int
    z: np.ndarray  # (n_events,)
    t: np.ndarray  # (n_events,)
    x: np.ndarray  # (n_paths, n_events)
    lengths: np.ndarray  # (n_paths,) valid events per path
    truncated: np.ndarray  # (n_paths,) bool

    @property
    def paths(self) -> tuple[Path, ...]:
        rows = zip(self.x, self.lengths.tolist(), self.truncated.tolist())
        return tuple(Path(x[:n], self.z[:n], self.t[:n], cut) for x, n, cut in rows)


@dataclass(frozen=True, eq=False)
class Path:
    """View of one path of a bundle: its valid events."""

    x: np.ndarray
    z: np.ndarray
    t: np.ndarray
    truncated: bool

    @property
    def events(self) -> tuple[SpacetimeEvent, ...]:
        return tuple(map(SpacetimeEvent, self.x.tolist(), self.z.tolist(), self.t.tolist()))


def sample_bundle(
    start: SpacetimeEvent,
    end: SpacetimeEvent,
    n_paths: int,
    n_slices: int,
    particle: Particle,
    seed: int,
    stream: int = 0,
) -> PathBundle:
    """Bridge-perturbed straight-line paths from start to end.

    Per-slice transverse increments have scale sqrt(hbar*dt/m) before
    the bridge conditioning removes the endpoint drift.
    """
    if n_paths < 1 or n_slices < 1:
        raise InvalidArgumentError("n_paths and n_slices must be >= 1")
    dt_total = end.t - start.t
    if not (dt_total > 0.0):
        raise InvalidArgumentError(f"end.t must exceed start.t, got {start.t} -> {end.t}")
    dt = dt_total / n_slices
    sigma = math.sqrt(dt / particle.mass)  # hbar = 1
    key = kernels.stream_key(seed, stream)
    offsets = kernels.bridge_offsets(key, n_paths, n_slices, sigma)

    frac = np.arange(n_slices + 1, dtype=np.float64) / n_slices
    xs_line = start.x + frac * (end.x - start.x)
    zs = start.z + frac * (end.z - start.z)
    ts = start.t + frac * dt_total
    # endpoints exact regardless of float fraction arithmetic
    xs_line[0], xs_line[-1] = start.x, end.x
    zs[0], zs[-1] = start.z, end.z
    ts[0], ts[-1] = start.t, end.t
    full = np.full(n_paths, n_slices + 1, np.int64)
    return PathBundle(start, end, seed, zs, ts, xs_line + offsets, full, np.zeros(n_paths, bool))


def path_action(path: Path, mass: float) -> float:
    """Discrete free action sum over transverse increments:
    S = sum_k (mass/2) * (dx_k)^2 / dt_k."""
    if path.x.size < 2:
        raise InvalidArgumentError("path_action needs at least 2 events")
    dt = np.diff(path.t)
    if not np.all(dt > 0.0):
        raise InvalidArgumentError("path events must be strictly increasing in t")
    dx = np.diff(path.x)
    return float(np.sum(0.5 * mass * dx * dx / dt))


def mc_kernel_estimate(
    start: SpacetimeEvent,
    end: SpacetimeEvent,
    particle: Particle,
    n_paths: int,
    n_slices: int,
    seed: int,
) -> complex:
    """Monte Carlo path-sum estimate of free_kernel(end.x, start.x; T).

    A path's increments are D/n + sigma*(z_k - zbar), z_k standard
    normals, so S_path = (m/(2 dt)) * sum_k (D/n + sigma*(z_k - zbar))^2.
    The cross term vanishes (sum_k (z_k - zbar) = 0) and the straight
    line's term is S_cl, so the fluctuation phase is exactly
    S_path - S_cl = (lam/2) * sum_k (z_k - zbar)^2, lam = m*sigma^2/dt,
    whatever D: the squared norm of the path's n-1 free-mode coordinates
    (Helmert basis), a chi-squared variate with n-1 degrees of freedom,
    which kernels.mc_phase_array draws directly, one per path from the
    seed's PCG64 generator.  It does not depend on the endpoints, so at
    fixed (seed, n_paths, n_slices, T) the estimate is free_kernel times
    one factor.  Its ensemble mean is
    (1 - i*lam)^(-(n-1)/2); multiplying the sample mean by the reciprocal
    factor makes the estimator exactly unbiased, and n_slices = 1 returns
    the kernel itself.
    """
    if n_paths < 1 or n_slices < 1:
        raise InvalidArgumentError("n_paths and n_slices must be >= 1")
    t_total = end.t - start.t
    if not (t_total > 0.0):
        raise InvalidArgumentError(f"end.t must exceed start.t, got {start.t} -> {end.t}")
    dt = t_total / n_slices
    sigma = MC_BRIDGE_SCALE * math.sqrt(dt / particle.mass)
    lam = particle.mass * sigma * sigma / dt
    key = kernels.stream_key(seed, 0)
    phases = kernels.mc_phase_array(key, n_paths, n_slices, lam)
    mean_phase = complex(np.sum(phases)) / n_paths
    k_cl = free_kernel(end.x, start.x, particle.mass, t_total)
    correction = (1.0 - 1j * lam) ** (0.5 * (n_slices - 1))
    return k_cl * (correction * mean_phase)


def truncate_bundle(
    bundle: PathBundle, disc_center_x: float, disc_center_z: float, radius: float
) -> PathBundle:
    """Cut every path at its first event inside the disc (z, x geometry)."""
    if not (radius > 0.0):
        raise InvalidArgumentError(f"radius must be > 0, got {radius}")
    r2 = radius * radius
    dx = bundle.x - disc_center_x
    dz = bundle.z - disc_center_z
    inside = dx * dx + dz * dz <= r2
    inside &= np.arange(bundle.z.size) < bundle.lengths[:, None]
    hit = inside.any(axis=1)
    lengths = np.where(hit, inside.argmax(axis=1) + 1, bundle.lengths)
    return replace(bundle, lengths=lengths, truncated=bundle.truncated | hit)


def spread_over_disc(bundle: PathBundle, radius: float) -> PathBundle:
    """Tilt path j, linearly in time, to end radius * (2(j + 0.5)/n - 1)
    from the bundle's end: n sites spread evenly across a disc.  A bridge
    plus a linear drift is still a bridge, so statistics are unchanged."""
    n, t0 = bundle.lengths.size, bundle.start.t
    span = bundle.end.t - t0
    u = radius * (2.0 * (np.arange(n) + 0.5) / n - 1.0)
    return replace(bundle, x=bundle.x + u[:, None] * ((bundle.t - t0) / span))


def crossing_count(a: PathBundle, b: PathBundle) -> tuple[int, np.ndarray, np.ndarray]:
    """Count segment-pair intersections between the bundles in the
    (z, x) plane (crossing times need not match), with the points' z
    and x arrays in kernels.segment_crossings order."""
    az, bz = np.broadcast_to(a.z, a.x.shape), np.broadcast_to(b.z, b.x.shape)
    z, x = kernels.segment_crossings(az, a.x, a.lengths, bz, b.x, b.lengths)
    return z.size, z, x


def experiment_paths(
    geometry: Geometry, n_paths: int, n_slices: int, seed: int
) -> tuple[dict[str, PathBundle], dict[str, int]]:
    """The paths command's bundles of the geometry by id, in output
    order, and the crossing count of S_to_B with each A_to_screen_k."""
    app, det, particle = geometry.apparatus, geometry.detector, geometry.particle
    v = particle.velocity
    t1, t2 = app.L1 / v, app.L2 / v
    source = SpacetimeEvent(x=app.source_x, z=0.0, t=0.0)
    at_a = SpacetimeEvent(x=app.slit_A_center, z=app.L1, t=t1)
    at_b = SpacetimeEvent(x=app.slit_B_center, z=app.L1, t=t1)

    def bundle(start: SpacetimeEvent, end: SpacetimeEvent, stream: int) -> PathBundle:
        return sample_bundle(start, end, n_paths, n_slices, particle, seed, stream=stream)

    bundles = {"S_to_A": bundle(source, at_a, 0)}
    if det.enabled:
        # B-bound paths end at interaction sites spread across the disc.
        z_disc = app.L1 + det.depth_epsilon
        disc_center = SpacetimeEvent(x=app.slit_B_center, z=z_disc, t=z_disc / v)
        spread = spread_over_disc(bundle(source, disc_center, 1), det.radius_rho)
        bundles["S_to_B"] = truncate_bundle(spread, app.slit_B_center, z_disc, det.radius_rho)
    else:
        bundles["S_to_B"] = bundle(source, at_b, 1)

    targets = np.linspace(app.screen_min, app.screen_max, SCREEN_PATH_TARGETS)
    hits = [SpacetimeEvent(x=float(xt), z=app.L1 + app.L2, t=t1 + t2) for xt in targets]
    for side, slit, first_stream in (("A", at_a, 2), ("B", at_b, 2 + SCREEN_PATH_TARGETS)):
        for k, hit in enumerate(hits):
            bundles[f"{side}_to_screen_{k}"] = bundle(slit, hit, first_stream + k)

    # How often do B-bound paths cross the A-side paths heading for the
    # screen.  Behind the barrier the bundles are well separated unless
    # the slit spacing shrinks to the disc scale, so the total drops to
    # zero exactly when the disc stops seeing A-side amplitude.
    pairs = {
        f"S_to_B x A_to_screen_{k}": crossing_count(bundles["S_to_B"], bundles[f"A_to_screen_{k}"])[0]
        for k in range(SCREEN_PATH_TARGETS)
    }
    return bundles, pairs
