"""Monte Carlo path bundles, truncation, crossings, and a path-sum
estimator of the free kernel.

A bundle between two space-time events holds n_paths discrete paths on
n_slices equal time slices.  Each path is the straight line between
the endpoints plus a Brownian-bridge perturbation that vanishes at both
ends.  All randomness is counter-based: the normal draw for (path p,
slice k) depends only on (seed, p, k), so bundles are reproducible for
any worker count.

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
from dataclasses import dataclass

import numpy as np

from . import kernels
from .apparatus import Particle
from .errors import InvalidArgumentError
from .propagator import free_kernel

# Bridge step scale, in units of sqrt(hbar*dt/m), used by the kernel
# estimator.  Geometric bundles (sample_bundle) use 1.0, the free
# spreading scale.  0.5 quarters the phase variance per slice.
MC_BRIDGE_SCALE = 0.5


@dataclass(frozen=True)
class SpacetimeEvent:
    x: float
    z: float
    t: float


@dataclass(frozen=True)
class Path:
    """Discrete path; events are time-ordered.  A truncated path keeps
    events up to and including truncation_index and nothing after."""

    events: tuple[SpacetimeEvent, ...]
    truncated: bool = False
    truncation_index: int | None = None


@dataclass(frozen=True)
class PathBundle:
    start: SpacetimeEvent
    end: SpacetimeEvent
    paths: tuple[Path, ...]
    seed: int


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

    paths = []
    for p in range(n_paths):
        xs = xs_line + offsets[p]
        events = tuple(
            SpacetimeEvent(x=float(xs[j]), z=float(zs[j]), t=float(ts[j]))
            for j in range(n_slices + 1)
        )
        paths.append(Path(events=events))
    return PathBundle(start=start, end=end, paths=tuple(paths), seed=seed)


def path_action(path: Path, mass: float) -> float:
    """Discrete free action sum over transverse increments:
    S = sum_k (mass/2) * (dx_k)^2 / dt_k."""
    ev = path.events
    if len(ev) < 2:
        raise InvalidArgumentError("path_action needs at least 2 events")
    s = 0.0
    for a, b in zip(ev, ev[1:]):
        dt = b.t - a.t
        if not (dt > 0.0):
            raise InvalidArgumentError("path events must be strictly increasing in t")
        dx = b.x - a.x
        s += 0.5 * mass * dx * dx / dt
    return s


def mc_kernel_estimate(
    start: SpacetimeEvent,
    end: SpacetimeEvent,
    particle: Particle,
    n_paths: int,
    n_slices: int,
    seed: int,
) -> complex:
    """Monte Carlo path-sum estimate of free_kernel(end.x, start.x; T).

    With bridge increments sigma*(z_k - zbar) the fluctuation phase is
    S_path - S_cl = (m/(2 dt)) * sum_k (sigma*(z_k - zbar) + D/n)^2 - S_cl,
    whose ensemble mean is (1 - i*lam)^(-(n-1)/2), lam = m*sigma^2/dt.
    Multiplying the sample mean by the reciprocal factor makes the
    estimator exactly unbiased; n_slices = 1 returns the kernel itself.
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
    phases = kernels.mc_phase_array(
        key, n_paths, n_slices, end.x - start.x, t_total, particle.mass, sigma
    )
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
    out = []
    for path in bundle.paths:
        cut = None
        for j, ev in enumerate(path.events):
            dx = ev.x - disc_center_x
            dz = ev.z - disc_center_z
            if dx * dx + dz * dz <= r2:
                cut = j
                break
        if cut is None:
            out.append(path)
        else:
            out.append(
                Path(events=path.events[: cut + 1], truncated=True, truncation_index=cut)
            )
    return PathBundle(start=bundle.start, end=bundle.end, paths=tuple(out), seed=bundle.seed)


def spread_over_disc(bundle: PathBundle, radius: float) -> PathBundle:
    """Tilt path j, linearly in time, to end radius * (2(j + 0.5)/n - 1)
    from the bundle's end: n sites spread evenly across a disc.  A bridge
    plus a linear drift is still a bridge, so statistics are unchanged."""
    n, t0 = len(bundle.paths), bundle.start.t
    span = bundle.end.t - t0
    tilted = []
    for j, path in enumerate(bundle.paths):
        u = radius * (2.0 * (j + 0.5) / n - 1.0)
        events = tuple(
            SpacetimeEvent(x=ev.x + u * ((ev.t - t0) / span), z=ev.z, t=ev.t)
            for ev in path.events
        )
        tilted.append(Path(events=events))
    return PathBundle(start=bundle.start, end=bundle.end, paths=tuple(tilted), seed=bundle.seed)


def _packed_coords(bundle: PathBundle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = len(bundle.paths)
    lens = np.array([len(p.events) for p in bundle.paths], dtype=np.int64)
    width = int(lens.max())
    z = np.zeros((n, width), np.float64)
    x = np.zeros((n, width), np.float64)
    for i, p in enumerate(bundle.paths):
        z[i, : lens[i]] = [e.z for e in p.events]
        x[i, : lens[i]] = [e.x for e in p.events]
    return z, x, lens


def crossing_count(a: PathBundle, b: PathBundle) -> tuple[int, list[SpacetimeEvent]]:
    """Count segment-pair intersections between the bundles in the
    (z, x) plane.  Crossing times need not match; t is reconstructed
    from z along bundle a's parameterization."""
    az, ax, alen = _packed_coords(a)
    bz, bx, blen = _packed_coords(b)
    pts = kernels.segment_crossings(az, ax, alen, bz, bx, blen)
    # t from z assuming both bundles share dz/dt; bundle a's rate is used
    za, zb = a.start.z, a.end.z
    ta, tb = a.start.t, a.end.t
    rate = (tb - ta) / (zb - za) if zb != za else 0.0
    events = [
        SpacetimeEvent(x=float(xc), z=float(zc), t=float(ta + (zc - za) * rate))
        for zc, xc in pts
    ]
    return len(events), events
