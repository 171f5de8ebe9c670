"""Closed-form free-particle kernel and plane-to-plane propagation.

The kernel between transverse points over a flight time T (hbar = 1):

    K(x_b, x_a; T) = sqrt(m / (2 pi i T)) * exp(i m (x_b - x_a)^2 / (2 T))

propagate() realizes the superposition integral by midpoint quadrature
on the input grid, as a chirp-z FFT convolution that equals the direct
sum up to rounding.  The convolution runs on the smallest 5-smooth FFT
length that holds it, and the kernel's spectrum is planned once per
(n_in, n_out, g) in a bounded table of read-only arrays, whose state
changes no output bit (see kernels).  propagate_pair() propagates two
fields onto one grid; when the second is the first's exact mirror image
about x = 0 and the target grid is symmetric (the slit pair of a source
on the axis with slits at +-d/2: every shipped config and sweep entry),
it makes one chirp-z sum and reads the mirror field backwards.  On an
even grid the two samples next to x = 0 of each field are then replaced
by direct sums, because a visibility verdict hangs on their exact tie
(see kernels).  Either way the result is bit-identical for any thread
count and on every run.  The chirp-z path needs uniform grids, so
PlaneField rejects an x whose spacing is not dx.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .apparatus import Particle
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid request on [lo, hi].

    cell_centered=False: n nodes including both endpoints (screen-type
    grids).  cell_centered=True: n midpoints of equal cells (quadrature
    grids for apertures and the detection disc).  Points are built
    symmetrically about the interval midpoint so that a sign-symmetric
    interval yields an exactly sign-symmetric point set.
    """

    lo: float
    hi: float
    n: int
    cell_centered: bool = False

    def points_and_spacing(self) -> tuple[np.ndarray, float]:
        if not (self.hi > self.lo):
            raise InvalidArgumentError(f"grid bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 1 or (not self.cell_centered and self.n < 2):
            raise InvalidArgumentError(f"grid needs at least {1 if self.cell_centered else 2} points, got {self.n}")
        span = self.hi - self.lo
        mid = 0.5 * (self.lo + self.hi)
        if self.cell_centered:
            dx = span / self.n
        else:
            dx = span / (self.n - 1)
        offsets = np.arange(self.n, dtype=np.float64) - 0.5 * (self.n - 1)
        return mid + offsets * dx, dx


# Largest departure of a field grid step from its dx, relative to dx.
# Rounding in GridSpec leaves ~1e-12; the chirp-z propagation assumes
# exactly uniform grids.
_GRID_RTOL = 1e-9


def grid_step_error(x: np.ndarray, dx: float) -> str | None:
    """Why the points x are not a uniform grid of spacing dx (to
    _GRID_RTOL of dx), or None when they are."""
    off = np.abs(np.diff(x) - dx)
    if np.all(off <= _GRID_RTOL * abs(dx)):
        return None
    return f"grid must be uniform with spacing dx={dx!r}; a step is off by {float(np.max(off))!r}"


@dataclass(frozen=True)
class PlaneField:
    """Complex amplitude sampled on a uniform transverse grid at one plane:
    consecutive points of x lie dx apart, to _GRID_RTOL of dx."""

    z_label: str
    x: np.ndarray
    values: np.ndarray
    dx: float

    def __post_init__(self):
        if self.x.size < 1 or self.x.size != self.values.size:
            raise InvalidArgumentError("field needs matching, non-empty grid and values")
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("field values must be finite")
        error = grid_step_error(self.x, self.dx)
        if error is not None:
            raise InvalidArgumentError(f"field {error}")

    @property
    def grid_min(self) -> float:
        return float(self.x[0])

    @property
    def grid_max(self) -> float:
        return float(self.x[-1])


def free_kernel(x_b: float, x_a: float, mass: float, time: float) -> complex:
    """Free kernel value; modulus sqrt(m/(2 pi T)) for any positions."""
    if not (time > 0.0):
        raise InvalidArgumentError(f"time must be > 0, got {time}")
    if not (mass > 0.0):
        raise InvalidArgumentError(f"mass must be > 0, got {mass}")
    pref = cmath.sqrt(mass / (2.0j * math.pi * time))
    d = x_b - x_a
    return pref * cmath.exp(1j * (mass * d * d / (2.0 * time)))


def _kernel_prefactor(mass: float, time: float) -> complex:
    return cmath.sqrt(mass / (2.0j * math.pi * time))


def _flight(L: float, particle: Particle) -> tuple[complex, float]:
    """Kernel prefactor and phase coefficient m/(2T) over a distance L."""
    if not (L > 0.0):
        raise InvalidArgumentError(f"L must be > 0, got {L}")
    t = L / particle.velocity
    return _kernel_prefactor(particle.mass, t), particle.mass / (2.0 * t)


def point_source_field(source_x: float, target: GridSpec, L: float, particle: Particle) -> PlaneField:
    """Field a distance L downstream of a point source: one kernel fan."""
    pref, coef = _flight(L, particle)
    x, dx = target.points_and_spacing()
    d = x - source_x
    values = pref * np.exp(1j * (coef * d * d))
    return PlaneField(z_label=f"z+{L:g}", x=x, values=values, dx=dx)


def propagate(field_in: PlaneField, L: float, particle: Particle, target: GridSpec) -> PlaneField:
    """Midpoint-quadrature kernel propagation onto the target grid."""
    pref, coef = _flight(L, particle)
    x_out, dx_out = target.points_and_spacing()
    out = kernels.propagate_sum(x_out, field_in.x, field_in.values, field_in.dx, pref, coef)
    return PlaneField(z_label=f"{field_in.z_label}+{L:g}", x=x_out, values=out, dx=dx_out)


def propagate_pair(
    field_a: PlaneField, field_b: PlaneField, L: float, particle: Particle, target: GridSpec
) -> tuple[PlaneField, PlaneField]:
    """Both fields propagated onto the target grid.  When field_b is
    field_a's exact mirror image about x = 0 and the target grid is
    symmetric, field_b's result is field_a's read backwards, except
    that on an even grid the two samples next to x = 0 of each are
    direct sums; else two propagate() calls."""
    pref, coef = _flight(L, particle)
    x_out, dx_out = target.points_and_spacing()
    mirror = (
        field_b.dx == field_a.dx
        and np.array_equal(field_b.x, -field_a.x[::-1])
        and np.array_equal(field_b.values, field_a.values[::-1])
        and np.array_equal(x_out, -x_out[::-1])
    )
    if not mirror:
        return propagate(field_a, L, particle, target), propagate(field_b, L, particle, target)
    out_a = kernels.propagate_sum(x_out, field_a.x, field_a.values, field_a.dx, pref, coef)
    out_b = out_a[::-1].copy()
    n = x_out.size
    if n % 2 == 0:  # equal in exact arithmetic; their rounding decides a central maximum
        centre = slice(n // 2 - 1, n // 2 + 1)
        for f, out in ((field_a, out_a), (field_b, out_b)):
            out[centre] = kernels.direct_sum(x_out[centre], f.x, f.values, f.dx, pref, coef)
    return tuple(
        PlaneField(z_label=f"{f.z_label}+{L:g}", x=x_out, values=v, dx=dx_out)
        for f, v in ((field_a, out_a), (field_b, out_b))
    )


def apply_aperture(field: PlaneField, open_intervals: list[tuple[float, float]]) -> PlaneField:
    """Zero the field outside the union of open intervals."""
    ivs = sorted(open_intervals)
    for lo, hi in ivs:
        if not (lo < hi):
            raise InvalidArgumentError(f"aperture interval must satisfy lo < hi, got ({lo}, {hi})")
    for (_, hi1), (lo2, _) in zip(ivs, ivs[1:]):
        if lo2 < hi1:
            raise InvalidArgumentError("aperture intervals overlap")
    keep = np.zeros(field.x.size, dtype=bool)
    for lo, hi in ivs:
        keep |= (field.x >= lo) & (field.x <= hi)
    return PlaneField(
        z_label=field.z_label,
        x=field.x,
        values=np.where(keep, field.values, 0.0 + 0.0j),
        dx=field.dx,
    )


def transmitted_power(field: PlaneField, interval: tuple[float, float] | None = None) -> float:
    """Quadrature integral of |field|^2, optionally over one interval."""
    w = np.abs(field.values) ** 2
    if interval is not None:
        lo, hi = interval
        mask = (field.x >= lo) & (field.x <= hi)
        w = w[mask]
    return float(np.sum(w) * field.dx)
