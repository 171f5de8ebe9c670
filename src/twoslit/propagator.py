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
count and on every run.

A PlaneField is values on the points of one GridSpec, so its x and dx
cannot disagree.  The chirp-z path needs uniform grids: a grid's points
lie dx apart up to rounding, and apparatus.validate asks every grid a
run samples for its step_error verdict before anything propagates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .apparatus import Particle
from .errors import InvalidArgumentError


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
class PlaneField:
    """Complex amplitude sampled on the points of a grid at one plane;
    its x and dx are the grid's."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.x.shape:
            raise InvalidArgumentError(
                f"field needs one value per grid point, {self.grid.n}, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("field values must be finite")

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    @property
    def dx(self) -> float:
        return self.grid.dx


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
    d = target.x - source_x
    return PlaneField(target, pref * np.exp(1j * (coef * d * d)))


def propagate(field_in: PlaneField, L: float, particle: Particle, target: GridSpec) -> PlaneField:
    """Midpoint-quadrature kernel propagation onto the target grid."""
    pref, coef = _flight(L, particle)
    out = kernels.propagate_sum(target.x, field_in.x, field_in.values, field_in.dx, pref, coef)
    return PlaneField(target, out)


def propagate_pair(
    field_a: PlaneField, field_b: PlaneField, L: float, particle: Particle, target: GridSpec
) -> tuple[PlaneField, PlaneField]:
    """Both fields propagated onto the target grid.  When field_b is
    field_a's exact mirror image about x = 0 and the target grid is
    symmetric, field_b's result is field_a's read backwards, except
    that on an even grid the two samples next to x = 0 of each are
    direct sums; else two propagate() calls."""
    pref, coef = _flight(L, particle)
    x_out = target.x
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
    return PlaneField(target, out_a), PlaneField(target, out_b)


def transmitted_power(field: PlaneField) -> float:
    """Quadrature integral of |field|^2."""
    return float(np.sum(np.abs(field.values) ** 2) * field.dx)
