"""Minimum-uncertainty spreads for a particle confined to a region of
size D (hbar = 1): delta_p = 1/D, delta_x = D, delta_E = v/D,
delta_t = D/v, so both products are exactly 1."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .apparatus import Particle
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class UncertaintyReport:
    confinement_size: float
    delta_p: float
    delta_x: float
    delta_E: float
    delta_t: float

    @property
    def momentum_product(self) -> float:
        return self.delta_p * self.delta_x

    @property
    def energy_product(self) -> float:
        return self.delta_E * self.delta_t


def packet_uncertainties(particle: Particle, confinement_size: float) -> UncertaintyReport:
    """Refuses a confinement_size that is not finite and > 0, or whose
    spreads overflow."""
    if not (0.0 < confinement_size < math.inf):
        raise InvalidArgumentError(f"confinement_size must be finite and > 0, got {confinement_size}")
    d = confinement_size
    v = particle.velocity
    rep = UncertaintyReport(
        confinement_size=d,
        delta_p=1.0 / d,
        delta_x=d,
        delta_E=v / d,
        delta_t=d / v,
    )
    if not all(math.isfinite(s) for s in (rep.delta_p, rep.delta_E, rep.delta_t)):
        raise InvalidArgumentError(f"confinement_size={d} gives non-finite spreads")
    return rep
