"""Physical parameters, potentials and the radial equation coefficient.

The form s^2 = x1^2 - x2^2 splits the Minkowski plane into four regions
bounded by the isotropic lines x1 = +-x2.  Everything here lives in regions
I/II (s^2 > 0, x = (+-r cosh phi, +-r sinh phi)); in regions III/IV both
the kinetic and the potential term of the Hamiltonian flip sign.

The angular reduction Psi = u(r)/sqrt(r) * exp(i M phi)/sqrt(2 pi) turns
the stationary problem into u'' + Q(r) u = 0 with

    Q(r) = 2 m E / hbar^2 + (M^2 + 1/4)/r^2 - (2 m / hbar^2) U(r).

Note the sign of the inverse-square term: on this geometry it is
attractive for every real M, so all three systems share the
fall-to-center structure near r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalParams:
    """Mass and Planck constant; the units backbone of every formula."""

    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise DomainError(f"mass must be positive, got {self.mass}")
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise DomainError(f"hbar must be positive, got {self.hbar}")


NATURAL_UNITS = PhysicalParams(1.0, 1.0)


def bound_state_length(pp: PhysicalParams, energy: float) -> float:
    """Decay length unit r0 = hbar / (2 sqrt(-2 m E)); defined for any E < 0.

    Raises DomainError where -2 m E underflows to 0, which would make r0
    infinite.
    """
    if not energy < 0:
        raise DomainError(f"length unit needs E < 0, got {energy}")
    two_m_e = -2.0 * pp.mass * energy
    if two_m_e == 0.0:
        raise DomainError(
            f"length unit r0 = hbar / (2 sqrt(-2 m E)) at E={energy!r}, mass={pp.mass!r} "
            "leaves the double range: -2 m E underflows to 0"
        )
    return pp.hbar / (2.0 * math.sqrt(two_m_e))


@dataclass(frozen=True)
class Free:
    pass


@dataclass(frozen=True)
class Oscillator:
    omega: float

    def __post_init__(self):
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise DomainError(f"omega must be positive, got {self.omega}")


@dataclass(frozen=True)
class Coulomb:
    """Attractive Coulomb center, U = -alpha/r with alpha > 0."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive, got {self.alpha}")


SystemKind = Free | Oscillator | Coulomb


def potential(kind: SystemKind, pp: PhysicalParams, r):
    """U(r) for the three angle-independent systems; r a float or an array."""
    if isinstance(kind, Free):
        return 0.0
    r_min = r if isinstance(r, float) else np.min(r)
    if isinstance(kind, Oscillator):
        if r_min < 0:
            raise DomainError(f"r must be >= 0, got {r_min}")
        return 0.5 * pp.mass * kind.omega**2 * r * r
    if isinstance(kind, Coulomb):
        if r_min <= 0:
            raise DomainError(f"Coulomb potential needs r > 0, got {r_min}")
        return -kind.alpha / r
    raise TypeError(f"unknown system kind {kind!r}")


def effective_potential(
    kind: SystemKind, pp: PhysicalParams, m_ang: float, r: float
) -> float:
    """U_eff(r) = -(hbar^2/2m) (M^2 + 1/4)/r^2 + U(r).

    Strictly negative at every r > 0 for the free particle.  Raises
    DomainError where the value leaves the double range.
    """
    if r <= 0:
        raise DomainError(f"effective potential needs r > 0, got {r}")
    centrifugal = -(pp.hbar**2 / (2.0 * pp.mass)) * (m_ang * m_ang + 0.25) / (r * r)
    return _finite_potential(centrifugal + potential(kind, pp, r), m_ang, r)


def euclidean_effective_for(
    kind: SystemKind, pp: PhysicalParams, m_ang: float, r: float
) -> float:
    """Sign-flipped (Euclidean) effective potential for any of the three kinds."""
    if r <= 0:
        raise DomainError(f"effective potential needs r > 0, got {r}")
    centrifugal = -(pp.hbar**2 / (2.0 * pp.mass)) * (0.25 - m_ang * m_ang) / (r * r)
    return _finite_potential(centrifugal + potential(kind, pp, r), m_ang, r)


def _finite_potential(value: float, m_ang: float, r: float) -> float:
    """value, or DomainError where M^2 / r^2 or U(r) leaves the double range."""
    if not math.isfinite(value):
        raise DomainError(
            f"effective potential at M={m_ang}, r={r} is {value}: it leaves the double range"
        )
    return value


def radial_coefficient(
    kind: SystemKind, pp: PhysicalParams, m_ang: float, E: float, r
):
    """Coefficient Q(r) of u'' + Q u = 0; equals (2m/hbar^2)(E - U_eff).

    r is a float or an array of radii (the oracle passes whole grids).
    """
    r_min = r if isinstance(r, float) else np.min(r)
    if r_min <= 0:
        raise DomainError(f"radial coefficient needs r > 0, got {r_min}")
    two_m_over_h2 = 2.0 * pp.mass / (pp.hbar * pp.hbar)
    return two_m_over_h2 * (E - potential(kind, pp, r)) + (m_ang * m_ang + 0.25) / (r * r)

