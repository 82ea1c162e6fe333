"""Physical parameters, potentials, the radial equation coefficient, and the
spectra that take no special functions: the closed-form levels, the free
particle's ladder and the Coulomb-oscillator duality map.  Nothing here
imports numpy.

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

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import ConsistencyError, DomainError


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
    r_min = r if isinstance(r, float) else r.min()
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
    r_min = r if isinstance(r, float) else r.min()
    if r_min <= 0:
        raise DomainError(f"radial coefficient needs r > 0, got {r_min}")
    two_m_over_h2 = 2.0 * pp.mass / (pp.hbar * pp.hbar)
    return two_m_over_h2 * (E - potential(kind, pp, r)) + (m_ang * m_ang + 0.25) / (r * r)


# --------------------------------------------------------------------------
# closed-form levels, the free ladder and the duality map: plain arithmetic,
# so the commands that print only these never load numpy

# Relative energy tolerance of the ladder solvers' bisection.
DEFAULT_SOLVER_TOL = 1e-10
_DUALITY_TOL = 1e-12


def _require_positive(name: str, value: float) -> None:
    """DomainError unless value is a positive finite number (NaN fails too)."""
    if not (value > 0 and math.isfinite(value)):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def _require_finite(name: str, value: float) -> None:
    """DomainError unless value is finite."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def _finite_level(energy: complex, what: str) -> complex:
    """energy, or DomainError saying that what leaves the double range."""
    if not cmath.isfinite(energy):
        raise DomainError(f"{what} is {energy}: it leaves the double range")
    return energy


def _normal_level(
    level: float, ladder: str, n: int, energy0: float, m_ang: float, why: str
) -> float:
    """level, or DomainError naming the ladder's level n and why, where
    |level| lies outside the normal double range: NaN, +-inf, zero (a level
    that underflowed) or subnormal (one that has lost bits)."""
    if not sys.float_info.min <= abs(level) <= sys.float_info.max:
        raise DomainError(
            f"{ladder} level n={n} at E0={energy0!r}, M={m_ang!r} is {level!r}: {why}"
        )
    return level


class Branch(str, Enum):
    CLOSED_FORM_U1 = "closed_form_u1"
    QUANTIZED_THIRD = "quantized_third"


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    m_ang: float
    energy: complex
    branch: Branch


def _energy_from_g(pp: PhysicalParams, alpha: float, g: complex) -> complex:
    """-m alpha^2 / (2 hbar^2 g^2); real for real g.  DomainError where g^2,
    or the denominator with it, underflows to 0."""
    s2 = g * g
    den = 2.0 * pp.hbar * pp.hbar * s2
    if den == 0:
        what = "g^2" if s2 == 0 else "2 hbar^2 g^2"
        raise DomainError(f"the level at g={g!r} leaves the double range: {what} underflows to 0")
    return -(pp.mass * alpha * alpha) / den


def coulomb_closed_spectrum(
    pp: PhysicalParams, alpha: float, n: int, m_ang: float
) -> complex:
    """Closed-form level -m alpha^2 / (2 hbar^2 (n + 1/2 + iM)^2).

    Real (and equal to the Euclidean-plane ladder) exactly when M = 0;
    complex decay states otherwise.  M -> -M conjugates the energy.
    Raises DomainError where it leaves the double range (|M| from about
    1.34e154, where (n + 1/2 + iM)^2 overflows).
    """
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    _require_positive("alpha", alpha)
    _require_finite("M", m_ang)
    return _finite_level(
        _energy_from_g(pp, alpha, complex(n + 0.5, m_ang)),
        f"closed-form level n={n} at alpha={alpha}, M={m_ang}",
    )


def shallow_spectrum(pp: PhysicalParams, alpha: float, g0: float, n: int) -> float:
    """Rydberg-like level -m alpha^2/(2 hbar^2 (n+g0)^2) of the shallow regime."""
    _require_positive("alpha", alpha)
    s = n + g0
    _require_positive("n + g0", s)
    return _energy_from_g(pp, alpha, s)


def deep_ladder(energy0: float, m_ang: float, n: int) -> float:
    """Geometric ladder E_n = E0 exp(2 pi n / M); exact for the free particle,
    asymptotic (deep levels) for the Coulomb system."""
    if not energy0 < 0:
        raise DomainError(f"ladder anchor must be negative, got {energy0}")
    if m_ang == 0:
        raise DomainError("ladder undefined at M = 0")
    try:
        level = energy0 * math.exp(2.0 * math.pi * n / m_ang)
    except OverflowError:
        level = -math.inf
    return _normal_level(
        level, "ladder", n, energy0, m_ang, "E0 exp(2 pi n / M) leaves the normal double range"
    )


def oscillator_closed_spectrum(
    pp: PhysicalParams, omega: float, n: int, m_osc: float
) -> complex:
    """Closed-form oscillator level hbar omega (2n + 1 + i M_osc); DomainError
    where it leaves the double range."""
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    _require_positive("omega", omega)
    _require_finite("M_osc", m_osc)
    hw = pp.hbar * omega
    return _finite_level(
        complex(hw * (2 * n + 1), hw * m_osc),
        f"closed-form level n={n} at omega={omega}, M_osc={m_osc}",
    )


def _quantized_entries(
    m_ang: float, levels: list[tuple[int, float]], falling: bool, resolution: str
) -> list[SpectrumEntry]:
    """Entries for (n, E_n) pairs whose E_n strictly fall (falling) or rise in n.

    Levels that are equal or out of order raise ConsistencyError naming the
    first such pair of distinct n; resolution says what limits how close
    two levels can be told apart.
    """
    ordered = sorted(dict(levels).items())
    for (n_a, e_a), (n_b, e_b) in zip(ordered, ordered[1:]):
        if not (e_b < e_a if falling else e_b > e_a):
            raise ConsistencyError(
                f"levels n={n_a} and n={n_b} collide: E={e_a!r} and E={e_b!r} "
                f"are not strictly {'de' if falling else 'in'}creasing in n; "
                f"the solver cannot resolve levels this close ({resolution})"
            )
    return [
        SpectrumEntry(n, m_ang, complex(energy, 0.0), Branch.QUANTIZED_THIRD)
        for n, energy in levels
    ]


def solve_quantized_spectrum(
    pp: PhysicalParams,
    alpha: float,
    m_ang: float,
    energy0: float,
    n_range: Iterable[int],
    tol: float = DEFAULT_SOLVER_TOL,
) -> list[SpectrumEntry]:
    """Levels of the third-solution condition f(E_n) = f(E_0) + pi n.

    n > 0 walks toward deeper (more negative) energies when M > 0, n < 0
    toward the shallow end; n = 0 returns the anchor itself.  alpha = 0
    selects the free particle, whose condition is exactly the geometric
    ladder: its levels are ``deep_ladder``'s.  For alpha > 0 ``spectra._ladder``
    scans ln g and bisects to relative energy tolerance tol.  Levels that
    come out equal or out of order in n (shallow Coulomb anchors, where
    the spacing falls below tol, or free levels that round to the same
    double) raise ConsistencyError.
    """
    if not (m_ang != 0.0 and math.isfinite(m_ang)):
        raise DomainError(f"quantized spectrum needs a finite M != 0, got {m_ang}")
    if not -math.inf < energy0 < 0:
        raise DomainError(
            f"reference level must be negative and finite (E > 0 is the "
            f"continuous spectrum), got {energy0}"
        )
    if not alpha >= 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    _require_positive("tol", tol)

    if alpha == 0:
        levels = [(n, deep_ladder(energy0, m_ang, n)) for n in n_range]
        return _quantized_entries(m_ang, levels, m_ang > 0, "double precision")

    _require_positive("alpha", alpha)
    # coulomb_scaling's g, named by the inputs where it leaves the double range
    scale = pp.hbar * math.sqrt(-2.0 * pp.mass * energy0)
    g0 = pp.mass * alpha / scale if scale > 0.0 else math.inf
    if not 0.0 < g0 < math.inf:
        raise DomainError(
            f"Coulomb reference level E0={energy0!r} at alpha={alpha!r}: its strength "
            f"g = m alpha / (hbar sqrt(-2 m E0)) comes out {g0!r}, as the scaling leaves "
            "the double range"
        )

    def energy_of_x(x: float) -> float:
        return _energy_from_g(pp, alpha, math.exp(x))

    from . import spectra  # the Gamma code, and numpy with it, only where a ladder needs it
    x0 = math.log(g0)
    return spectra._ladder(m_ang, energy0, n_range, m_ang, x0, energy_of_x, 1.0, tol)


# --------------------------------------------------------------------------
# Coulomb <-> oscillator duality

@dataclass(frozen=True)
class DualityMap:
    """Substitution r0 r = rho^2, phi = 2 phi mapping Coulomb data to
    oscillator data: r0 E_osc = 4 alpha, m omega^2 r0^2 = -8 E_C,
    M_osc = 2 M_C."""

    r0_scale: float
    alpha: float
    e_coulomb: float
    omega: float
    e_osc: float
    m_coulomb: float
    m_osc: float


def duality_forward(
    pp: PhysicalParams,
    alpha: float,
    e_coulomb: float,
    m_coulomb: float,
    r0_scale: float,
) -> DualityMap:
    """Map a Coulomb level to the dual oscillator, checking the energy relation.

    omega = sqrt(-8 E_C / (m r0^2)), E_osc = 4 alpha / r0, M_osc = 2 M_C.
    The equivalent relation E_osc = 2 alpha omega sqrt(m) / sqrt(-2 E_C)
    (positive branch) is verified to 1e-12 relative as a consistency check.
    """
    if not -math.inf < e_coulomb < 0:
        raise DomainError(f"duality needs a finite E_coulomb < 0, got {e_coulomb}")
    _require_finite("M_coulomb", m_coulomb)
    _require_positive("r0_scale", r0_scale)
    _require_positive("alpha", alpha)
    _require_finite("M_osc = 2 M_coulomb", 2.0 * m_coulomb)
    omega = math.sqrt(-8.0 * e_coulomb / (pp.mass * r0_scale * r0_scale))
    e_osc = 4.0 * alpha / r0_scale
    e_osc_alt = 2.0 * alpha * omega * math.sqrt(pp.mass) / math.sqrt(-2.0 * e_coulomb)
    if abs(e_osc - e_osc_alt) > _DUALITY_TOL * abs(e_osc):
        raise ConsistencyError(
            f"duality energy relation violated: {e_osc} vs {e_osc_alt}"
        )
    return DualityMap(
        r0_scale=r0_scale,
        alpha=alpha,
        e_coulomb=e_coulomb,
        omega=omega,
        e_osc=e_osc,
        m_coulomb=m_coulomb,
        m_osc=2.0 * m_coulomb,
    )
