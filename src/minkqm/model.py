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

import math
import sys
from enum import Enum
from typing import Iterable

from . import _record
from .errors import ConsistencyError, DomainError


class PhysicalParams(_record.Record):
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


class ScaledCoulomb(_record.Record):
    """Bound-state scaling of the Coulomb problem at energy E < 0.

    r0 is the length unit, g the dimensionless strength (the effective
    principal quantum number: E = -m alpha^2 / (2 hbar^2 g^2)), and the
    radial variable of the wavefunctions is always z = r/r0.
    """

    r0: float
    g: float
    energy: float

    def __post_init__(self):
        _require_positive("r0", self.r0)
        _require_positive("g", self.g)
        if not self.energy < 0:
            raise DomainError(f"scaling defined for E < 0, got {self.energy}")


def coulomb_scaling(pp: PhysicalParams, alpha: float, energy: float) -> ScaledCoulomb:
    """Length unit r0 = hbar/(2 sqrt(-2mE)) (``bound_state_length``) and
    strength g = m alpha/(hbar sqrt(-2mE)); DomainError where either
    denominator underflows to 0."""
    _require_positive("alpha", alpha)
    r0 = bound_state_length(pp, energy)
    scale = _nonzero(
        pp.hbar * math.sqrt(-2.0 * pp.mass * energy),
        f"hbar sqrt(-2 m E) at hbar={pp.hbar!r}, mass={pp.mass!r}, E={energy!r}",
    )
    return ScaledCoulomb(r0=r0, g=pp.mass * alpha / scale, energy=energy)


class Free(_record.Record):
    pass


class Oscillator(_record.Record):
    omega: float

    def __post_init__(self):
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise DomainError(f"omega must be positive, got {self.omega}")


class Coulomb(_record.Record):
    """Attractive Coulomb center, U = -alpha/r with alpha > 0."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive, got {self.alpha}")


SystemKind = Free | Oscillator | Coulomb


def _radii(r):
    """r as floats and its least radius; r a Python or numpy number or an
    array of radii.  An int radius takes exactly its float's value, so an
    int array is never squared in its own dtype, where it would wrap.
    DomainError for an empty array and an int past the double range."""
    if getattr(r, "size", 1) == 0:
        raise DomainError("the radius grid is empty: it has no smallest r")
    r_min = r.min() if hasattr(r, "min") else r
    if not (isinstance(r, float) or getattr(r, "dtype", None) == "float64"):
        try:
            r = r * 1.0
        except OverflowError:
            raise DomainError(
                "radius is an int past the double range (about 1.8e308): it has no float value"
            ) from None
    return r, r_min


def potential(kind: SystemKind, pp: PhysicalParams, r):
    """U(r) for the three angle-independent systems; r a number or an array.

    Raises DomainError for a radius that is negative or NaN (0 too, for
    Coulomb), an empty grid, and where U leaves the double range.
    """
    r, r_min = _radii(r)
    return _potential(kind, pp, r, float(r_min))[0]


def _potential(kind: SystemKind, pp: PhysicalParams, r, r_min: float):
    """(U on r, U where |U| is largest on r: 0 for the free particle, at the
    largest radius for the oscillator, at r_min for Coulomb).  That value
    is taken first, in the same operations, so DomainError comes before
    numpy can warn on an array."""
    if isinstance(kind, Coulomb):
        if not r_min > 0:
            raise DomainError(f"Coulomb potential needs r > 0, got {r_min}")
        what = f"Coulomb potential -alpha/r at alpha={kind.alpha!r}, r={r_min!r}"
        top = _bounded(-kind.alpha / r_min, what)
        return -kind.alpha / r, top
    if not r_min >= 0:
        raise DomainError(f"r must be >= 0, got {r_min}")
    if isinstance(kind, Free):
        return 0.0, 0.0
    if isinstance(kind, Oscillator):
        r_max = float(r.max()) if hasattr(r, "max") else r
        try:
            top = 0.5 * pp.mass * kind.omega**2 * r_max * r_max
        except OverflowError:  # omega**2 of a Python float raises where it overflows
            top = math.inf
        _bounded(top, f"oscillator potential (m omega^2/2) r^2 at omega={kind.omega!r}, r={r_max!r}")
        return 0.5 * pp.mass * kind.omega**2 * r * r, top
    raise TypeError(f"unknown system kind {kind!r}")


def effective_potential(
    kind: SystemKind, pp: PhysicalParams, m_ang: float, r: float
) -> float:
    """U_eff(r) = -(hbar^2/2m) (M^2 + 1/4)/r^2 + U(r).

    Strictly negative at every r > 0 for the free particle.  Raises
    DomainError where hbar^2/2m or r^2 underflows or the value leaves the
    double range, as a free value does where r^2 overflows to inf and
    the value would round to 0.
    """
    return _effective(kind, pp, m_ang, r, m_ang * m_ang + 0.25)


def euclidean_effective_for(
    kind: SystemKind, pp: PhysicalParams, m_ang: float, r: float
) -> float:
    """Sign-flipped (Euclidean) effective potential for any of the three kinds."""
    return _effective(kind, pp, m_ang, r, 0.25 - m_ang * m_ang)


def _effective(
    kind: SystemKind, pp: PhysicalParams, m_ang: float, r: float, angular: float
) -> float:
    """-(hbar^2/2m) angular/r^2 + U(r), or DomainError where hbar^2/2m or
    r^2 underflows, M^2 / r^2 or U(r) leaves the double range, or a nonzero
    angular term leaves a value of 0 (r^2 overflows, or the term underflows)."""
    if not r > 0:
        raise DomainError(f"effective potential needs r > 0, got {r}")
    r = _radii(r)[0]
    h2_over_2m = _nonzero(
        pp.hbar**2 / (2.0 * pp.mass), f"hbar^2/(2m) at hbar={pp.hbar!r}, mass={pp.mass!r}"
    )
    r2 = _nonzero(r * r, f"r^2 at r={r!r}")
    centrifugal = -h2_over_2m * angular / r2
    value = centrifugal + potential(kind, pp, r)
    if not math.isfinite(value):
        raise DomainError(
            f"effective potential at M={m_ang}, r={r} is {value}: it leaves the double range"
        )
    if value == 0.0 and centrifugal == 0.0 and angular != 0.0:
        raise DomainError(
            f"effective potential at M={m_ang}, r={r} comes out 0: its term "
            f"(hbar^2/2m) {angular!r}/r^2 at r^2={r2!r} leaves the double range"
        )
    return value


def _bounded(value: float, what: str) -> float:
    """value, or DomainError where what, a term's largest value, overflows."""
    if abs(value) == math.inf:
        raise DomainError(f"{what} overflows: it leaves the double range")
    return value


def _nonzero(value: float, what: str) -> float:
    """value, or DomainError where what, a product, underflows to 0."""
    if value == 0.0:
        raise DomainError(f"{what} underflows to 0: it leaves the double range")
    return value


def radial_coefficient(
    kind: SystemKind, pp: PhysicalParams, m_ang: float, E: float, r
):
    """Coefficient Q(r) of u'' + Q u = 0; equals (2m/hbar^2)(E - U_eff).

    r is a number or an array of radii (the oracle passes grids).  Raises
    DomainError for a radius that is not positive (NaN included), an empty
    grid, a non-finite E or M, where hbar^2 or the smallest r^2 underflows
    to 0, and where 2m/hbar^2, U, (M^2 + 1/4)/r^2 or the sum overflows.
    Each term is bounded by its largest value on the grid and the sum by
    the sum of those bounds (rounding is monotone), before numpy touches
    the grid, so an array emits no numpy warning.  The sum's bound refuses
    a finite value only where a term comes within a factor of 2 of the
    double range's top.
    """
    r, r_min = _radii(r)
    r_min = float(r_min)
    if not r_min > 0:
        raise DomainError(f"radial coefficient needs r > 0, got {r_min}")
    two_m_over_h2 = 2.0 * pp.mass / _nonzero(pp.hbar * pp.hbar, f"hbar^2 at hbar={pp.hbar!r}")
    angular = m_ang * m_ang + 0.25
    r2_min = _nonzero(r_min * r_min, f"r^2 at r={r_min!r}")
    if not (math.isfinite(E) and math.isfinite(m_ang)):
        raise DomainError(
            f"radial coefficient not finite on the grid: it needs a finite E and M, "
            f"got E={E}, M={m_ang}"
        )
    angular_top = _bounded(angular / r2_min, f"(M^2 + 1/4)/r^2 at M={m_ang!r}, r={r_min!r}")
    _bounded(two_m_over_h2, f"2m/hbar^2 at mass={pp.mass!r}, hbar={pp.hbar!r}")
    u, u_top = _potential(kind, pp, r, r_min)
    # U lies between 0 and u_top on the grid, so |E - U| is at most this
    shift = max(abs(float(E)), abs(float(E) - u_top))
    _bounded(
        two_m_over_h2 * shift + angular_top,
        f"the bound (2m/hbar^2) max|E - U| + (M^2 + 1/4)/r^2 on Q(r) at E={E!r}, M={m_ang!r}, "
        f"r >= {r_min!r}",
    )
    return two_m_over_h2 * (E - u) + angular / (r * r)


# --------------------------------------------------------------------------
# closed-form levels, the free ladder and the duality map: plain arithmetic,
# so the commands that print only these never load numpy

# The ladder solvers' tolerance: each level lies within tol/4 of its root in ln g.
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


def _require_index(n) -> None:
    """DomainError unless the level index n is an integer, which an
    integer-valued float may hold (n % 1 is 0 for an int of any size)."""
    if not n % 1 == 0:
        raise DomainError(f"level index must be an integer, got {n}")


def _normal_level(
    level: complex, what: str, why: str = "it leaves the double range"
) -> complex:
    """level, or DomainError saying that what is level and why, where a part
    of it is NaN or +-inf or the larger part lies outside the normal double
    range: zero (a level that underflowed) or subnormal (one that has lost
    bits)."""
    re, im = abs(level.real), abs(level.imag)
    big = sys.float_info.max
    if not (re <= big and im <= big and max(re, im) >= sys.float_info.min):
        raise DomainError(f"{what} is {level!r}: {why}")
    return level


class Branch(str, Enum):
    CLOSED_FORM_U1 = "closed_form_u1"
    QUANTIZED_THIRD = "quantized_third"


class SpectrumEntry(_record.Record):
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
    Raises DomainError for an n that is not a non-negative integer, and
    where the level leaves the normal double range (|M| from about
    1.34e154, where (n + 1/2 + iM)^2 overflows, or an alpha^2 that
    underflows).
    """
    _require_index(n)
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    _require_positive("alpha", alpha)
    _require_finite("M", m_ang)
    return _normal_level(
        _energy_from_g(pp, alpha, complex(n + 0.5, m_ang)),
        f"closed-form level n={n} at alpha={alpha}, M={m_ang}",
    )


def shallow_spectrum(pp: PhysicalParams, alpha: float, g0: float, n: int) -> float:
    """Rydberg-like level -m alpha^2/(2 hbar^2 (n+g0)^2) of the shallow regime;
    DomainError for an n that is not an integer, and where the level leaves
    the normal double range."""
    _require_index(n)
    _require_positive("alpha", alpha)
    s = n + g0
    _require_positive("n + g0", s)
    return _normal_level(
        _energy_from_g(pp, alpha, s), f"shallow level n={n} at alpha={alpha!r}, g0={g0!r}"
    )


def deep_ladder(energy0: float, m_ang: float, n: int) -> float:
    """Geometric ladder E_n = E0 exp(2 pi n / M), n an integer and M finite
    and nonzero; exact for the free particle, asymptotic (deep levels) for
    the Coulomb system."""
    if not energy0 < 0:
        raise DomainError(f"ladder anchor must be negative, got {energy0}")
    if m_ang == 0:
        raise DomainError("ladder undefined at M = 0")
    _require_finite("M", m_ang)
    _require_index(n)
    try:
        level = energy0 * math.exp(2.0 * math.pi * n / m_ang)
    except OverflowError:
        level = -math.inf
    return _normal_level(
        level, f"ladder level n={n} at E0={energy0!r}, M={m_ang!r}",
        "E0 exp(2 pi n / M) leaves the normal double range",
    )


def oscillator_closed_spectrum(
    pp: PhysicalParams, omega: float, n: int, m_osc: float
) -> complex:
    """Closed-form oscillator level hbar omega (2n + 1 + i M_osc); DomainError
    for an n that is not a non-negative integer, and where the level leaves
    the normal double range."""
    _require_index(n)
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    _require_positive("omega", omega)
    _require_finite("M_osc", m_osc)
    hw = pp.hbar * omega
    return _normal_level(
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
    puts each level within tol/4 of its root in ln g (relative energy
    tolerance tol/2).  Levels that come out equal or out of order in n
    (shallow Coulomb anchors, where the spacing falls below tol, or free
    levels that round to the same double) raise ConsistencyError.
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

    from . import spectra  # the Gamma code, and numpy with it, only where a ladder needs it
    return spectra._ladder(
        m_ang, energy0, n_range, m_ang, g0, lambda g: _energy_from_g(pp, alpha, g), 1.0, tol
    )


# --------------------------------------------------------------------------
# Coulomb <-> oscillator duality

class DualityMap(_record.Record):
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
    (positive branch) is verified to 1e-12 relative as a consistency check,
    through its ratio to 4 alpha / r0, which stays near 1 where 2 alpha
    omega overflows.  Raises DomainError where m r0^2 underflows to 0 or
    omega or E_osc leaves the double range, and where m r0^2 is subnormal,
    having lost the bits that omega and the relation need.
    """
    if not -math.inf < e_coulomb < 0:
        raise DomainError(f"duality needs a finite E_coulomb < 0, got {e_coulomb}")
    _require_finite("M_coulomb", m_coulomb)
    _require_positive("r0_scale", r0_scale)
    _require_positive("alpha", alpha)
    _require_finite("M_osc = 2 M_coulomb", 2.0 * m_coulomb)
    what = f"m r0^2 at mass={pp.mass!r}, r0_scale={r0_scale!r}"
    m_r0_squared = _nonzero(pp.mass * r0_scale * r0_scale, what)
    omega = math.sqrt(-8.0 * e_coulomb / m_r0_squared)
    if not 0.0 < omega < math.inf:
        raise DomainError(
            f"oscillator frequency omega = sqrt(-8 E_C / (m r0^2)) at E_C={e_coulomb!r}, "
            f"mass={pp.mass!r}, r0_scale={r0_scale!r} leaves the double range"
        )
    e_osc = 4.0 * alpha / r0_scale
    if not 0.0 < e_osc < math.inf:
        raise DomainError(
            f"oscillator level E_osc = 4 alpha / r0 at alpha={alpha!r}, "
            f"r0_scale={r0_scale!r} leaves the double range"
        )
    if m_r0_squared < sys.float_info.min:
        # omega, and the relation through it, would keep only its few bits
        raise DomainError(
            f"{what} is {m_r0_squared!r}, subnormal: it leaves the normal double range"
        )
    # the relation's sides over 4 alpha / r0: where m r0^2 is nonzero and finite,
    # omega / sqrt(-2 E_C) and sqrt(m) r0 lie in [1e-162, 1e162], so nothing overflows
    ratio = omega / math.sqrt(-2.0 * e_coulomb) * (math.sqrt(pp.mass) * r0_scale) / 2.0
    if abs(ratio - 1.0) > _DUALITY_TOL:
        raise ConsistencyError(
            f"duality energy relation violated: {e_osc} vs {e_osc * ratio}"
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
