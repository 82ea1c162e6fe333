"""Analytic spectral machinery for the Coulomb, free and oscillator systems.

Two distinct spectral branches live here and are never mixed:

* the closed-form branch, where the confluent series terminates and the
  energy is complex for M != 0 (unstable decay states);
* the quantized-third branch, real negative (Coulomb/free) or real
  positive (oscillator) energies obtained from the phase condition
  f(E_n) = f(E_0) + pi n relative to a caller-supplied reference level.

A reference level is required because the attractive inverse-square tail
fixes only level *spacings*, never an absolute anchor.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .errors import BracketError, ConsistencyError, ConvergenceError, DomainError, PoleError
from .model import PhysicalParams
from .specfun import (
    KummerParams,
    _finite,
    _kummer_m_ld,
    _ln_gamma_ld,
    DEFAULT_SERIES_TOL,
)

_UNIT_MODULUS_TOL = 1e-10
_DUALITY_TOL = 1e-12
# Ladder scan: grid steps per decade of e^x, and the decades it may walk
# either way from the anchor before giving up with BracketError.
_SCAN_POINTS_PER_DECADE = 64
_SCAN_DECADES = 160
# What carries the Coulomb solutions and their large-z forms out of the
# double range: near z = 1.4e3 for g = 2, and out of the longdouble range
# near z = 2.3e4.
_ENVELOPE = "e^(z/2) z^(-g)"


class Branch(str, Enum):
    CLOSED_FORM_U1 = "closed_form_u1"
    QUANTIZED_THIRD = "quantized_third"


@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    m_ang: float
    energy: complex
    branch: Branch


@dataclass(frozen=True)
class ScaledCoulomb:
    """Bound-state scaling of the Coulomb problem at energy E < 0.

    r0 is the length unit, g the dimensionless strength (the effective
    principal quantum number: E = -m alpha^2 / (2 hbar^2 g^2)), and the
    radial variable below is always z = r/r0.
    """

    r0: float
    g: float
    energy: float

    def __post_init__(self):
        if not (self.r0 > 0 and math.isfinite(self.r0)):
            raise DomainError(f"r0 must be positive, got {self.r0}")
        if not (self.g > 0 and math.isfinite(self.g)):
            raise DomainError(f"g must be positive, got {self.g}")
        if not self.energy < 0:
            raise DomainError(f"scaling defined for E < 0, got {self.energy}")


@dataclass(frozen=True)
class ReflectionPhase:
    """Near-origin reflection phase of u ~ sqrt(r) sin(M ln r + gamma).

    gamma is reduced to [0, pi); gamma_raw is the unreduced companion used
    when a continuous phase is needed; beta = gamma - M ln r0 carries the
    energy dependence.
    """

    gamma: float
    beta: float
    gamma_raw: float


def coulomb_scaling(pp: PhysicalParams, alpha: float, energy: float) -> ScaledCoulomb:
    """Length unit r0 = hbar/(2 sqrt(-2mE)) and strength g = m alpha/(hbar sqrt(-2mE))."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not energy < 0:
        raise DomainError(f"bound-state scaling needs E < 0, got E={energy}")
    root = math.sqrt(-2.0 * pp.mass * energy)
    return ScaledCoulomb(
        r0=pp.hbar / (2.0 * root),
        g=pp.mass * alpha / (pp.hbar * root),
        energy=energy,
    )


def _energy_from_g(pp: PhysicalParams, alpha: float, g: float) -> float:
    s2 = g * g
    return -(pp.mass * alpha * alpha) / (2.0 * pp.hbar * pp.hbar * s2)


def coulomb_closed_spectrum(
    pp: PhysicalParams, alpha: float, n: int, m_ang: float
) -> complex:
    """Closed-form level -m alpha^2 / (2 hbar^2 (n + 1/2 + iM)^2).

    Real (and equal to the Euclidean-plane ladder) exactly when M = 0;
    complex decay states otherwise.  M -> -M conjugates the energy.
    """
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    w = complex(n + 0.5, m_ang)
    return -(pp.mass * alpha * alpha) / (2.0 * pp.hbar * pp.hbar * (w * w))


def shallow_spectrum(pp: PhysicalParams, alpha: float, g0: float, n: int) -> float:
    """Rydberg-like level -m alpha^2/(2 hbar^2 (n+g0)^2) of the shallow regime."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    s = n + g0
    if not s > 0:
        raise DomainError(f"n + g0 must be positive, got {s}")
    return -(pp.mass * alpha * alpha) / (2.0 * pp.hbar * pp.hbar * (s * s))


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
    # Written so that NaN fails as well; subnormal levels have lost bits.
    if not -sys.float_info.max <= level <= -sys.float_info.min:
        raise DomainError(
            f"ladder level n={n} at E0={energy0!r}, M={m_ang!r} is {level!r}: "
            f"E0 exp(2 pi n / M) leaves the normal double range"
        )
    return level


# --------------------------------------------------------------------------
# wavefunctions (unnormalized, leading constant 1, argument z = r/r0)

def _u1_ld(g: float, m_ang: float, z: float, tol: float):
    params = KummerParams(complex(0.5 - g, m_ang), complex(1.0, 2.0 * m_ang))
    try:
        series = _kummer_m_ld(params, z, tol)
    except ConvergenceError:
        # From z ~ 9e3 the series' tail test needs more terms than the cap
        # allows.  Where u1's large-z form is already out of the double
        # range (all of 9e3 <= z <= 1.15e4 for g = 2, M = 1), _finite
        # raises DomainError saying so; elsewhere the cap error stands.
        _finite(_u1_asymptotic_ld(g, m_ang, z), z, "u1", _ENVELOPE, g=g, M=m_ang)
        raise
    zl = np.clongdouble(z)
    lnz = np.log(zl)
    pref = np.exp(-zl / 2 + np.clongdouble(0.5) * lnz + np.clongdouble(1j * m_ang) * lnz)
    return pref * series


def coulomb_u1(
    g: float, m_ang: float, z: float, tol: float = DEFAULT_SERIES_TOL
) -> complex:
    """First radial solution e^{-z/2} sqrt(z) z^{iM} F(iM + 1/2 - g, 2iM + 1, z).

    Unnormalized; |u1| ~ sqrt(z) as z -> 0 regardless of M (the z^{iM}
    factor has unit modulus).  The amplitude depends only on (g, M, z).
    Raises DomainError where the value leaves the double range (from
    z ~ 1.4e3 for g = 2).
    """
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    return _finite(_u1_ld(g, m_ang, z, tol), z, "coulomb_u1", _ENVELOPE, g=g, M=m_ang)


def coulomb_u2(
    g: float, m_ang: float, z: float, tol: float = DEFAULT_SERIES_TOL
) -> complex:
    """Second radial solution; the M -> -M mirror of u1, and its complex
    conjugate for real parameters.  Raises DomainError where u1 would."""
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    return _finite(_u1_ld(g, -m_ang, z, tol), z, "coulomb_u2", _ENVELOPE, g=g, M=m_ang)


def coulomb_third(
    g: float,
    m_ang: float,
    z: float,
    gamma: float | None = None,
    tol: float = DEFAULT_SERIES_TOL,
) -> complex:
    """Superposition u1 - e^{-2i gamma} u2 (leading constant 1).

    With gamma = None the reflection phase that kills the growing
    exponential is solved for automatically.  The two series cancel
    against each other at large z; extended-precision accumulation keeps
    the combination trustworthy up to z of roughly 60-70.  Beyond that
    the result is cancellation noise; ``coulomb_third_asymptotic`` gives
    only the growing branch, not this decaying tail.  Raises DomainError
    where the two series leave the double range (from z ~ 1.4e3 for g = 2).
    """
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    if gamma is None:
        gamma = gamma_phase(g, m_ang).gamma
    phase = np.exp(np.clongdouble(-2j) * np.clongdouble(gamma))
    value = _u1_ld(g, m_ang, z, tol) - phase * _u1_ld(g, -m_ang, z, tol)
    return _finite(value, z, "coulomb_third", _ENVELOPE, g=g, M=m_ang)


def _large_z_series(g: float, m_ang: float, z: float):
    """Correction series S(z) = sum_k |(1/2 + g + iM)_k|^2 / (k! z^k) (longdouble).

    The large-z Kummer expansion (DLMF 13.7.2) multiplies the leading
    Gamma-ratio term by sum_k (c-a)_k (1-a)_k / (k! z^k).  For u1,
    c - a = 1/2 + g + iM and 1 - a = 1/2 + g - iM, so every term is real
    and positive; the M -> -M mirror u2 has the same series.  The series
    diverges: summing stops before the first term that is no smaller than
    the one before it (optimal truncation), or once a term drops below
    DEFAULT_SERIES_TOL times the partial sum, past which the Gamma-ratio
    coefficient limits the accuracy anyway.
    """
    zl = np.longdouble(z)
    b = np.longdouble(0.5) + np.longdouble(g)
    m2 = np.longdouble(m_ang) * np.longdouble(m_ang)
    s = t = np.longdouble(1.0)
    k = 0
    while True:
        nxt = t * ((b + k) * (b + k) + m2) / ((k + 1) * zl)
        # Written so that a NaN term stops the sum as well.
        if not nxt < t or nxt < DEFAULT_SERIES_TOL * s:
            return s
        s = s + nxt
        t = nxt
        k += 1


def coulomb_u1_asymptotic(g: float, m_ang: float, z: float) -> complex:
    """Large-z form of u1: e^{z/2} z^{-g} Gamma(1+2iM)/Gamma(1/2+iM-g) S(z).

    S(z) = sum_k |(1/2 + g + iM)_k|^2 / (k! z^k) is the correction series
    of DLMF 13.7.2, optimally truncated (see ``_large_z_series``).  The
    relative error is at most about sqrt(pi n / 2) times the first omitted
    term, n being the number of terms summed (the Stokes-line factor of
    DLMF 13.7(iii)), with a floor of a few 1e-14 from the Gamma ratio.
    For g = 2, M = 1 that is ~1e-7 at z = 30, ~2e-13 at z = 50 and the
    floor by z = 60.
    Where the first correction term is already >= 1, that is for
    z <= (1/2 + g)^2 + M^2, no term is summed and the form is leading-order.
    Raises DomainError where the value leaves the double range (from
    z ~ 1.4e3 for g = 2).
    """
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    value = _u1_asymptotic_ld(g, m_ang, z)
    return _finite(value, z, "coulomb_u1_asymptotic", _ENVELOPE, g=g, M=m_ang)


def _u1_asymptotic_ld(g: float, m_ang: float, z: float):
    a = complex(0.5 - g, m_ang)
    c = complex(1.0, 2.0 * m_ang)
    with np.errstate(over="ignore", invalid="ignore"):
        expo = (
            _ln_gamma_ld(c)
            - _ln_gamma_ld(a)
            + np.clongdouble(z) / 2
            - np.clongdouble(g) * np.log(np.clongdouble(z))
        )
        return np.exp(expo) * _large_z_series(g, m_ang, z)


def coulomb_third_asymptotic(
    g: float, m_ang: float, z: float, gamma: float
) -> complex:
    """Growing-branch amplitude of the third solution at large z.

    e^{z/2} z^{-g} [K1 - e^{-2i gamma} K2] S(z) with the Gamma-ratio
    coefficients K1, K2 of the two basis solutions and their common
    correction series S(z) (see ``coulomb_u1_asymptotic``), so this equals
    the growing parts of u1 - e^{-2i gamma} u2 to the same relative
    accuracy.  It vanishes (up to rounding) when gamma solves the decay
    condition, which is what it is for: it measures how much exponential
    growth a given gamma leaves.  It is not the decaying tail of the third
    solution, which this leaves out.  Raises DomainError where the value
    leaves the double range.
    """
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    a = complex(0.5 - g, m_ang)
    c = complex(1.0, 2.0 * m_ang)
    k1 = _ln_gamma_ld(c) - _ln_gamma_ld(a)
    k2 = _ln_gamma_ld(c.conjugate()) - _ln_gamma_ld(a.conjugate())
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(
            np.clongdouble(z) / 2 - np.clongdouble(g) * np.log(np.clongdouble(z))
        )
        coeff = np.exp(k1) - np.exp(np.clongdouble(-2j) * np.clongdouble(gamma) + k2)
        value = envelope * coeff * _large_z_series(g, m_ang, z)
    return _finite(value, z, "coulomb_third_asymptotic", _ENVELOPE, g=g, M=m_ang)


# --------------------------------------------------------------------------
# reflection phase and quantization condition

def gamma_phase(g: float, m_ang: float, r0: float | None = None) -> ReflectionPhase:
    """Reflection phase gamma solving the decay condition at infinity.

    e^{-2i gamma} = Gamma(1+2iM) Gamma(1/2-iM-g) /
                    [Gamma(1-2iM) Gamma(1/2+iM-g)]

    The right-hand side is a ratio of conjugate products, so it has unit
    modulus; this is verified to 1e-10 as an internal cross-check.  gamma
    is reduced to [0, pi); the unreduced value is kept alongside.  beta =
    gamma - M ln r0 uses the supplied r0, defaulting to the natural-units
    value r0 = g/2 (hbar = m = alpha = 1).

    At M = 0 the phase is identically zero except at g - 1/2 equal to a
    non-negative integer, where the Gamma factors sit on poles (these are
    exactly the closed-form levels) and PoleError is raised.
    """
    if not g > 0:
        raise DomainError(f"g must be positive, got {g}")
    if r0 is None:
        r0 = g / 2.0
    if not r0 > 0:
        raise DomainError(f"r0 must be positive, got {r0}")

    if m_ang == 0.0:
        k = round(g - 0.5)
        if k >= 0 and abs(g - 0.5 - k) <= 1e-12:
            raise PoleError(
                f"gamma undefined at M=0, g={g}: Gamma pole (closed-form level n={k})"
            )
        return ReflectionPhase(gamma=0.0, beta=0.0, gamma_raw=0.0)

    num = _ln_gamma_ld(complex(1.0, 2.0 * m_ang)) + _ln_gamma_ld(
        complex(0.5 - g, -m_ang)
    )
    den = _ln_gamma_ld(complex(1.0, -2.0 * m_ang)) + _ln_gamma_ld(
        complex(0.5 - g, m_ang)
    )
    rhs = np.exp(num - den)
    if abs(float(np.abs(rhs)) - 1.0) > _UNIT_MODULUS_TOL:
        raise ConsistencyError(
            f"reflection ratio lost unit modulus: |RHS| = {float(np.abs(rhs))!r}"
        )
    gamma_raw = float(np.longdouble(-0.5) * np.imag(num - den))
    gamma = math.fmod(gamma_raw, math.pi)
    if gamma < 0.0:
        gamma += math.pi
    return ReflectionPhase(
        gamma=gamma, beta=gamma - m_ang * math.log(r0), gamma_raw=gamma_raw
    )


def quantization_f(g: float, m_ang: float) -> float:
    """Phase function f = -M ln g + arg Gamma(1/2 - g + iM) - arg Gamma(1 + 2iM).

    The Gamma argument is the continuous (analytic) one, not reduced mod
    2 pi, so f is continuous along any pole-free path in g; for M != 0
    there are no poles at all.  Deep regime (g -> 0): f ~ -M ln g.
    Shallow regime (g -> inf): f ~ -pi g (for M > 0).
    """
    if not g > 0:
        raise DomainError(f"g must be positive, got {g}")
    w = complex(0.5 - g, m_ang)
    if m_ang == 0.0:
        k = round(g - 0.5)
        if k >= 0 and abs(g - 0.5 - k) <= 1e-12:
            raise PoleError(f"quantization function hits a Gamma pole at g={g}, M=0")
    value = (
        np.longdouble(-m_ang) * np.log(np.longdouble(g))
        + np.imag(_ln_gamma_ld(w))
        - np.imag(_ln_gamma_ld(complex(1.0, 2.0 * m_ang)))
    )
    return float(value)


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


def _ladder(
    m_ang: float,
    energy0: float,
    n_range: Iterable[int],
    m_c: float,
    x0: float,
    energy_of_x: Callable[[float], float],
    sign: float,
    tol: float,
) -> list[SpectrumEntry]:
    """Ladder entries from f(x_n) = f(x0) + sign pi n, one per n in n_range.

    f(x) = quantization_f(e^x, m_c) falls in x for m_c > 0 and rises
    otherwise.  x0 = ln g at the anchor level energy0, which n = 0 returns
    as given; energy_of_x maps a root back to its level.  Each level scans
    the grid x0 +- k step (_SCAN_POINTS_PER_DECADE steps per decade of e^x,
    at most _SCAN_DECADES decades either way) until the target is
    bracketed, then bisects to tol/2 in x.  The levels of one call share
    their f values, so no grid point or midpoint is evaluated twice.

    E_n falls as n rises when sign * M > 0 and rises otherwise.  Levels
    closer together than the bisection resolves (shallow anchors, where
    the spacing shrinks like 1/g) raise ConsistencyError.
    """
    step = math.log(10.0) / _SCAN_POINTS_PER_DECADE
    max_steps = _SCAN_POINTS_PER_DECADE * _SCAN_DECADES
    tol_x = tol / 2.0
    slope = -1.0 if m_c > 0 else 1.0
    seen: dict[float, float] = {}

    def f(x: float) -> float:
        fx = seen.get(x)
        if fx is None:
            fx = seen[x] = quantization_f(math.exp(x), m_c)
        return fx

    f0 = f(x0)
    levels: list[tuple[int, float]] = []
    for n in n_range:
        target = f0 + sign * math.pi * n
        if n == 0:
            energy = energy0
        elif f0 == target:
            energy = energy_of_x(x0)
        else:
            direction = 1.0 if (target - f0) * slope > 0 else -1.0
            x_prev, f_prev = x0, f0
            for k in range(1, max_steps + 1):
                x = x0 + direction * k * step
                fx = f(x)
                if (f_prev - target) * (fx - target) <= 0.0:
                    break
                x_prev, f_prev = x, fx
            else:
                x_end = x0 + direction * max_steps * step
                raise BracketError(
                    f"no sign change for target {target:.6g} inside the scan window "
                    f"[E={energy_of_x(min(x0, x_end)):.6g}, "
                    f"E={energy_of_x(max(x0, x_end)):.6g}]"
                )
            lo, hi, flo = x_prev, x, f_prev
            for _ in range(300):
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if (flo - target) * (fm - target) <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
                if abs(hi - lo) <= tol_x:
                    break
            energy = energy_of_x(0.5 * (lo + hi))
        levels.append((n, energy))
    return _quantized_entries(m_ang, levels, sign * m_ang > 0, f"tol={tol:g}")


def solve_quantized_spectrum(
    pp: PhysicalParams,
    alpha: float,
    m_ang: float,
    energy0: float,
    n_range: Iterable[int],
    tol: float = 1e-10,
) -> list[SpectrumEntry]:
    """Levels of the third-solution condition f(E_n) = f(E_0) + pi n.

    n > 0 walks toward deeper (more negative) energies when M > 0, n < 0
    toward the shallow end; n = 0 returns the anchor itself.  alpha = 0
    selects the free particle, whose condition is exactly the geometric
    ladder: its levels are ``deep_ladder``'s.  For alpha > 0 ``_ladder``
    scans ln g and bisects to relative energy tolerance tol.  Levels that
    come out equal or out of order in n (shallow Coulomb anchors, where
    the spacing falls below tol, or free levels that round to the same
    double) raise ConsistencyError.
    """
    if m_ang == 0.0:
        raise DomainError("quantized spectrum needs M != 0")
    if not energy0 < 0:
        raise DomainError(
            f"reference level must be negative (E > 0 is the continuous "
            f"spectrum), got {energy0}"
        )
    if not alpha >= 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if not tol > 0:
        raise DomainError("tol must be positive")

    if alpha == 0:
        levels = [(n, deep_ladder(energy0, m_ang, n)) for n in n_range]
        return _quantized_entries(m_ang, levels, m_ang > 0, "double precision")

    def energy_of_x(x: float) -> float:
        return _energy_from_g(pp, alpha, math.exp(x))

    x0 = math.log(coulomb_scaling(pp, alpha, energy0).g)
    return _ladder(m_ang, energy0, n_range, m_ang, x0, energy_of_x, 1.0, tol)


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
    if not e_coulomb < 0:
        raise DomainError(f"duality needs E_coulomb < 0, got {e_coulomb}")
    if not r0_scale > 0:
        raise DomainError(f"r0_scale must be positive, got {r0_scale}")
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
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


# --------------------------------------------------------------------------
# oscillator spectra and wavefunctions

def oscillator_closed_spectrum(
    pp: PhysicalParams, omega: float, n: int, m_osc: float
) -> complex:
    """Closed-form oscillator level hbar omega (2n + 1 + i M_osc)."""
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    if not omega > 0:
        raise DomainError(f"omega must be positive, got {omega}")
    hw = pp.hbar * omega
    return complex(hw * (2 * n + 1), hw * m_osc)


def oscillator_wavefunction(
    pp: PhysicalParams,
    omega: float,
    n: int,
    m_osc: float,
    rho: float,
    phi: float,
    tol: float = DEFAULT_SERIES_TOL,
) -> complex:
    """Unnormalized oscillator amplitude
    rho^{iM} e^{-m omega rho^2 / 2 hbar} F(-n, 1 + iM, m omega rho^2/hbar) e^{iM phi}.

    The Kummer factor is a degree-n polynomial in z = m omega rho^2 / hbar.
    Raises DomainError where z leaves the double range (rho ~ 1.3e154 in
    natural units).
    """
    if not rho > 0:
        raise DomainError(f"rho must be positive, got {rho}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if not omega > 0:
        raise DomainError(f"omega must be positive, got {omega}")
    z = pp.mass * omega * rho * rho / pp.hbar
    params = KummerParams(complex(-n, 0.0), complex(1.0, m_osc))
    lnrho = np.log(np.clongdouble(rho))
    with np.errstate(over="ignore", invalid="ignore"):
        pref = np.exp(
            np.clongdouble(1j * m_osc) * lnrho
            - np.clongdouble(z) / 2
            + np.clongdouble(1j * m_osc * phi)
        )
        value = pref * _kummer_m_ld(params, z, tol)
    return _finite(
        value, z, "oscillator_wavefunction", "z = m omega rho^2 / hbar",
        n=n, M=m_osc, rho=rho,
    )


def oscillator_quantized_spectrum(
    pp: PhysicalParams,
    omega: float,
    m_osc: float,
    energy0: float,
    n_range: Iterable[int],
    tol: float = 1e-10,
) -> list[SpectrumEntry]:
    """Oscillator levels of the third-solution condition, with g = E/(2 hbar omega).

    The phase function is the Coulomb one evaluated at M_C = M_osc/2.
    Indices follow the energy: n > 0 climbs (spacing -> 2 hbar omega),
    n < 0 descends toward E = 0+ on the geometric ladder
    E_n = E_0 exp(2 pi n / M_osc), so the descending levels carry
    n = -1, -2, ... as they condense.
    """
    if m_osc == 0.0:
        raise DomainError("quantized spectrum needs M_osc != 0")
    if not energy0 > 0:
        raise DomainError(f"oscillator reference level must be positive, got {energy0}")
    if not omega > 0:
        raise DomainError(f"omega must be positive, got {omega}")
    if not tol > 0:
        raise DomainError("tol must be positive")

    two_hw = 2.0 * pp.hbar * omega

    def energy_of_x(x: float) -> float:
        return two_hw * math.exp(x)

    # Rising energy for rising n: the condition reads f(g_n) = f(g_0) - pi n.
    return _ladder(
        m_osc, energy0, n_range, 0.5 * m_osc, math.log(energy0 / two_hw), energy_of_x,
        -1.0, tol,
    )
