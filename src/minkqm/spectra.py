"""Analytic spectral machinery for the Coulomb, free and oscillator systems.

Two distinct spectral branches live here and are never mixed:

* the closed-form branch, where the confluent series terminates and the
  energy is complex for M != 0 (unstable decay states);
* the quantized-third branch, real negative (Coulomb/free) or real
  positive (oscillator) energies obtained from the phase condition
  f(E_n) = f(E_0) + pi n relative to a caller-supplied reference level.

A reference level is required because the attractive inverse-square tail
fixes only level *spacings*, never an absolute anchor.

The closed-form levels, the free ladder, the duality map and the Coulomb
scaling need no special functions; they live in ``model``, which loads no
numpy, and are re-exported here.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from typing import Callable, Iterable

import numpy as np

from . import _record, _roots
from .errors import BracketError, ConvergenceError, DomainError, PoleError
from .model import (  # the numpy-free spectra and the Coulomb scaling, re-exported here
    DEFAULT_SOLVER_TOL, Branch, DualityMap, PhysicalParams, ScaledCoulomb, SpectrumEntry,
    _normal_level, _quantized_entries, _require_finite, _require_index, _require_positive,
    coulomb_closed_spectrum, coulomb_scaling, deep_ladder, duality_forward,
    oscillator_closed_spectrum, shallow_spectrum, solve_quantized_spectrum,
)
from .specfun import (
    KummerParams,
    _CZERO,
    _ZERO,
    _finite,
    _kummer_m_ld,
    _ln_gamma_ld,
    _terminating_order,
    DEFAULT_SERIES_TOL,
)

# Ladder scan: grid steps per decade of e^x, and the decades it may walk
# either way from the anchor before giving up with BracketError.
_SCAN_POINTS_PER_DECADE = 64
_SCAN_DECADES = 160
# What carries the Coulomb solutions and their large-z forms out of the
# double range: near z = 1.4e3 for g = 2, and out of the longdouble range
# near z = 2.3e4.
_ENVELOPE = "e^(z/2) z^(-g)"
_MINUS_2J = np.clongdouble(-2j)
_MINUS_HALF = np.clongdouble(-0.5)
# gamma_phase refuses a gamma_raw whose rounding to double, ulp(gamma_raw)/2,
# exceeds this: gamma, its reduction mod pi, cannot be better.
_GAMMA_RESOLUTION = 1e-9


class ReflectionPhase(_record.Record):
    """Near-origin reflection phase of u ~ sqrt(r) sin(M ln r + gamma).

    gamma is reduced to [0, pi); gamma_raw is the unreduced companion used
    when a continuous phase is needed; beta = gamma - M ln r0 carries the
    energy dependence, and r0 is the length unit it used.
    """

    gamma: float
    beta: float
    gamma_raw: float
    r0: float


# --------------------------------------------------------------------------
# wavefunctions (unnormalized, leading constant 1, argument z = r/r0)

# u1's one plan: its last (g, M, sign of M), the series parameters
# (1/2 + iM - g, 1 + 2iM) and the prefactor's exponent 1/2 + iM as a
# clongdouble, in one tuple.  The points of a grid share one pair.  A new
# pair builds its plan, and later its term-factor blocks, afresh, so a
# caller alternating u1 and u2 (u1 at -M) point by point pays that on every
# point.  The sign of M keeps M = +0.0 and -0.0 apart, which float equality
# merges.
_u1_last = (math.nan, math.nan, math.nan, None, None)


def _u1_ld(g: float, m_ang: float, z: float, tol: float):
    global _u1_last
    m_sign = math.copysign(1.0, m_ang)
    last_g, last_m, last_sign, params, half_i_m = _u1_last
    if not (g == last_g and m_ang == last_m and m_sign == last_sign):
        # g and M as floats, a 0-d array's too; a refused pair is not kept,
        # so its error is raised on every call
        g_f, m_f = float(g), float(m_ang)
        _require_finite("g", g_f)
        _require_finite("M", m_f)
        params = KummerParams(complex(0.5 - g_f, m_f), complex(1.0, 2.0 * m_f))
        half_i_m = np.clongdouble(complex(0.5, m_f))
        _u1_last = (g_f, m_f, m_sign, params, half_i_m)
    try:
        series = _kummer_m_ld(params, z, tol)
    except ConvergenceError:
        # From z ~ 9e3 the series' tail test needs more terms than the cap
        # allows.  Where u1's large-z form is already out of the double
        # range (all of 9e3 <= z <= 1.15e4 for g = 2, M = 1), _finite
        # raises DomainError saying so; elsewhere the cap error stands.
        _finite(_u1_asymptotic_ld(g, m_ang, z), z, "u1", _ENVELOPE, g=g, M=m_ang)
        raise
    # e^(-z/2) z^(1/2 + iM), the same bits as e^(-z/2 + (1/2) ln z + iM ln z)
    zl = z - _CZERO
    if z < params._quiet_below:
        return np.exp(zl * _MINUS_HALF + half_i_m * np.log(zl)) * series
    # Past the series' quiet bound a polynomial's sum may be inf or NaN;
    # the caller's _finite reports that, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(zl * _MINUS_HALF + half_i_m * np.log(zl)) * series


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
    value = complex(_u1_ld(g, m_ang, z, tol))
    if cmath.isfinite(value):
        return value
    return _finite(value, z, "coulomb_u1", _ENVELOPE, g=g, M=m_ang)


def coulomb_u2(
    g: float, m_ang: float, z: float, tol: float = DEFAULT_SERIES_TOL
) -> complex:
    """Second radial solution; the M -> -M mirror of u1, and its complex
    conjugate for real parameters.  Raises DomainError where u1 would."""
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    value = complex(_u1_ld(g, -m_ang, z, tol))
    if cmath.isfinite(value):
        return value
    return _finite(value, z, "coulomb_u2", _ENVELOPE, g=g, M=m_ang)


def coulomb_third(
    g: float,
    m_ang: float,
    z: float,
    gamma: float | None = None,
    tol: float = DEFAULT_SERIES_TOL,
) -> complex:
    """Superposition u1 - e^{-2i gamma} u2 (leading constant 1).

    With gamma = None the reflection phase that kills the growing
    exponential is solved for automatically.  One Kummer series is summed
    per point: for real M != 0, u2 is the complex conjugate of u1, bit for
    bit, since every step of its series and prefactor is the conjugate of
    u1's.  At M = +-0 the series is real: it starts at (1, +0) and adding
    +-0 to +0 gives +0, and the prefactor's real part is positive, so
    Im u1 = +0.  conj(u1) and u2's own series then differ at most in the
    sign of a zero imaginary part, which the result does not keep, since
    +0 - (+-0) = +0.  u1 and e^{-2i gamma} u2 cancel against each other at
    large z, and the growing part that a float gamma leaves uncancelled
    soon outweighs the decaying solution.  Against the exact-gamma solution
    in 60-digit mpmath, relative to |u3| at that z, the error at g = 0.7,
    M = 0.5 is 5.8e-4 at z = 30 and 11 at z = 40 (g = 2, M = 1: 2.4e-7
    and 2e-3).  Beyond that the result is cancellation noise;
    ``coulomb_third_asymptotic`` gives only the growing branch, not this
    decaying tail.  Raises DomainError where the result leaves the double
    range, and where u1 does (from z ~ 1.4e3 for g = 2) while the result is
    nonzero; an exact zero, as at M = 0 where e^{-2i gamma} is 1, stands.
    """
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    if gamma is None:
        gamma = gamma_phase(g, m_ang).gamma
    _require_finite("gamma", gamma)
    phase = np.exp(_MINUS_2J * (gamma - _CZERO))
    u1 = _u1_ld(g, m_ang, z, tol)
    value = complex(u1 - phase * np.conj(u1))
    if not cmath.isfinite(value) or value and not cmath.isfinite(complex(u1)):
        _finite(value, z, "coulomb_third", _ENVELOPE, g=g, M=m_ang)
        # what is left of the difference where u1 is not finite is
        # cancellation noise, which may fall back inside the double range
        _finite(u1, z, "coulomb_third", _ENVELOPE, g=g, M=m_ang)
    return value


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
    zl = np.clongdouble(z)
    with np.errstate(over="ignore", invalid="ignore"):
        expo = _gamma_ratio_ld(g, m_ang) + zl / 2 - np.clongdouble(g) * np.log(zl)
        return np.exp(expo) * _large_z_series(g, m_ang, z)


def _gamma_ratio_ld(g: float, m_ang: float):
    """ln[Gamma(1+2iM) / Gamma(1/2+iM-g)], u1's large-z Gamma ratio, as a
    clongdouble.  u2's is (g, -M), not the conjugate: at M = +-0 with g > 1/2
    both arguments lie on the cut, where _ln_gamma_ld takes the upper limit."""
    _require_finite("g", g)
    _require_finite("M", m_ang)
    _require_finite("2M", 2.0 * m_ang)
    return _ln_gamma_ld(complex(1.0, 2.0 * m_ang)) - _ln_gamma_ld(complex(0.5 - g, m_ang))


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
    k1 = _gamma_ratio_ld(g, m_ang)
    k2 = _gamma_ratio_ld(g, -m_ang)
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(
            np.clongdouble(z) / 2 - np.clongdouble(g) * np.log(np.clongdouble(z))
        )
        coeff = np.exp(k1) - np.exp(np.clongdouble(-2j) * np.clongdouble(gamma) + k2)
        value = envelope * coeff * _large_z_series(g, m_ang, z)
    return _finite(value, z, "coulomb_third_asymptotic", _ENVELOPE, g=g, M=m_ang)


# --------------------------------------------------------------------------
# reflection phase and quantization condition

def _refuse_m0_pole(g: float, m_ang: float, what: str) -> None:
    """PoleError where u1's series terminates at M = +-0, that is where g - 1/2
    is a non-negative integer to specfun.TERMINATION_TOL: the Gamma factors
    sit on poles there, the closed-form levels."""
    k = _terminating_order(complex(0.5 - g, m_ang))
    if k is not None:
        raise PoleError(
            f"{what} undefined at M=0, g={g}: Gamma pole (closed-form level n={k})"
        )


def gamma_phase(g: float, m_ang: float, r0: float | None = None) -> ReflectionPhase:
    """Reflection phase gamma solving the decay condition at infinity.

    e^{-2i gamma} = Gamma(1+2iM) Gamma(1/2-iM-g) /
                    [Gamma(1-2iM) Gamma(1/2+iM-g)]

    The right-hand side is a ratio of conjugate products, so it has unit
    modulus, and gamma_raw = -Im ln[Gamma(1+2iM) / Gamma(1/2+iM-g)] takes
    two lnGamma evaluations.  gamma is reduced to [0, pi); the unreduced
    value is kept alongside.  beta = gamma - M ln r0 uses the supplied r0,
    defaulting to the natural-units value r0 = g/2 (hbar = m = alpha = 1);
    the record keeps the r0 it used.

    gamma carries about ulp(gamma_raw)/2 of absolute error, and |gamma_raw|
    grows like |M| ln|M| (and like pi g at large g): against 60-digit
    mpmath at g = 2 the error is 5e-13 at M = 1e4 and 1e-10 at 1e5.
    Where ulp(gamma_raw)/2 exceeds _GAMMA_RESOLUTION = 1e-9 (|gamma_raw|
    from 2^24, so |M| from about 1.2e6 at g = 2, or g from about 5.3e6)
    DomainError is raised instead: the double gamma_raw no longer holds
    gamma to that resolution.

    At M = 0 the phase is identically zero except at g - 1/2 equal to a
    non-negative integer, where the Gamma factors sit on poles (these are
    exactly the closed-form levels) and PoleError is raised.
    """
    _require_positive("g", g)
    _require_finite("M", m_ang)
    if r0 is None:
        r0 = g / 2.0
    _require_positive("r0", r0)

    if m_ang == 0.0:
        _refuse_m0_pole(g, m_ang, "gamma")
        return ReflectionPhase(gamma=0.0, beta=0.0, gamma_raw=0.0, r0=r0)

    gamma_raw = float(-np.imag(_gamma_ratio_ld(g, m_ang)))
    rounding = math.ulp(gamma_raw) / 2.0
    if rounding > _GAMMA_RESOLUTION:
        raise DomainError(
            f"gamma_phase(g={g!r}, M={m_ang!r}) cannot resolve gamma to "
            f"{_GAMMA_RESOLUTION:g}: gamma_raw = {gamma_raw:.6g} rounds to a double "
            f"by up to {rounding:.3g}"
        )
    gamma = math.fmod(gamma_raw, math.pi)
    if gamma < 0.0:
        gamma += math.pi
    return ReflectionPhase(
        gamma=gamma, beta=gamma - m_ang * math.log(r0), gamma_raw=gamma_raw, r0=r0
    )


def quantization_f(g: float, m_ang: float) -> float:
    """Phase function f = -M ln g + arg Gamma(1/2 - g + iM) - arg Gamma(1 + 2iM).

    The Gamma argument is the continuous (analytic) one, not reduced mod
    2 pi, so f is continuous along any pole-free path in g; for M != 0
    there are no poles at all.  Deep regime (g -> 0): f ~ -M ln g.
    Shallow regime (g -> inf): f ~ -pi g (for M > 0).  Raises DomainError
    where f leaves the double range (from g ~ 5.7e307, where pi g does),
    and PoleError at g = 1/2 for |M| below ~1e-20, a pole to longdouble.

    Each call makes two lnGamma calls.  lnGamma keeps its last two values,
    so along a ladder, where g changes and M does not, lnGamma(1 + 2iM) is
    evaluated on the first call only.
    """
    _require_positive("g", g)
    _require_finite("M", m_ang)
    _require_finite("2M", 2.0 * m_ang)
    w = complex(0.5 - g, m_ang)
    if m_ang == 0.0:
        _refuse_m0_pole(g, m_ang, "quantization function")
    value = (
        (-m_ang - _ZERO) * np.log(g - _ZERO)
        + _ln_gamma_ld(w).imag
        - _ln_gamma_ld(complex(1.0, 2.0 * m_ang)).imag
    )
    f = float(value)
    if not math.isfinite(f):
        raise DomainError(
            f"quantization function f(g={g!r}, M={m_ang!r}) is {f}: it leaves the double range"
        )
    return f


def _ladder(
    m_ang: float,
    energy0: float,
    n_range: Iterable[int],
    m_c: float,
    g0: float,
    energy_of_g: Callable[[float], float],
    sign: float,
    tol: float,
) -> list[SpectrumEntry]:
    """Ladder entries from f(x_n) = f(x0) + sign pi n, one per n in n_range;
    an n that is not an integer raises DomainError.

    The ladder scans x = ln g from x0 = ln g0, g at the anchor level
    energy0, which n = 0 returns as given; energy_of_g maps e^x at a root
    to its level.  f(x) = quantization_f(e^x, m_c) falls in x for m_c > 0
    and rises otherwise.

    Each level lies within tol/4 of its root in x.  The root is bracketed
    on the grid x_k = x0 +- k step (_SCAN_POINTS_PER_DECADE steps per
    decade of e^x, at most _SCAN_DECADES decades either way) by the first
    point where f reaches the target; where that point raises, its error
    is the level's.  The grid is not walked, because f is monotone: df/dx
    = -m_c - g Im psi(1/2 - g + i m_c), and Im psi has the sign of m_c, so
    |df/dx| >= |m_c|.

    * Secant steps (through the anchor and the level before, or grid point
      1) probe the grid until a point is past the target, and doubling
      steps back bracket the first such point.
    * _roots.refine takes the root from the bracket, certified to tol/4.
    * f is finite or raises, and away from the Gamma pole at g = 1/2 as
      m_c -> 0 it raises on half-lines of x only: where e^x underflows to
      0 or f leaves the double range.  So f is finite inside any bracket
      whose ends are.

    The levels of one call share one table of f's values and refusals:
    quantization_f runs once per x.  E_n falls as n rises when sign * M > 0
    and rises otherwise.  Levels closer together than tol resolves (shallow
    anchors, where the spacing shrinks like 1/g) raise ConsistencyError,
    and levels outside the normal double range DomainError.
    """
    x0 = math.log(g0)
    step = math.log(10.0) / _SCAN_POINTS_PER_DECADE
    max_steps = _SCAN_POINTS_PER_DECADE * _SCAN_DECADES
    slope = -1.0 if m_c > 0 else 1.0
    known: dict[float, float | Exception] = {}

    def f(x: float) -> float:
        """f at x, evaluated once per x; a refusal kept at x is raised again."""
        fx = known.get(x)
        if fx is None:
            try:
                g = math.exp(x)
                if g == 0.0:
                    raise DomainError(
                        f"the level scan leaves the double range: g = e^{x:.6g} underflows to 0"
                    )
                fx = known[x] = quantization_f(g, m_c)
            except Exception as exc:
                fx = known[x] = exc
        if isinstance(fx, Exception):
            raise fx
        return fx

    def no_bracket(target: float, direction: float) -> BracketError:
        def end(x: float) -> str:
            # an E that overflows to +-inf without raising is out of range too
            with contextlib.suppress(DomainError):
                energy = energy_of_g(math.exp(x))
                if math.isfinite(energy):
                    return f"E={energy:.6g}"
            return f"g={math.exp(x):.6g} (E leaves the double range)"

        x_end = x0 + direction * max_steps * step
        return BracketError(
            f"no sign change for target {target:.6g} inside the scan window "
            f"[{end(min(x0, x_end))}, {end(max(x0, x_end))}]"
        )

    def solve(target: float, direction: float, guess: tuple[float, float] | None) -> float:
        """The level's root, certified to tol/4; guess is the previous
        level's (root, target)."""
        ahead = f0 - target

        def x_at(k: int) -> float:
            return x0 + direction * k * step

        def stops(k: int) -> bool:
            try:
                return ahead * (f(x_at(k)) - target) <= 0.0
            except Exception:
                return True

        # The scan's point lies in (a, b].  (xp, fp) and (xq, fq) are the
        # secant's points: xq the last one short of the target, xp the one
        # before or a point past it; without a guess, which leaves the
        # secant no slope, the first pass probes grid point 1.
        a, b = 0, None
        (xp, fp), (xq, fq) = guess or (x0, f0), (x0, f0)
        while b is None:
            if a == max_steps:
                raise no_bracket(target, direction)
            k = math.nan
            if fq != fp:
                k = direction * (xq + (target - fq) * (xq - xp) / (fq - fp) - x0) / step
            if not a < k < max_steps:
                k = max_steps if k >= max_steps else 2 * a + 1
            k = min(math.ceil(k), max_steps)
            if stops(k):
                b, gap = k, 1
                while b - gap > a and stops(b - gap):
                    b, gap = b - gap, 2 * gap
                a = max(a, b - gap)
            else:
                if not ahead * (fp - target) <= 0.0:
                    xp, fp = xq, fq
                a, xq = k, x_at(k)
                fq = known[xq]
        while isinstance(known[x_at(b)], Exception) and b - a > 1:
            mid = (a + b) // 2
            if stops(mid):
                b = mid
            else:
                a = mid
        xa, xb = x_at(a), x_at(b)
        return _roots.refine((xa, f(xa), xb, f(xb)), target, f, tol / 2.0)

    f0 = f(x0)
    levels: list[tuple[int, float]] = []
    guess = None
    for n in n_range:
        _require_index(n)
        target = f0 + sign * math.pi * n
        if n == 0:
            energy = energy0
        elif f0 == target:
            energy = energy_of_g(math.exp(x0))
        else:
            direction = 1.0 if (target - f0) * slope > 0 else -1.0
            x = solve(target, direction, guess)
            guess = (x, target)
            energy = energy_of_g(math.exp(x))
        levels.append((n, _normal_level(
            energy, f"quantized level n={n} at E0={energy0!r}, M={m_ang!r}"
        )))
    return _quantized_entries(m_ang, levels, sign * m_ang > 0, f"tol={tol:g}")


# --------------------------------------------------------------------------
# oscillator spectra and wavefunctions

# The oscillator's plan, as u1's: its last (n, M, sign of M), the series
# parameters (-n, 1 + iM) and the prefactor's iM as a clongdouble.
_oscillator_last = (math.nan, math.nan, math.nan, None, None)


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
    n is a non-negative integer, which an integer-valued float or 0-d array
    may hold; any other n raises DomainError, as does a z that leaves the
    double range (rho ~ 1.3e154 in natural units).  np.errstate is entered
    only where the polynomial may leave the longdouble range (z at or past
    the quiet bound that every Kummer series takes, about 5,649 - 0.35 n;
    see specfun.KummerParams), where z is inf or NaN, or where M phi overflows.
    """
    global _oscillator_last
    if not rho > 0:
        raise DomainError(f"rho must be positive, got {rho}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    _require_positive("omega", omega)
    _require_finite("M_osc", m_osc)
    _require_finite("phi", phi)
    z = pp.mass * omega * rho * rho / pp.hbar
    m_sign = math.copysign(1.0, m_osc)
    last_n, last_m, last_sign, params, i_m = _oscillator_last
    if not (n == last_n and m_osc == last_m and m_sign == last_sign):
        # float(n) gives the parameters of n, and takes a 0-d array, as u1
        # takes g; only an integer n is kept, so a hit needs no test
        n_f, m_f = float(n), float(m_osc)
        if not n_f.is_integer():
            raise DomainError(f"n must be an integer, got {n}")
        params = KummerParams(complex(-n_f, 0.0), complex(1.0, m_f))
        i_m = np.clongdouble(1j * m_f)
        _oscillator_last = (n_f, m_f, m_sign, params, i_m)
    m_phi = 1j * m_osc * phi
    if z < params._quiet_below and math.isfinite(m_phi.imag):
        pref = np.exp(i_m * np.log(rho - _CZERO) - (z - _CZERO) / 2 + (m_phi - _CZERO))
        value = complex(pref * _kummer_m_ld(params, z, tol))
    else:
        # Past the series' quiet bound the polynomial may overflow, and z
        # may be inf or NaN or M phi inf; _finite reports that, not a numpy
        # warning.
        with np.errstate(over="ignore", invalid="ignore"):
            pref = np.exp(i_m * np.log(rho - _CZERO) - (z - _CZERO) / 2 + (m_phi - _CZERO))
            value = complex(pref * _kummer_m_ld(params, z, tol))
    if cmath.isfinite(value):
        return value
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
    tol: float = DEFAULT_SOLVER_TOL,
) -> list[SpectrumEntry]:
    """Oscillator levels of the third-solution condition, with g = E/(2 hbar omega).

    The phase function is the Coulomb one evaluated at M_C = M_osc/2.
    Indices follow the energy: n > 0 climbs (spacing -> 2 hbar omega),
    n < 0 descends toward E = 0+ on the geometric ladder
    E_n = E_0 exp(2 pi n / M_osc), so the descending levels carry
    n = -1, -2, ... as they condense.  Each level lies within tol/4 of its
    root in ln g (relative energy tolerance tol/4).
    """
    if not (m_osc != 0.0 and math.isfinite(m_osc)):
        raise DomainError(f"quantized spectrum needs a finite M_osc != 0, got {m_osc}")
    _require_positive("oscillator reference level", energy0)
    _require_positive("omega", omega)
    _require_positive("tol", tol)

    m_c = 0.5 * m_osc
    if m_c == 0.0:
        raise DomainError(
            f"quantized spectrum needs M_osc/2 != 0, but M_osc={m_osc!r} halves to 0: "
            "it underflows"
        )
    two_hw = 2.0 * pp.hbar * omega
    g0 = energy0 / two_hw if two_hw > 0.0 else math.inf
    if not 0.0 < g0 < math.inf:
        raise DomainError(
            f"oscillator reference level E0={energy0!r} over 2 hbar omega = {two_hw!r} "
            f"is {g0!r}: it leaves the double range"
        )

    # Rising energy for rising n: the condition reads f(g_n) = f(g_0) - pi n.
    return _ladder(m_osc, energy0, n_range, m_c, g0, lambda g: two_hw * g, -1.0, tol)
