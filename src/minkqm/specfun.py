"""Complex-parameter special functions: log-Gamma and Kummer functions.

Everything here is scalar.  Internals accumulate in 80-bit extended
precision (numpy longdouble) where available; public functions return
ordinary Python complex.  The extra head-room matters: downstream phase
extraction multiplies log-Gamma rounding errors by factors of order
exp(z/2), so the imaginary parts must come out correct to the last few
ulps of a double.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

# Godfrey's 15-term Lanczos coefficient set, shift 607/128.  Relative
# accuracy a few 1e-16 near the real axis, ~3e-14 worst case on |z| <= 50.
_LANCZOS_G = np.longdouble(607) / np.longdouble(128)
_LANCZOS = tuple(
    np.longdouble(s)
    for s in (
        "0.99999999999999709182",
        "57.156235665862923517",
        "-59.597960355475491248",
        "14.136097974741747174",
        "-0.49191381609762019978",
        "0.33994649984811888699e-4",
        "0.46523628927048575665e-4",
        "-0.98374475304879564677e-4",
        "0.15808870322491248884e-3",
        "-0.21026444172410488319e-3",
        "0.21743961811521264320e-3",
        "-0.16431810653676389022e-3",
        "0.84418223983852743293e-4",
        "-0.26190838401581408670e-4",
        "0.36899182659531622704e-5",
    )
)
_HALF_LOG_2PI = np.longdouble("0.91893853320467274178032973640561763986")
_PI = np.longdouble("3.14159265358979323846264338327950288419")
_LOG_PI = np.longdouble("1.14472988584940017414342735135305871165")
_LOG_2 = np.longdouble("0.69314718055994530941723212145817656808")

POLE_TOL = 1e-14
TERMINATION_TOL = 1e-12
DEFAULT_SERIES_TOL = 1e-13
DEFAULT_SERIES_CAP = 10_000
# The Kummer series checks once per this many terms that its partial sum
# is still finite in longdouble.
_OVERFLOW_CHECK_TERMS = 64


def _nearest_nonpositive_integer_distance(z: complex) -> float:
    k = round(z.real)
    if k > 0:
        return float("inf")
    return abs(complex(z) - k)


def _finite(value, z: float, name: str, growth: str, **params) -> complex:
    """value as a complex double, or DomainError naming the double range.

    The extended-precision internals stay finite well past the double
    range, so the conversion to a double is where inf first appears.
    growth names what carries the value out of the range; name and params
    say which function at which parameters.
    """
    out = complex(value)
    if not cmath.isfinite(out):
        args = ", ".join(f"{key}={val}" for key, val in params.items())
        raise DomainError(
            f"{name}({args}) is not finite at z={z:.6g}: {growth} leaves the double range"
        )
    return out


def _lanczos_core(z):
    # z: clongdouble with Re z >= 0.5
    s = np.clongdouble(_LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        s = s + _LANCZOS[i] / (z - 1 + i)
    t = z - np.clongdouble(0.5) + _LANCZOS_G
    return (z - np.clongdouble(0.5)) * np.log(t) - t + _HALF_LOG_2PI + np.log(s)


def _log_sin_pi_upper(z):
    # Branch of log sin(pi z) analytic for Im z >= 0, chosen so that the
    # reflection formula below continues lnGamma off the cut (-inf, 0].
    # sin(pi z) = (1/2) exp(i pi/2) exp(-i pi z) (1 - exp(2 pi i z));
    # |exp(2 pi i z)| < 1 in the upper half plane, so the last log is principal.
    w = np.exp(np.clongdouble(2j) * _PI * z)
    return (
        -_LOG_2
        + np.clongdouble(0.5j) * _PI
        - np.clongdouble(1j) * _PI * z
        + np.log(1 - w)
    )


def _ln_gamma_ld(z: complex):
    """Principal-branch lnGamma as a clongdouble, analytic off (-inf, 0]."""
    if z.imag < 0:
        return np.conj(_ln_gamma_ld(z.conjugate()))
    zl = np.clongdouble(z)
    if z.real >= 0.5:
        return _lanczos_core(zl)
    return _LOG_PI - _log_sin_pi_upper(zl) - _lanczos_core(1 - zl)


def ln_gamma(z: complex) -> complex:
    """Principal-branch log-Gamma for complex z.

    Continuous off the cut (-inf, 0]; real z < 0 is treated as the limit
    from the upper half plane.  Satisfies ln_gamma(conj(z)) ==
    conj(ln_gamma(z)) bitwise.

    Raises
    ------
    PoleError
        If z is within ``POLE_TOL`` of a non-positive integer.
    """
    z = complex(z)
    if _nearest_nonpositive_integer_distance(z) <= POLE_TOL:
        raise PoleError(f"lnGamma pole at non-positive integer near z={z}")
    if z.imag == 0.0 and z.real > 0.0:
        return complex(float(np.real(_ln_gamma_ld(z))), 0.0)
    return complex(_ln_gamma_ld(z))


@dataclass(frozen=True)
class KummerParams:
    """Parameter pair (a, c) of the confluent series F(a, c, z).

    c must stay away from non-positive integers, where every series
    denominator (c)_k vanishes.
    """

    a: complex
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "c", complex(self.c))
        if _nearest_nonpositive_integer_distance(self.c) <= TERMINATION_TOL:
            raise PoleError(f"Kummer parameter c={self.c} is a non-positive integer")

    def terminating_order(self) -> int | None:
        """Degree n if the series terminates (a = -n within tolerance), else None."""
        n = round(-self.a.real)
        if n >= 0 and abs(self.a + n) <= TERMINATION_TOL:
            return n
        return None


def _kummer_m_ld(p: KummerParams, z: float, tol: float):
    """Series sum of F(a, c, z) in extended precision (clongdouble)."""
    if not z >= 0:
        raise DomainError(f"Kummer series requires z >= 0, got z={z}")
    if not tol > 0:
        raise DomainError("tol must be positive")
    if z == 0.0:
        return np.clongdouble(1.0)

    a = np.clongdouble(p.a)
    c = np.clongdouble(p.c)
    zl = np.clongdouble(z)

    n_term = p.terminating_order()
    if n_term is not None:
        # Degree-n polynomial: exactly n+1 terms, no tail heuristics.
        s = np.clongdouble(1.0)
        t = np.clongdouble(1.0)
        for k in range(n_term):
            t = t * (a + k) * zl / ((c + k) * (k + 1))
            s = s + t
        return s

    abs_z = abs(z)
    gap = abs(p.a - p.c)
    abs_c = abs(p.c)
    s = np.clongdouble(1.0)
    t = np.clongdouble(1.0)
    # Large z or |a| can overflow longdouble; the terms then turn inf/NaN
    # quietly and the first non-finite block raises.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, DEFAULT_SERIES_CAP, _OVERFLOW_CHECK_TERMS):
            converged = False
            for k in range(start, min(start + _OVERFLOW_CHECK_TERMS, DEFAULT_SERIES_CAP)):
                t = t * (a + k) * zl / ((c + k) * (k + 1))
                s = s + t
                # Geometric tail bound: for j > k, |t_{j+1}/t_j| <= rho once
                # the index clears both |c| and |z|.
                j = k + 1
                if j > abs_c and j + 1 > abs_z:
                    rho = (1.0 + gap / (j - abs_c)) * abs_z / (j + 1)
                    if rho < 0.9 and float(abs(t)) * rho / (1.0 - rho) <= tol * float(abs(s)):
                        converged = True
                        break
            if not np.isfinite(s):
                raise DomainError(
                    f"Kummer series F(a={p.a}, c={p.c}, z={z:.6g}) leaves the "
                    f"double range: its terms are not finite in extended "
                    f"precision by term {k + 1}"
                )
            if converged:
                return s
    raise ConvergenceError(
        f"Kummer series did not converge within {DEFAULT_SERIES_CAP} terms "
        f"(a={p.a}, c={p.c}, z={z})"
    )


def kummer_m(p: KummerParams, z: float, tol: float = DEFAULT_SERIES_TOL) -> complex:
    """Confluent hypergeometric function F(a, c, z) = sum (a)_k/(c)_k z^k/k!.

    Terms are added until a geometric tail bound drops below tol times the
    partial sum.  If a is a non-positive integer (within 1e-12) the series
    is a polynomial and exactly that many terms are summed.

    Parameters
    ----------
    p : KummerParams
    z : float, >= 0
    tol : float
        Relative tail tolerance.

    Raises ConvergenceError past DEFAULT_SERIES_CAP terms and DomainError
    where the value leaves the double range.
    """
    return _finite(
        _kummer_m_ld(p, z, tol), z, "kummer_m", "the series sum", a=p.a, c=p.c
    )


def kummer_second(p: KummerParams, z: float, tol: float = DEFAULT_SERIES_TOL) -> complex:
    """Second-kind solution z^(1-c) F(a-c+1, 2-c, z) for z > 0.

    The complex power uses the principal branch of ln z.  Parameter sets
    where 2-c hits a non-positive integer are rejected rather than
    continued through the pole.  Raises DomainError where the value leaves
    the double range.
    """
    if z <= 0:
        raise DomainError(f"kummer_second requires z > 0, got z={z}")
    shifted = KummerParams(p.a - p.c + 1, 2 - p.c)
    power = np.exp(np.clongdouble(1 - p.c) * np.log(np.clongdouble(z)))
    return _finite(
        power * _kummer_m_ld(shifted, z, tol), z, "kummer_second",
        "z^(1-c) times the series sum", a=p.a, c=p.c,
    )


def kummer_asymptotic(p: KummerParams, z: float) -> complex:
    """Leading large-z behavior Gamma(c)/Gamma(a) e^z z^(a-c).

    Only the exponentially growing branch; relative accuracy is O(1/z).
    Invalid when a is a non-positive integer (the series terminates and
    the exponential branch is absent).  Raises DomainError where the value
    leaves the double range.
    """
    if z <= 0:
        raise DomainError(f"kummer_asymptotic requires z > 0, got z={z}")
    if p.terminating_order() is not None:
        raise PoleError(
            f"asymptotic form invalid for terminating series (a={p.a})"
        )
    expo = (
        _ln_gamma_ld(complex(p.c))
        - _ln_gamma_ld(complex(p.a))
        + np.clongdouble(z)
        + np.clongdouble(p.a - p.c) * np.log(np.clongdouble(z))
    )
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(expo)
    return _finite(value, z, "kummer_asymptotic", "e^z z^(a-c)", a=p.a, c=p.c)
