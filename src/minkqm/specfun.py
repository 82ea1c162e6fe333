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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

# Godfrey's 15-term Lanczos coefficient set, shift 607/128.  Relative
# accuracy a few 1e-16 near the real axis, ~3e-14 worst case on |z| <= 50.
# The constants that lnGamma combines with a clongdouble z are clongdouble,
# the values numpy would promote the longdoubles to on every call: the same
# operations on the same values, without the casts.
_LANCZOS_G = np.clongdouble(np.longdouble(607) / np.longdouble(128))
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
_LANCZOS_HEAD = np.clongdouble(_LANCZOS[0])
_LANCZOS_TAIL = np.array(_LANCZOS[1:], dtype=np.clongdouble)
_LANCZOS_SHIFTS = np.arange(1, len(_LANCZOS), dtype=np.clongdouble)
_HALF_LOG_2PI = np.clongdouble(np.longdouble("0.91893853320467274178032973640561763986"))
_PI = np.longdouble("3.14159265358979323846264338327950288419")
_LOG_PI = np.clongdouble(np.longdouble("1.14472988584940017414342735135305871165"))
_LOG_2 = np.longdouble("0.69314718055994530941723212145817656808")
# The constant heads of _log_sin_pi_upper's products, each computed once as
# the expressions there would compute it on every call.
_2PI_I = np.clongdouble(2j) * _PI
_LOG_SIN_HEAD = -_LOG_2 + np.clongdouble(0.5j) * _PI
_PI_I = np.clongdouble(1j) * _PI
_HALF = np.clongdouble(0.5)
_ONE = np.clongdouble(1.0)
# x - _ZERO is np.longdouble(x) for a float x, and x - _CZERO is
# np.clongdouble(x) for a float or complex x, without a scalar built
# through the constructor: subtracting +0 keeps every value, signed zeros,
# NaN and inf included.
_ZERO = np.longdouble(0)
_CZERO = np.clongdouble(0)

POLE_TOL = 1e-14
TERMINATION_TOL = 1e-12
DEFAULT_SERIES_TOL = 1e-13
DEFAULT_SERIES_CAP = 10_000
# The Kummer series checks once per this many terms that its partial sum
# is still finite in longdouble.
_OVERFLOW_CHECK_TERMS = 64
# A KummerParams keeps its term-factor blocks below this index (256 terms,
# more than grids up to z = 80 reach); later blocks are built per sum.
_KEPT_BLOCKS = 4


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
    # z: clongdouble with Re z >= 0.5.  The sum runs left to right,
    # c0 + c1/(z - 1 + 1) + ... + c14/(z - 1 + 14): accumulate adds in
    # order, where np.sum would pair the terms up.  c0 goes onto the first
    # term, since c0 + t1 is t1 + c0 bit for bit; the array operand leads
    # each operation, where numpy takes its array path at once.
    terms = _LANCZOS_TAIL / (_LANCZOS_SHIFTS + (z - _ONE))
    terms[0] += _LANCZOS_HEAD
    s = np.add.accumulate(terms)[-1]
    z_half = z - _HALF
    t = z_half + _LANCZOS_G
    return z_half * np.log(t) - t + _HALF_LOG_2PI + np.log(s)


def _log_sin_pi_upper(z):
    # Branch of log sin(pi z) analytic for Im z >= 0, chosen so that the
    # reflection formula below continues lnGamma off the cut (-inf, 0].
    # sin(pi z) = (1/2) exp(i pi/2) exp(-i pi z) (1 - exp(2 pi i z));
    # |exp(2 pi i z)| < 1 in the upper half plane, so the last log is principal.
    # That factor rounds to 0 only at z = iy, |y| below ~1e-20: a pole to longdouble.
    one_minus_w = _ONE - np.exp(_2PI_I * z)
    if one_minus_w == 0:
        raise PoleError(f"lnGamma pole: sin(pi z) rounds to 0 at z={complex(z)}")
    return _LOG_SIN_HEAD - _PI_I * z + np.log(one_minus_w)


def _ln_gamma_ld(z: complex):
    """Principal-branch lnGamma as a clongdouble, analytic off (-inf, 0].

    The last two values are kept, the least recently used one evicted
    first.  A ladder's f alternates between a new 1/2 - g + iM and the
    same 1 + 2iM, so the latter is evaluated once per ladder call.  The key
    carries the signs of both parts of z, since complex equality merges +0
    and -0.  An error is raised again on every call, never kept.
    """
    return _ln_gamma_kept(z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag))


@functools.lru_cache(maxsize=2)
def _ln_gamma_kept(z: complex, re_sign: float, im_sign: float):
    # re_sign and im_sign are part of the key only.
    # below the real axis, conjugate z on the way in and the value on the way out
    lower = z.imag < 0
    zl = (z.conjugate() if lower else z) - _CZERO
    if z.real >= 0.5:
        value = _lanczos_core(zl)
    else:
        value = _LOG_PI - _log_sin_pi_upper(zl) - _lanczos_core(_ONE - zl)
    return np.conj(value) if lower else value


def ln_gamma(z: complex) -> complex:
    """Principal-branch log-Gamma for complex z.

    Continuous off the cut (-inf, 0]; real z < 0 is treated as the limit
    from the upper half plane.  Satisfies ln_gamma(conj(z)) ==
    conj(ln_gamma(z)) bitwise.  The last two values are kept, keyed on z
    and the signs of its parts, so a repeated z costs a lookup and gets
    the same bits; an error is raised on every call.

    Raises
    ------
    PoleError
        If z is within ``POLE_TOL`` of a non-positive integer.
    DomainError
        If z is not finite, or the value leaves the double range (for
        real z from about 2.6e305).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"lnGamma needs a finite z, got z={z}")
    if _nearest_nonpositive_integer_distance(z) <= POLE_TOL:
        raise PoleError(f"lnGamma pole at non-positive integer near z={z}")
    if z.imag == 0.0 and z.real > 0.0:
        value = complex(float(np.real(_ln_gamma_ld(z))), 0.0)
    else:
        value = complex(_ln_gamma_ld(z))
    if not cmath.isfinite(value):
        raise DomainError(f"lnGamma at z={z} is {value}: it leaves the double range")
    return value


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
        if not (cmath.isfinite(self.a) and cmath.isfinite(self.c)):
            raise DomainError(f"Kummer parameters must be finite, got a={self.a}, c={self.c}")
        if _nearest_nonpositive_integer_distance(self.c) <= TERMINATION_TOL:
            raise PoleError(f"Kummer parameter c={self.c} is a non-positive integer")
        # taken once here rather than on every point a series is summed at
        n = round(-self.a.real)
        order = n if n >= 0 and abs(self.a + n) <= TERMINATION_TOL else None
        object.__setattr__(self, "_order", order)
        # The series' first _KEPT_BLOCKS term-factor blocks by block index,
        # built on first use: the points summed with these parameters share them.
        object.__setattr__(self, "_blocks", {})

    def terminating_order(self) -> int | None:
        """Degree n if the series terminates (a = -n within tolerance), else None."""
        return self._order

    def _block(self, i: int):
        """Build block i of the term factors A[k] = a + k and D[k] =
        (c + k)(k + 1) as clongdouble pairs, _OVERFLOW_CHECK_TERMS terms cut
        at the polynomial's degree or at DEFAULT_SERIES_CAP.  For i below
        _KEPT_BLOCKS keep it in _blocks, where the sums look it up first;
        kept by index, a block built out of order is still the right one.
        Later blocks are built again by each sum that reaches them, so a
        long sum keeps no more than a short one.

        Term k + 1 of the series is t_k * A[k] * z / D[k]: the same
        operations on the same values as computing the factors in place,
        since numpy's elementwise complex arithmetic gives the bits of the
        scalar expressions, so a kept block changes no bit.
        """
        start = i * _OVERFLOW_CHECK_TERMS
        end = DEFAULT_SERIES_CAP if self._order is None else self._order
        # Finite a and c keep every factor finite: |c + k| (k + 1) stays
        # below 1e313, far inside the longdouble range.
        ks = np.arange(start, min(start + _OVERFLOW_CHECK_TERMS, end), dtype=np.clongdouble)
        block = tuple(zip(self.a + ks, (self.c + ks) * (ks + 1)))
        if i < _KEPT_BLOCKS:
            self._blocks[i] = block
        return block


def _kummer_m_ld(p: KummerParams, z: float, tol: float):
    """Series sum of F(a, c, z) in extended precision (clongdouble)."""
    if not (z > 0.0 and 0.0 < tol < math.inf):
        if not z >= 0:
            raise DomainError(f"Kummer series requires z >= 0, got z={z}")
        if not (tol > 0 and math.isfinite(tol)):
            raise DomainError(f"tol must be positive and finite, got {tol}")
        return _ONE

    zl = z - _CZERO
    s = t = _ONE

    n_term = p._order
    if n_term is not None:
        # Degree-n polynomial: exactly n+1 terms, no tail heuristics.
        for i in range(-(-n_term // _OVERFLOW_CHECK_TERMS)):
            for a_k, d_k in p._blocks.get(i) or p._block(i):
                t = t * a_k * zl / d_k
                s = s + t
        return s

    abs_z = abs(z)
    gap = abs(p.a - p.c)
    abs_c = abs(p.c)
    # Large z or |a| can overflow longdouble; the terms then turn inf/NaN
    # quietly and the first non-finite block raises.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, DEFAULT_SERIES_CAP, _OVERFLOW_CHECK_TERMS):
            converged = False
            i = start // _OVERFLOW_CHECK_TERMS
            for k, (a_k, d_k) in enumerate(p._blocks.get(i) or p._block(i), start):
                t = t * a_k * zl / d_k
                s = s + t
                # Geometric tail bound: for j > k, |t_{j+1}/t_j| <= rho once
                # the index clears both |c| and |z|.
                j = k + 1
                if j > abs_c and j + 1 > abs_z:
                    rho = (1.0 + gap / (j - abs_c)) * abs_z / (j + 1)
                    if rho < 0.9 and float(abs(t)) * rho / (1.0 - rho) <= tol * float(abs(s)):
                        converged = True
                        break
            # s - s is 0 exactly where both parts of s are finite
            if not s - s == 0:
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
    # A terminating polynomial sums outside _kummer_m_ld's errstate; its
    # overflow is reported by _finite, not by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(
            _kummer_m_ld(p, z, tol), z, "kummer_m", "the series sum", a=p.a, c=p.c
        )

