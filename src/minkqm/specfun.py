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
from itertools import islice

import numpy as np

from . import _record
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
# The Kummer series' tail test runs where its bound rho on the term ratios
# is below _TAIL_RHO.  A skip past terms where the test cannot pass allows
# a relative slack of _SKIP_SLACK for rounding, on each of the two bounds it
# compares and on its convexity test, and is taken only where the values
# it bounds lie within [_SKIP_TINY, _SKIP_HUGE], far from subnormals and inf.
_TAIL_RHO = 0.9
_SKIP_SLACK = 1e-6
_SKIP_SPREAD = (1.0 + _SKIP_SLACK) / (1.0 - _SKIP_SLACK)
_SKIP_CONVEX = 1.0 + _SKIP_SLACK
_SKIP_TINY = 1e-280
_SKIP_HUGE = 1e280
# A KummerParams keeps its term-factor blocks below this index (256 terms,
# more than grids up to z = 80 reach); later blocks are built per sum.
_KEPT_BLOCKS = 4
# A polynomial up to this degree keeps its term factors as one flat tuple.
_FLAT_DEGREE = _KEPT_BLOCKS * _OVERFLOW_CHECK_TERMS
# ln of the longdouble range's top, less a margin of e^40 that covers the
# rounding of every bound in _quiet_below: 11316.5 for an 80-bit longdouble,
# 669.8 where longdouble is a plain double.
_LOG_QUIET = float(np.log(np.finfo(np.longdouble).max)) - 40.0


def _nearest_nonpositive_integer_distance(z: complex) -> float:
    k = round(z.real)
    if k > 0:
        return float("inf")
    return abs(complex(z) - k)


def _terminating_order(a: complex) -> int | None:
    """Degree n where a = -n, n >= 0 an integer, to TERMINATION_TOL, else
    None: KummerParams' termination rule, shared with spectra's M = 0 poles."""
    n = round(-a.real)
    return n if n >= 0 and abs(a + n) <= TERMINATION_TOL else None


def _quiet_below(a: complex, c: complex, abs_c: float) -> float:
    """The z below which no term factor, term, product or partial sum of the
    series F(a, c, z) can leave the longdouble range; 0 where that cannot be
    shown.  One rule for every series, polynomials included.

    Where Re c >= 1, |c + j| >= j + 1, so |(c)_k| >= k!, and
    |(a)_k| <= k! 2^(A + k) with A = ceil|a|, since
    (A)_k = k! binom(A + k - 1, k), so |t_k| <= 2^A (2z)^k/k!: the terms and
    sums stay below 2^A e^(2z), the products below
    2^A e^(2z) (|a| + cap) max(z, 1); |a| + 1 stands for A.  The factors
    a + k and (c + k)(k + 1) stay below |a| + K and (|c| + K)(K + 1), K the
    last term summed.
    """
    last = DEFAULT_SERIES_CAP  # no sum runs past the cap: a longer polynomial raises
    if not (c.real >= 1.0 and math.log(abs_c + last) + math.log(last + 1.0) < _LOG_QUIET):
        return 0.0
    abs_a = math.hypot(a.real, a.imag)
    # ln max(z, 1) <= ln _LOG_QUIET for every z this returns
    spare = (_LOG_QUIET - (abs_a + 1.0) * math.log(2.0) - math.log(abs_a + last)
             - math.log(_LOG_QUIET))
    return spare / 2.0 if spare > 0.0 else 0.0


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


class KummerParams(_record.Record):
    """Parameter pair (a, c) of the confluent series F(a, c, z).

    c must stay away from non-positive integers, where every series
    denominator (c)_k vanishes.  The series is a polynomial of degree n
    where a = -n to TERMINATION_TOL (``_terminating_order``, the rule that
    spectra's pole test at M = 0 also reads); one of degree past
    DEFAULT_SERIES_CAP raises DomainError when summed.

    Each instance takes its range rule once: below a z of ``_quiet_below``,
    no term, product or partial sum of its series can leave the longdouble
    range, so a sum there runs with no ``np.errstate``.  The rule is the
    same for every series: where Re c >= 1 that z is 5,648 for u1's series
    at g = 2, M = 1, falling by (ln 2)/2 per unit of |a| (about
    5,649 - 0.35 n for a polynomial of degree n); where Re c < 1 there is
    none, and every sum enters ``np.errstate``.

    A polynomial of degree up to _FLAT_DEGREE keeps its factor pairs as one
    flat tuple, built here, which ``_kummer_m_ld`` sums in one loop; a
    longer one builds its pairs on each sum.  Any other series keeps its
    term factors in blocks of _OVERFLOW_CHECK_TERMS terms (``_block``).
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
        order = _terminating_order(self.a)
        object.__setattr__(self, "_order", order)
        # |c| and |a - c| for the tail test's ratio bound, and the first term
        # index past |c|, where its window can start (past the cap: none)
        abs_c = math.hypot(self.c.real, self.c.imag)
        gap = self.a - self.c
        object.__setattr__(self, "_abs_c", abs_c)
        object.__setattr__(self, "_gap", math.hypot(gap.real, gap.imag))
        object.__setattr__(
            self, "_low", int(abs_c) + 1 if abs_c < DEFAULT_SERIES_CAP else DEFAULT_SERIES_CAP + 1
        )
        object.__setattr__(self, "_quiet_below", _quiet_below(self.a, self.c, abs_c))
        # A series' first _KEPT_BLOCKS term-factor blocks by block index, built
        # on first use: the points summed with these parameters share them.
        object.__setattr__(self, "_blocks", {})
        # A short polynomial's factor pairs as one tuple, else None
        pairs = self._factors(0, order) if order is not None and order <= _FLAT_DEGREE else None
        object.__setattr__(self, "_pairs", pairs)

    def terminating_order(self) -> int | None:
        """Degree n if the series terminates (a = -n within tolerance), else None."""
        return self._order

    def _factors(self, start: int, stop: int):
        """The term factors A[k] = a + k and D[k] = (c + k)(k + 1), for
        start <= k < stop, as a tuple of clongdouble pairs.

        Term k + 1 of the series is t_k * A[k] * z / D[k]: the same
        operations on the same values as computing the factors in place,
        since numpy's elementwise complex arithmetic gives the bits of the
        scalar expressions, so a kept factor changes no bit.
        """
        # Finite a and c keep every factor finite: |c + k| (k + 1) stays
        # below 1e313, far inside the longdouble range.
        ks = np.arange(start, stop, dtype=np.clongdouble)
        return tuple(zip(self.a + ks, (self.c + ks) * (ks + 1)))

    def _block(self, i: int):
        """Block i of a non-terminating series' term factors,
        _OVERFLOW_CHECK_TERMS terms cut at DEFAULT_SERIES_CAP.  For i below
        _KEPT_BLOCKS keep it in _blocks, where the sums look it up first;
        kept by index, a block built out of order is still the right one.
        Later blocks are built again by each sum that reaches them, so a
        long sum keeps no more than a short one.
        """
        start = i * _OVERFLOW_CHECK_TERMS
        block = self._factors(start, min(start + _OVERFLOW_CHECK_TERMS, DEFAULT_SERIES_CAP))
        if i < _KEPT_BLOCKS:
            self._blocks[i] = block
        return block


def _tail_window(p: KummerParams, z: float, low: int) -> int:
    """The first term j > low with rho_j = (1 + |a - c|/(j - |c|)) z/(j + 1)
    below _TAIL_RHO, for a term low > |c| where it is not;
    DEFAULT_SERIES_CAP + 1 where no term up to the cap qualifies.  rho_j
    falls in j by more than a part in 1e4 per term up to the cap, far more
    than its rounding, so every later term qualifies too.
    """
    abs_c, gap = p._abs_c, p._gap
    # rho_u = _TAIL_RHO at u = |c| + v, v the positive root of
    # 0.9 v^2 + b v - |a - c| z = 0.  Start two terms short of it, which
    # rounding cannot carry past the first qualifying term.
    b = _TAIL_RHO * (abs_c + 1.0) - z
    root = math.sqrt(b * b + 4.0 * _TAIL_RHO * gap * z)
    v = (root - b) / (2.0 * _TAIL_RHO) if b <= 0.0 else 2.0 * gap * z / (root + b)
    if not abs_c + v < DEFAULT_SERIES_CAP:
        return DEFAULT_SERIES_CAP + 1
    j = max(low + 1, int(abs_c + v) - 1)
    while not (1.0 + gap / (j - abs_c)) * z / (j + 1) < _TAIL_RHO:
        j += 1
    return j


def _next_tail_test(p: KummerParams, z: float, tol: float, j: int, lhs: float, size: float,
                    rho: float) -> int:
    """The first term after j at which the tail test could pass, where it
    failed at j: lhs = |t_j| rho_j/(1 - rho_j) > tol |s_j|, size = |s_j|.

    Upper bound: for m > j, |s_m| <= |s_j| + |t_j| rho_j/(1 - rho_j), the
    geometric tail the test relies on, so tol |s_m| <= tol (size + lhs).

    Lower bound: |t_{l+1}/t_l| = |a + l| |z| / (|c + l| (l + 1)), and for
    l >= j, |c + l| <= l + C with C = |c + j| - j, since |c + l| - l falls
    in l.  With A = -Re a, where j >= A + 1, |a + l| >= l - A gives
    q(l) = (l - A) |z| / ((l + C)(l + 1)), which rises, then falls: on
    j..h-1 it is at least the lesser of q(j) and q(h - 1), and where ln q
    is convex on [j, inf), which holds from a j where its second derivative
    is >= 0, the mean of ln q over j..m-1 is at least ln q at the midpoint
    (Jensen).  Below A + 1 the ratio is at least the least |a + l| over
    the integers j..h-1, times |z|, over the greatest (l + C)(l + 1) there.
    Call Q that lower bound on the ratios up to a horizon h.  rho_m/(1 - rho_m) falls
    in m, so for j < m <= h the test's left side is at least
    lhs Q^(m-j) R_h/R_j, with R = rho/(1 - rho), and the test fails
    wherever that exceeds the upper bound.  h is a guess at where it stops
    failing, as if the ratios fell like 1/l from |t_{j+1}/t_j|.

    _SKIP_SLACK covers the rounding of the terms, the sums and these
    bounds, each a few ulps per term.  Where a bound is not usable (values
    outside [_SKIP_TINY, _SKIP_HUGE], a ratio not in (0, 1)), the next term.
    """
    ratio = tol * (size + lhs) * _SKIP_SPREAD / lhs
    if not (_SKIP_TINY < ratio < 1.0 and _SKIP_TINY < tol * size
            and size < _SKIP_HUGE and lhs < _SKIP_HUGE):
        return j + 1
    jf = float(j)
    a_re, a_im = p.a.real, p.a.imag
    u = jf + a_re  # l - A at l = j
    c_off = math.hypot(jf + p.c.real, p.c.imag) - jf
    den = (jf + c_off) * (jf + 1.0)
    ratio_j = math.hypot(u, a_im) * z / den
    if not 0.0 < ratio_j < 1.0:
        return j + 1
    log_ratio = math.log(ratio)
    lr = -math.log(ratio_j)
    span = int(jf * (math.sqrt(lr * lr - 2.0 * log_ratio / jf) - lr)) + 1
    if span > DEFAULT_SERIES_CAP:
        span = DEFAULT_SERIES_CAP
    hf = jf + span
    if u >= 1.0:
        q = u * z / den
        # (ln q)'' >= 0 at j: ((l - A)/(l + C))^2 + ((l - A)/(l + 1))^2 >= 1,
        # and each ratio either rises in l or stays above 1.
        r_c = u / (jf + c_off)
        r_1 = u / (jf + 1.0)
        x = jf + 0.5 * (span - 1) if r_c * r_c + r_1 * r_1 > _SKIP_CONVEX else hf - 1.0
        q_x = (x + a_re) * z / ((x + c_off) * (x + 1.0))
        if q_x < q:
            q = q_x
    else:
        nearest = min(max(round(-a_re), j), j + span - 1)
        q = math.hypot(nearest + a_re, a_im) * z / ((hf - 1.0 + c_off) * hf)
    rho_h = (1.0 + p._gap / (hf - p._abs_c)) * z / (hf + 1.0)
    if not (0.0 < q < 1.0 and 0.0 < rho_h):
        return j + 1
    log_ratio += math.log(rho * (1.0 - rho_h) / ((1.0 - rho) * rho_h))
    skip = log_ratio / math.log(q)
    if not skip >= 1.0:
        return j + 1
    return j + 1 + (int(skip) if skip < span else span)


def _passes_past_double(t, s, rho: float, tol: float) -> bool:
    """The tail test where |s| passes the double range: |t|/|s| against tol,
    taken in extended precision, where |s| is finite there."""
    size = abs(s)
    return not size < math.inf or float(abs(t) / size) * rho / (1.0 - rho) <= tol


def _kummer_m_ld(p: KummerParams, z: float, tol: float):
    """Series sum of F(a, c, z) in extended precision (clongdouble).

    A polynomial sums its n + 1 terms.  Any other series stops at the first
    term j of its tail window where the geometric tail bound passes:
    |t_j| rho_j/(1 - rho_j) <= tol |s_j|, with
    rho_j = (1 + |a - c|/(j - |c|)) |z|/(j + 1), which bounds every later
    term ratio.  The window holds the terms with j > |c|, j + 1 > |z| and
    rho_j < 0.9; rho_j falls in j, so the window runs from its first term
    on, and that term is found once per call.  Where the double |s_j| is
    inf, the test compares |t_j|/|s_j| with tol in extended precision
    instead: tol * inf passed at once.

    The test runs only where it could pass.  After it fails at j,
    _next_tail_test bounds |s_m| from above by the same geometric tail and
    |t_m| from below by a lower bound on the term ratios; up to the first m
    where the two bounds allow a pass, with slack for rounding, the test
    would fail, so those terms are summed with no test.  Near the stop,
    where a skip cannot pay for its bounds, every term is tested.  The sum
    therefore stops at the term, with the bits, that testing every term of
    the window gives.  Every _OVERFLOW_CHECK_TERMS terms, and at the stop,
    the partial sum must be finite in extended precision.

    Below p's quiet bound no value the sum makes can leave the longdouble
    range (KummerParams), so it runs with no context manager: entering and
    leaving np.errstate costs 1.3-1.8 us, more than a tenth of a short
    series.  That test comes first, with the checks on z and tol, so a
    valid point below the bound takes one branch.  There a polynomial of
    degree <= _FLAT_DEGREE sums, in one loop, the tuple of factor pairs
    built with its parameters (degree 0 returns 1 at once), and every
    other series goes on to _kummer_sum.  At or past the bound, and at an inf or NaN z, the sum runs
    under np.errstate(over="ignore", invalid="ignore"): its terms then turn
    inf or NaN quietly, a series raises DomainError at its first block that
    is not finite, and a polynomial returns them to its caller.  Where the
    tail window starts past the cap and z is below the bound, so that no
    overflow can come first, ConvergenceError is raised at once, naming |c|
    and the cap, instead of after the cap's terms.  A polynomial of degree
    past the cap raises DomainError, naming its degree and the cap, before
    it builds a term factor.
    """
    if z < p._quiet_below and z > 0.0 and 0.0 < tol < math.inf:
        pairs = p._pairs
        if pairs is None:
            return _kummer_sum(p, z, tol)
        if not pairs:  # degree 0
            return _ONE
        zl = z - _CZERO
        s = t = _ONE
        for a_k, d_k in pairs:
            t = t * a_k * zl / d_k
            s = s + t
        return s
    if not (z > 0.0 and 0.0 < tol < math.inf):
        if not z >= 0:
            raise DomainError(f"Kummer series requires z >= 0, got z={z}")
        if not (tol > 0 and math.isfinite(tol)):
            raise DomainError(f"tol must be positive and finite, got {tol}")
        return _ONE
    with np.errstate(over="ignore", invalid="ignore"):
        return _kummer_sum(p, z, tol)


def _kummer_sum(p: KummerParams, z: float, tol: float):
    """_kummer_m_ld's sum at a z > 0 and a valid tol, with no errstate of
    its own."""
    zl = z - _CZERO
    s = t = _ONE

    if p._order is not None:
        # Degree-n polynomial: exactly n+1 terms, no tail heuristics.
        if p._order > DEFAULT_SERIES_CAP:
            raise DomainError(
                f"Kummer polynomial of degree {p._order} is past the {DEFAULT_SERIES_CAP}-term "
                f"cap (a={p.a}, c={p.c})"
            )
        for a_k, d_k in p._pairs or p._factors(0, p._order):
            t = t * a_k * zl / d_k
            s = s + t
        return s

    gap = p._gap
    abs_c = p._abs_c
    # The term of the next tail test; first the window's start, the first
    # j > |c| with j + 1 > z and rho_j < _TAIL_RHO.
    test = p._low
    if test + 1 <= z:
        test = int(z) if z < DEFAULT_SERIES_CAP else DEFAULT_SERIES_CAP + 1
    if test <= DEFAULT_SERIES_CAP and not (1.0 + gap / (test - abs_c)) * z / (test + 1) < _TAIL_RHO:
        test = _tail_window(p, z, test)
    if test > DEFAULT_SERIES_CAP and z < p._quiet_below:
        raise ConvergenceError(
            f"Kummer series cannot converge within {DEFAULT_SERIES_CAP} terms: its tail "
            f"test needs a term j > |c| = {abs_c:.6g} with j + 1 > z and rho_j < {_TAIL_RHO}, "
            f"and none up to the cap is one (a={p.a}, c={p.c}, z={z})"
        )
    k = 0  # terms added after the first
    near = False  # whether the test runs at every term
    for start in range(0, DEFAULT_SERIES_CAP, _OVERFLOW_CHECK_TERMS):
        i = start // _OVERFLOW_CHECK_TERMS
        block = p._blocks.get(i) or p._block(i)
        end = start + len(block)
        converged = False
        while True:
            # the terms before the next test, with no test
            stop = test - 1 if test <= end else end
            for a_k, d_k in islice(block, k - start, stop - start):
                t = t * a_k * zl / d_k
                s = s + t
            k = stop
            if k == end:
                break
            # From there, test each term until the test passes or, away
            # from the stop, a failed test bounds the next one.
            for a_k, d_k in islice(block, k - start, None):
                t = t * a_k * zl / d_k
                s = s + t
                k += 1
                rho = (1.0 + gap / (k - abs_c)) * z / (k + 1)
                lhs = float(abs(t)) * rho / (1.0 - rho)
                size = float(abs(s))
                if lhs <= tol * size and (size < math.inf or _passes_past_double(t, s, rho, tol)):
                    converged = True
                    break
                if not near:
                    # Bounding a skip costs about as much as five tests.
                    # Where the terms, falling by |z|/(k + 1) each, would
                    # pass within twelve, test each term instead.
                    if lhs * (z / (k + 1)) ** 12 <= tol * (size + lhs):
                        near = True
                    else:
                        test = _next_tail_test(p, z, tol, k, lhs, size, rho)
                        break
            else:
                test = end + 1
            if converged:
                break
        # s - s is 0 exactly where both parts of s are finite
        if not s - s == 0:
            raise DomainError(
                f"Kummer series F(a={p.a}, c={p.c}, z={z:.6g}) leaves the "
                f"double range: its terms are not finite in extended "
                f"precision by term {k}"
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

    Raises ConvergenceError past DEFAULT_SERIES_CAP terms, or at once where
    the tail test cannot start within them, and DomainError where the value
    leaves the double range or, at any z > 0, where a polynomial's degree
    is past DEFAULT_SERIES_CAP: a polynomial sums no more terms than any
    other series.  np.errstate is entered only at or past the
    parameters' quiet bound, the same rule for every series (KummerParams),
    where _finite reports a polynomial's overflow, not a numpy warning.
    """
    return _finite(_kummer_m_ld(p, z, tol), z, "kummer_m", "the series sum", a=p.a, c=p.c)

