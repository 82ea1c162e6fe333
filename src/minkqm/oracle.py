"""Independent numerical verification path for the radial problem.

Everything here works directly on the ODE u'' + Q(r) u = 0 and never
touches the Gamma-function machinery, so agreement with the analytic
solvers is a genuine cross-check.

The workhorse direction is *inward*: the solution decaying at infinity is
unique up to scale, so integrating from r_max toward the origin needs no
knowledge of the reflection phase; the phase is then read off by fitting
u/sqrt(r) against sin/cos of M ln r near the origin, where the
inverse-square term dominates.  Integration runs on a grid uniform in
x = ln r with the transformed equation

    v'' + W(x) v = 0,   v = u/sqrt(r),   W = r^2 Q(r) - 1/4,

which near the origin tends to the constant M^2 (v oscillates uniformly
in x there, ideal for the fit) and needs no grid stitching.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Literal

import numpy as np

from . import _record, _roots
from .errors import (
    DomainError,
    FitQualityError,
    InsufficientRootsError,
)
from .model import (
    Coulomb,
    PhysicalParams,
    SystemKind,
    bound_state_length,
    coulomb_scaling,
    radial_coefficient,
)

_RENORM_LIMIT = 1e100
_CHUNK = 1024  # Numerov steps between two range checks
_RESIDUAL_CHUNK = 4096  # grid points per chunk of ode_residual
_STABILITY_BOUND = 0.01  # h^2 * max|coefficient| must stay below this
_FIT_RESIDUAL_TOL = 1e-4  # phase-fit rms residual relative to the amplitude


class ShootingConfig(_record.Record):
    """Grid window for one radial integration; steps is the point count.

    DomainError unless 0 < r_min < r_max < inf and steps is an integer
    (Python or numpy) of at least 1000.
    """

    r_min: float
    r_max: float
    steps: int = 6000

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise DomainError(
                f"need 0 < r_min < r_max, got ({self.r_min}, {self.r_max})"
            )
        if self.r_max == math.inf:
            raise DomainError(f"need a finite r_max, got {self.r_max}")
        if not isinstance(self.steps, numbers.Integral):
            raise DomainError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1000:
            raise DomainError(f"steps must be >= 1000, got {self.steps}")

    def rescaled(self, factor: float) -> "ShootingConfig":
        return ShootingConfig(self.r_min * factor, self.r_max * factor, self.steps)


def scaled_config(
    pp: PhysicalParams,
    energy: float,
    min_factor: float = 1e-4,
    max_factor: float = 50.0,
    steps: int = 6000,
) -> ShootingConfig:
    """Config spanning [min_factor, max_factor] in units of r0(E)."""
    r0 = bound_state_length(pp, energy)
    return ShootingConfig(min_factor * r0, max_factor * r0, steps)


class RadialSolution(_record.Record):
    """Sampled radial amplitude u(r) with the data that produced it.

    Stored values are rescaled by exp(-log_scale) whenever the raw
    amplitude passes 1e100 during integration; the true solution is
    u_values * exp(log_scale) (overall scale is arbitrary for a linear
    homogeneous equation anyway).
    """

    r_grid: np.ndarray
    u_values: np.ndarray
    energy: float
    m_ang: float
    kind: SystemKind
    log_scale: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r_grid, dtype=float)
        u = np.asarray(self.u_values, dtype=complex)
        if r.ndim != 1 or u.ndim != 1 or r.size != u.size:
            raise DomainError("r_grid and u_values must be 1-d and equally long")
        if r.size < 3:
            raise DomainError("need at least 3 grid points")
        if not np.all(np.diff(r) > 0):
            raise DomainError("r_grid must be strictly increasing")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(u))):
            raise DomainError("non-finite grid or amplitude values")
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "u_values", u)


def _numerov(
    coef: np.ndarray,
    h: float,
    start: tuple[complex, complex],
    inward: bool,
) -> tuple[np.ndarray, float]:
    """Propagate y'' + coef * y = 0 on a uniform grid; O(h^6) local error.

    start holds y at the first two grid points in the direction of travel;
    real starts run on Python floats (float64) and complex starts on numpy
    complex128 scalars, through the same loop.  Uses the summed form of the
    recurrence (the running first difference of z = (1 + h^2 coef/12) y is
    updated each step), which keeps roundoff growth linear in the step
    count instead of quadratic.  Inward is the outward sweep of the
    reversed coefficients, written to the output back to front: the same
    operations on the same values.

    The loop reads the weights through memoryviews, which yield Python
    floats, and sweeps _CHUNK steps at a time.  Each chunk's values go to
    the output array, and |y| > 1e100 is tested once on that slice.  The
    first value past it must rescale every value so far, as a test at
    every step would have done, but the values after it were swept
    unscaled: so the chunk is swept again from its saved state up to that
    value, everything up to it is divided by its magnitude, and the sweep
    goes on from the next step.  Only that chunk is swept twice; sweeping
    the rest of the grid again would cost a whole sweep per rescale.

    Returns (values in grid order, accumulated log scale).  Raises
    DomainError for a start that is not finite or values that leave the
    double range.
    """
    if inward:
        coef = coef[::-1]
    h2 = h * h
    w = memoryview(1.0 + (h2 / 12.0) * coef)  # Numerov weights
    hc = memoryview(h2 * coef[1:-1])  # the step to point i takes coef[i - 1]
    n = len(w)
    if np.result_type(*start).kind != "c":
        scalar, grid = float, np.empty(n)
        magnitude = np.abs
    else:
        # not Python complex: its abs raises OverflowError, and its division
        # divides where numpy's multiplies by a reciprocal
        scalar, grid = np.complex128, np.empty(n, complex)

        def magnitude(v):
            # numpy's abs of a complex array may round otherwise than the
            # scalar abs that gives the scale; hypot rounds as it does
            return np.hypot(v.real, v.imag)

    y = grid[::-1] if inward else grid  # in the direction of travel
    log_scale = 0.0
    # an overflow gives an infinite scale and a start of inf or NaN a NaN
    # last value, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        y[0] = y_first = scalar(start[0])
        y[1] = y_prev = scalar(start[1])
        z_curr = w[1] * y_prev
        diff = z_curr - w[0] * y_first
        i, stop = 2, min(2 + _CHUNK, n)
        while i < n:
            saved = y_prev, z_curr, diff
            swept = []
            append = swept.append
            for hc_i, w_i in zip(hc[i - 2 : stop - 2], w[i:stop]):
                diff = diff - hc_i * y_prev
                z_curr = z_curr + diff
                y_prev = z_curr / w_i
                append(y_prev)
            y[i:stop] = swept
            past = magnitude(y[i:stop]) > _RENORM_LIMIT
            if past.any():
                end = i + int(past.argmax()) + 1
                if end < stop:  # sweep again up to the first value past
                    y_prev, z_curr, diff = saved
                    stop = end
                    continue
                mag = abs(y_prev)
                y[:stop] /= mag
                y_prev = scalar(y[stop - 1])
                z_curr /= mag
                diff /= mag
                log_scale += math.log(mag)
            i, stop = stop, min(stop + _CHUNK, n)
    if not (math.isfinite(log_scale) and math.isfinite(abs(y_prev))):
        raise DomainError("Numerov sweep started or ended outside the double range")
    return grid, log_scale


def _coefficient_grid(cfg: ShootingConfig, q: Callable[[np.ndarray], np.ndarray], log: bool):
    """(x, r, h, coef) on cfg's grid, uniform in x = ln r where log holds
    (coef is then W = r^2 q(r) - 1/4, of v'' + W v = 0 for v = u/sqrt(r)),
    else in x = r.  coef and h^2 max|coef| are built with numpy's errors
    ignored, then checked once: DomainError unless every coef is finite
    and h^2 max|coef| is small (an h^2 that overflows is too coarse)."""
    with np.errstate(all="ignore"):
        if log:
            x = np.linspace(math.log(cfg.r_min), math.log(cfg.r_max), cfg.steps)
            r = np.exp(x)
        else:
            x = r = np.linspace(cfg.r_min, cfg.r_max, cfg.steps)
        h = x[1] - x[0]
        coef = r * r * q(r) - 0.25 if log else q(r)
        worst = h * h * float(np.max(np.abs(coef)))
    if not np.all(np.isfinite(coef)):
        raise DomainError("coefficient not finite on the grid")
    if worst > _STABILITY_BOUND:
        raise DomainError(
            f"grid too coarse: h^2 max|coef| = {worst:.3g} > {_STABILITY_BOUND}; increase steps"
        )
    return x, r, h, coef


def integrate_radial(
    kind: SystemKind,
    pp: PhysicalParams,
    m_ang: float,
    energy: float,
    cfg: ShootingConfig,
    direction: Literal["outward", "inward"],
    start_values: tuple[complex, complex],
    spacing: Literal["linear", "log"] = "linear",
    q_func: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RadialSolution:
    """Numerov integration of u'' + Q(r) u = 0 over the configured window.

    start_values are u at the first two grid points in the direction of
    travel (the two smallest r for outward, the two largest for inward);
    real ones sweep on floats and complex ones on complex128 (see _numerov).
    spacing "log" integrates the transformed equation on a grid uniform in
    ln r; q_func, when given, replaces the model coefficient (for
    constant-coefficient validation runs).
    """
    if direction not in ("outward", "inward"):
        raise DomainError(f"direction must be outward or inward, got {direction!r}")
    if spacing not in ("linear", "log"):
        raise DomainError(f"spacing must be linear or log, got {spacing!r}")
    inward = direction == "inward"

    q = q_func or (lambda rr: radial_coefficient(kind, pp, m_ang, energy, rr))
    _, r, h, coef = _coefficient_grid(cfg, q, spacing == "log")
    if spacing == "linear":
        u, log_scale = _numerov(coef, h, start_values, inward)
    else:
        sqrt_r = np.sqrt(r)
        if inward:
            v_start = (start_values[0] / sqrt_r[-1], start_values[1] / sqrt_r[-2])
        else:
            v_start = (start_values[0] / sqrt_r[0], start_values[1] / sqrt_r[1])
        v, log_scale = _numerov(coef, h, v_start, inward)
        u = v * sqrt_r

    return RadialSolution(r, u, energy, m_ang, kind, log_scale)


def _phase_fit(x: np.ndarray, v: np.ndarray, m_ang: float) -> tuple[float, float, float]:
    """Fit v(x) = a sin(Mx) + b cos(Mx); returns (beta mod pi, amplitude, rel rms)."""
    design = np.column_stack([np.sin(m_ang * x), np.cos(m_ang * x)])
    sol, *_ = np.linalg.lstsq(design, v, rcond=None)
    a, b = float(sol[0]), float(sol[1])
    amp = math.hypot(a, b)
    if amp == 0.0:
        raise FitQualityError("zero amplitude in phase fit window")
    resid = v - design @ sol
    rel = float(np.sqrt(np.mean(resid * resid))) / amp
    beta = math.fmod(math.atan2(b, a), math.pi)
    if beta < 0.0:
        beta += math.pi
    return beta, amp, rel


def inward_phase(
    kind: SystemKind,
    pp: PhysicalParams,
    m_ang: float,
    energy: float,
    cfg: ShootingConfig,
) -> float:
    """Near-origin phase beta of u ~ sqrt(r) sin(M ln r + beta), in [0, pi).

    Integrates inward from r_max with the decaying start u ~ e^{-kappa r}
    (kappa = sqrt(-2mE)/hbar); the start transient dies out going inward,
    so its crudeness is harmless.  The phase is fit on r in
    [r_min, 10 r_min].  Raises FitQualityError when the rms residual
    exceeds 1e-4 of the fitted amplitude (grid too coarse or r_min not
    deep enough inside the inverse-square region).

    The returned value is reduced mod pi; callers scanning in energy must
    unwind it themselves (see shoot_eigenvalues).
    """
    if m_ang == 0.0:
        raise DomainError("phase extraction needs M != 0")
    if not energy < 0:
        raise DomainError(f"need E < 0, got {energy}")
    kappa = math.sqrt(-2.0 * pp.mass * energy) / pp.hbar

    x, r, h, coef = _coefficient_grid(
        cfg, lambda rr: radial_coefficient(kind, pp, m_ang, energy, rr), log=True
    )

    # decaying start, v = u/sqrt(r) with u ~ e^{-kappa r}
    v_end = 1.0
    v_prev = math.exp(kappa * (r[-1] - r[-2])) * math.sqrt(r[-1] / r[-2]) * v_end
    v, _ = _numerov(coef, h, (v_end, v_prev), inward=True)
    # x increases, so its points up to x[0] + ln 10 are a prefix
    end = int(np.searchsorted(x, x[0] + math.log(10.0), side="right"))
    beta, _, rel = _phase_fit(x[:end], v[:end], m_ang)
    if rel > _FIT_RESIDUAL_TOL:
        raise FitQualityError(
            f"phase fit residual {rel:.3e} exceeds {_FIT_RESIDUAL_TOL:.1e} "
            f"(E={energy:.6g}, r_min={cfg.r_min:.3g})"
        )
    return beta


def _lift(raw: float, reference: float) -> float:
    """Shift raw by a multiple of pi to land nearest the reference."""
    return raw + math.pi * round((reference - raw) / math.pi)


def shoot_eigenvalues(
    kind: SystemKind,
    pp: PhysicalParams,
    m_ang: float,
    e_window: tuple[float, float],
    count: int,
    cfg: ShootingConfig,
    tol: float = 1e-6,
) -> list[float]:
    """Eigenvalues from the numeric phase condition beta(E_n) = beta(E_0) + pi n.

    The anchor E_0 is the upper (least negative) endpoint of e_window; the
    scan walks toward the deeper endpoint, unwinding the mod-pi phase
    continuously, and returns the first `count` crossings, each within
    tol/2 of its crossing in x = ln|E| (relative energy tolerance tol/2).
    cfg describes the grid at the anchor energy; windows at other energies
    are the same grid rescaled by r0(E)/r0(E_0).

    The scan keeps only its last segment, each new phase lifted against
    the one before, so the segment's ends lie at most pi/2 apart.  The
    phase is monotone in x, so the first segment that brackets a target is
    the last one scanned; _roots.refine takes the crossing from it,
    certified to tol/2, lifting each probe against the line through the
    segment's ends.  _lift(raw, ref) depends on ref only through the
    multiple of pi it picks, and at any x in the segment that line and the
    line through any sub-bracket's ends both lie within pi/2 of the lifted
    phase, so both pick the same multiple.  Every probe runs its own
    sweep: no energy is swept twice in one call, so nothing is cached.

    Raises InsufficientRootsError when fewer than count crossings lie in
    the window.
    """
    e_lo, e_hi = e_window
    if not (e_lo < e_hi < 0):
        raise DomainError(f"window must satisfy e_lo < e_hi < 0, got {e_window}")
    if count < 1:
        raise DomainError("count must be >= 1")
    if m_ang == 0.0:
        raise DomainError("phase condition needs M != 0")
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol}")

    r0_anchor = bound_state_length(pp, e_hi)

    def beta_raw(x: float) -> float:
        energy = -math.exp(x)
        factor = bound_state_length(pp, energy) / r0_anchor
        return inward_phase(kind, pp, m_ang, energy, cfg.rescaled(factor))

    def lifted(x: float) -> float:
        """The phase at x, lifted against the line through the segment's ends."""
        return _lift(beta_raw(x), la + (lb - la) * (x - xa) / (xb - xa))

    def scan_step(x: float) -> float:
        # local level density: dbeta/dln|E| ~ |M|/2 deep, pi g/2 shallow
        g_here = 0.0
        if isinstance(kind, Coulomb):
            g_here = coulomb_scaling(pp, kind.alpha, -math.exp(x)).g
        return (math.pi / 6.0) / (abs(m_ang) / 2.0 + math.pi * g_here / 2.0)

    x_start = math.log(-e_hi)
    x_stop = math.log(-e_lo)
    sgn = math.copysign(1.0, m_ang)

    xa = xb = x_start
    first = la = lb = beta_raw(x_start)
    found: list[float] = []
    for n in range(1, count + 1):
        target = first + sgn * math.pi * n
        # extend the scan until its last segment brackets the target
        while (la - target) * (lb - target) > 0.0:
            if xb >= x_stop:
                raise InsufficientRootsError(
                    f"only {n - 1} of {count} phase crossings inside "
                    f"E in [{e_lo:.6g}, {e_hi:.6g}]"
                )
            xa, la = xb, lb
            xb = min(xa + scan_step(xa), x_stop)
            lb = _lift(beta_raw(xb), la)
        found.append(-math.exp(_roots.refine((xa, la, xb, lb), target, lifted, tol)))
    return found


def ode_residual(sol: RadialSolution, pp: PhysicalParams) -> float:
    """Scaled defect of u'' + Q u = 0: max |u''_fd + Q u| / max |Q u|.

    Central three-point second difference (handles smoothly varying
    grids); interior points only.  The grid is taken in chunks of
    _RESIDUAL_CHUNK points that overlap by the stencil's two, each with Q
    from radial_coefficient on its own radii, and only the two running
    maxima are kept: the arithmetic is elementwise and a maximum is exact,
    so the result has the bits of one whole-grid evaluation, while the
    working memory stays a few chunk-sized arrays at any grid size.

    Runs with numpy's errors ignored, and raises DomainError where the
    scale or the ratio is not finite (the maxima keep a NaN), where the
    scale is 0 (the trivial solution), and where radial_coefficient does.
    """
    r = sol.r_grid
    u = sol.u_values
    worst = scale = 0.0
    with np.errstate(all="ignore"):
        for start in range(0, len(r) - 2, _RESIDUAL_CHUNK - 2):
            rc = r[start : start + _RESIDUAL_CHUNK]
            uc = u[start : start + _RESIDUAL_CHUNK]
            q = radial_coefficient(sol.kind, pp, sol.m_ang, sol.energy, rc)
            h_minus = rc[1:-1] - rc[:-2]
            h_plus = rc[2:] - rc[1:-1]
            d2 = 2.0 * (
                (uc[2:] - uc[1:-1]) / h_plus - (uc[1:-1] - uc[:-2]) / h_minus
            ) / (h_plus + h_minus)
            # np.maximum keeps a NaN, which Python's max may drop
            worst = np.maximum(worst, np.max(np.abs(d2 + q[1:-1] * uc[1:-1])))
            scale = np.maximum(scale, np.max(np.abs(q * uc)))
        ratio = float(worst / scale)
    if scale == 0.0:
        raise DomainError("trivial solution; residual scale undefined")
    if not (math.isfinite(ratio) and math.isfinite(scale)):
        raise DomainError(
            f"ODE residual {float(worst)!r} / scale {float(scale)!r} leaves the double range"
        )
    return ratio
