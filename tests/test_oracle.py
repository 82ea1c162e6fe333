import collections
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from minkqm import oracle
from minkqm.errors import DomainError, FitQualityError, InsufficientRootsError
from minkqm.model import Coulomb, Free, NATURAL_UNITS, Oscillator, PhysicalParams
from minkqm.oracle import (
    RadialSolution,
    ShootingConfig,
    bound_state_length,
    integrate_radial,
    inward_phase,
    ode_residual,
    scaled_config,
    shoot_eigenvalues,
)
from minkqm.spectra import coulomb_scaling, coulomb_u1

PP = NATURAL_UNITS
# PP as the range errors name it
UNITS = r"PhysicalParams\(mass=1.0, hbar=1.0\)"


class TestIntegrateRadial:
    def test_ground_state_cross_check(self):
        # outward integration from analytic start stays on the analytic curve;
        # the log-spaced transformed scheme handles the singular origin
        energy = -2.0
        sc = coulomb_scaling(PP, 1.0, energy)
        cfg = ShootingConfig(0.05 * sc.r0, 30.0 * sc.r0, steps=12000)
        r = np.exp(np.linspace(math.log(cfg.r_min), math.log(cfg.r_max), cfg.steps))
        start = (
            coulomb_u1(0.5, 0.0, float(r[0] / sc.r0)),
            coulomb_u1(0.5, 0.0, float(r[1] / sc.r0)),
        )
        sol = integrate_radial(
            Coulomb(1.0), PP, 0.0, energy, cfg, "outward", start, spacing="log"
        )
        exact = np.array([coulomb_u1(0.5, 0.0, float(ri / sc.r0)) for ri in r])
        dev = float(np.max(np.abs(sol.u_values - exact)) / np.max(np.abs(exact)))
        assert dev < 1e-6
        mags = np.abs(sol.u_values)
        assert mags[-1] / mags.max() < 1e-4

    def test_log_spacing_matches_linear(self):
        energy = -2.0
        cfg = ShootingConfig(0.1, 5.0, steps=8000)
        r_log = np.exp(np.linspace(math.log(0.1), math.log(5.0), cfg.steps))
        start = (
            coulomb_u1(0.5, 0.0, float(r_log[-1] / 0.25)),
            coulomb_u1(0.5, 0.0, float(r_log[-2] / 0.25)),
        )
        sol = integrate_radial(Coulomb(1.0), PP, 0.0, energy, cfg, "inward", start, spacing="log")
        exact = np.array([coulomb_u1(0.5, 0.0, float(ri / 0.25)) for ri in r_log])
        dev = float(np.max(np.abs(sol.u_values - exact)) / np.max(np.abs(exact)))
        assert dev < 1e-6

    def test_renormalization_bookkeeping(self):
        # growing solution overflows the guard; samples stay finite and the
        # accumulated log scale is recorded
        cfg = ShootingConfig(1.0, 500.0, steps=200000)
        sol = integrate_radial(
            Free(), PP, 0.0, -1.0, cfg, "outward",
            (1e90, 1e90 * math.exp(500.0 / 199999 * 1.0)),
            q_func=lambda rr: -np.ones_like(rr),
        )
        assert sol.log_scale > 0.0
        assert np.all(np.isfinite(sol.u_values.view(float)))

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize(
        "start",
        [complex(math.inf), complex(math.inf, math.inf), complex(math.nan), 1.7e308 + 1e308j],
        ids=str,
    )
    def test_complex_start_out_of_range_raises_quietly(self, spacing, start):
        # |1.7e308 + 1e308j| overflows: Python's complex abs raises
        # OverflowError there and numpy's returns inf
        cfg = ShootingConfig(1.0, 2.0, steps=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="Numerov sweep"):
                integrate_radial(
                    Free(), PP, 0.0, -1.0, cfg, "outward", (start, start), spacing,
                    q_func=lambda rr: -np.ones_like(rr),
                )

    def test_real_start_near_the_top_of_the_range_rescales(self):
        cfg = ShootingConfig(1.0, 2.0, steps=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = integrate_radial(
                Free(), PP, 0.0, -1.0, cfg, "outward", (1.7e308, 1.7e308),
                q_func=lambda rr: -np.ones_like(rr),
            )
        assert sol.log_scale == pytest.approx(709.7268378952308, rel=1e-15)
        assert np.all(np.isfinite(sol.u_values.view(float)))

    def test_real_start_takes_the_float_sweep(self):
        cfg = ShootingConfig(1.0, 10.0, steps=2000)
        r = np.linspace(cfg.r_min, cfg.r_max, cfg.steps)
        start = (math.exp(-r[-1]), math.exp(-r[-2]))
        sol = integrate_radial(
            Free(), PP, 0.0, -1.0, cfg, "inward", start, q_func=lambda rr: -np.ones_like(rr)
        )
        want, _ = oracle._numerov(-np.ones_like(r), r[1] - r[0], start, inward=True)
        assert want.dtype == np.float64
        assert sol.u_values.tobytes() == want.astype(complex).tobytes()

    def test_grid_too_coarse_rejected(self):
        cfg = ShootingConfig(0.001, 100.0, steps=1000)
        with pytest.raises(DomainError, match="steps"):
            integrate_radial(Free(), PP, 5.0, -50.0, cfg, "outward", (1.0, 1.0))

    def test_r_squared_underflow_rejected_quietly(self):
        # r_min^2 underflows to 0: numpy warned "divide by zero" before the
        # stability check refused the infinite coefficient
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                DomainError,
                match=rf"radial coefficient Q\(r\) of Free\(\) at {UNITS}, M=2.0, E=-1.0 "
                "is not finite at r=1e-170: it leaves the double range",
            ):
                integrate_radial(
                    Free(), PP, 2.0, -1.0, ShootingConfig(1e-170, 1.0, 1000), "outward", (0.0, 1e-3)
                )

    def test_potential_overflow_is_a_domain_error_in_the_sweeps(self):
        # (m omega^2/2) r^2 overflows at r = 1e200: a bare RuntimeWarning before
        cfg = ShootingConfig(1.0, 1e200, 1000)
        match = (
            rf"radial coefficient Q\(r\) of Oscillator\(omega=1.0\) at {UNITS}, M=1.0, E=-1.0 "
            r"is not finite at r=1.001001001001001e\+197: it leaves the double range"
        )
        for direction in ("outward", "inward"):
            with pytest.raises(DomainError, match=match):
                integrate_radial(Oscillator(1.0), PP, 1.0, -1.0, cfg, direction, (1.0, 1.0))

    @pytest.mark.parametrize(
        "kind, r_max", [(Free(), 1e308), (Coulomb(1.0), 1e200)], ids=["free", "coulomb"]
    )
    def test_step_whose_square_overflows_is_too_coarse(self, kind, r_max):
        # r * r in radial_coefficient past r ~ 1.34e154, then h * h in the
        # stability check, raised a bare RuntimeWarning
        cfg = ShootingConfig(1.0, r_max, 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"grid too coarse: h\^2 max\|coef\| = inf > 0.01"):
                integrate_radial(kind, PP, 0.0, -1.0, cfg, "outward", (1.0, 1.0))

    def test_log_grid_coefficient_past_the_double_range_raises(self):
        # W = r^2 Q - 1/4 overflows at r ~ 1e154 on the log grid: a bare
        # "overflow encountered in multiply" before
        cfg = ShootingConfig(1.0, 1e200, 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="coefficient not finite on the grid"):
                inward_phase(Free(), PP, 1.0, -1.0, cfg)
            with pytest.raises(DomainError, match="coefficient not finite on the grid"):
                integrate_radial(Coulomb(1.0), PP, 1.0, -1.0, cfg, "outward", (1.0, 1.0), "log")

    def test_bad_direction_rejected(self):
        cfg = ShootingConfig(1.0, 2.0, steps=1000)
        with pytest.raises(DomainError):
            integrate_radial(Free(), PP, 0.0, -1.0, cfg, "sideways", (1.0, 1.0))

    def test_non_finite_coefficient_rejected(self):
        # both spacings and the inward phase share one finiteness check
        cfg = ShootingConfig(0.05, 10.0, steps=2000)
        for spacing in ("linear", "log"):
            with pytest.raises(DomainError, match="coefficient not finite on the grid"):
                integrate_radial(
                    Coulomb(1.0), PP, math.nan, -1.0, cfg, "inward", (1.0, 1.0), spacing
                )


class TestNumerovKernel:
    """The one-direction kernel against the two-direction loop it replaced."""

    def test_matches_two_direction_loop_bit_for_bit(self):
        rng = random.Random("numerov-one-direction")
        renormalised = 0
        for i in range(24):
            n = rng.choice((3, 4, 50, 1000))
            h = rng.uniform(1e-3, 5e-2)
            coef = np.array([rng.uniform(-40.0, 40.0) for _ in range(n)])
            if i % 4 == 0:
                coef = np.full(1000, -0.1 / (h * h))  # grows past 1e100 twice
            start = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if i % 2:
                start = (complex(start[0], rng.uniform(-1, 1)), complex(start[1], -0.0))
            for inward in (False, True):
                want, want_scale = _two_direction_numerov(coef, h, start, inward)
                got, got_scale = oracle._numerov(coef, h, start, inward)
                assert got.dtype == want.dtype and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (i, inward)
                assert got_scale == want_scale
                renormalised += got_scale > 0.0
        assert renormalised >= 2

    def test_renormalising_radial_sweeps_bit_for_bit(self):
        # integrate_radial in both directions on both grids, each with a
        # growing solution that the kernel rescales on the way
        cfg = ShootingConfig(1.0, 500.0, steps=20000)
        start = (1e90, 1.01e90)
        for spacing, q in (("linear", -1.0), ("log", -1400.0)):
            def q_func(rr):
                return q / rr ** (2 if spacing == "log" else 0)

            if spacing == "log":
                x = np.linspace(math.log(cfg.r_min), math.log(cfg.r_max), cfg.steps)
                r, h = np.exp(x), x[1] - x[0]
                coef, scale = r * r * q_func(r) - 0.25, np.sqrt(r)
            else:
                r = np.linspace(cfg.r_min, cfg.r_max, cfg.steps)
                h, coef, scale = r[1] - r[0], q_func(r), np.ones_like(r)
            for direction, ends in (("outward", (0, 1)), ("inward", (-1, -2))):
                sol = integrate_radial(
                    Free(), PP, 0.0, -1.0, cfg, direction, start, spacing, q_func
                )
                v_start = tuple(u / scale[e] for u, e in zip(start, ends))
                want, want_scale = _two_direction_numerov(
                    coef, h, v_start, direction == "inward"
                )
                assert sol.log_scale == want_scale > 0.0
                assert sol.u_values.tobytes() == (want * scale).astype(complex).tobytes()

    @pytest.mark.parametrize("inward", [False, True], ids=["outward", "inward"])
    @pytest.mark.parametrize(
        "where",
        [
            "first point", "second chunk's first point", "first chunk's last point",
            "second chunk's last point", "sweep's last point",
        ],
    )
    def test_first_value_past_the_limit_at_a_chunk_edge(self, where, inward):
        # The kernel tests the range once per chunk of _CHUNK steps, the
        # first of which makes point 2.  A sweep first passes 1e100 at the
        # named point and keeps growing, so it rescales again later.
        chunk, n = oracle._CHUNK, 3 * oracle._CHUNK
        target = {
            "first point": 2,
            "second chunk's first point": 2 + chunk,
            "first chunk's last point": 1 + chunk,
            "second chunk's last point": 1 + 2 * chunk,
            "sweep's last point": n - 1,
        }[where]
        for base in ((1.0, 1.0), (complex(1.0, -0.5), complex(1.0, 0.25))):
            coef, start = _first_past_the_limit_at(target, n, 0.01, base, inward)
            want = _reference_outcome(coef, 0.01, start, inward)
            assert want[2] > 0.0
            assert _kernel_outcome(coef, 0.01, start, inward) == want

    @pytest.mark.parametrize(
        "start", [(1.0, 1.1), (complex(0.3, 1.0), complex(-0.0, 1.1)), (1e99, 1e300)], ids=str
    )
    def test_many_rescales_inside_one_chunk(self, start):
        # growth of about e^2 a step passes 1e100 every 115 steps or so
        h = 0.02
        coef = np.full(3 * oracle._CHUNK, -4.0 / (h * h))
        for inward in (False, True):
            want = _reference_outcome(coef, h, start, inward)
            assert want[2] > 20 * math.log(1e100)
            assert _kernel_outcome(coef, h, start, inward) == want

    def test_complex_range_test_rounds_as_the_scalar_abs(self):
        # numpy's abs of a complex array (a SIMD loop on AVX-512 hosts)
        # can differ in the last bit from the scalar abs that the rescale
        # divides by; near |y| = 1e100 that decides whether a value
        # rescales.  With coef = 0 and start (v, v) every value is v.
        rng = random.Random("complex-range-test")
        values = []
        for _ in range(4000):
            t = rng.uniform(0.0, 2.0 * math.pi)
            values.append(complex(1e100 * math.cos(t), 1e100 * math.sin(t)))
        by_array = np.abs(np.array(values)) > 1e100
        split = [v for v, a in zip(values, by_array) if a != (abs(np.complex128(v)) > 1e100)]
        coef = np.zeros(oracle._CHUNK + 8)
        for v in (split[:2] + split[-2:]) or values[:4]:
            for inward in (False, True):
                want = _reference_outcome(coef, 0.01, (v, v), inward)
                assert _kernel_outcome(coef, 0.01, (v, v), inward) == want, v

    def test_three_points(self):
        # one step; the second start passes 1e100 but is not tested, the
        # step's value is
        h = 0.1
        for coef in (np.array([-1.0, 2.0, -300.0]), np.array([-40.0, -50.0, -60.0])):
            for start in ((1e99, 1.2e99), (1e99, 1e101), (complex(1e99, 1.0), complex(5e99, -0.0))):
                for inward in (False, True):
                    want = _reference_outcome(coef, h, start, inward)
                    assert _kernel_outcome(coef, h, start, inward) == want
        assert _reference_outcome(np.array([-40.0, -50.0, -60.0]), h, (1e99, 1e101), False)[2] > 0.0

    @pytest.mark.parametrize(
        "start",
        [
            (math.inf, 1.0), (1.0, -math.inf), (math.nan, 1.0), (1.0, math.nan),
            (complex(math.inf), 1.0), (1.0, complex(0.0, math.nan)),
        ],
        ids=str,
    )
    def test_start_outside_the_range(self, start):
        # the sweep runs to its end and raises there, whether or not it
        # rescaled on the way
        h = 0.01
        rng = random.Random(str(start))
        coef = np.array([rng.uniform(-40.0, 40.0) for _ in range(2 * oracle._CHUNK + 5)])
        for c in (coef, np.full(coef.size, -1.0 / (h * h))):
            for inward in (False, True):
                want = _reference_outcome(c, h, start, inward)
                assert want[0] is DomainError
                assert _kernel_outcome(c, h, start, inward) == want


def _first_past_the_limit_at(target, n, h, start, inward):
    """(coef, start) for a sweep of n points from start, scaled by a power
    of 2, whose values in the direction of travel stay within 1e100 up to
    point target and pass it there.  The coefficient is 0 (y stays at its
    start) up to 30 points before target and -1/h^2 (growth of about e a
    step) from there on."""
    travel = np.zeros(n)
    travel[max(target - 30, 0):] = -1.0 / (h * h)
    y, _ = _two_direction_numerov(travel[: target + 1], h, start, False)  # up to e^30
    below, past = float(np.max(np.abs(y[:target]))), float(abs(y[target]))
    scale = 2.0 ** math.floor(math.log2(1e100 / below))  # exact: values scale by it
    assert below * scale <= 1e100 < past * scale
    start = (start[0] * scale, start[1] * scale)
    return (travel[::-1].copy() if inward else travel), start


def _reference_outcome(coef, h, start, inward):
    """_two_direction_numerov's values with the kernel's range rule: a
    DomainError where the log scale or the last value is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        y, log_scale = _two_direction_numerov(coef, h, start, inward)
    if not (math.isfinite(log_scale) and math.isfinite(abs(y[0] if inward else y[-1]))):
        return DomainError, "Numerov sweep started or ended outside the double range"
    return y.dtype, y.tobytes(), log_scale


def _kernel_outcome(coef, h, start, inward):
    """oracle._numerov's values, dtype and log scale, or its error; a numpy
    warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            y, log_scale = oracle._numerov(coef, h, start, inward)
        except DomainError as exc:
            return DomainError, str(exc)
    assert y.flags.c_contiguous
    return y.dtype, y.tobytes(), log_scale


def _two_direction_numerov(coef, h, start, inward):
    """The summed Numerov recurrence run in either direction by index
    bookkeeping, as the kernel did before it swept outward only."""
    n = coef.size
    h2 = h * h
    w = 1.0 + (h2 / 12.0) * coef
    y = np.zeros(n, dtype=np.result_type(*start))
    log_scale = 0.0
    if inward:
        y[n - 1], y[n - 2] = start
        rng, offs = range(n - 3, -1, -1), 1
    else:
        y[0], y[1] = start
        rng, offs = range(2, n), -1
    i_prev = n - 2 if inward else 1
    i_first = n - 1 if inward else 0
    z_curr = w[i_prev] * y[i_prev]
    diff = z_curr - w[i_first] * y[i_first]
    for i in rng:
        diff = diff - h2 * coef[i + offs] * y[i + offs]
        z_curr = z_curr + diff
        y[i] = z_curr / w[i]
        mag = abs(y[i])
        if mag > 1e100:
            y /= mag
            z_curr /= mag
            diff /= mag
            log_scale += math.log(mag)
    return y, log_scale


class TestRadialSolution:
    def test_validation(self):
        with pytest.raises(DomainError):
            RadialSolution(np.array([1.0, 2.0]), np.array([1.0, 2.0]), -1.0, 0.0, Free())
        with pytest.raises(DomainError):
            RadialSolution(
                np.array([1.0, 0.5, 2.0]), np.array([1.0, 2.0, 3.0]), -1.0, 0.0, Free()
            )

    def test_strided_complex_amplitude(self):
        # a complex u that is not contiguous raised numpy's untyped
        # ValueError from u.view(float); its finiteness is tested as it is
        r = np.array([1.0, 2.0, 3.0])
        u = (np.arange(6) + 1j)[::2]
        sol = RadialSolution(r, u, -1.0, 0.0, Free())
        assert sol.u_values.tolist() == [1j, 2 + 1j, 4 + 1j]
        for bad in (complex(0.0, math.inf), complex(math.nan, 0.0)):
            strided = np.array([1.0, 0.0, bad, 0.0, 2.0, 0.0])[::2]
            with pytest.raises(DomainError, match="non-finite grid or amplitude values"):
                RadialSolution(r, strided, -1.0, 0.0, Free())


def _whole_grid_residual(sol, pp):
    """ode_residual's reference: the same arithmetic on the whole grid at once."""
    r = sol.r_grid
    u = sol.u_values
    q = oracle.radial_coefficient(sol.kind, pp, sol.m_ang, sol.energy, r)
    h_minus = r[1:-1] - r[:-2]
    h_plus = r[2:] - r[1:-1]
    d2 = 2.0 * (
        (u[2:] - u[1:-1]) / h_plus - (u[1:-1] - u[:-2]) / h_minus
    ) / (h_plus + h_minus)
    residual = np.abs(d2 + q[1:-1] * u[1:-1])
    return float(np.max(residual) / np.max(np.abs(q * u)))


_C = oracle._RESIDUAL_CHUNK


class TestOdeResidual:
    def test_generic_function_fails(self):
        r = np.linspace(0.5, 10.0, 2000)
        u = np.exp(-((r - 3) ** 2))  # not a solution
        sol = RadialSolution(r, u, -1.0, 1.0, Free())
        assert ode_residual(sol, PP) > 0.1

    @pytest.mark.parametrize(
        "n", [3, _C - 1, _C, _C + 1, _C + 2, _C + 3, 3 * _C + 5],
        ids=["3", "C-1", "C", "C+1", "C+2", "C+3", "3C+5"],
    )
    def test_chunks_keep_the_whole_grid_bits(self, n):
        # the chunked sweep must return the bits of the whole-grid arithmetic
        # on grids that end just before, on and just past a chunk edge
        rng = np.random.default_rng(n)
        uniform = np.linspace(0.05, 20.0, n)
        jittered = uniform + rng.uniform(0.0, 0.3, n) * (uniform[1] - uniform[0])
        pp = PhysicalParams(1.3, 0.9)
        for r in (uniform, jittered):
            real = np.exp(-0.1 * r) * np.sin(r) + rng.uniform(-1e-3, 1e-3, n)
            for u in (real, real + 1j * np.cos(2.0 * r)):
                for kind in (Free(), Oscillator(0.7), Coulomb(1.3)):
                    for m_ang in (0.0, 1.7):
                        sol = RadialSolution(r, u, -0.8, m_ang, kind)
                        assert float(ode_residual(sol, pp)).hex() == float(
                            _whole_grid_residual(sol, pp)
                        ).hex()

    def test_every_point_is_seen(self):
        # a spike at one point sets both maxima, so a point that no chunk
        # covers, or covers only as a stencil end, changes the result
        n = 3 * _C + 5
        r = np.linspace(0.05, 20.0, n)
        edges = [k * (_C - 2) + d for k in range(4) for d in (-2, -1, 0, 1, 2)]
        for spike in sorted({min(max(e, 0), n - 1) for e in edges + [n - 1]}):
            u = np.exp(-0.1 * r) * np.sin(r)
            u[spike] = 1e3
            sol = RadialSolution(r, u, -0.8, 1.7, Coulomb(1.3))
            assert float(ode_residual(sol, PP)).hex() == float(_whole_grid_residual(sol, PP)).hex()

    @pytest.mark.parametrize("n", [3, 3 * _C + 5])
    def test_zero_scale_is_the_trivial_solution(self, n):
        sol = RadialSolution(np.linspace(1.0, 2.0, n), np.zeros(n), -1.0, 1.0, Free())
        with pytest.raises(DomainError, match="trivial solution; residual scale undefined"):
            ode_residual(sol, PP)

    def test_working_memory_does_not_grow_with_the_grid(self):
        # the whole-grid evaluation peaked at 14.4 MB on this grid
        r = np.linspace(0.05, 20.0, 200_000)
        sol = RadialSolution(r, np.sin(r), -0.8, 1.0, Coulomb(1.0))
        tracemalloc.start()
        try:
            ode_residual(sol, PP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "r, u, match",
        [
            # Q is inf at r = 1e-160 and u is 0 there: nan, with warnings
            ([1e-160, 2e-160, 3e-160], [0.0, 1.0, 2.0],
             rf"radial coefficient Q\(r\) of Free\(\) at {UNITS}, M=1.0, E=-1.0 "
             "is not finite at r=1e-160: it leaves the double range"),
            # the difference quotient over h = 2^-52 overflows: nan
            ([1.0, 1.0 + 2**-52, 3.0], [1e300, -1e300, 1e300],
             r"ODE residual nan / scale 1.8611111111111114e\+300 leaves the double range"),
        ],
        ids=["Q-inf", "quotient-overflow"],
    )
    def test_values_past_the_double_range_raise(self, r, u, match):
        sol = RadialSolution(r, u, -1.0, 1.0, Free())
        with pytest.raises(DomainError, match=match):
            ode_residual(sol, PP)

    def test_ratio_past_the_double_range_raises(self):
        # Q is exactly 0 at r = 1 (E = -1/8, M = 0), so the scale is the
        # subnormal |Q u| at r = 3 and defect / scale overflowed to inf
        sol = RadialSolution([1.0, 2.0, 3.0], [1.0, 0.0, 1e-320], -0.125, 0.0, Free())
        with pytest.raises(DomainError, match=r"ODE residual 1.0 / scale \S+ leaves the double range"):
            ode_residual(sol, PP)

    def test_coarse_residual_grid_is_the_fine_grids_even_points(self):
        # verify's and criterion 12's h = 1e-3 residual takes the even points
        # of the h = 5e-4 grid and its u1 values, so each u1 grid is summed
        # once: the two grids must hold the same doubles, and a strided
        # solution must give the residual of the contiguous one
        coarse = np.arange(1.0, 30.0, 1e-3)
        fine = np.arange(1.0, 30.0, 5e-4)
        assert coarse.tobytes() == fine[::2].tobytes()
        for g in (0.5, 1.5, 2.5):
            r0 = coulomb_scaling(PP, 1.0, -1.0 / (2 * g * g)).r0
            assert (coarse * r0).tobytes() == (fine * r0)[::2].tobytes()
        r = fine[:3 * _C + 5] * 0.25
        u = np.exp(-r) * (r - 0.5) + 1j * np.exp(-2.0 * r)
        strided = RadialSolution(r[::2], u[::2], -2.0, 0.0, Coulomb(1.0))
        contiguous = RadialSolution(r[::2].copy(), u[::2].copy(), -2.0, 0.0, Coulomb(1.0))
        assert float(ode_residual(strided, PP)).hex() == float(ode_residual(contiguous, PP)).hex()

    def test_angular_overflow_is_a_domain_error_in_the_sweeps(self):
        # a bare RuntimeWarning from radial_coefficient's overflow before
        cfg = ShootingConfig(1e-160, 1e-150, 1000)
        what = rf"radial coefficient Q\(r\) of Free\(\) at {UNITS}, M=1.0, E=-1.0 "
        with pytest.raises(
            DomainError, match=what + "is not finite at r=1e-160: it leaves the double range"
        ):
            integrate_radial(Free(), PP, 1.0, -1.0, cfg, "outward", (1.0, 1.0))
        # the log grid's first radius is e^(ln 1e-160)
        with pytest.raises(
            DomainError,
            match=what + "is not finite at r=9.999999999999937e-161: it leaves the double range",
        ):
            inward_phase(Free(), PP, 1.0, -1.0, cfg)


class TestShootingConfig:
    @pytest.mark.parametrize(
        "cfg, match",
        [
            # accepted; the sweeps then raised a bare RuntimeWarning
            (lambda: ShootingConfig(1.0, math.inf, 1000), "need a finite r_max, got inf"),
            (lambda: ShootingConfig(1.0, 2.0, 1000).rescaled(1e308), "need a finite r_max"),
            # accepted; integrate_radial then raised an untyped TypeError
            (lambda: ShootingConfig(1.0, 2.0, 1000.5), "steps must be an integer, got 1000.5"),
            (lambda: ShootingConfig(1.0, 2.0, 1000.0), "steps must be an integer, got 1000.0"),
        ],
        ids=["inf-window", "rescaled-to-inf", "fractional-steps", "float-steps"],
    )
    def test_windows_the_sweeps_cannot_take_are_refused(self, cfg, match):
        with pytest.raises(DomainError, match=match):
            cfg()

    def test_numpy_int_steps_stay_valid(self):
        cfg = ShootingConfig(1.0, 2.0, np.int64(1000))
        assert cfg.rescaled(2.0) == ShootingConfig(2.0, 4.0, 1000)
        sol = integrate_radial(Free(), PP, 0.0, -1.0, cfg, "outward", (1.0, 1.0))
        assert sol.u_values.size == 1000


class TestInwardPhase:
    def test_m_negation_mirrors_phase(self):
        energy = -1.0
        cfg = scaled_config(PP, energy, min_factor=1e-6)
        bp = inward_phase(Coulomb(1.0), PP, 1.0, energy, cfg)
        bm = inward_phase(Coulomb(1.0), PP, -1.0, energy, cfg)
        d = math.fmod(bp + bm, math.pi)
        assert min(abs(d), math.pi - abs(d)) < 1e-6

    def test_fit_quality_error_when_window_too_far_out(self):
        energy = -1.0
        r0 = bound_state_length(PP, energy)
        cfg = ShootingConfig(0.8 * r0, 50.0 * r0, steps=6000)
        with pytest.raises(FitQualityError):
            inward_phase(Coulomb(1.0), PP, 1.0, energy, cfg)

    def test_m_zero_rejected(self):
        with pytest.raises(DomainError):
            inward_phase(Free(), PP, 0.0, -1.0, scaled_config(PP, -1.0))

    @pytest.mark.parametrize(
        "m_ang, energy",
        [(math.nan, -1.0), (math.inf, -1.0), (-math.inf, -1.0), (1.0, -math.inf)],
        ids=["M-nan", "M-inf", "M-minus-inf", "E-minus-inf"],
    )
    def test_non_finite_parameters_rejected_quietly(self, capfd, m_ang, energy):
        # M = nan reached LAPACK, which printed to stderr and then raised
        # LinAlgError; the infinite cases blamed the step count
        cfg = scaled_config(PP, -1.0, min_factor=1e-5)
        with pytest.raises(DomainError, match="coefficient not finite on the grid"):
            inward_phase(Coulomb(1.0), PP, m_ang, energy, cfg)
        assert capfd.readouterr() == ("", "")


class TestShootEigenvalues:
    def test_free_particle_exact_ratios(self):
        cfg = scaled_config(PP, -1.0, min_factor=1e-5, steps=6000)
        shot = shoot_eigenvalues(Free(), PP, 1.0, (-1e9, -1.0), 2, cfg, tol=1e-9)
        tgt = math.exp(2 * math.pi)
        assert shot[0] / -1.0 == pytest.approx(tgt, rel=1e-6)
        assert shot[1] / shot[0] == pytest.approx(tgt, rel=1e-6)

    def test_deep_coulomb_ratios(self):
        cfg = scaled_config(PP, -1e6, min_factor=1e-5, steps=6000)
        shot = shoot_eigenvalues(Coulomb(1.0), PP, 1.0, (-1e12, -1e6), 2, cfg, tol=1e-7)
        assert shot[1] / shot[0] == pytest.approx(math.exp(2 * math.pi), rel=1e-3)

    def test_insufficient_roots(self):
        cfg = scaled_config(PP, -1.0, min_factor=1e-5, steps=6000)
        with pytest.raises(InsufficientRootsError):
            shoot_eigenvalues(Free(), PP, 1.0, (-10.0, -1.0), 2, cfg)

    def test_window_validation(self):
        cfg = scaled_config(PP, -1.0)
        with pytest.raises(DomainError):
            shoot_eigenvalues(Free(), PP, 1.0, (-1.0, -10.0), 1, cfg)

    @pytest.mark.parametrize("m_ang", [math.nan, math.inf, -math.inf])
    def test_non_finite_m_rejected_quietly(self, capfd, m_ang):
        cfg = scaled_config(PP, -1.0, min_factor=1e-5)
        with pytest.raises(DomainError, match="coefficient not finite on the grid"):
            shoot_eigenvalues(Coulomb(1.0), PP, m_ang, (-1e9, -1.0), 2, cfg)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        # tol = inf returned the midpoints of the scan brackets, [-39.76,
        # -26015.5], for levels at [-48.72, -19087.4]
        cfg = scaled_config(PP, -1.0, min_factor=1e-5)
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            shoot_eigenvalues(Coulomb(1.0), PP, 1.0, (-1e9, -1.0), 2, cfg, tol=tol)


def _certified_shots(kind, pp, m_ang, e_window, count, cfg, tol):
    """The shot levels, each checked to lie within tol/2 of its crossing in
    ln|E|: the phase at ln|E| -+ tol/2, lifted to the target, falls on
    either side of the target beta(E_0) + pi n."""
    r0_anchor = bound_state_length(pp, e_window[1])

    def beta(x):
        energy = -math.exp(x)
        factor = bound_state_length(pp, energy) / r0_anchor
        return oracle.inward_phase(kind, pp, m_ang, energy, cfg.rescaled(factor))

    beta0 = beta(math.log(-e_window[1]))
    levels = shoot_eigenvalues(kind, pp, m_ang, e_window, count, cfg, tol)
    for n, energy in enumerate(levels, 1):
        x, target = math.log(-energy), beta0 + math.copysign(math.pi, m_ang) * n
        short, past = (oracle._lift(beta(x + d * tol / 2), target) - target for d in (-1, 1))
        assert short * past <= 0.0, (n, energy)
    return levels


def _shoot_step_phase(monkeypatch, slope, flat, tol=1e-9):
    """Two free levels at M = 1 from ln|E| = 0, with a phase that climbs at
    slope from 0.3 to the first target, sits exactly on it for flat in
    ln|E|, then climbs on; returns their ln|E|, the first target's start
    and the sweep count."""
    step_lo = math.pi / slope
    sweeps = []

    def phase(kind, pp, m_ang, energy, cfg):
        x = math.log(-energy)
        sweeps.append(x)
        if step_lo <= x <= step_lo + flat:
            return 0.3
        return (0.3 + slope * (x - (flat if x > step_lo else 0.0))) % math.pi

    monkeypatch.setattr(oracle, "inward_phase", phase)
    cfg = scaled_config(PP, -1.0, min_factor=1e-6)
    levels = shoot_eigenvalues(Free(), PP, 1.0, (-1e9, -1.0), 2, cfg, tol)
    return [math.log(-e) for e in levels], step_lo, len(sweeps)


class TestShootParity:
    """Every shot level lies within tol/2 of its phase crossing in ln|E|."""

    def test_random_windows_are_certified(self):
        rng = random.Random("shoot-replay")
        shot = 0
        for kind in (Coulomb(1.0), Free()):
            for sign in (1.0, -1.0):
                for _ in range(2):
                    m_ang = sign * rng.uniform(0.5, 2.0)
                    e_hi = -math.exp(rng.uniform(math.log(0.1), math.log(1e3)))
                    count = rng.randint(1, 3)
                    e_lo = e_hi * math.exp(2.0 * math.pi * (count + 1) / abs(m_ang))
                    tol = 10.0 ** rng.uniform(-9.0, -7.0)
                    cfg = scaled_config(PP, e_hi, min_factor=1e-6, steps=6000)
                    shot += len(_certified_shots(kind, PP, m_ang, (e_lo, e_hi), count, cfg, tol))
        assert shot >= 12

    def test_no_energy_is_swept_twice_in_one_call(self, monkeypatch):
        # shoot_eigenvalues keeps no phases: each probe of the scan and of
        # refine must be a new energy, at fine and coarse tol alike
        swept = collections.Counter()
        sweep = oracle.inward_phase

        def counted(kind, pp, m_ang, energy, cfg):
            swept[energy] += 1
            return sweep(kind, pp, m_ang, energy, cfg)

        monkeypatch.setattr(oracle, "inward_phase", counted)
        rng = random.Random("shoot-sweeps")
        shot = 0
        for kind in (Coulomb(1.0), Free()):
            for sign in (1.0, -1.0):
                for tol in (10.0 ** rng.uniform(-9.0, -7.0), 10.0 ** rng.uniform(-3.0, -1.0)):
                    m_ang = sign * rng.uniform(0.5, 2.0)
                    e_hi = -math.exp(rng.uniform(math.log(0.1), math.log(1e3)))
                    count = rng.randint(1, 3)
                    e_lo = e_hi * math.exp(2.0 * math.pi * (count + 1) / abs(m_ang))
                    cfg = scaled_config(PP, e_hi, min_factor=1e-6, steps=6000)
                    swept.clear()
                    shot += len(shoot_eigenvalues(kind, PP, m_ang, (e_lo, e_hi), count, cfg, tol))
                    assert swept and max(swept.values()) == 1, (kind, m_ang, tol)
        assert shot >= 12

    def test_tol_wider_than_the_scan_segment_matches_reference(self):
        # The free particle's scan segments at |M| = 1 are pi/3 wide in
        # ln|E|, less than tol = 2, so each level is its segment's midpoint,
        # ln|E| = 6.5 pi/3 and 12.5 pi/3, as the scan and bisection gave it
        cfg = scaled_config(PP, -1.0, min_factor=1e-6, steps=6000)
        for m_ang in (1.0, -1.0):
            args = (Free(), PP, m_ang, (-math.exp(6.0 * math.pi), -1.0), 2, cfg, 2.0)
            assert [e.hex() for e in shoot_eigenvalues(*args)] == [
                "-0x1.c3fac2cdf7766p+9", "-0x1.d8b7a27d5bc37p+18"
            ]

    def test_failed_certificate_falls_back_to_bisection(self, monkeypatch):
        # The Illinois estimate lands on the flat step, where ln|E| - tol/2
        # is not short of the target, so the level comes from bisecting the
        # last bracket, in some 30 sweeps: the step's start
        (x1, x2), step_lo, sweeps = _shoot_step_phase(monkeypatch, 0.55, 0.04)
        assert abs(x1 - step_lo) <= 1e-9 / 2 and abs(x2 - (step_lo + 0.04 + step_lo)) <= 1e-9 / 2
        assert sweeps > 30

    def test_exact_hit_at_a_scan_point_is_the_level(self, monkeypatch):
        # at slope 1 the phase is the first target exactly at pi, the third
        # scan point (pi/3 apart at M = 1)
        (x1, _), step_lo, _ = _shoot_step_phase(monkeypatch, 1.0, 0.0)
        assert x1 == step_lo == math.pi
