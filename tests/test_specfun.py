"""Special-function tests.

Complex reference values were computed offline with 40-digit arbitrary
precision arithmetic and frozen here as literals.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkqm.errors import ConvergenceError, DomainError, PoleError
from minkqm.specfun import (
    KummerParams,
    kummer_asymptotic,
    kummer_m,
    kummer_second,
    ln_gamma,
)

# 40-digit offline references
LN_GAMMA_1_2I = complex(-1.8760787864309293, 0.12964631630978831)
KUMMER_M_EX = complex(5.8129515019609662, -1.4869233347423615)  # F(0.5+i, 1+2i, 3)
KUMMER_SECOND_EX = complex(-0.26399243137033959, -1.6566352153270257)


class TestLnGamma:
    def test_gamma_one(self):
        assert ln_gamma(1.0) == 0.0

    def test_gamma_half(self):
        assert ln_gamma(0.5).real == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-15)
        assert ln_gamma(0.5).imag == 0.0

    def test_complex_reference_value(self):
        got = ln_gamma(complex(1, 2))
        assert abs(got - LN_GAMMA_1_2I) < 1e-14

    @pytest.mark.parametrize("z", [0.0, -1.0, -7.0, complex(-3.0, 5e-15)])
    def test_pole_error(self, z):
        with pytest.raises(PoleError):
            ln_gamma(z)

    def test_recurrence_on_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = complex(rng.uniform(0.05, 19.0), rng.uniform(-19.0, 19.0))
            if abs(z) > 20:
                continue
            dev = abs(cmath.exp(ln_gamma(z + 1) - ln_gamma(z)) / z - 1.0)
            assert dev < 1e-12

    def test_exp_matches_gamma_for_moderate_moduli(self):
        # |exp(ln_gamma)| round trip on integers: Gamma(n) = (n-1)!
        for n in range(2, 15):
            got = cmath.exp(ln_gamma(float(n)))
            assert got.real == pytest.approx(math.factorial(n - 1), rel=1e-12)

    def test_conjugation_is_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = complex(rng.uniform(-10, 10), rng.uniform(0.1, 10))
            assert ln_gamma(z.conjugate()) == ln_gamma(z).conjugate()

    def test_reflection_region_against_recurrence(self):
        # push a left-half-plane argument to the right half via Gamma(z+n)
        z = complex(-4.3, 1.7)
        shift = ln_gamma(z + 8)
        acc = 0j
        for k in range(8):
            acc += cmath.log(z + k)
        # both sides continuous off the cut; equality up to rounding
        assert abs((shift - acc) - ln_gamma(z)) < 1e-12

    @pytest.mark.parametrize(
        "z, want",
        [
            (complex(0.5, 7.0), complex(-10.0766357543596036, 6.62733055699213922)),
            (complex(3.2, -1.4), complex(0.540338392415868939, -1.45501079233741482)),
            (complex(12.0, 25.0), complex(-0.952396666044918663, 70.9786059871348101)),
            (complex(-1.5, 1.0), complex(-1.35368991803230085, -5.54304171018049753)),
            (complex(-1.8, -2.0), complex(-4.1856780003971009, 5.34161373481978129)),
            (complex(-6.3, 0.7), complex(-7.47708936207732741, -20.0307822676872888)),
            (complex(-0.2, -4.4), complex(-7.03113694423559936, -0.973313984912336746)),
            (complex(30.0, -30.0), complex(57.9176262181789696, -105.600986115323923)),
            (complex(0.9, 0.0), complex(0.0663762397347429544, 0.0)),
            (complex(-25.5, 3.3), complex(-67.9483857948205655, -70.9206725775763866)),
        ],
    )
    def test_frozen_grid(self, z, want):
        # continuation branch and magnitude across both half planes
        assert abs(ln_gamma(z) - want) < 1e-13 * max(1.0, abs(want))


class TestKummerM:
    def test_z_zero_is_one(self):
        p = KummerParams(complex(0.3, -2.1), complex(0.9, 0.4))
        assert kummer_m(p, 0.0) == 1.0

    def test_terminating_linear(self):
        # F(-1, c, z) = 1 - z/c
        assert kummer_m(KummerParams(-1, 2), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_reference_value(self):
        got = kummer_m(KummerParams(complex(0.5, 1), complex(1, 2)), 3.0)
        assert abs(got - KUMMER_M_EX) < 1e-13 * abs(KUMMER_M_EX)

    def test_exponential_special_case(self):
        # F(a, a, z) = e^z
        p = KummerParams(complex(0.7, 0.3), complex(0.7, 0.3))
        for z in (0.5, 4.0, 20.0):
            assert kummer_m(p, z) == pytest.approx(math.exp(z), rel=1e-13)

    def test_negative_z_rejected(self):
        for z in (-1.0, math.nan):
            with pytest.raises(DomainError):
                kummer_m(KummerParams(1, 2), z)

    @pytest.mark.parametrize("c", [complex(1, 2), complex(0.5, 2)])
    def test_overflow_raises_domain_error(self, c):
        # at z = 3e4 the terms pass the longdouble range long before the
        # 10,000-term cap; that must raise without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="double range"):
                kummer_m(KummerParams(complex(-1.5, 1), c), 3e4)

    @pytest.mark.parametrize("z", [800.0, 3e4])
    def test_non_finite_double_raises_domain_error(self, z):
        # at z = 800 the longdouble values are finite, their doubles are
        # not; at z = 3e4 the longdouble ones overflow too, which must
        # raise without a numpy warning
        p = KummerParams(complex(-1.5, 1), complex(1, 2))
        for func in (kummer_m, kummer_second, kummer_asymptotic):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="double range"):
                    func(p, z)

    def test_guarded_sum_matches_plain_loop(self):
        # the blockwise sum under a quiet errstate keeps the arithmetic and
        # the stopping rule of the plain loop, for Re c < 1 and large |a| too
        for a, c, z in [
            (complex(-1.5, 1), complex(0.5, 2), 30.0),
            (complex(0.3, -2.1), complex(0.9, 0.4), 12.0),
            (complex(-1200.5, 1), complex(1, 2), 3.0),
        ]:
            abs_z, abs_c, gap = z, abs(c), abs(a - c)
            t = s = np.clongdouble(1.0)
            for k in range(10_000):
                t = t * (np.clongdouble(a) + k) * np.clongdouble(z) / (
                    (np.clongdouble(c) + k) * (k + 1)
                )
                s = s + t
                j = k + 1
                if j > abs_c and j + 1 > abs_z:
                    rho = (1.0 + gap / (j - abs_c)) * abs_z / (j + 1)
                    if rho < 0.9 and float(abs(t)) * rho / (1.0 - rho) <= 1e-13 * float(abs(s)):
                        break
            assert kummer_m(KummerParams(a, c), z) == complex(s)

    def test_pole_in_c_rejected(self):
        with pytest.raises(PoleError):
            KummerParams(1.0, 0.0)
        with pytest.raises(PoleError):
            KummerParams(1.0, -3.0)

    def test_term_cap(self):
        # the tail bound needs more than |z| terms; at z = 1e4 the partial
        # sums stay finite in extended precision up to the cap
        with pytest.raises(ConvergenceError, match="within 10000 terms"):
            kummer_m(KummerParams(complex(0.5, 1), complex(1, 2)), 1e4)

    def test_termination_tolerance(self):
        # a within 1e-12 of -n is treated as the degree-n polynomial
        p_exact = KummerParams(complex(-2, 0), complex(1, 1))
        p_close = KummerParams(complex(-2 + 1e-13, 0), complex(1, 1))
        assert p_exact.terminating_order() == 2
        assert p_close.terminating_order() == 2
        assert KummerParams(complex(-2 + 1e-9, 0), complex(1, 1)).terminating_order() is None

    @given(
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(0.3, 3),
        st.floats(-3, 3),
        st.floats(0, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_conjugation_symmetry(self, ar, ai, cr, ci, z):
        p = KummerParams(complex(ar, ai), complex(cr, ci))
        pc = KummerParams(p.a.conjugate(), p.c.conjugate())
        assert kummer_m(pc, z) == kummer_m(p, z).conjugate()

    def test_polynomial_matches_explicit_sum(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 4, 7):
            c = complex(1.0, 2 * rng.uniform(0.2, 1.5))
            p = KummerParams(complex(-n, 0), c)
            for z in rng.uniform(0.05, 8.0, size=2 * n):
                term = np.clongdouble(1.0)
                acc = np.clongdouble(1.0)
                for k in range(n):
                    term = term * (np.clongdouble(p.a) + k) * np.clongdouble(z) / (
                        (np.clongdouble(c) + k) * (k + 1)
                    )
                    acc = acc + term
                assert kummer_m(p, float(z)) == complex(acc)


class TestKummerSecond:
    def test_exponential_identity(self):
        # a=1, c=0.5: z^{0.5} F(1.5, 1.5, z) = sqrt(z) e^z; at z=1 -> e
        got = kummer_second(KummerParams(1.0, 0.5), 1.0)
        assert got.real == pytest.approx(math.e, rel=1e-13)
        assert got.imag == 0.0

    def test_reference_value(self):
        got = kummer_second(KummerParams(complex(-0.5, 0.5), complex(1, 1)), 2.0)
        assert abs(got - KUMMER_SECOND_EX) < 1e-13 * abs(KUMMER_SECOND_EX)

    def test_definitional_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = KummerParams(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(0.3, 0.7), rng.uniform(0.5, 2.0)),
            )
            z = rng.uniform(0.2, 6.0)
            direct = kummer_second(p, z)
            shifted = kummer_m(KummerParams(p.a - p.c + 1, 2 - p.c), z)
            expected = complex(z) ** (1 - p.c) * shifted
            assert abs(direct - expected) < 1e-12 * abs(expected)

    def test_z_zero_rejected(self):
        with pytest.raises(DomainError):
            kummer_second(KummerParams(1.0, 0.5), 0.0)

    def test_shifted_pole_rejected(self):
        # 2 - c non-positive integer: the second solution's series is undefined
        with pytest.raises(PoleError):
            kummer_second(KummerParams(1.0, 2.0), 1.0)


class TestKummerAsymptotic:
    def test_exact_for_equal_parameters(self):
        # F(a, a, z) = e^z and the leading form is exact there
        p = KummerParams(complex(0.4, 1.1), complex(0.4, 1.1))
        for z in (30.0, 50.0):
            ratio = kummer_m(p, z) / kummer_asymptotic(p, z)
            assert abs(ratio - 1.0) < 1e-12

    def test_monotone_approach(self):
        p = KummerParams(complex(-1.5, 1.0), complex(1.0, 2.0))
        devs = [
            abs(kummer_m(p, z) / kummer_asymptotic(p, z) - 1.0)
            for z in (30.0, 40.0, 50.0, 60.0)
        ]
        assert all(devs[i + 1] < devs[i] for i in range(3))

    def test_terminating_parameters_rejected(self):
        with pytest.raises(PoleError):
            kummer_asymptotic(KummerParams(-3.0, complex(1, 2)), 50.0)

    def test_bounded_parameter_sweep_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = complex(rng.uniform(-4, 4), rng.uniform(0.3, 3))
            c = complex(rng.uniform(0.5, 4), rng.uniform(0.3, 3))
            if abs(a) > 5 or abs(c) > 5:
                continue
            p = KummerParams(a, c)
            devs = [
                abs(kummer_m(p, z) / kummer_asymptotic(p, z) - 1.0)
                for z in (30.0, 40.0, 50.0, 60.0)
            ]
            assert all(devs[i + 1] < devs[i] for i in range(3))
