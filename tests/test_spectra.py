import cmath
import collections
import gc
import hashlib
import math
import random
import warnings
import weakref

import numpy as np
import pytest

from minkqm import specfun, spectra
from minkqm.errors import BracketError, ConsistencyError, ConvergenceError, DomainError, PoleError
from minkqm.model import NATURAL_UNITS, PhysicalParams, _energy_from_g
from minkqm.oracle import bound_state_length, scaled_config
from minkqm.specfun import DEFAULT_SERIES_TOL, KummerParams, _kummer_m_ld, ln_gamma
from minkqm.spectra import (
    Branch,
    coulomb_closed_spectrum,
    coulomb_scaling,
    coulomb_third,
    coulomb_third_asymptotic,
    coulomb_u1,
    coulomb_u1_asymptotic,
    coulomb_u2,
    deep_ladder,
    duality_forward,
    gamma_phase,
    oscillator_closed_spectrum,
    oscillator_quantized_spectrum,
    oscillator_wavefunction,
    quantization_f,
    shallow_spectrum,
    solve_quantized_spectrum,
)

PP = NATURAL_UNITS

# 40-digit offline references
COULOMB_U1_G2_M1_Z1 = complex(0.56893549580603705, 0.52597576027778702)
GAMMA_PHASE_G2_M1 = 0.61049728068930063
QUANT_F_G1_M1 = -3.1190979764480602


class TestScaling:
    def test_hand_values(self):
        sc = coulomb_scaling(PP, 1.0, -0.5)
        assert sc.r0 == pytest.approx(0.5, rel=1e-15)
        assert sc.g == pytest.approx(1.0, rel=1e-15)
        sc = coulomb_scaling(PP, 1.0, -2.0)
        assert sc.r0 == pytest.approx(0.25, rel=1e-15)
        assert sc.g == pytest.approx(0.5, rel=1e-15)

    def test_g_monotone_toward_threshold(self):
        gs = [coulomb_scaling(PP, 1.0, e).g for e in (-10.0, -1.0, -0.1, -0.001)]
        assert gs == sorted(gs)

    def test_positive_energy_rejected(self):
        with pytest.raises(DomainError):
            coulomb_scaling(PP, 1.0, 0.5)


class TestClosedSpectrum:
    def test_m0_ladder(self):
        for n in range(10):
            got = coulomb_closed_spectrum(PP, 1.0, n, 0.0)
            assert got.imag == 0.0
            assert got.real == pytest.approx(-1.0 / (2 * (n + 0.5) ** 2), rel=1e-15)

    def test_complex_example(self):
        got = coulomb_closed_spectrum(PP, 1.0, 0, 1.0)
        assert got == pytest.approx(complex(0.24, 0.32), rel=1e-15)

    def test_m_negation_conjugates(self):
        for n in (0, 3):
            for m_ang in (0.5, 2.0):
                a = coulomb_closed_spectrum(PP, 1.0, n, m_ang)
                b = coulomb_closed_spectrum(PP, 1.0, n, -m_ang)
                assert b == a.conjugate()


class TestWavefunctions:
    def test_u1_ground_state_value(self):
        # M=0, g=1/2 has a = 0: u1 = sqrt(z) e^{-z/2}
        got = coulomb_u1(0.5, 0.0, 1.0)
        assert got.real == pytest.approx(math.exp(-0.5), rel=1e-14)
        assert got.imag == 0.0

    def test_u1_reference_value(self):
        got = coulomb_u1(2.0, 1.0, 1.0)
        assert abs(got - COULOMB_U1_G2_M1_Z1) < 1e-14

    def test_small_z_modulus_m_independent(self):
        # |u1| ~ sqrt(z), no M dependence in the modulus
        for z in (1e-8, 1e-6):
            mags = [abs(coulomb_u1(1.3, m, z)) for m in (0.0, 0.7, 2.5)]
            for m in mags:
                assert m == pytest.approx(math.sqrt(z), rel=1e-5)

    def test_u2_equals_u1_at_m_zero(self):
        for z in (0.2, 1.0, 5.0):
            assert coulomb_u2(1.2, 0.0, z) == coulomb_u1(1.2, 0.0, z)

    def test_z_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            coulomb_u1(1.0, 1.0, 0.0)
        # NaN fails the z > 0 guard as well, instead of running the series
        for fn in (coulomb_u1, coulomb_u2, coulomb_third):
            with pytest.raises(DomainError):
                fn(2.0, 1.0, math.nan)

    @pytest.mark.parametrize(
        "g, m_ang", [(2.0, 1.0), (2.3, 2.0), (0.7, 0.5), (5.0, 1.0)]
    )
    def test_u1_asymptotic_against_mpmath(self, g, m_ang):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a = mp.mpc(0.5 - g, m_ang)
            c = mp.mpc(1.0, 2.0 * m_ang)
            for z in (30.0, 40.0, 50.0, 60.0):
                exact = (
                    mp.exp(-z / 2) * mp.sqrt(z) * mp.power(z, mp.mpc(0, m_ang))
                    * mp.hyp1f1(a, c, z)
                )
                # Correction terms |(c-a)_k|^2 / (k! z^k), truncated by the
                # library's rule: n terms summed, `omitted` the next one.
                partial = term = mp.mpf(1)
                n = 1
                while True:
                    omitted = term * abs(c - a + n - 1) ** 2 / (n * z)
                    if omitted >= term or omitted < 1e-13 * partial:
                        break
                    partial += omitted
                    term = omitted
                    n += 1
                # The positive real axis is a Stokes line of the expansion,
                # where DLMF 13.7(iii) bounds the remainder by 2 chi(n) times
                # the first omitted term, chi(n) ~ sqrt(pi n / 2).  1e-12
                # covers the Gamma ratio and rounding.
                chi = mp.sqrt(mp.pi) * mp.gamma(n / 2 + 1) / mp.gamma(n / 2 + 0.5)
                bound = float(2 * chi * omitted) + 1e-12
                dev = float(abs(coulomb_u1_asymptotic(g, m_ang, z) / exact - 1))
                assert dev <= bound, (z, dev, bound)

    @pytest.mark.parametrize("z", [2e3, 3e4, math.nan])
    def test_asymptotic_forms_raise_instead_of_non_finite(self, z):
        # 2e3: the value leaves the double range; 3e4: the longdouble
        # envelope itself overflows; nan: rejected by the z > 0 guard
        gamma = gamma_phase(2.0, 1.0).gamma
        with pytest.raises(DomainError):
            coulomb_u1_asymptotic(2.0, 1.0, z)
        with pytest.raises(DomainError):
            coulomb_third_asymptotic(2.0, 1.0, z, gamma)

    @pytest.mark.parametrize("z", [1.5e3, 2e3, 1e4, 3e4])
    def test_series_forms_raise_instead_of_non_finite(self, z):
        # 1.5e3, 2e3: the longdouble series sums are finite, their double
        # values are not; 1e4: the series cannot converge within its term
        # cap; 3e4: the series terms overflow longdouble itself.  Each must
        # raise without a numpy warning
        for func in (coulomb_u1, coulomb_u2, coulomb_third):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="double range"):
                    func(2.0, 1.0, z)

    @pytest.mark.parametrize("g, m_ang", [(2.0, 1.0), (0.7, 0.5), (8.0, 1.0)])
    def test_past_the_double_range_of_the_series_sum(self, g, m_ang):
        # From z ~ 720 |F| passes the double range, and the series' tail test
        # compared with tol * inf: it passed at the first term of its window
        # and u1 came out 5.4e-4 off at z = 800 (g = 2, M = 1), with exit 0.
        # u1 and u2 must hold 1e-12 of mpmath or raise DomainError where they
        # leave the double range; the third solution, under the same gamma,
        # must hold 1e-12 of |u1| (its own size is cancellation noise) or
        # raise where u1 does.
        mp = pytest.importorskip("mpmath")
        gamma = gamma_phase(g, m_ang).gamma
        big = np.finfo(float).max
        outcomes = set()

        def exact_u1(m, z):
            z = mp.mpf(z)
            return (mp.exp(-z / 2) * mp.sqrt(z) * mp.power(z, 1j * m)
                    * mp.hyp1f1(mp.mpf(0.5) - g + 1j * m, 1 + 2j * m, z))

        with mp.workdps(40):
            for z in (700.0, 720.0, 760.0, 800.0, 1000.0, 1200.0, 1300.0, 1400.0, 1500.0, 2000.0):
                u1, u2 = exact_u1(m_ang, z), exact_u1(-m_ang, z)
                third = u1 - mp.exp(-2j * mp.mpf(gamma)) * u2
                for func, want, scale in ((coulomb_u1, u1, u1), (coulomb_u2, u2, u2),
                                          (lambda g, m, z: coulomb_third(g, m, z, gamma), third, u1)):
                    if max(abs(u1.real), abs(u1.imag)) > big:
                        with pytest.raises(DomainError, match="double range"):
                            func(g, m_ang, z)
                        outcomes.add("raised")
                    else:
                        assert abs(func(g, m_ang, z) - want) <= 1e-12 * abs(scale), (func, z)
                        outcomes.add("held")
        assert outcomes == {"held", "raised"}

    @pytest.mark.parametrize("z", [1e4, 1e6])
    def test_terminating_series_forms_raise_instead_of_non_finite(self, z):
        # At g = 3000.5, M = 0 the series is a degree-3000 polynomial.  At
        # z = 1e4 its longdouble sum is finite and its double value is not;
        # at 1e6 its terms overflow longdouble itself, which gave three
        # numpy warnings before the DomainError.  gamma is given: at M = 0
        # it is a Gamma pole here
        for call in (
            lambda: coulomb_u1(3000.5, 0.0, z),
            lambda: coulomb_u2(3000.5, 0.0, z),
            lambda: coulomb_third(3000.5, 0.0, z, 0.5),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="double range"):
                    call()

    def test_term_cap_guard_keeps_every_finite_value(self):
        # Against the bare series: every finite value stays bit for bit, and
        # only where the series ran into its term cap may the error become
        # DomainError.  The z bands hold the edge of the double range for
        # g ~ 2 (1e3 to 3e3) and the cap window (9e3 to 1.15e4).  Large |M|
        # shrinks |Gamma(1 + 2iM)|, which keeps u1 finite to larger z.
        rng = random.Random("kummer-term-cap")
        outcomes = []
        for z_lo, z_hi in ((1e2, 1e3), (1e3, 3e3), (9e3, 1.15e4)):
            for m_lo, m_hi in ((0.0, 3.0), (50.0, 400.0)):
                for _ in range(3):
                    g = rng.uniform(0.1, 6.0)
                    m_ang = rng.choice((1.0, -1.0)) * rng.uniform(m_lo, m_hi)
                    outcomes += self._check_against_bare_series(g, m_ang, rng.uniform(z_lo, z_hi))
        assert "finite" in outcomes and "cap" in outcomes

    def test_u1_polynomials_against_mpmath(self):
        # at M = +-0 and g = n + 1/2 the series is the Laguerre polynomial
        # L_n(z), u1 = e^(-z/2) sqrt(z) L_n(z)
        mp = pytest.importorskip("mpmath")
        rng = random.Random("u1-polynomials")
        with mp.workdps(40):
            for n in range(4):
                for m_ang in (0.0, -0.0):
                    for _ in range(10):
                        z = rng.uniform(1.0, 40.0)
                        exact = mp.exp(-mp.mpf(z) / 2) * mp.sqrt(z) * mp.hyp1f1(-n, 1, z)
                        got = coulomb_u1(n + 0.5, m_ang, z)
                        assert float(abs(got - exact) / abs(exact)) <= 1e-15, (n, m_ang, z)

    def test_zero_dim_array_parameters(self):
        # g and M as 0-d arrays give the values of the equal floats
        for func in (coulomb_u1, coulomb_u2, coulomb_third):
            assert func(np.array(2.0), np.array(1.0), 3.0) == func(2.0, 1.0, 3.0)

    def test_last_pair_lookup_keeps_the_bits(self):
        # u1 and the oscillator reuse the plan of their last (g, M) or (n, M)
        # pair, with the sign of M, and build a new pair's plan.  Pairs
        # alternated point by point, M = +0.0 against -0.0 (where equality
        # merges them) and 0-d arrays give the bits of parameters built
        # fresh, signs of zero included.  A NaN g or M raises on every call
        # and leaves the last plan as it was.
        pairs = [(2.5, 0.0), (2.5, -0.0), (1.5, 0.0), (2.0, 1.0), (2.0, -1.0), (0.5, -0.0)]
        zs = [0.3, 4.0, 17.5]
        for z in zs:
            for g, m_ang in pairs * 2:
                got = spectra._u1_ld(g, m_ang, z, DEFAULT_SERIES_TOL)
                assert _hex_bits(got) == _hex_bits(_bare_u1_ld(g, m_ang, z)), (g, m_ang, z)
                a = spectra._u1_last[3].a
                assert a == complex(0.5 - g, m_ang) and math.copysign(1.0, a.imag) == math.copysign(1.0, m_ang)
        assert coulomb_u1(np.array(2.5), np.array(-0.0), 4.0) == coulomb_u1(2.5, -0.0, 4.0)
        assert type(spectra._u1_last[0]) is type(spectra._u1_last[1]) is float
        want = _hex_bits(_bare_u1_ld(1.5, -0.0, 3.0))
        for bad in ((math.nan, -0.0), (1.5, math.nan), (math.nan, -0.0)):
            with pytest.raises(DomainError, match="must be finite"):
                coulomb_u1(*bad, 3.0)
            assert _hex_bits(spectra._u1_ld(1.5, -0.0, 3.0, DEFAULT_SERIES_TOL)) == want

        def osc(n, m_osc):
            return _outcome(oscillator_wavefunction, PP, 1.0, n, m_osc, 1.7, 0.3)

        keys = [(3, 0.0), (3, -0.0), (0, 1.4), (3, 1.4), (0, -0.0), (np.array(2), np.array(-0.7))]
        fresh = []  # a list: a dict would merge the keys of M = +0.0 and -0.0
        for key in keys:
            spectra._oscillator_last = (math.nan,) * 3 + (None, None)
            fresh.append(osc(*key))
        assert fresh[-1] == osc(2, -0.7)
        for key, want in list(zip(keys, fresh)) * 2:
            assert osc(*key) == want, key
            # the plan kept is the pair's own, down to the sign of a zero M
            c = spectra._oscillator_last[3].c
            assert c == complex(1.0, key[1]) and math.copysign(1.0, c.imag) == math.copysign(1.0, key[1])

    def test_only_the_last_plan_stays_alive(self):
        # Each amplitude keeps one plan, its last pair's: after grids at 40
        # (g, M) and 40 (n, M) pairs, the series parameters of the 39
        # before, and the term-factor blocks they keep, are freed.
        zs = [0.5 * k for k in range(1, 9)]
        u1_plans, oscillator_plans = [], []
        for i in range(40):
            g, m_ang = 0.3 + 0.1 * i, (-1.0) ** i * (0.2 + 0.05 * i)
            for z in zs:
                coulomb_u1(g, m_ang, z)
            u1_plans.append(weakref.ref(spectra._u1_last[3]))
            for rho in zs:
                oscillator_wavefunction(PP, 1.0, i % 7, 0.1 * (i + 1), rho, 0.0)
            oscillator_plans.append(weakref.ref(spectra._oscillator_last[3]))
        gc.collect()
        for plans in (u1_plans, oscillator_plans):
            assert [ref() is not None for ref in plans] == [False] * 39 + [True]

    def test_polynomial_past_the_term_cap_raises(self):
        # u1, u2 and the third solution at M = +-0 with g - 1/2 = 20,000,
        # and the oscillator at n = 20,000, have a polynomial series past
        # the 10,000-term cap; degree 10,000 is summed
        for call in (
            lambda: coulomb_u1(20000.5, 0.0, 1.0),
            lambda: coulomb_u2(20000.5, -0.0, 1.0),
            lambda: coulomb_third(20000.5, 0.0, 1.0, 0.5),
            lambda: oscillator_wavefunction(PP, 1.0, 20000, 0.7, 1.0, 0.0),
        ):
            with pytest.raises(DomainError, match="degree 20000 is past the 10000-term cap"):
                call()
        assert cmath.isfinite(coulomb_u1(10000.5, 0.0, 1.0))
        assert cmath.isfinite(oscillator_wavefunction(PP, 1.0, 10000, 0.7, 0.1, 0.0))

    def test_third_sums_one_series_bit_for_bit(self):
        # coulomb_third takes u2 as the conjugate of u1, at M = +-0 too,
        # where the two differ in the sign of a zero imaginary part.
        # Against the two-series formula every value keeps its bits, signs
        # of zero included, and every raising point raises the same error.
        rng = random.Random("third-one-series")
        cases = []
        for i in range(300):
            g = rng.uniform(0.05, 40.0) if i % 2 else rng.uniform(0.05, 5.0)
            m_ang = rng.choice((1.0, -1.0)) * math.exp(rng.uniform(math.log(1e-3), math.log(6.0)))
            if i % 10 < 4:
                m_ang = (0.0, -0.0, 1e-13, -5e-324)[i % 10]
            gamma = (None, 0.0, rng.uniform(-math.pi, math.pi))[i % 3]
            zs = [math.exp(rng.uniform(math.log(1e-6), math.log(80.0))) for _ in range(4)]
            if i % 50 == 0:
                zs += [1.5e3, 1e4, 3e4]
            cases += [(g, m_ang, z, gamma) for z in zs]
        raised = []
        for g, m_ang, z, gamma in cases:
            got, want = (_outcome(coulomb_third, g, m_ang, z, gamma),
                         _outcome(_two_series_third, g, m_ang, z, gamma))
            assert got == want, (g, m_ang, z, gamma)
            if isinstance(got[0], type):
                raised.append(z)
        # z = 1e4 runs into the term cap and 3e4 overflows, for every (g, M)
        assert raised.count(1e4) == raised.count(3e4) == 6

    def test_third_keeps_the_sign_of_a_zero_gamma(self):
        # +0.0 and -0.0 give e^{-2i gamma} different zero signs.  Each call,
        # in either order, keeps the two-series bits.
        for gamma in (0.0, -0.0, 0.0):
            for m_ang in (0.0, -0.0, 1.0):
                for z in (1e-3, 3.0):
                    assert (_outcome(coulomb_third, 2.0, m_ang, z, gamma)
                            == _outcome(_two_series_third, 2.0, m_ang, z, gamma))

    def test_prefactor_matches_constructor_based_reference(self):
        # u1 keeps the bits of the prefactor that promoted z and built iM
        # and 1/2 through numpy scalar constructors on every call, at M of
        # either sign down to +-0, on terminating series (g = n + 1/2 at
        # M = 0) and not, from small z to the double range's edge
        rng = random.Random("u1-prefactor")
        for m_ang in (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0):
            for i in range(60):
                g = rng.randint(0, 4) + 0.5 if i % 3 == 0 else rng.uniform(0.05, 8.0)
                z = math.exp(rng.uniform(math.log(1e-4), math.log(1.2e3)))
                got = spectra._u1_ld(g, m_ang, z, DEFAULT_SERIES_TOL)
                assert _hex_bits(got) == _hex_bits(_bare_u1_ld(g, m_ang, z)), (g, m_ang, z)

    @staticmethod
    def _check_against_bare_series(g, m_ang, z):
        gamma = gamma_phase(g, m_ang).gamma
        phase = np.exp(np.clongdouble(-2j) * np.clongdouble(gamma))
        bare = {}
        for sign in (1.0, -1.0):
            try:
                bare[sign] = _bare_u1_ld(g, sign * m_ang, z)
            except (ConvergenceError, DomainError) as exc:
                bare[sign] = exc
        errors = [v for v in bare.values() if isinstance(v, Exception)]
        third = errors[0] if errors else bare[1.0] - phase * bare[-1.0]
        # for |M| <= 3 and g <= 6, e^(z/2) z^(-g) is far out of the double
        # range wherever the series runs into its cap
        cap_error = DomainError if abs(m_ang) <= 3.0 else (DomainError, ConvergenceError)
        outcomes = []
        for call, want in (
            (lambda: coulomb_u1(g, m_ang, z), bare[1.0]),
            (lambda: coulomb_u2(g, m_ang, z), bare[-1.0]),
            (lambda: coulomb_third(g, m_ang, z, gamma), third),
        ):
            if isinstance(want, ConvergenceError):
                outcomes.append("cap")
                with pytest.raises(cap_error):
                    call()
            elif isinstance(want, DomainError) or not cmath.isfinite(complex(want)):
                outcomes.append("not finite")
                with pytest.raises(DomainError, match="double range"):
                    call()
            else:
                outcomes.append("finite")
                assert call() == complex(want)
        return outcomes


def _two_series_third(g, m_ang, z, gamma):
    """u1 - e^{-2i gamma} u2 with both series summed."""
    if gamma is None:
        gamma = gamma_phase(g, m_ang).gamma
    phase = np.exp(np.clongdouble(-2j) * np.clongdouble(gamma))
    value = (spectra._u1_ld(g, m_ang, z, DEFAULT_SERIES_TOL)
             - phase * spectra._u1_ld(g, -m_ang, z, DEFAULT_SERIES_TOL))
    return spectra._finite(value, z, "coulomb_third", spectra._ENVELOPE, g=g, M=m_ang)


def _outcome(call, *args):
    """A call's value with the signs of its zeros, or its error class and message."""
    try:
        v = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return v, math.copysign(1.0, v.real), math.copysign(1.0, v.imag)


def _bare_u1_ld(g, m_ang, z):
    """u1 in longdouble from the Kummer series alone, with nothing done at
    its term cap, and its prefactor's constants and z built by numpy scalar
    constructors."""
    params = KummerParams(complex(0.5 - g, m_ang), complex(1.0, 2.0 * m_ang))
    zl = np.clongdouble(z)
    lnz = np.log(zl)
    pref = np.exp(-zl / 2 + np.clongdouble(0.5) * lnz + np.clongdouble(1j * m_ang) * lnz)
    return pref * _kummer_m_ld(params, z, DEFAULT_SERIES_TOL)


class TestGuardOrder:
    """Invalid arguments are refused in a fixed order, z (or rho) before
    tol, with these messages, whatever the order of the checks inside."""

    ZS = (0.0, -0.0, -1.0, math.nan, math.inf)
    TOLS = (0.0, -1.0, math.nan, math.inf)

    @pytest.mark.parametrize("m_ang", [0.0, -0.0])
    def test_u1(self, m_ang):
        for z in self.ZS:
            for tol in self.TOLS:
                want = (f"z must be positive, got {z}" if not z > 0
                        else f"tol must be positive and finite, got {tol}")
                self._assert_refused(lambda: coulomb_u1(1.5, m_ang, z, tol), want)

    def test_oscillator_wavefunction(self):
        for rho in self.ZS:
            for tol in self.TOLS:
                want = (f"rho must be positive, got {rho}" if not rho > 0
                        else f"tol must be positive and finite, got {tol}")
                self._assert_refused(
                    lambda: oscillator_wavefunction(PP, 1.0, 2, 1.0, rho, 0.0, tol), want
                )

    @staticmethod
    def _assert_refused(call, want):
        with pytest.raises(DomainError) as excinfo:
            call()
        assert type(excinfo.value) is DomainError and str(excinfo.value) == want


class TestGammaPhase:
    def test_zero_at_m0(self):
        rp = gamma_phase(0.3, 0.0)
        assert rp.gamma == 0.0 and rp.beta == 0.0

    def test_pole_at_closed_levels(self):
        for g in (0.5, 1.5, 7.5):
            with pytest.raises(PoleError):
                gamma_phase(g, 0.0)

    def test_reference_value(self):
        rp = gamma_phase(2.0, 1.0)
        assert rp.gamma == pytest.approx(GAMMA_PHASE_G2_M1, abs=1e-14)
        assert 0.0 <= rp.gamma < math.pi

    def test_beta_composition(self):
        for r0 in (0.5, 1.0, 3.0):
            rp = gamma_phase(2.0, 1.0, r0=r0)
            assert rp.beta == rp.gamma - 1.0 * math.log(r0)

    def test_default_r0_is_natural_units(self):
        rp = gamma_phase(2.0, 1.0)
        sc = coulomb_scaling(PP, 1.0, -1.0 / (2 * 2.0**2))
        assert sc.r0 == pytest.approx(1.0, rel=1e-15)  # r0 = g/2 at g=2
        assert rp.beta == rp.gamma - math.log(sc.r0)

    def test_conjugation(self):
        for g in (0.4, 2.0, 9.3):
            for m_ang in (0.5, 1.0, 2.7):
                gp = gamma_phase(g, m_ang).gamma
                gm = gamma_phase(g, -m_ang).gamma
                dev = math.fmod(gp + gm, math.pi)
                assert min(abs(dev), math.pi - abs(dev)) < 1e-12

    @pytest.mark.parametrize(
        "m_ang, gamma_hex",
        [(1e5, "0x1.496584b66ab50p+1"), (-1e5, "0x1.22e8c23760720p-1"), (1e6, "0x1.52d480dc42918p+1")],
    )
    def test_large_m_below_the_resolution_keeps_its_bits(self, m_ang, gamma_hex):
        # gamma at g = 2 as it was before the resolution rule
        assert gamma_phase(2.0, m_ang).gamma.hex() == gamma_hex

    @pytest.mark.parametrize(
        "g, m_ang", [(2.0, 1e14), (2.0, -1.2e6), (1e15, 0.5), (5.4e6, 0.5)]
    )
    def test_unresolved_gamma_raises(self, g, m_ang):
        # gamma_raw ~ |M| ln|M| or ~ pi g is a double whose half ulp passes
        # 1e-9: at (2, 1e14) gamma printed 1.8967 where mpmath gives 2.0774
        with pytest.raises(DomainError, match="cannot resolve gamma to 1e-09"):
            gamma_phase(g, m_ang)

    def test_raw_reduces_to_gamma(self):
        rp = gamma_phase(5.7, 1.3)
        red = math.fmod(rp.gamma_raw, math.pi)
        if red < 0:
            red += math.pi
        assert red == pytest.approx(rp.gamma, abs=1e-12)


    def test_two_lngamma_ratio_bit_for_bit(self, monkeypatch):
        # gamma_raw = -Im ln[Gamma(1+2iM) / Gamma(1/2+iM-g)] keeps every bit
        # of the four-lnGamma ratio of conjugate products, for g on both
        # sides of 1/2, either sign of M and M down to the smallest subnormal
        rng = random.Random("gamma-ratio")
        cases = [(g, m) for g in (0.3, 0.7, 2.0, 7.3) for m in (5e-324, -1e-13, 1.0, -3e4)]
        for i in range(2000):
            g = rng.uniform(0.01, 0.5) if i % 2 else math.exp(rng.uniform(math.log(0.5), 6.0))
            m_ang = rng.choice((1.0, -1.0)) * math.exp(rng.uniform(math.log(1e-8), math.log(1e5)))
            cases.append((g, m_ang))
        for g, m_ang in cases:
            for r0 in (None, 0.7):
                got = spectra.gamma_phase(g, m_ang, r0)
                want = _four_lngamma_phase(g, m_ang, r0)
                assert [x.hex() for x in (got.gamma, got.beta, got.gamma_raw)] == [
                    x.hex() for x in (want.gamma, want.beta, want.gamma_raw)
                ], (g, m_ang, r0)
        calls = []
        monkeypatch.setattr(spectra, "_ln_gamma_ld", lambda w: calls.append(w) or 0j)
        spectra.gamma_phase(2.0, 1.0)
        assert calls == [complex(1.0, 2.0), complex(-1.5, 1.0)]


def _four_lngamma_phase(g, m_ang, r0=None):
    """gamma_phase from the four-lnGamma ratio of conjugate products, as it
    was computed before the ratio was written with two."""
    if r0 is None:
        r0 = g / 2.0
    lng = spectra._ln_gamma_ld
    num = lng(complex(1.0, 2.0 * m_ang)) + lng(complex(0.5 - g, -m_ang))
    den = lng(complex(1.0, -2.0 * m_ang)) + lng(complex(0.5 - g, m_ang))
    gamma_raw = float(np.longdouble(-0.5) * np.imag(num - den))
    gamma = math.fmod(gamma_raw, math.pi)
    if gamma < 0.0:
        gamma += math.pi
    return spectra.ReflectionPhase(gamma, gamma - m_ang * math.log(r0), gamma_raw, r0)


class TestLargeZForms:
    """Both large-z forms take their Gamma ratios from one helper."""

    def test_ratio_forms_bit_for_bit(self):
        # Against the forms written out with the conjugate parameters.  At
        # M = +-0 with g > 1/2 both lnGamma arguments of each ratio lie on
        # the cut, where lnGamma takes the upper-half-plane limit for either
        # sign of zero: there K2 is not the conjugate of K1, and taking it
        # as one changes the result.
        rng = random.Random("large-z-ratio")
        cases = []
        for i in range(1500):
            g = rng.uniform(0.02, 0.5) if i % 3 == 0 else rng.uniform(0.5, 12.0)
            m_ang = rng.choice((1.0, -1.0)) * rng.uniform(1e-3, 4.0)
            if i % 5 < 2:
                m_ang = (0.0, -0.0)[i % 5]
            z = math.exp(rng.uniform(math.log(0.5), math.log(2e3)))
            gamma = rng.choice((0.0, rng.uniform(0.0, math.pi)))
            cases.append((g, m_ang, z, gamma))
        conj_differs = 0
        for g, m_ang, z, gamma in cases:
            assert _outcome(coulomb_third_asymptotic, g, m_ang, z, gamma) == _outcome(
                _conjugate_parameter_third_asymptotic, g, m_ang, z, gamma
            ), (g, m_ang, z, gamma)
            assert _outcome(coulomb_u1_asymptotic, g, m_ang, z) == _outcome(
                _four_term_u1_asymptotic, g, m_ang, z
            ), (g, m_ang, z)
            k1 = spectra._gamma_ratio_ld(g, m_ang)
            conj_differs += not _same_bits(np.conj(k1), spectra._gamma_ratio_ld(g, -m_ang))
        assert conj_differs > 0


def _four_term_u1_asymptotic(g, m_ang, z):
    """coulomb_u1_asymptotic with its Gamma ratio written out in place."""
    a = complex(0.5 - g, m_ang)
    c = complex(1.0, 2.0 * m_ang)
    with np.errstate(over="ignore", invalid="ignore"):
        expo = (
            spectra._ln_gamma_ld(c)
            - spectra._ln_gamma_ld(a)
            + np.clongdouble(z) / 2
            - np.clongdouble(g) * np.log(np.clongdouble(z))
        )
        value = np.exp(expo) * spectra._large_z_series(g, m_ang, z)
    return spectra._finite(value, z, "coulomb_u1_asymptotic", spectra._ENVELOPE, g=g, M=m_ang)


def _conjugate_parameter_third_asymptotic(g, m_ang, z, gamma):
    """coulomb_third_asymptotic with K2 from the conjugated parameters."""
    a = complex(0.5 - g, m_ang)
    c = complex(1.0, 2.0 * m_ang)
    k1 = spectra._ln_gamma_ld(c) - spectra._ln_gamma_ld(a)
    k2 = spectra._ln_gamma_ld(c.conjugate()) - spectra._ln_gamma_ld(a.conjugate())
    with np.errstate(over="ignore", invalid="ignore"):
        envelope = np.exp(np.clongdouble(z) / 2 - np.clongdouble(g) * np.log(np.clongdouble(z)))
        coeff = np.exp(k1) - np.exp(np.clongdouble(-2j) * np.clongdouble(gamma) + k2)
        value = envelope * coeff * spectra._large_z_series(g, m_ang, z)
    return spectra._finite(value, z, "coulomb_third_asymptotic", spectra._ENVELOPE, g=g, M=m_ang)


def _hex_bits(x):
    """Every bit of a clongdouble, signs of zero included, as float.hex
    strings: each part as a double, and what the double leaves out of it,
    which a double holds exactly."""
    return tuple(
        (float(p).hex(), float(p - float(p)).hex()) for p in (np.real(x), np.imag(x))
    )


def _same_bits(x, y):
    """Equal real and imaginary parts, signs of zero included."""
    return all(
        u == v and np.signbit(u) == np.signbit(v)
        for u, v in ((np.real(x), np.real(y)), (np.imag(x), np.imag(y)))
    )


class TestQuantizationF:
    def test_reference_value(self):
        assert quantization_f(1.0, 1.0) == pytest.approx(QUANT_F_G1_M1, abs=1e-13)

    def test_shallow_slope_is_minus_pi(self):
        slope = (quantization_f(100.0, 1.0) - quantization_f(50.0, 1.0)) / 50.0
        assert slope == pytest.approx(-math.pi, abs=1e-5)

    def test_deep_log_behavior(self):
        # f + M ln g stays within ~2e-3 of its g->0 limit on [1e-6, 1e-3]
        limit = -1.0846540406523574  # offline 40-digit value
        for g in (1e-6, 1e-5, 1e-4, 1e-3):
            assert abs(quantization_f(g, 1.0) + math.log(g) - limit) < 2e-3

    def test_continuity_across_integer_g(self):
        # the continuously tracked argument must not jump at integer offsets
        for g0 in (1.0, 2.0, 5.0, 17.0):
            left = quantization_f(g0 - 1e-9, 1.0)
            right = quantization_f(g0 + 1e-9, 1.0)
            assert abs(left - right) < 1e-6

    def test_monotone_decreasing_for_positive_m(self):
        gs = np.geomspace(1e-7, 150.0, 1500)
        for m_ang in (0.5, 1.0, 2.0):
            fs = [quantization_f(float(g), m_ang) for g in gs]
            assert all(fs[i + 1] < fs[i] for i in range(len(fs) - 1))

    def test_odd_in_m(self):
        for g in (0.3, 4.2):
            assert quantization_f(g, -1.5) == pytest.approx(
                -quantization_f(g, 1.5), rel=1e-12
            )

    def test_pole_at_m0_closed_level(self):
        with pytest.raises(PoleError):
            quantization_f(2.5, 0.0)

    def test_finite_or_domain_error(self):
        # the ladder relies on this: f is a finite number or raises.  ln g
        # spans the double range, |M| goes down to 1e-320, and a quarter of
        # the g are half-integers, next to the Gamma poles as M -> 0.  The
        # first two pairs used to return -inf and +inf, the third warned.
        rng = random.Random("quantization-f-sweep")
        cases = [(math.exp(709.6), 56.6), (math.exp(708.72), -0.93), (0.5, 5e-324)]
        for i in range(4000):
            if i % 4:
                g = math.exp(rng.uniform(-744.0, 709.7))
            else:
                g = math.floor(10 ** rng.uniform(0, 15)) - 0.5
            cases.append((g, rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-320, 3)))
        raised = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g, m_ang in cases:
                try:
                    assert math.isfinite(quantization_f(g, m_ang))
                except DomainError as exc:
                    raised.append((g, m_ang, str(exc)))
        assert [r[2] for r in raised[:3]] == [
            f"quantization function f(g={math.exp(709.6)!r}, M=56.6) is -inf: "
            "it leaves the double range",
            f"quantization function f(g={math.exp(708.72)!r}, M=-0.93) is inf: "
            "it leaves the double range",
            "lnGamma pole: sin(pi z) rounds to 0 at z=5e-324j",
        ]
        # f leaves the double range where pi g does; only at g = 1/2 does
        # 1 - e^{2 pi i (1/2 - g + iM)} round to 0 for tiny M
        for g, _, message in raised[3:]:
            assert g > 5e307 if message.startswith("quantization function") else g == 0.5


class TestQuantizedSolver:
    def test_n_zero_returns_anchor(self):
        entries = solve_quantized_spectrum(PP, 1.0, 1.0, -3.7, [0])
        assert entries[0].energy == complex(-3.7, 0.0)
        assert entries[0].branch is Branch.QUANTIZED_THIRD

    def test_levels_satisfy_condition_exactly(self):
        # the defining property: f(g_n) - f(g_0) = pi n
        entries = solve_quantized_spectrum(PP, 1.0, 1.0, -2.0, [-2, 1, 3], tol=1e-12)
        f0 = quantization_f(coulomb_scaling(PP, 1.0, -2.0).g, 1.0)
        for e in entries:
            g_n = coulomb_scaling(PP, 1.0, e.energy.real).g
            assert quantization_f(g_n, 1.0) - f0 == pytest.approx(
                math.pi * e.n, abs=1e-9
            )

    def test_negative_m_mirror(self):
        plus = solve_quantized_spectrum(PP, 1.0, 1.0, -2.0, [1, 2])
        minus = solve_quantized_spectrum(PP, 1.0, -1.0, -2.0, [-1, -2])
        for a, b in zip(plus, minus):
            assert b.energy.real == pytest.approx(a.energy.real, rel=1e-9)

    def test_bracket_failure_reports_window(self):
        # at M_osc = 0.008 the level below E0 lies about 2 pi / M_osc / ln 10
        # ~ 341 decades down, past the 160 decades the scan may walk
        with pytest.raises(BracketError) as got:
            oscillator_quantized_spectrum(PP, 1.0, 0.008, 1.0, [-1])
        assert str(got.value) == "no sign change for target 1.57588 inside the scan window [E=1e-160, E=1]"

    def test_bracket_failure_names_an_overflowing_end_by_g(self):
        # the window's deep end has a subnormal g^2, so E = -1/(2 g^2)
        # overflows to -inf without raising; it used to read "E=-inf"
        with pytest.raises(BracketError) as got:
            solve_quantized_spectrum(PP, 1.0, 1e-8, -1.0, [0, 1, 2])
        assert str(got.value) == (
            "no sign change for target 3.14159 inside the scan window "
            "[g=7.07107e-161 (E leaves the double range), E=-1]"
        )

    def test_m_zero_rejected(self):
        with pytest.raises(DomainError):
            solve_quantized_spectrum(PP, 1.0, 0.0, -1.0, [1])

    def test_nan_alpha_rejected(self):
        # NaN used to fail both alpha < 0 and alpha > 0 and solve the free
        # particle
        with pytest.raises(DomainError, match="alpha"):
            solve_quantized_spectrum(PP, math.nan, 1.0, -1.0, [0, 1])

    @pytest.mark.parametrize(
        "m_ang, energy0, n",
        [(0.01, -1.0, 2), (-0.02, -1.0, 3), (1.0, -1e-300, -3), (0.5, -1e-300, -5)],
        ids=["overflow", "underflow", "subnormal", "E0=-1e-300"],
    )
    def test_free_level_outside_double_range_raises(self, m_ang, energy0, n):
        # E0 exp(2 pi n / M) overflows math.exp, is -0.0, is -6.5e-309
        # (bits lost), and is -0.0 again
        with pytest.raises(DomainError, match="normal double range"):
            solve_quantized_spectrum(PP, 0.0, m_ang, energy0, [0, n])
        with pytest.raises(DomainError, match="normal double range"):
            deep_ladder(energy0, m_ang, n)

    def test_free_levels_colliding_in_double_precision_raise(self):
        # exp(2 pi / 1e17) rounds to 1, so n = 1 repeats E0
        with pytest.raises(ConsistencyError, match="n=0 and n=1 collide"):
            solve_quantized_spectrum(PP, 0.0, 1e17, -1.0, range(0, 2))

    def test_units_scale_out(self):
        # natural units vs scaled units related by exact energy scaling
        pp2 = PhysicalParams(mass=2.0, hbar=0.5)
        e_nat = solve_quantized_spectrum(PP, 1.0, 1.0, -1.0, [2])[0].energy.real
        # E scale = m alpha^2 / hbar^2 = 8; anchor scales accordingly
        e_scaled = solve_quantized_spectrum(pp2, 1.0, 1.0, -8.0, [2])[0].energy.real
        assert e_scaled == pytest.approx(8.0 * e_nat, rel=1e-9)

    def test_deep_shallow_crossover_monotone(self):
        # the first-gap ratio E_1/E_0 interpolates monotonically from the
        # geometric ladder value e^{2 pi} (deep anchors) toward the
        # Rydberg-like value (g0/(g0-1))^2 (shallow anchors)
        anchors = [-1e6, -1e4, -1e2, -1.0, -1e-2]
        ratios = []
        for e0 in anchors:
            e1 = solve_quantized_spectrum(PP, 1.0, 1.0, e0, [1])[0].energy.real
            ratios.append(e1 / e0)
        assert abs(ratios[0] - math.exp(2 * math.pi)) / math.exp(2 * math.pi) < 1e-2
        assert ratios[-1] < 2.0
        assert all(b < a for a, b in zip(ratios, ratios[1:]))


def _solve(kind, pp, m_ang, energy0, n_range, tol=1e-10):
    if kind == "oscillator":
        entries = oscillator_quantized_spectrum(pp, 1.0, m_ang, energy0, n_range, tol)
    else:
        entries = solve_quantized_spectrum(pp, 1.0, m_ang, energy0, n_range, tol)
    return [e.energy.real for e in entries]


def _ln_g(kind, pp, energy):
    """ln g of a level, recomputed from its energy (alpha = omega = 1)."""
    if kind == "coulomb":
        return math.log(coulomb_scaling(pp, 1.0, energy).g)
    return math.log(energy / (2.0 * pp.hbar))


def _certified(kind, pp, m_ang, energy0, n_range, tol=1e-10, q=quantization_f):
    """The window's levels, each checked to lie within tol/4 of its root in
    ln g: q at ln g -+ tol/4 falls on either side of the target
    f(ln g0) +- pi n (q standing in for quantization_f)."""
    m_c, sign = (m_ang, 1.0) if kind == "coulomb" else (0.5 * m_ang, -1.0)

    def f(x):
        return q(math.exp(x), m_c)

    f0 = f(_ln_g(kind, pp, energy0))
    levels = _solve(kind, pp, m_ang, energy0, n_range, tol)
    for n, energy in zip(n_range, levels):
        x, target = _ln_g(kind, pp, energy), f0 + sign * math.pi * n
        assert n == 0 or (f(x - tol / 4) - target) * (f(x + tol / 4) - target) <= 0.0, n
    return levels


def _random_windows(kind):
    """Ten seeded (units, M, |E0|, n_range) ladder windows per kind."""
    rng = random.Random(f"ladder-parity-{kind}")
    units = (PP, PhysicalParams(mass=2.0, hbar=0.5))
    cases = [
        (units[i % 2], rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-0.3, 0.6),
         10 ** rng.uniform(-16, 9), rng.randint(-4, 0))
        for i in range(10)
    ]
    return [(pp, m_ang, mag, range(lo, lo + 5)) for pp, m_ang, mag, lo in cases]


class TestLadderParity:
    """The shared-scan ladder: its cost, its collapsed levels and what it
    keeps of the per-level rescan it replaced."""

    @pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
    def test_random_windows_are_certified(self, kind):
        # anchors reach g ~ 5e8, past g ~ 4e7 where f's last bits are
        # rounding noise
        for pp, m_ang, mag, n_range in _random_windows(kind):
            _certified(kind, pp, m_ang, mag if kind == "oscillator" else -mag, n_range)
        # at tol = 0.1 a bracket of one grid step (ln 10 / 64) is narrower
        # than tol/2, and refine returns its midpoint
        pp, m_ang, mag, n_range = _random_windows(kind)[0]
        _certified(kind, pp, m_ang, mag if kind == "oscillator" else -mag, n_range, tol=0.1)

    @pytest.mark.parametrize(
        "kind, m_ang, energy0, n_range",
        [("coulomb", 1.0, -2.0, range(-3, 4)), ("oscillator", 1.0, 25.0, range(4))],
    )
    def test_readme_windows_against_mpmath(self, kind, m_ang, energy0, n_range):
        # (f(g_n) - f(g_0) -+ pi n) / pi of each printed level, with f less
        # its g-independent term in 40-digit mpmath
        mp = pytest.importorskip("mpmath")
        coulomb = kind == "coulomb"
        m_c, sign = (m_ang, 1) if coulomb else (m_ang / 2, -1)

        def f(energy):
            g = 1 / mp.sqrt(-2 * mp.mpf(energy)) if coulomb else mp.mpf(energy) / 2
            return -m_c * mp.log(g) + mp.loggamma(mp.mpc(0.5 - g, m_c)).imag

        with mp.workdps(40):
            f0 = f(energy0)
            for n, energy in zip(n_range, _solve(kind, PP, m_ang, energy0, n_range)):
                assert abs(f(energy) - f0 - sign * mp.pi * n) / mp.pi <= 1e-10, n

    def test_free_levels_are_the_closed_form(self):
        # 136 decades per level at |M| = 0.02: n = +-2 lie 272 decades from
        # E0, past the 160 decades a ladder scan may walk
        cases = _random_windows("free")
        cases += [(PP, 0.02, 1.0, range(-2, 3)), (PP, -0.02, 1.0, range(-2, 3))]
        for pp, m_ang, mag, n_range in cases:
            got = [e.energy.real for e in solve_quantized_spectrum(pp, 0.0, m_ang, -mag, n_range)]
            want = [deep_ladder(-mag, m_ang, n) for n in n_range]
            assert [e.hex() for e in got] == [e.hex() for e in want]
        assert abs(got[0]) > 1e272 and abs(got[-1]) < 1e-272

    @pytest.mark.parametrize(
        "energy0, n_range, pair",
        [
            pytest.param(-1e-300, range(-1, 2), "n=0 and n=1", id="E0=-1e-300"),
            pytest.param(-1e-30, range(-2, 3), "n=-2 and n=-1", id="E0=-1e-30"),
        ],
    )
    def test_collapsed_levels_raise(self, energy0, n_range, pair):
        # the level spacing here is below what tol = 1e-10 resolves
        with pytest.raises(ConsistencyError, match=f"{pair}.* not strictly decreasing"):
            solve_quantized_spectrum(PP, 1.0, 1.0, energy0, n_range)

    def test_f_evaluations_do_not_grow_as_n_squared(self, monkeypatch):
        # one scan out to the deepest level plus at most 300 refinement
        # steps per level; rescanning from the anchor for every level
        # costs about 87 (1 + 2 + ... + 9) = 3,900 evaluations here
        calls = []

        def counting_f(g, m_ang):
            calls.append(g)
            return quantization_f(g, m_ang)

        monkeypatch.setattr(spectra, "quantization_f", counting_f)
        n_range = range(1, 10)
        entries = solve_quantized_spectrum(PP, 1.0, 1.0, -2.0, n_range)
        x0 = math.log(coulomb_scaling(PP, 1.0, -2.0).g)
        x_deep = math.log(coulomb_scaling(PP, 1.0, entries[-1].energy.real).g)
        scan = math.ceil(abs(x_deep - x0) / (math.log(10.0) / 64))
        assert len(calls) <= 1 + scan + 300 * len(n_range)

    @pytest.mark.parametrize(
        "kind, mass, m_ang, energy0, n_range, tol, want",
        [
            ("coulomb", 2.0, -693.391197855415, -6.962443843555782e230, range(-4, 0), 1e-10,
             ["-0x1.dc2cc5088ae04p+766", "-0x1.d7e126db06edcp+766", "-0x1.d39f73ff773efp+766",
              "-0x1.cf67958d587b3p+766"]),
            ("coulomb", 1.0, 0.0011985651968564627, -7.147441528530582e225, range(-5, -1), 6e-60,
             ["-0x1.93dee4ea6828cp-6", "-0x1.4da7254843d04p-5", "-0x1.46b34e2e40acep-4",
              "-0x1.c4d8c9fa43280p-3"]),
            ("coulomb", 2.0, -378.87709968532096, -1.609205231187473e-13, range(-5, 0), 8e-267,
             ["-0x1.6a5c8d48029b1p-43", "-0x1.6a5c83c1418f2p-43", "-0x1.6a5c7a3a80e80p-43",
              "-0x1.6a5c70b3c09d5p-43", "-0x1.6a5c672d00b4cp-43"]),
            ("oscillator", 1.0, -417.27370333326036, 9922.98811467283, range(-2, 3), 7e-122,
             ["0x1.3637e79825a6ep+13", "0x1.3627e7a06761bp+13", "0x1.3617e7a8aa640p+13",
              "0x1.3607e7b0eeacap+13", "0x1.35f7e7b9343dfp+13"]),
        ],
    )
    def test_midpoints_beside_the_root_match_rescan(
        self, kind, mass, m_ang, energy0, n_range, tol, want
    ):
        # In each window a rescan's bisection midpoint fell on the short end
        # of the last Illinois bracket; want holds the rescan's levels.
        # Where tol lies below what ln g resolves, no estimate can be
        # certified and the last bracket is bisected down to the same two
        # neighbouring doubles.  At tol = 1e-10 both levels lie within tol/4
        # of the root in ln g, so within tol/2 of each other.
        pp = PhysicalParams(mass=mass, hbar=0.5 if mass == 2.0 else 1.0)
        got = _solve(kind, pp, m_ang, energy0, n_range, tol)
        x = _ln_g(kind, pp, got[0])
        if x + tol / 4 == x:
            assert [e.hex() for e in got] == want
        else:
            assert _certified(kind, pp, m_ang, energy0, n_range, tol) == got
            for level, rescan in zip(got, want):
                x, x_rescan = _ln_g(kind, pp, level), _ln_g(kind, pp, float.fromhex(rescan))
                assert abs(x - x_rescan) <= tol / 2, rescan

    @pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
    def test_tol_wider_than_a_grid_cell_matches_rescan(self, kind):
        # tol/4 = 0.025 in ln g is most of a grid cell (ln 10 / 64 = 0.036),
        # so a rescan's bisection halved the cell once and stopped; the
        # level still lies within tol/4 of its root
        energy0 = 3.0 if kind == "oscillator" else -2.0
        for m_ang in (1.0, -0.4):
            _certified(kind, PP, m_ang, energy0, range(-3, 4), tol=0.1)

    @pytest.mark.parametrize(
        "kind, m_ang, energy0",
        [
            pytest.param("coulomb", 0.25, -1e6, id="deep"),
            pytest.param("coulomb", -0.25, -1e6, id="deep-M<0"),
            pytest.param("coulomb", 1.0, -1e-10, id="shallow"),
            pytest.param("oscillator", 1.0, 3.0, id="oscillator"),
        ],
    )
    def test_f_evaluations_per_level(self, monkeypatch, kind, m_ang, energy0):
        # a scan of 64 points per decade and 30-odd bisection steps took
        # about 100 evaluations per level
        calls = []

        def counting_f(g, m_c):
            calls.append(g)
            return quantization_f(g, m_c)

        monkeypatch.setattr(spectra, "quantization_f", counting_f)
        n_range = range(-4, 5)
        _solve(kind, PP, m_ang, energy0, n_range)
        assert len(calls) <= 15 * (len(n_range) - 1)

    def test_wide_windows_match_rescan(self):
        # |E0| from 1e-300 to 1e300 reaches levels whose energy leaves the
        # double range, scans that leave it, and scans cut at 160 decades
        rng = random.Random("ladder-parity-wide")
        units = (PP, PhysicalParams(mass=2.0, hbar=0.5))
        cases = [
            ("coulomb", PP, -0.0014, -2.2e8, range(-1, 1)),  # window end with g^2 = 0
            ("coulomb", PP, 1.0, -1e300, range(0, 5)),  # n = 4 is -inf
            ("coulomb", PP, 1.0, -1e300, range(9, 10)),  # g^2 = 0
            ("oscillator", PP, 1.0, 1.2e308, range(0, 2)),  # f(g0) is -inf
            ("coulomb", PP, 1.0, -5e-324, range(1, 2)),  # E = -0.0
            ("oscillator", PP, 1.0, 1e-320, range(-2, 0)),  # g = 0
        ]
        # windows 40 on put |E0| near the top (1e300 to 1.78e308) or the
        # bottom (1e-323 to 1e-300) of the double range: f, the levels or
        # the anchor itself leave it
        for i in range(52):
            kind = ("coulomb", "oscillator")[i % 2]
            m_ang = rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-3, 3)
            if i < 40:
                mag = 10 ** rng.uniform(-300, 300)
            elif i % 3:
                mag = 10 ** rng.uniform(300, 308.25)
            else:
                mag = 10 ** rng.uniform(-323, -300)
            lo = rng.randint(-4, 0)
            cases.append((
                kind, units[i // 2 % 2], m_ang, mag if kind == "oscillator" else -mag,
                range(lo, lo + rng.randint(1, 5)),
            ))
        outcomes = []
        for case in cases:
            try:
                _certified(*case)
                outcomes.append("levels")
            except Exception as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
        # Each window raises what the per-level rescan raised: the class
        # per window (l for levels) and the digest of every message.  Three
        # DomainErrors name the g of a level, which moved by about 1e-11.
        classes = "BDDDDDlCBClllCCllCClllClllClllllCBDlllCCClCClCDCDClllCDllD"
        assert "".join(outcome[0] for outcome in outcomes) == classes
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]
        assert digest == "a12079d460bf97f7", outcomes

    @pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
    def test_synthetic_f_levels_and_errors(self, kind, monkeypatch):
        # f = -M ln g puts the levels pi / |M| apart in ln g.  f raises
        # beyond ln g = 9, so a level past that point takes the error of
        # the first grid point there.
        def q(g, m_ang):
            x = math.log(g)
            if x > 9.0:
                raise DomainError(f"synthetic f refuses g={g!r}")
            return -m_ang * x

        monkeypatch.setattr(spectra, "quantization_f", q)
        energy0 = -2.0 if kind == "coulomb" else 2.0
        x0, step, k = _ln_g(kind, PP, energy0), math.log(10.0) / 64, 1
        while math.log(math.exp(x0 + k * step)) <= 9.0:
            k += 1
        outcomes = set()
        for m_ang in (1.0, -1.0, 0.4, -0.4):
            for n_range in (range(-4, 5), range(3, -4, -1), range(-2, 0)):
                try:
                    _certified(kind, PP, m_ang, energy0, n_range, q=q)
                    outcomes.add("levels")
                except DomainError as exc:
                    outcomes.add(str(exc))
        assert outcomes == {"levels", f"synthetic f refuses g={math.exp(x0 + k * step)!r}"}

    @pytest.mark.parametrize("steep", [1.0, 10.0])
    @pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
    def test_no_g_reaches_f_twice(self, kind, steep, monkeypatch):
        # The levels of one call share f's values and its refusals: with
        # the synthetic f above, which refuses past ln g = 9, no g reaches
        # f twice in one call, in the windows that raise as well.  Made
        # steep times steeper past ln g = 6, f draws secant probes past the
        # refusal that a later level makes again; 25 levels reach it too.
        calls = collections.Counter()

        def q(g, m_ang):
            calls[g] += 1
            x = math.log(g)
            if x > 9.0:
                raise DomainError(f"synthetic f refuses g={g!r}")
            return -m_ang * (x if x < 6.0 else 6.0 + steep * (x - 6.0))

        monkeypatch.setattr(spectra, "quantization_f", q)
        energy0, raised = -2.0 if kind == "coulomb" else 2.0, 0
        for m_ang in (1.0, -1.0, 0.4, -0.4):
            for n_range in (range(-4, 5), range(3, -4, -1), range(-2, 0), range(12, -13, -1)):
                calls.clear()
                try:
                    _solve(kind, PP, m_ang, energy0, n_range)
                except DomainError:
                    raised += 1
                assert max(calls.values()) == 1, (m_ang, n_range, calls.most_common(3))
        assert raised > 0

    @pytest.mark.parametrize("kind", ["coulomb", "oscillator"])
    def test_exact_hit_at_a_grid_point_is_the_level(self, kind, monkeypatch):
        # f = -M ln g with pi / M = 32 grid cells, except that grid point 32
        # is the n = 1 target exactly: that point is the level
        coulomb, step = kind == "coulomb", math.log(10.0) / 64
        m_c, x0 = math.pi / (32 * step), _ln_g(kind, PP, -2.0 if coulomb else 2.0)
        x_hit = x0 + (-1.0 if coulomb else 1.0) * 32 * step
        target = -m_c * math.log(math.exp(x0)) + (math.pi if coulomb else -math.pi)

        def q(g, m_ang):
            return target if g == math.exp(x_hit) else -m_ang * math.log(g)

        monkeypatch.setattr(spectra, "quantization_f", q)
        if coulomb:
            assert _solve(kind, PP, m_c, -2.0, [1]) == [_energy_from_g(PP, 1.0, math.exp(x_hit))]
        else:
            assert _solve(kind, PP, 2.0 * m_c, 2.0, [1]) == [2.0 * math.exp(x_hit)]


class TestLadders:
    def test_deep_ladder_values(self):
        assert deep_ladder(-1.0, 2 * math.pi, 0) == -1.0
        assert deep_ladder(-1.0, 2 * math.pi, 1) == pytest.approx(-math.e, rel=1e-15)

    def test_geometric_ratio_independent_of_n(self):
        for n in (-3, 0, 5):
            r = deep_ladder(-2.0, 1.5, n + 1) / deep_ladder(-2.0, 1.5, n)
            assert r == pytest.approx(math.exp(2 * math.pi / 1.5), rel=1e-12)

    def test_free_spectrum_example(self):
        assert deep_ladder(-1.0, 1.0, -1) == pytest.approx(-math.exp(-2 * math.pi), rel=1e-15)

    def test_spacing_grows_with_n(self):
        es = [deep_ladder(-1.0, 1.0, n) for n in range(4)]
        gaps = [abs(es[i + 1] - es[i]) for i in range(3)]
        assert gaps == sorted(gaps)

    def test_positive_reference_rejected(self):
        with pytest.raises(DomainError):
            deep_ladder(1.0, 1.0, 0)

    @pytest.mark.parametrize("m_ang", [math.inf, -math.inf])
    def test_non_finite_m_rejected(self, m_ang):
        # M = inf gave E0 for every n
        with pytest.raises(DomainError, match=f"M must be finite, got {m_ang}"):
            deep_ladder(-1.0, m_ang, 3)

    def test_non_integer_level_index_rejected(self):
        # each of these returned a level at n = 1.5 or 0.5 with no error
        # (shallow_spectrum's n + g0 took any real n);
        # an integer-valued float and a numpy int keep the int's bits
        calls = [
            (coulomb_closed_spectrum, (PP, 1.0, "n", 0.0)),
            (oscillator_closed_spectrum, (PP, 1.0, "n", 0.0)),
            (deep_ladder, (-1.0, 1.0, "n")),
            (shallow_spectrum, (PP, 1.0, 0.5, "n")),
            (solve_quantized_spectrum, (PP, 1.0, 1.0, -1.0, ["n"])),
            (solve_quantized_spectrum, (PP, 0.0, 1.0, -1.0, ["n"])),
            (oscillator_quantized_spectrum, (PP, 1.0, 1.0, 1.0, ["n"])),
        ]
        for func, args in calls:
            def call(n):
                return func(*[([n] if a == ["n"] else n if a == "n" else a) for a in args])

            for n in (1.5, 0.5, math.inf, math.nan):
                with pytest.raises(DomainError, match=f"^level index must be an integer, got {n}$"):
                    call(n)
            def bits(n):
                got = call(n)
                levels = [e.energy for e in got] if isinstance(got, list) else [got]
                return [(complex(e).real.hex(), complex(e).imag.hex()) for e in levels]

            want = bits(2)
            for n in (2.0, np.int64(2)):
                assert bits(n) == want, (func.__name__, n)


    def test_shallow_values(self):
        assert shallow_spectrum(PP, 1.0, 0.5, 0) == -2.0
        assert shallow_spectrum(PP, 1.0, 0.5, 1) == pytest.approx(-2.0 / 9.0, rel=1e-15)

    def test_shallow_large_n_limit(self):
        for n in (200, 2000):
            ratio = shallow_spectrum(PP, 1.0, 0.5, n) / (-1.0 / (2.0 * n * n))
            assert ratio == pytest.approx(1.0, rel=2.0 / n)


class TestDuality:
    def test_hand_example(self):
        d = duality_forward(PP, 1.0, -2.0, 0.0, 1.0)
        assert d.omega == pytest.approx(4.0, rel=1e-15)
        assert d.e_osc == pytest.approx(4.0, rel=1e-15)
        assert d.m_osc == 0.0

    def test_invariants_random(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            pp = PhysicalParams(rng.uniform(0.2, 5), rng.uniform(0.2, 5))
            alpha = rng.uniform(0.05, 8)
            e_c = -rng.uniform(1e-4, 1e4)
            m_c = rng.uniform(-4, 4)
            r0 = rng.uniform(0.01, 50)
            d = duality_forward(pp, alpha, e_c, m_c, r0)
            assert d.r0_scale * d.e_osc == pytest.approx(4 * alpha, rel=1e-12)
            assert pp.mass * d.omega**2 * d.r0_scale**2 == pytest.approx(
                -8 * e_c, rel=1e-12
            )
            assert d.m_osc == 2 * m_c

    def test_energy_relation_roundtrip(self):
        alpha = 2.0
        d = duality_forward(PP, alpha, -3.0, 1.0, 0.7)
        e_back = -2.0 * (alpha * d.omega) ** 2 * PP.mass / d.e_osc**2
        assert e_back == pytest.approx(-3.0, rel=1e-10)

    def test_positive_coulomb_energy_rejected(self):
        with pytest.raises(DomainError):
            duality_forward(PP, 1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("e_c, r0", [(-1.0, 1e-160), (-1e308, 1.0)])
    def test_omega_overflow_raises(self, e_c, r0):
        # omega overflowed to inf and failed the energy relation instead:
        # ConsistencyError "duality energy relation violated: 4e+160 vs inf"
        with pytest.raises(DomainError, match=r"omega = sqrt\(-8 E_C / \(m r0\^2\)\) at "
                           r".* leaves the double range"):
            duality_forward(PP, 1.0, e_c, 0.5, r0)

    def test_e_osc_overflow_raises(self):
        # E_osc = 4 alpha / r0 overflowed to inf and passed the energy
        # relation, since inf - inf is NaN
        with pytest.raises(DomainError, match=r"E_osc = 4 alpha / r0 at alpha=1e\+300, "
                           r"r0_scale=1e-10 leaves the double range"):
            duality_forward(PP, 1e300, -1.0, 0.5, 1e-10)

    def test_relation_holds_where_2_alpha_omega_overflows(self):
        # 2 alpha omega = 5.7e310 overflowed inside the relation, which
        # then raised ConsistencyError "4e+300 vs inf"
        d = duality_forward(PP, 1e300, -1e20, 0.5, 1.0)
        assert (d.omega, d.e_osc) == (math.sqrt(8e20), 4e300)

    def test_subnormal_m_r0_squared_raises(self):
        # m r0^2 = 1e-320 keeps a few bits, so omega did too, and the
        # energy relation failed: ConsistencyError "duality energy relation
        # violated: 40000000000.00012 vs 40000222658.20545"
        pp = PhysicalParams(mass=1e300, hbar=1.0)
        with pytest.raises(DomainError, match=r"m r0\^2 at mass=1e\+300, r0_scale=1e-310 is "
                           r"1e-320, subnormal: it leaves the normal double range"):
            duality_forward(pp, 1e-300, -1e-300, 0.5, 1e-310)

    def test_omega_underflow_raises(self):
        # m r0^2 = 1e400 overflowed to inf, so omega came out 0 and failed
        # the energy relation with ConsistencyError
        with pytest.raises(DomainError, match=r"omega = .* r0_scale=1e\+200 leaves the double range"):
            duality_forward(PP, 1.0, -1.0, 0.5, 1e200)


class TestOscillator:
    def test_closed_values(self):
        assert oscillator_closed_spectrum(PP, 1.0, 0, 0.0) == 1.0
        assert oscillator_closed_spectrum(PP, 1.0, 2, 0.0) == 5.0
        assert oscillator_closed_spectrum(PP, 1.0, 0, 3.0) == complex(1, 3)

    def test_closed_exact_m0(self):
        pp = PhysicalParams(mass=1.0, hbar=0.7)
        for n in range(8):
            got = oscillator_closed_spectrum(pp, 1.3, n, 0.0)
            assert got.real == pp.hbar * 1.3 * (2 * n + 1)
            assert got.imag == 0.0

    def test_spacing(self):
        for n in range(4):
            diff = oscillator_closed_spectrum(PP, 2.0, n + 1, 1.0) - oscillator_closed_spectrum(
                PP, 2.0, n, 1.0
            )
            assert diff == pytest.approx(2 * 2.0, rel=1e-15)

    def test_ground_state_is_gaussian(self):
        for rho in (0.3, 1.0, 2.2):
            got = oscillator_wavefunction(PP, 1.0, 0, 0.0, rho, 0.0)
            assert got.real == pytest.approx(math.exp(-rho * rho / 2), rel=1e-14)
            assert got.imag == 0.0

    def test_n_must_be_an_integer(self):
        # a non-integer n has no terminating series; 2.5 returned
        # (-0.1638+0.3781j) from F(-2.5, 1 + 0.7i, z).  A NaN or inf n
        # raised "Kummer parameters must be finite" and now raises here.
        want = _hex_bits(oscillator_wavefunction(PP, 1.0, 3, 0.7, 1.0, 0.0))
        for n in (2.5, np.array(2.5), 1e-300, 3.0000000000000004, math.nan, math.inf):
            for _ in range(2):  # on a miss and after a valid call with n = 3
                with pytest.raises(DomainError, match=r"^n must be an integer, got "):
                    oscillator_wavefunction(PP, 1.0, n, 0.7, 1.0, 0.0)
                assert _hex_bits(oscillator_wavefunction(PP, 1.0, 3, 0.7, 1.0, 0.0)) == want
        with pytest.raises(DomainError, match=r"^n must be >= 0, got -inf$"):
            oscillator_wavefunction(PP, 1.0, -math.inf, 0.7, 1.0, 0.0)
        for n in (3.0, np.array(3), np.float64(3.0), np.array(3.0)):
            spectra._oscillator_last = (math.nan,) * 3 + (None, None)
            assert _hex_bits(oscillator_wavefunction(PP, 1.0, n, 0.7, 1.0, 0.0)) == want, n

    def test_first_excited_node(self):
        assert oscillator_wavefunction(PP, 1.0, 1, 0.0, 1.0, 0.0) == 0.0

    def test_modulus_independent_of_phi_and_phase(self):
        mags = {
            round(abs(oscillator_wavefunction(PP, 1.0, 1, 2.0, 0.8, phi)), 13)
            for phi in (-2.0, 0.0, 1.3)
        }
        assert len(mags) == 1

    def test_matches_constructor_based_reference(self):
        # the amplitude keeps the bits of the code that built its series
        # parameters on every call and its prefactor's scalars through
        # numpy scalar constructors, signs of zero included, with M = +0.0
        # and -0.0 called in turn
        rng = random.Random("oscillator-prefactor")
        for _ in range(100):
            mass, hbar, omega = (math.exp(rng.uniform(-2.0, 2.0)) for _ in range(3))
            pp, n = PhysicalParams(mass, hbar), rng.randint(0, 6)
            rho = math.exp(rng.uniform(math.log(1e-3), math.log(5.0)))
            phi = rng.uniform(-3.0, 3.0)
            for m_osc in (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0):
                got = oscillator_wavefunction(pp, omega, n, m_osc, rho, phi)
                want = _constructor_oscillator_wavefunction(pp, omega, n, m_osc, rho, phi)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_quantized_small_ladder(self):
        ent = oscillator_quantized_spectrum(PP, 1.0, 1.0, 2e-4, [-1, 0])
        assert ent[1].energy.real == 2e-4
        ratio = ent[0].energy.real / 2e-4
        assert ratio == pytest.approx(math.exp(-2 * math.pi), rel=1e-3)

    def test_m_osc_stored_on_entries(self):
        ent = oscillator_quantized_spectrum(PP, 1.0, 3.0, 1.0, [0, -1])
        assert all(e.m_ang == 3.0 for e in ent)

    def test_duality_substitution_reproduces_wavefunction(self):
        # at M = 0 the oscillator amplitude is the Coulomb one under
        # x = m omega rho^2 / hbar:  Psi_osc(rho) = u1(x)/sqrt(x) up to a
        # constant (here exactly 1)
        n, g = 1, 1.5
        for rho in (0.4, 1.3, 2.1):
            x = rho * rho  # m = omega = hbar = 1
            psi = oscillator_wavefunction(PP, 1.0, n, 0.0, rho, 0.0)
            via_coulomb = coulomb_u1(g, 0.0, x) / math.sqrt(x)
            assert psi == pytest.approx(via_coulomb, rel=1e-13)

    def test_negative_reference_rejected(self):
        with pytest.raises(DomainError):
            oscillator_quantized_spectrum(PP, 1.0, 1.0, -1.0, [0])

    def test_overflowing_argument_raises(self):
        # z = m omega rho^2 / hbar overflows from rho ~ 1.3e154; below that
        # the Gaussian factor takes the amplitude to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oscillator_wavefunction(PP, 1.0, 2, 1.0, 1e150, 0.0) == 0.0
            with pytest.raises(DomainError, match=r"rho\^2 / hbar leaves the double range"):
                oscillator_wavefunction(PP, 1.0, 2, 1.0, 1e200, 0.0)


class TestOscillatorRange:
    @pytest.mark.parametrize("n", [0, 2, 300])
    def test_quiet_and_unchanged_near_the_top_of_the_double_range(self, n):
        # Only z past the polynomial's safe bound (1.07e5 for n = 300), an
        # inf or NaN z, or an M phi that overflows runs under np.errstate.
        # No point warns, and wrapping a call in that errstate changes no
        # bit of its value and no error.
        rhos = [float(r) for r in np.geomspace(1.0, 1e154, 48)]
        cases = [(PP, 1.0, rho) for rho in rhos + [1.3e154, 1.4e154, 1e200, math.inf]]
        cases.append((PhysicalParams(1e-200, 1.0), 1e-200, math.inf))  # z = 0 * inf, NaN
        for pp, omega, rho in cases:
            for m_osc, phi in ((0.0, 0.0), (-1.0, 2.0), (1e300, 1.5), (1e300, 1e10)):
                args = (pp, omega, n, m_osc, rho, phi)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = _outcome(oscillator_wavefunction, *args)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = _outcome(oscillator_wavefunction, *args)
                assert got == want, args


class TestQuietRange:
    def test_errstate_entered_only_past_the_quiet_bound(self, monkeypatch):
        # Entering np.errstate costs more than a tenth of a short series.
        # The series' range rule leaves it out of every u1, u2, third and
        # oscillator point up to z = 80, polynomials included; at z = 3e4,
        # past the rule's bound, the series enters it and overflows quietly.
        zs = [float(z) for z in np.geomspace(1e-4, 80.0, 40)]
        zs += [float(z) for z in np.linspace(0.5, 80.0, 40)]
        coulomb = [(0.7, 0.5), (2.0, 1.0), (8.0, -1.0), (20.0, 4.0), (2.5, 0.0), (1.7, -0.0)]
        entered = []
        errstate = np.errstate

        def counted(*args, **kwargs):
            entered.append(kwargs)
            return errstate(*args, **kwargs)

        monkeypatch.setattr(specfun.np, "errstate", counted)
        for z in zs:
            for g, m_ang in coulomb:
                coulomb_u1(g, m_ang, z)
                coulomb_u2(g, m_ang, z)
                coulomb_third(g, m_ang, z, GAMMA_PHASE_G2_M1)
            for n, m_osc, phi in ((0, 1.0, 0.3), (3, 1.0, 0.3), (40, -0.5, 2.0), (2, 0.0, 0.0)):
                oscillator_wavefunction(PP, 1.0, n, m_osc, math.sqrt(z), phi)
        assert entered == []
        with pytest.raises(DomainError, match="double range"):
            coulomb_u1(2.0, 1.0, 3e4)
        assert entered


def _constructor_oscillator_wavefunction(pp, omega, n, m_osc, rho, phi):
    """oscillator_wavefunction with its series parameters and prefactor
    scalars built on every call."""
    z = pp.mass * omega * rho * rho / pp.hbar
    params = KummerParams(complex(-n, 0.0), complex(1.0, m_osc))
    lnrho = np.log(np.clongdouble(rho))
    pref = np.exp(
        np.clongdouble(1j * m_osc) * lnrho
        - np.clongdouble(z) / 2
        + np.clongdouble(1j * m_osc * phi)
    )
    return complex(pref * _kummer_m_ld(params, z, DEFAULT_SERIES_TOL))


class TestThirdSolutionPhaseLaw:
    def test_small_z_oscillation(self):
        # u/sqrt(z) ~ 2i e^{-i gamma} sin(M ln z + gamma) near the origin
        g, m_ang = 2.0, 1.0
        rp = gamma_phase(g, m_ang)
        zs = np.geomspace(1e-9, 1e-6, 120)
        osc = []
        for z in zs:
            u = coulomb_third(g, m_ang, float(z), rp.gamma)
            osc.append((u / math.sqrt(z) * cmath.exp(1j * rp.gamma) / 2j).real)
        osc = np.array(osc)
        model = np.sin(m_ang * np.log(zs) + rp.gamma)
        amp = float(np.linalg.lstsq(model[:, None], osc, rcond=None)[0][0])
        resid = float(np.sqrt(np.mean((osc - amp * model) ** 2))) / abs(amp)
        assert resid < 1e-6

    def test_decay_at_infinity_and_sensitivity(self):
        g, m_ang = 2.0, 1.0
        rp = gamma_phase(g, m_ang)
        zs = np.geomspace(0.5, 35.0, 200)
        max_u = max(abs(coulomb_third(g, m_ang, float(z), rp.gamma)) for z in zs)
        tail = abs(coulomb_third_asymptotic(g, m_ang, 60.0, rp.gamma))
        assert tail / max_u < 1e-6
        tail_bad = abs(coulomb_third_asymptotic(g, m_ang, 60.0, rp.gamma + 0.1))
        assert tail_bad / tail > 1e3

    def test_default_gamma_costs_two_lngamma_per_grid(self, monkeypatch):
        # gamma = None solves gamma_phase on every point, from the same two
        # lnGamma arguments, which lnGamma's memo then holds: the grid gets
        # the bits of gamma passed, for two evaluations in all
        g, m_ang = 2.0, 1.0
        zs = [float(z) for z in np.geomspace(0.5, 30.0, 40)]
        gamma = gamma_phase(g, m_ang).gamma
        want = [_hex_bits(coulomb_third(g, m_ang, z, gamma)) for z in zs]
        core = specfun._lanczos_core
        evaluations = []
        monkeypatch.setattr(specfun, "_lanczos_core", lambda z: evaluations.append(z) or core(z))
        specfun._ln_gamma_kept.cache_clear()
        assert [_hex_bits(coulomb_third(g, m_ang, z)) for z in zs] == want
        assert len(evaluations) == 2

    def test_series_third_solution_stays_small_at_moderate_z(self):
        # series evaluation is still well conditioned at z ~ 35
        g, m_ang = 2.0, 1.0
        rp = gamma_phase(g, m_ang)
        val = abs(coulomb_third(g, m_ang, 35.0, rp.gamma))
        assert val < 1e-4


class TestClosedFormResidual:
    """Closed-form eigenfunctions solve u'' + Q u = 0 to 1e-8 scaled residual.

    Double-precision central differences bottom out near 7e-8 (truncation
    vs roundoff trade-off), so the measurement runs in 80-bit longdouble
    on closed forms spot-checked against coulomb_u1.
    """

    @staticmethod
    def _segment_residual(u_func, q_func, z_lo, z_hi, h):
        z = np.arange(z_lo, z_hi, h, dtype=np.longdouble)
        u = u_func(z)
        d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (np.longdouble(h) * np.longdouble(h))
        qu = q_func(z) * u
        return np.max(np.abs(d2 + qu[1:-1])), np.max(np.abs(qu))

    @pytest.mark.parametrize("g", [0.5, 1.5])
    def test_residual_below_1e8(self, g):
        n = int(g - 0.5)

        def u_func(z):
            # F(-n, 1, z) for n = 0, 1 written out; verified against coulomb_u1
            poly = 1.0 - z if n == 1 else np.ones_like(z)
            return np.sqrt(z) * np.exp(-z / 2) * poly

        def q_func(z):
            return 0.25 / (z * z) + g / z - np.longdouble(0.25)

        # identity check against the series implementation at double precision
        for z in np.geomspace(0.1, 30.0, 60):
            series = coulomb_u1(g, 0.0, float(z))
            closed = complex(u_func(np.longdouble(z)))
            assert abs(series - closed) < 1e-13 * max(abs(series), 1e-3)

        # fine step near the edge where u'''' is largest, coarser beyond
        r1, s1 = self._segment_residual(u_func, q_func, 0.1, 1.0, 1e-5)
        r2, s2 = self._segment_residual(u_func, q_func, 1.0, 30.0, 1e-4)
        scale = max(s1, s2)
        assert float(max(r1, r2) / scale) < 1e-8


@pytest.mark.parametrize(
    "call, args, match",
    [
        # each of these returned NaN or +-inf, or warned, at |M| near the
        # top of the double range
        pytest.param(coulomb_closed_spectrum, (PP, 1.0, 0, 1.4e154), "double range", id="closed"),
        pytest.param(coulomb_closed_spectrum, (PP, 1.0, 3, -1e200), "double range", id="closed-neg"),
        pytest.param(oscillator_closed_spectrum, (PP, 10.0, 0, 1e308), "double range", id="osc-closed"),
        pytest.param(
            duality_forward, (PP, 1.0, -2.0, 1e308, 1.0), "M_osc = 2 M_coulomb must be finite",
            id="duality",
        ),
        pytest.param(gamma_phase, (2.0, 1e308), "2M must be finite", id="phase"),
        pytest.param(quantization_f, (2.0, 1e308), "2M must be finite", id="f"),
        pytest.param(quantization_f, (2.0, -1e308), "2M must be finite", id="f-neg"),
        pytest.param(
            solve_quantized_spectrum, (PP, 1.0, 1e308, -2.0, [0, 1]), "2M must be finite",
            id="ladder",
        ),
        pytest.param(coulomb_third, (2.0, 1e308, 1.0), "2M must be finite", id="third-auto"),
        pytest.param(coulomb_u1_asymptotic, (2.0, 1e308, 40.0), "2M must be finite", id="u1-asym"),
        pytest.param(
            coulomb_third_asymptotic, (2.0, -1e308, 40.0, 0.5), "2M must be finite",
            id="third-asym",
        ),
        # this returned inf+infj
        pytest.param(ln_gamma, (1e308 + 1e308j,), "double range", id="lngamma-huge"),
        pytest.param(ln_gamma, (1e306,), "double range", id="lngamma-huge-real"),
        # these raised ZeroDivisionError where -2 m E underflows to 0
        pytest.param(
            coulomb_scaling, (PhysicalParams(1e-200, 1.0), 1.0, -1e-250), "underflows to 0",
            id="scaling-underflow",
        ),
        pytest.param(
            bound_state_length, (PhysicalParams(1e-200, 1.0), -1e-250), "underflows to 0",
            id="length-underflow",
        ),
        pytest.param(
            scaled_config, (PhysicalParams(1e-200, 1.0), -1e-250), "underflows to 0",
            id="config-underflow",
        ),
    ],
)
def test_huge_m_raises(call, args, match):
    with pytest.raises(DomainError, match=match):
        call(*args)


@pytest.mark.parametrize(
    "call, args, match",
    [
        # each of these returned a level of 0.0, -0.0, -inf or a subnormal
        pytest.param(
            coulomb_closed_spectrum, (PP, 1e-170, 0, -1.0),
            r"closed-form level n=0 at alpha=1e-170, M=-1.0 is \(-0-0j\): it leaves",
            id="closed-alpha-squared-underflows",
        ),
        pytest.param(
            oscillator_closed_spectrum, (PhysicalParams(1.0, 0.1), 5e-324, 1, 0.0),
            r"closed-form level n=1 at omega=5e-324, M_osc=0.0 is 0j: it leaves",
            id="osc-closed-hbar-omega-underflows",
        ),
        pytest.param(
            shallow_spectrum, (PP, 1e200, 0.5, 0),
            "shallow level n=0 at alpha=1e[+]200, g0=0.5 is -inf: it leaves the double range",
            id="shallow-overflows",
        ),
        pytest.param(
            shallow_spectrum, (PhysicalParams(1e-300, 1.0), 1e-10, 0.5, 0),
            "shallow level n=0 at alpha=1e-10, g0=0.5 is -2e-320: it leaves the double range",
            id="shallow-subnormal",
        ),
        # this raised ZeroDivisionError where hbar sqrt(-2 m E) underflows to 0
        pytest.param(
            coulomb_scaling, (PhysicalParams(1.0, 1e-300), 1.0, -1e-50),
            r"hbar sqrt\(-2 m E\) at hbar=1e-300, mass=1.0, E=-1e-50 underflows to 0: "
            "it leaves the double range",
            id="scaling-denominator-underflows",
        ),
    ],
)
def test_values_outside_the_normal_range_raise(call, args, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            call(*args)


@pytest.mark.parametrize(
    "call, args, kwargs",
    [
        pytest.param(coulomb_closed_spectrum, (PP, math.nan, 0, 1.0), {}, id="closed-alpha"),
        pytest.param(shallow_spectrum, (PP, math.nan, 0.5, 0), {}, id="shallow-alpha"),
        pytest.param(oscillator_closed_spectrum, (PP, math.nan, 0, 1.0), {}, id="osc-closed-omega"),
        pytest.param(
            oscillator_quantized_spectrum, (PP, math.nan, 1.0, 1.0, [0, 1]), {},
            id="osc-ladder-omega",
        ),
        pytest.param(duality_forward, (PP, math.nan, -2.0, 0.5, 1.0), {}, id="duality-alpha"),
        pytest.param(duality_forward, (PP, 1.0, -2.0, 0.5, math.nan), {}, id="duality-r0_scale"),
        pytest.param(gamma_phase, (math.nan, 1.0), {}, id="phase-g"),
        pytest.param(gamma_phase, (2.0, 1.0), {"r0": math.nan}, id="phase-r0"),
        pytest.param(quantization_f, (math.nan, 1.0), {}, id="f-g"),
        pytest.param(
            solve_quantized_spectrum, (PP, 1.0, 1.0, -2.0, [0, 1]), {"tol": math.nan},
            id="ladder-tol",
        ),
        pytest.param(
            oscillator_quantized_spectrum, (PP, 1.0, 1.0, 1.0, [0, 1]), {"tol": math.nan},
            id="osc-ladder-tol",
        ),
        # +-inf as well as NaN: each of these returned NaN, -0.0, a beta of
        # -inf or a wrong level, warned, or raised an untyped error
        pytest.param(gamma_phase, (math.inf, 1.0), {}, id="phase-g-inf"),
        pytest.param(gamma_phase, (2.0, math.nan), {}, id="phase-M"),
        pytest.param(gamma_phase, (2.0, math.inf), {}, id="phase-M-inf"),
        pytest.param(gamma_phase, (2.0, 1.0), {"r0": math.inf}, id="phase-r0-inf"),
        pytest.param(quantization_f, (math.inf, 1.0), {}, id="f-g-inf"),
        pytest.param(quantization_f, (2.0, math.nan), {}, id="f-M"),
        pytest.param(quantization_f, (2.0, -math.inf), {}, id="f-M-inf"),
        pytest.param(solve_quantized_spectrum, (PP, 1.0, math.nan, -2.0, [0, 1]), {}, id="ladder-M"),
        pytest.param(
            solve_quantized_spectrum, (PP, 1.0, math.inf, -2.0, [0, 1]), {}, id="ladder-M-inf"
        ),
        pytest.param(
            oscillator_quantized_spectrum, (PP, 1.0, math.nan, 1.0, [0, 1]), {},
            id="osc-ladder-M",
        ),
        pytest.param(
            oscillator_quantized_spectrum, (PP, 1.0, math.inf, 1.0, [0, 1]), {},
            id="osc-ladder-M-inf",
        ),
        pytest.param(
            oscillator_quantized_spectrum, (PP, 1.0, 1.0, math.inf, [0, 1]), {},
            id="osc-ladder-E0-inf",
        ),
        pytest.param(coulomb_u1, (math.inf, 1.0, 1.0), {}, id="u1-g-inf"),
        pytest.param(coulomb_u1, (math.nan, 1.0, 1.0), {}, id="u1-g"),
        pytest.param(coulomb_u2, (math.inf, 1.0, 1.0), {}, id="u2-g-inf"),
        pytest.param(coulomb_u2, (math.nan, 1.0, 1.0), {}, id="u2-g"),
        pytest.param(coulomb_third, (math.inf, 1.0, 1.0, 0.5), {}, id="third-g-inf"),
        pytest.param(coulomb_third, (math.nan, 1.0, 1.0, 0.5), {}, id="third-g"),
        pytest.param(coulomb_third, (math.inf, 1.0, 1.0), {}, id="third-auto-g-inf"),
        pytest.param(coulomb_third, (2.0, 1.0, 1.0, math.inf), {}, id="third-gamma-inf"),
        pytest.param(coulomb_third_asymptotic, (math.nan, 1.0, 40.0, 0.5), {}, id="third-asym-g"),
        # ln_gamma raised ValueError or OverflowError, or warned and
        # returned nan+nanj
        pytest.param(ln_gamma, (math.nan,), {}, id="lngamma-z"),
        pytest.param(ln_gamma, (-math.inf,), {}, id="lngamma-z-inf"),
        pytest.param(ln_gamma, (complex(0.0, math.nan),), {}, id="lngamma-z-imag"),
        # these blamed e^(z/2) z^(-g) for leaving the double range
        pytest.param(coulomb_u1_asymptotic, (math.nan, 1.0, 5.0), {}, id="u1-asym-g"),
        pytest.param(coulomb_u1_asymptotic, (2.0, -math.inf, 5.0), {}, id="u1-asym-M-inf"),
        # tol = inf returned a wrong number: the series stopped at the first
        # term where its tail test could run
        pytest.param(coulomb_u1, (2.0, 1.0, 3.0), {"tol": math.inf}, id="u1-tol-inf"),
        pytest.param(coulomb_u2, (2.0, 1.0, 3.0), {"tol": math.inf}, id="u2-tol-inf"),
        pytest.param(coulomb_third, (2.0, 1.0, 3.0, 0.5), {"tol": math.inf}, id="third-tol-inf"),
        pytest.param(coulomb_third, (2.0, 1.0, 3.0), {"tol": math.nan}, id="third-auto-tol"),
        # these blamed z for leaving the double range
        pytest.param(oscillator_wavefunction, (PP, 1.0, 2, math.nan, 1.0, 0.0), {}, id="osc-wave-M"),
        pytest.param(oscillator_wavefunction, (PP, 1.0, 2, math.inf, 1.0, 0.0), {}, id="osc-wave-M-inf"),
        pytest.param(oscillator_wavefunction, (PP, 1.0, 2, 1.0, 1.0, math.nan), {}, id="osc-wave-phi"),
        pytest.param(oscillator_wavefunction, (PP, 1.0, 2, 1.0, 1.0, -math.inf), {}, id="osc-wave-phi-inf"),
        pytest.param(coulomb_closed_spectrum, (PP, 1.0, 0, math.nan), {}, id="closed-M"),
        pytest.param(coulomb_closed_spectrum, (PP, 1.0, 0, math.inf), {}, id="closed-M-inf"),
        pytest.param(oscillator_closed_spectrum, (PP, 1.0, 0, math.nan), {}, id="osc-closed-M"),
        pytest.param(oscillator_closed_spectrum, (PP, math.inf, 0, 1.0), {}, id="osc-closed-omega-inf"),
        pytest.param(shallow_spectrum, (PP, 1.0, math.inf, 0), {}, id="shallow-g0-inf"),
        pytest.param(duality_forward, (PP, 1.0, -math.inf, 0.5, 1.0), {}, id="duality-EC-inf"),
        pytest.param(duality_forward, (PP, 1.0, -2.0, math.nan, 1.0), {}, id="duality-MC"),
        pytest.param(
            solve_quantized_spectrum, (PP, 1.0, 1.0, -math.inf, [0, 1]), {}, id="ladder-E0-inf"
        ),
        pytest.param(
            solve_quantized_spectrum, (PP, 1.0, 1.0, -2.0, [0, 1]), {"tol": math.inf},
            id="ladder-tol-inf",
        ),
        pytest.param(
            oscillator_quantized_spectrum, (PP, math.inf, 1.0, 1.0, [0, 1]), {},
            id="osc-ladder-omega-inf",
        ),
    ],
)
def test_nan_parameter_raises(call, args, kwargs):
    # refused as a parameter, not blamed on a value leaving the double range
    with pytest.raises(DomainError) as excinfo:
        call(*args, **kwargs)
    assert "double range" not in str(excinfo.value)
