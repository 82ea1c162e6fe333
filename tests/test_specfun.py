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

from minkqm import specfun, spectra
from minkqm.errors import ConvergenceError, DomainError, PoleError
from minkqm.model import NATURAL_UNITS
from minkqm.specfun import DEFAULT_SERIES_CAP, KummerParams, _kummer_m_ld, kummer_m, ln_gamma

# 40-digit offline references
LN_GAMMA_1_2I = complex(-1.8760787864309293, 0.12964631630978831)
KUMMER_M_EX = complex(5.8129515019609662, -1.4869233347423615)  # F(0.5+i, 1+2i, 3)


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

    def test_matches_constructor_based_reference(self):
        # _ln_gamma_ld keeps the bits of the code that built every constant
        # and promoted z through np.clongdouble, and summed the Lanczos
        # terms in a loop: in both half planes, on the reflection branch,
        # at imaginary parts of +-0 and of magnitude down to 1e-300, and at
        # the points where 1 - e^(2 pi i z) rounds to 0 (PoleError)
        rng = np.random.default_rng(2024)
        zs = [complex(x, y) for x, y in rng.uniform(-40.0, 40.0, size=(400, 2))]
        zs += [complex(x, y) for x, y in rng.uniform(-6.0, 0.5, size=(400, 2))]
        for x in np.concatenate([rng.uniform(-30.0, 30.0, 300), [0.5, 0.25, 1.0, 2.0]]):
            tiny = 10.0 ** rng.uniform(-300.0, -1.0)
            zs += [complex(x, y) for y in (0.0, -0.0, tiny, -tiny)]
        zs += [complex(0.0, y) for y in (1e-21, -1e-300, 0.3)]
        # the ladder's arguments: 1/2 - g + iM and 1 + 2iM, over the g and M
        # of deep and shallow levels
        gs = 10.0 ** rng.uniform(-6.0, 12.0, 1000)
        ms = 10.0 ** rng.uniform(-6.0, 8.0, 1000) * rng.choice([-1.0, 1.0], 1000)
        zs += [complex(0.5 - g, m) for g, m in zip(gs, ms)]
        zs += [complex(1.0, 2.0 * m) for m in ms]
        outcomes = [(_outcome(specfun._ln_gamma_ld, z), _outcome(_reference_ln_gamma_ld, z))
                    for z in zs]
        for z, (got, want) in zip(zs, outcomes):
            assert got == want, z
        assert sum(isinstance(got, tuple) and got[0] == "PoleError" for got, _ in outcomes) == 2


class TestLnGammaMemo:
    """lnGamma keeps its last two values; a kept value is the value."""

    @pytest.fixture(autouse=True)
    def _cold(self):
        specfun._ln_gamma_kept.cache_clear()
        yield
        specfun._ln_gamma_kept.cache_clear()

    @pytest.mark.parametrize(
        "a, b",
        [
            (complex(2.5, 0.0), complex(2.5, -0.0)),  # imaginary +-0
            (complex(-2.5, 0.0), complex(-2.5, -0.0)),  # on the cut, reflected
            (complex(0.0, 0.3), complex(-0.0, 0.3)),  # real +-0, reflected
            (complex(0.0, -0.3), complex(-0.0, -0.3)),  # real +-0, lower half
            (complex(-1.5, 1.0), complex(1.0, 2.0)),  # the ladder's two, g = 2, M = 1
            (complex(-6.3, 0.7), complex(-6.3, -0.7)),  # reflection, both half planes
        ],
    )
    def test_hits_keep_the_cold_bits(self, a, b):
        # Signed zeros, where complex equality merges +0 and -0, get an
        # entry each: the second of a pair is evaluated, never read from
        # the first.  A kept value is read back with the bits a cold
        # evaluation gives, in either order, and on a third call.
        cold = []
        for z in (a, b):
            specfun._ln_gamma_kept.cache_clear()
            cold.append(_hex_bits(specfun._ln_gamma_ld(z)))
        for first, second in ((0, 1), (1, 0)):
            specfun._ln_gamma_kept.cache_clear()
            for i in (first, second, first, second):
                assert _hex_bits(specfun._ln_gamma_ld((a, b)[i])) == cold[i], ((a, b)[first], i)
            info = specfun._ln_gamma_kept.cache_info()
            assert (info.misses, info.hits, info.currsize) == (2, 2, 2)

    def test_pole_is_raised_every_call_and_never_kept(self):
        # 1 - e^(2 pi i z) rounds to 0 at z = 1e-21 i
        z = complex(0.0, 1e-21)
        for calls in (1, 2, 3):
            with pytest.raises(PoleError, match="sin\\(pi z\\) rounds to 0"):
                specfun._ln_gamma_ld(z)
            info = specfun._ln_gamma_kept.cache_info()
            assert (info.misses, info.hits, info.currsize) == (calls, 0, 0)

    def test_ladder_evaluates_the_constant_once_per_call(self, monkeypatch):
        # f(g) alternates lnGamma(1/2 - g + iM), new on each call, with
        # lnGamma(1 + 2iM), the same in one ladder.  Every evaluation runs
        # the Lanczos sum once, and 1 + 2iM reaches it as itself (never
        # through the reflection), so its calls there count its evaluations.
        core = specfun._lanczos_core
        seen = []
        monkeypatch.setattr(
            specfun, "_lanczos_core", lambda z: seen.append(complex(z)) or core(z)
        )
        qf = spectra.quantization_f
        f_calls = []
        monkeypatch.setattr(spectra, "quantization_f", lambda g, m: f_calls.append(g) or qf(g, m))
        ladders = [
            (complex(1.0, 2.0), lambda: spectra.solve_quantized_spectrum(
                NATURAL_UNITS, 1.0, 1.0, -2.0, range(-2, 4))),
            (complex(1.0, 3.0), lambda: spectra.oscillator_quantized_spectrum(
                NATURAL_UNITS, 1.0, 3.0, 25.0, range(-2, 3))),
        ]
        for constant, ladder in ladders:
            del seen[:], f_calls[:]
            misses = specfun._ln_gamma_kept.cache_info().misses
            ladder()
            assert len(f_calls) > 20
            assert seen.count(constant) == 1
            # one evaluation per f for its new argument, unless the last f's
            # was the same (deep in a ladder, two probes of g can round to
            # one 1/2 - g), plus one for the constant
            ws = [complex(0.5 - g, constant.imag / 2.0) for g in f_calls]
            assert len(seen) == 1 + sum(w != v for w, v in zip(ws, [None, *ws]))
            assert specfun._ln_gamma_kept.cache_info().misses - misses == len(seen)


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
        # NaN fails each guard too, rather than reaching a later error that
        # names the wrong bound or the double range
        p = KummerParams(1, 2)
        for z in (-1.0, math.nan):
            with pytest.raises(DomainError, match="Kummer series requires z >= 0"):
                kummer_m(p, z)

    def test_overflowing_polynomial_raises_without_warning(self):
        # the degree-640 polynomial overflows at z = 1e15; its sum ran
        # outside errstate and warned before the DomainError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="leaves the double range"):
                kummer_m(KummerParams(-640, 1), 1e15)

    @pytest.mark.parametrize("tol", [0.0, -1e-13, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        # tol = inf used to stop the sum at the first term where the tail
        # test can run, and return a wrong number
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            kummer_m(KummerParams(complex(0.5, 1), complex(1, 2)), 3.0, tol)

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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="double range"):
                kummer_m(KummerParams(complex(-1.5, 1), complex(1, 2)), z)

    def test_term_block_matches_scalar_factors(self):
        # the block's elementwise factors are the scalar expressions' bits,
        # for zero imaginary parts of either sign and past the double range.
        # Each block is the first one built on its instance, so blocks 1, 2
        # and 156 are built out of order, and still hold their own factors:
        # two threads filling one instance cannot shift a block.  Each block
        # is kept, block 156 included.  The last block stops at the term cap.
        for a, c, start in [
            (complex(-1.5, 1), complex(0.5, 2), 0),
            (complex(-2.5, -0.0), complex(1, -0.0), 64),
            (complex(-1.5, 1), complex(0.5, 2), 128),
            (complex(0.3, -2.1), complex(0.9, 0.4), 9_984),
            (complex(1e300, 3), complex(1, 1e306), 9_984),
        ]:
            p = KummerParams(a, c)
            block = p._block(start // 64)
            assert list(p._blocks) == [start // 64]
            assert len(block) == min(64, 10_000 - start)
            al, cl = np.clongdouble(a), np.clongdouble(c)
            with np.errstate(over="ignore", invalid="ignore"):
                for k, (a_k, d_k) in zip(range(start, start + 64), block):
                    assert _same_bits(a_k, al + k) and _same_bits(d_k, (cl + k) * (k + 1))

    def test_guarded_sum_matches_plain_loop(self):
        # The blockwise sum with kept term factors keeps the arithmetic and
        # the stopping rule of the plain loop: for Re c < 1 and large |a|,
        # for a terminating polynomial of 70 terms, and for a series of
        # about 50 blocks.  Each group of cases runs cold, on fresh
        # instances, and then warm, on the same instances, where the second
        # sum builds no new block.  A polynomial builds no block: its factor
        # tuple is built with its parameters, and no sum replaces it.
        # Parameters whose imaginary parts are +0.0 and -0.0 share a group,
        # and must keep their own factors.
        groups = [
            [(complex(-1.5, 1), complex(0.5, 2), 30.0)],
            [(complex(0.3, -2.1), complex(0.9, 0.4), 12.0)],
            [(complex(-1200.5, 1), complex(1, 2), 3.0)],
            [(complex(-70, 0.0), complex(1, 0.5), 40.0)],
            [(complex(0.5, 1), complex(1, 2), 3e3)],
        ] + [
            [(complex(a, sign * 0.0), complex(1, sign * 0.0), z) for sign in (1.0, -1.0)]
            for a, z in ((-2.5, 20.0), (-3, 2.0))
        ]
        for group in groups:
            params = [(KummerParams(a, c), z) for a, c, z in group]
            for run in ("cold", "warm"):
                for p, z in params:
                    built, pairs = dict(p._blocks), p._pairs
                    if p.terminating_order() is None:
                        assert bool(built) == (run == "warm") and pairs is None
                    else:
                        assert built == {} and len(pairs) == p.terminating_order()
                    got = _kummer_m_ld(p, z, 1e-13)
                    assert _same_bits(got, _plain_kummer_loop(p, z, 1e-13)), (run, p, z)
                    assert p._pairs is pairs
                    if run == "warm":
                        assert p._blocks.keys() == built.keys()
                        assert all(p._blocks[i] is block for i, block in built.items())

    def test_skipped_tests_keep_the_plain_loops_stop(self):
        # The sum tests its tail only where the test could pass, and must
        # stop where testing every term stops: the same bits, and the same
        # error where the partial sums leave the longdouble range or the
        # term cap is reached.  Random non-terminating (a, c) with |a| <= 100,
        # Re c in [0.3, 3] and |Im c| <= 10, drawn three ways: at large,
        # u1's (1/2 - g + iM, 1 + 2iM), and a near a negative half-integer,
        # where |a + l| dips as l passes -Re a.  z runs from 1e-4 to 2e3,
        # past z ~ 720 where |s| passes the double range, with four
        # tolerances.  Then the term cap (z = 1e4) and longdouble overflow
        # (z = 3e4, and a = 5e5, whose terms overflow before the window),
        # three near-real cases where a skip bounded by |a + j| alone would
        # pass the stop, and three u1 cases where one that took ln q at the
        # midpoint without checking that ln q is convex would.
        rng = np.random.default_rng(26)
        cases = []
        for i in range(1500):
            if i % 3 == 0:
                a = 100.0 * rng.uniform() * np.exp(1j * rng.uniform(-np.pi, np.pi))
                c = complex(rng.uniform(0.3, 3.0), rng.uniform(-10.0, 10.0))
            elif i % 3 == 1:
                g = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
                m_ang = rng.choice((-1.0, 1.0)) * float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
                a, c = complex(0.5 - g, m_ang), complex(1.0, 2.0 * m_ang)
            else:
                a = complex(-rng.integers(3, 40) - rng.uniform(0.05, 0.95), rng.uniform(-0.3, 0.3))
                c = complex(rng.uniform(0.3, 3.0), rng.uniform(-3.0, 3.0))
            z = float(np.exp(rng.uniform(np.log(1e-4), np.log(2e3))))
            tol = float(rng.choice([1e-16, 1e-13, 1e-8, 1e-3]))
            cases.append((a, c, z, tol))
        cases += [
            (complex(0.5, 1), complex(1, 2), 1e4, 1e-13),
            (complex(-1.5, 1), complex(1, 2), 3e4, 1e-13),
            (complex(5e5, 0.5), complex(1, 2), 100.0, 1e-13),
            (complex(-11.292426793746484, 0.03798890878640748),
             complex(2.5862393203284917, 1.7369192949531893), 2.618662156023855, 1e-8),
            (complex(-12.844217040022185, -0.2693050273549503),
             complex(1.8826805928980124, 2.18832683296254), 1.7167455119466897, 1e-13),
            (complex(-36.75753042189386, 0.12747527348335452),
             complex(0.7498534275798503, 0.08933004626658425), 5.704883179608633, 1e-16),
            (complex(-9.988811156525294, -0.8146929447835333),
             complex(1, -1.6293858895670665), 10.792902463032748, 1e-13),
            (complex(-10.395701379507392, 0.2627340808293772),
             complex(1, 0.5254681616587544), 11.373580096336656, 1e-13),
            (complex(-8.488156919330375, 1.0152136445816287),
             complex(1, 2.0304272891632573), 8.666587956876832, 1e-13),
        ]
        outcomes = []
        for a, c, z, tol in cases:
            p = KummerParams(a, c)
            assert p.terminating_order() is None
            got = _sum_outcome(_kummer_m_ld, p, z, tol)
            assert got == _sum_outcome(_plain_kummer_loop, p, z, tol), (a, c, z, tol)
            if isinstance(got[0], type):
                outcomes.append(got[0])
            else:
                value = _kummer_m_ld(p, z, tol)
                outcomes.append("value" if np.isfinite(complex(value)) else "past double")
        assert {"value", "past double", ConvergenceError, DomainError} == set(outcomes)

    def test_sum_past_the_double_range_keeps_converging(self):
        # |F| passes the double range near z = 720 at these parameters; the
        # tail test compared with tol * inf there and passed at the first
        # term of its window, 5e-4 short of F at z = 800
        mp = pytest.importorskip("mpmath")
        p = KummerParams(complex(-1.5, 1), complex(1, 2))
        with mp.workdps(40):
            for z in (600.0, 720.0, 800.0, 1000.0, 1300.0):
                got = _kummer_m_ld(p, z, 1e-13)
                got = mp.mpc(mp.mpf(str(np.real(got))), mp.mpf(str(np.imag(got))))
                want = mp.hyp1f1(mp.mpc(-1.5, 1), mp.mpc(1, 2), z)
                assert abs(got - want) <= 1e-12 * abs(want), z

    @pytest.mark.parametrize(
        "a, c", [(math.nan, 2), (math.inf, 2), (complex(1, -math.inf), 2), (1, math.nan), (1, complex(1, math.inf))]
    )
    def test_non_finite_parameters_rejected(self, a, c):
        # these raised ValueError or OverflowError from round(), or summed
        # NaN factors into a "leaves the double range" error
        with pytest.raises(DomainError, match="Kummer parameters must be finite"):
            KummerParams(a, c)

    def test_pole_in_c_rejected(self):
        with pytest.raises(PoleError):
            KummerParams(1.0, 0.0)
        with pytest.raises(PoleError):
            KummerParams(1.0, -3.0)

    def test_one_block_polynomial_keeps_its_factors(self):
        # up to one block of terms, the factor pairs live on the parameters
        # as one tuple cut at the degree, and the sum keeps the plain loop's bits
        for n in (0, 3, 64):
            p = KummerParams(complex(-n, 0.0), complex(1, 2))
            got = _kummer_m_ld(p, 7.5, 1e-13)
            assert len(p._pairs) == n
            assert _same_bits(got, _plain_kummer_loop(p, 7.5, 1e-13))

    def test_flat_polynomial_sum_matches_plain_loop(self):
        # A polynomial sums one flat tuple of its factor pairs below its
        # quiet bound, built with its parameters, at every degree up to the
        # cap.  Degrees across the block edges, the old tuple limit of 256
        # and up to the cap, imaginary parts of +0.0 and -0.0 and nonzero,
        # and Re c < 1 (no quiet range); z below, just below, at and past
        # the bound, and up to the n z = (_LOG_QUIET/2)^2 that bounded a
        # polynomial before it took the rule every series takes.  Each case
        # runs cold and warm, with the plain loop's bits or error.
        for n in (0, 1, 3, 63, 64, 65, 255, 256, 257, 300, 1_000, DEFAULT_SERIES_CAP):
            for a_im, c in ((0.0, complex(1, 0.0)), (-0.0, complex(1, -0.0)),
                            (0.0, complex(1, 1.4)), (-0.0, complex(1, -0.7)), (0.0, complex(0.5, 0.0))):
                p = KummerParams(complex(-n, a_im), c)
                pairs = p._pairs
                assert len(pairs) == n
                bound = p._quiet_below
                old = (specfun._LOG_QUIET / 2.0) ** 2 / max(n, 1)
                zs = [z for z in (0.5, 7.5, math.nextafter(bound, 0.0), bound, 3.0 * bound,
                                  math.sqrt(bound * old), math.nextafter(old, 0.0))
                      if 0.0 < z < math.inf]
                want = {z: _sum_outcome(_plain_kummer_loop, p, z, 1e-13) for z in zs}
                for run in ("cold", "warm"):
                    for z in zs:
                        got = _sum_outcome(_kummer_m_ld, p, z, 1e-13)
                        assert got == want[z], (run, n, a_im, c, z)
                assert p._pairs is pairs and p._blocks == {}
                # the checks on z and tol keep their order and messages
                for z in (math.nan, -1.0, -math.inf, -0.0):
                    for tol in (1e-13, 0.0, -1.0, math.nan, math.inf):
                        if not z >= 0:
                            want = (DomainError, f"Kummer series requires z >= 0, got z={z}")
                        elif tol == 1e-13:
                            want = _sum_outcome(np.clongdouble, 1.0)
                        else:
                            want = (DomainError, f"tol must be positive and finite, got {tol}")
                        assert _sum_outcome(_kummer_m_ld, p, z, tol) == want, (n, z, tol)
                for tol in (0.0, -1.0, math.nan, math.inf):
                    assert _sum_outcome(_kummer_m_ld, p, 2.0, tol) == (
                        DomainError, f"tol must be positive and finite, got {tol}")

    def test_long_sums_keep_every_factor_they_build(self):
        # A series at z = 500 (about 12 blocks) keeps every block its sum
        # builds, and a degree-2,000 u1 polynomial keeps its 2,000 factor
        # pairs and builds no block; a second sum builds nothing and keeps
        # the bits.
        u1_params = KummerParams(complex(0.5 - 2000.5, 0.0), complex(1.0, 0.0))
        for p, z in [(u1_params, 1.0), (KummerParams(complex(0.3, 0.2), complex(1.1, 0.4)), 500.0)]:
            built = []
            build = p._block
            object.__setattr__(p, "_block", lambda i: built.append(i) or build(i))
            pairs = p._pairs
            first = _kummer_m_ld(p, z, 1e-13)
            if p.terminating_order() is None:
                assert len(built) > 500 // 64 and sorted(p._blocks) == built == list(range(len(built)))
            else:
                assert built == [] and p._blocks == {} and len(pairs) == 2_000
            kept = dict(p._blocks)
            again = _kummer_m_ld(p, z, 1e-13)
            assert _same_bits(again, first) and _same_bits(first, _plain_kummer_loop(p, z, 1e-13))
            assert built == sorted(kept) and p._pairs is pairs
            assert all(p._blocks[i] is block for i, block in kept.items())
            assert p._blocks.keys() == kept.keys()

    def test_polynomial_past_the_term_cap_raises(self):
        # A polynomial sums at most the cap's terms, as any other series
        # does: degree 10,000 keeps the plain loop's bits, and a higher
        # degree raises DomainError naming its degree and the cap before it
        # builds a term-factor block, below its quiet bound, past it and at
        # z = inf.  Degree 1e20 was summed term by term, with no bound on
        # its time.
        p = KummerParams(-DEFAULT_SERIES_CAP, complex(1.0, 0.3))
        assert _same_bits(_kummer_m_ld(p, 0.5, 1e-13), _plain_kummer_loop(p, 0.5))
        for n in (DEFAULT_SERIES_CAP + 1, 2**53 + 2, 10**20):
            for c in (1.0, complex(1.0, 0.7), 0.5):
                p = KummerParams(-n, c)
                assert p.terminating_order() == n
                for z in (1e-3, 0.5, 1e4, math.inf):
                    with pytest.raises(DomainError, match=(
                        rf"^Kummer polynomial of degree {n} is past the 10000-term cap "
                    )):
                        kummer_m(p, z)
                assert p._blocks == {} and p._pairs is None

    @pytest.mark.parametrize("n", [3, 64, 65])
    def test_guard_order(self, n):
        # z before tol, with these messages, for polynomials of one block,
        # a full block and past the block edge; z = +-0 sums nothing
        p = KummerParams(-n, 1.0)
        for z in (0.0, -0.0, -1.0, math.nan, math.inf):
            for tol in (0.0, -1.0, math.nan, math.inf):
                want = (f"Kummer series requires z >= 0, got z={z}" if not z >= 0
                        else f"tol must be positive and finite, got {tol}")
                with pytest.raises(DomainError) as excinfo:
                    kummer_m(p, z, tol)
                assert type(excinfo.value) is DomainError and str(excinfo.value) == want
            if z == 0.0:
                assert _same_bits(_kummer_m_ld(p, z, 1e-13), np.clongdouble(1.0))

    def test_quiet_range_rule_is_sound(self):
        # Below each parameter set's quiet bound no term factor, term,
        # product or partial sum may leave the longdouble range, so a sum
        # there, which runs with no errstate, must not raise
        # FloatingPointError under np.errstate(all="raise").  Seeded Re c >= 1
        # parameters: u1's (polynomials at M = 0, g = n + 1/2), the
        # oscillator's (-n, 1 + iM), a with |a| <= 1e3, terminating (degree
        # <= 300) and not, and a real a in [100, 1e3] with c in [1, 2], whose
        # sums leave the range nearest the bound (a = 1e3 from 1.56 times
        # it).  z is log-uniform from 1e-2, uniform over the bound's upper
        # half, and the last double below it.  The degrees and the floor on
        # z keep every term above the smallest normal longdouble: an
        # underflow, which numpy ignores by default, is not what the rule
        # bounds.
        rng = np.random.default_rng(27)
        params = []
        for i in range(200):
            kind = i % 5
            if kind == 0:
                g = float(np.exp(rng.uniform(np.log(0.05), np.log(40.0))))
                m_ang = rng.choice((-1.0, 1.0)) * float(np.exp(rng.uniform(np.log(1e-3), np.log(50.0))))
                if i % 8 == 0:
                    g, m_ang = int(rng.integers(1, 40)) + 0.5, 0.0
                a, c = complex(0.5 - g, m_ang), complex(1.0, 2.0 * m_ang)
            elif kind == 1:
                a, c = complex(-int(rng.integers(1, 300)), 0.0), complex(1.0, rng.uniform(-50.0, 50.0))
            elif kind == 4:
                a, c = rng.uniform(100.0, 1e3), rng.uniform(1.0, 2.0)
            else:
                c = complex(rng.uniform(1.0, 3.0), rng.uniform(-20.0, 20.0))
                if kind == 2:
                    a = 1e3 * rng.uniform() * np.exp(1j * rng.uniform(-np.pi, np.pi))
                else:
                    a = complex(-int(rng.integers(1, 300)), 0.0)
            params.append(KummerParams(a, c))
        outcomes = set()
        for p in params:
            bound = p._quiet_below
            assert 0.0 < bound < math.inf
            top = math.nextafter(bound, 0.0)
            for z in (float(np.exp(rng.uniform(np.log(1e-2), np.log(top)))),
                      rng.uniform(bound / 2.0, top), top):
                with np.errstate(all="raise"):
                    try:
                        value = _kummer_m_ld(p, z, 1e-13)
                    except (ConvergenceError, DomainError) as exc:
                        outcomes.add(type(exc))
                    else:
                        outcomes.add("polynomial" if p.terminating_order() else "series")
                        assert np.isfinite(value), (p, z)
        assert {"polynomial", "series"} <= outcomes

    @pytest.mark.parametrize(
        "a, c, past",
        [(1000, 1, 2.0), (complex(500, 300), complex(1, 5), 2.0),
         (complex(-1.5, 1), complex(1, 2), 3.0), (-4000, 1, 5.634)],
    )
    def test_overflow_past_the_quiet_bound_stays_quiet(self, a, c, past):
        # a few times past the bound these sums do leave the longdouble
        # range (the polynomial at z = 24,013); errstate is entered there,
        # so the series raises DomainError at its first block that is not
        # finite, and the polynomial's inf or NaN reaches kummer_m's
        # double-range check, with no numpy warning
        p = KummerParams(a, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="leaves the double range"):
                kummer_m(p, past * p._quiet_below)
            if p.terminating_order() is None:
                with pytest.raises(DomainError, match="not finite in extended precision"):
                    _kummer_m_ld(p, past * p._quiet_below, 1e-13)
            else:
                assert not np.isfinite(_kummer_m_ld(p, past * p._quiet_below, 1e-13))

    def test_re_c_below_one_has_no_quiet_range(self):
        # where Re c < 1, |c + j| may be tiny, and no bound is taken
        assert KummerParams(complex(-1.5, 1), complex(0.5, 2))._quiet_below == 0.0
        assert KummerParams(-3, 0.5)._quiet_below == 0.0
        p = KummerParams(0, 0.5)
        assert p._quiet_below == 0.0
        for z in (7.5, 1e4, math.inf):
            assert _same_bits(_kummer_m_ld(p, z, 1e-13), np.clongdouble(1.0))

    def test_tail_window_past_the_cap_fails_at_once(self):
        # |c| >= the cap puts the tail window's first term past it.  Inside
        # the quiet range no overflow can come first, so ConvergenceError
        # is raised before any term is summed (no term-factor block is
        # built), naming |c| and the cap; the sum of 10,000 terms took 9.7 ms.
        for a, c, z in [(0.5, 9999, 1.0), (complex(-1.5, 6000), complex(1, 12000), 1.0),
                        (0.1, 2e4, 300.0)]:
            p = KummerParams(a, c)
            assert z < p._quiet_below
            with pytest.raises(ConvergenceError) as excinfo:
                kummer_m(p, z)
            assert str(excinfo.value).startswith(
                f"Kummer series cannot converge within 10000 terms: its tail test needs a "
                f"term j > |c| = {abs(c):.6g} with j + 1 > z"
            )
            assert p._blocks == {}
        # u1's handler keeps the error where its large-z form is finite
        with pytest.raises(ConvergenceError, match=r"\|c\| = 12000"):
            spectra.coulomb_u1(2.0, 6000.0, 1.0)

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


def _plain_kummer_loop(p, z, tol=1e-13):
    """F(a, c, z) summed term by term with the library's stopping rule, the
    tail test run at every term of its window, and the library's errors:
    the partial sum must be finite every 64 terms and at the stop, and the
    term cap raises.  Where |s| passes the double range, the test compares
    |t|/|s| with tol in extended precision, as the library does; before, a
    double |s| of inf passed it at once."""
    abs_z, abs_c, gap = z, abs(p.c), abs(p.a - p.c)
    n = p.terminating_order()
    t = s = np.clongdouble(1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(10_000 if n is None else n):
            t = t * (np.clongdouble(p.a) + k) * np.clongdouble(z) / (
                (np.clongdouble(p.c) + k) * (k + 1)
            )
            s = s + t
            j = k + 1
            converged = False
            if n is None and j > abs_c and j + 1 > abs_z:
                rho = (1.0 + gap / (j - abs_c)) * abs_z / (j + 1)
                if rho < 0.9:
                    size = float(abs(s))
                    if size == math.inf and abs(s) < math.inf:
                        converged = float(abs(t) / abs(s)) * rho / (1.0 - rho) <= tol
                    else:
                        converged = float(abs(t)) * rho / (1.0 - rho) <= tol * size
            if n is None and (converged or j % 64 == 0 or j == 10_000) and not s - s == 0:
                raise DomainError(
                    f"Kummer series F(a={p.a}, c={p.c}, z={z:.6g}) leaves the double range: "
                    f"its terms are not finite in extended precision by term {j}"
                )
            if converged:
                return s
    if n is None:
        raise ConvergenceError(
            f"Kummer series did not converge within 10000 terms (a={p.a}, c={p.c}, z={z})"
        )
    return s


def _sum_outcome(call, *args):
    """A sum's real and imaginary parts as bytes, or its error class and message."""
    try:
        value = call(*args)
    except (DomainError, ConvergenceError) as exc:
        return type(exc), str(exc)
    return np.real(value).tobytes()[:10], np.imag(value).tobytes()[:10]


def _same_bits(x, y):
    """Equal real and imaginary parts, signs of zero included."""
    return all(
        u == v and np.signbit(u) == np.signbit(v)
        for u, v in ((np.real(x), np.real(y)), (np.imag(x), np.imag(y)))
    )


def _reference_lanczos_core(z):
    s = np.clongdouble(specfun._LANCZOS[0])
    for i in range(1, len(specfun._LANCZOS)):
        s = s + specfun._LANCZOS[i] / (z - 1 + i)
    t = z - np.clongdouble(0.5) + np.longdouble(607) / np.longdouble(128)
    half_log_2pi = np.longdouble("0.91893853320467274178032973640561763986")
    return (z - np.clongdouble(0.5)) * np.log(t) - t + half_log_2pi + np.log(s)


def _reference_log_sin_pi_upper(z):
    one_minus_w = 1 - np.exp(np.clongdouble(2j) * specfun._PI * z)
    if one_minus_w == 0:
        raise PoleError(f"lnGamma pole: sin(pi z) rounds to 0 at z={complex(z)}")
    return (
        -specfun._LOG_2
        + np.clongdouble(0.5j) * specfun._PI
        - np.clongdouble(1j) * specfun._PI * z
        + np.log(one_minus_w)
    )


def _reference_ln_gamma_ld(z):
    """lnGamma with every constant built, and z promoted, by a numpy
    scalar constructor on each call, and the Lanczos sum in a loop."""
    if z.imag < 0:
        return np.conj(_reference_ln_gamma_ld(z.conjugate()))
    zl = np.clongdouble(z)
    if z.real >= 0.5:
        return _reference_lanczos_core(zl)
    log_pi = np.longdouble("1.14472988584940017414342735135305871165")
    return log_pi - _reference_log_sin_pi_upper(zl) - _reference_lanczos_core(1 - zl)


def _hex_bits(x):
    """Every bit of a longdouble or clongdouble, signs of zero included, as
    float.hex strings: each part as a double, and what the double leaves
    out of it, which a double holds exactly."""
    return tuple(
        (float(p).hex(), float(p - float(p)).hex()) for p in (np.real(x), np.imag(x))
    )


def _outcome(call, *args):
    """_hex_bits of a call's value, or its error class name and message."""
    try:
        return _hex_bits(call(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)
