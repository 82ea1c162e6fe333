import math
import warnings

import numpy as np
import pytest

from minkqm.errors import DomainError
from minkqm.model import (
    Coulomb,
    Free,
    NATURAL_UNITS,
    Oscillator,
    PhysicalParams,
    effective_potential,
    euclidean_effective_for,
    potential,
    radial_coefficient,
)


class TestPotential:
    def test_free_is_zero(self):
        for r in (0.0, 0.3, 11.0):
            assert potential(Free(), NATURAL_UNITS, r) == 0.0

    def test_oscillator_value(self):
        assert potential(Oscillator(2.0), NATURAL_UNITS, 1.0) == 2.0

    def test_coulomb_value(self):
        assert potential(Coulomb(1.0), NATURAL_UNITS, 2.0) == -0.5

    def test_coulomb_origin_rejected(self):
        with pytest.raises(DomainError):
            potential(Coulomb(1.0), NATURAL_UNITS, 0.0)

    def test_radius_that_is_not_a_radius_raises(self):
        # a NaN radius gave nan (r_min < 0 and r_min <= 0 are false for
        # NaN), and the free particle took a negative, NaN or empty radius
        cases = [
            (Free(), -1.0, "r must be >= 0, got -1.0"),
            (Free(), math.nan, "r must be >= 0, got nan"),
            (Free(), np.array([1.0, math.nan]), "r must be >= 0, got nan"),
            (Free(), np.array([]), "the radius grid is empty"),
            (Oscillator(1.0), math.nan, "r must be >= 0, got nan"),
            (Coulomb(1.0), math.nan, "Coulomb potential needs r > 0, got nan"),
            (Coulomb(1.0), np.array([math.nan, 1.0]), "Coulomb potential needs r > 0, got nan"),
        ]
        for kind, r, match in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=match):
                    potential(kind, NATURAL_UNITS, r)
        assert potential(Free(), NATURAL_UNITS, np.array([0.0, 2.0])) == 0.0

    def test_potential_past_the_double_range_raises(self):
        # the oscillator's inf came back with no error (and omega**2 raised
        # an untyped OverflowError), and an array warned "overflow"
        cases = [
            (Oscillator(1.0), 1e200, r"\(m omega\^2/2\) r\^2 at omega=1.0, r=1e\+200 overflows"),
            (Oscillator(1.0), np.array([1.0, 1e200]), r"at omega=1.0, r=1e\+200 overflows"),
            (Oscillator(1e200), 1.0, r"at omega=1e\+200, r=1.0 overflows"),
            (Coulomb(1.0), np.array([1e-310, 1.0]), r"-alpha/r at alpha=1.0, r=1e-310 overflows"),
        ]
        for kind, r, match in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=match + ": it leaves the double range"):
                    potential(kind, NATURAL_UNITS, r)

    def test_couplings_validated(self):
        with pytest.raises(DomainError):
            Oscillator(-1.0)
        with pytest.raises(DomainError):
            Coulomb(0.0)
        with pytest.raises(DomainError):
            PhysicalParams(mass=0.0)


class TestEffectivePotential:
    def test_free_examples(self):
        assert effective_potential(Free(), NATURAL_UNITS, 0.0, 1.0) == -0.125
        assert effective_potential(Free(), NATURAL_UNITS, 1.0, 2.0) == -0.15625

    def test_coulomb_example(self):
        assert effective_potential(Coulomb(1.0), NATURAL_UNITS, 0.0, 1.0) == -1.125

    def test_free_strictly_negative(self):
        for m_ang in (0.0, 0.5, 3.0):
            for r in np.geomspace(1e-6, 1e6, 40):
                assert effective_potential(Free(), NATURAL_UNITS, m_ang, float(r)) < 0.0

    def test_euclidean_examples(self):
        assert euclidean_effective_for(Coulomb(1.0), NATURAL_UNITS, 1.0, 1.0) == -0.625
        # difference Minkowski - Euclidean = -(hbar^2/m) M^2 / r^2
        mink = effective_potential(Coulomb(1.0), NATURAL_UNITS, 1.0, 1.0)
        eucl = euclidean_effective_for(Coulomb(1.0), NATURAL_UNITS, 1.0, 1.0)
        assert mink - eucl == pytest.approx(-1.0, rel=1e-14)

    def test_euclidean_coincides_at_m_zero(self):
        for r in np.geomspace(0.01, 100, 30):
            mink = effective_potential(Coulomb(1.3), NATURAL_UNITS, 0.0, float(r))
            eucl = euclidean_effective_for(Coulomb(1.3), NATURAL_UNITS, 0.0, float(r))
            assert mink == eucl

    def test_sign_flip_law_random(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            pp = PhysicalParams(rng.uniform(0.2, 4), rng.uniform(0.2, 4))
            m_ang = rng.uniform(-3, 3)
            alpha = rng.uniform(0.1, 5)
            r = rng.uniform(0.01, 50)
            mink = effective_potential(Coulomb(alpha), pp, m_ang, r)
            eucl = euclidean_effective_for(Coulomb(alpha), pp, m_ang, r)
            want = -(pp.hbar**2 / pp.mass) * m_ang**2 / r**2
            # the subtraction cancels the shared Coulomb part, so allow for
            # the representation error of the two operands on top of 1e-13
            slack = 1e-13 * abs(want) + 4e-16 * (abs(mink) + abs(eucl))
            assert abs((mink - eucl) - want) <= slack


    @pytest.mark.parametrize("m_ang", [1.4e154, -1e200, 1e308])
    def test_huge_m_raises(self, m_ang):
        # M^2 overflows; both forms printed -inf or +inf
        for func in (effective_potential, euclidean_effective_for):
            with pytest.raises(DomainError, match="double range"):
                func(Free(), NATURAL_UNITS, m_ang, 1.0)

    def test_r_squared_underflow_raises(self):
        # r^2 underflows to 0; both forms raised ZeroDivisionError
        for func in (effective_potential, euclidean_effective_for):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(
                    DomainError, match=r"r\^2 at r=1e-300 underflows to 0: it leaves the double range"
                ):
                    func(Free(), NATURAL_UNITS, 2.0, 1e-300)

    def test_hbar_squared_over_2m_underflow_raises(self):
        # hbar^2/(2m) underflows to 0: the free particle's U_eff, promised
        # strictly negative, was 0.0
        pp = PhysicalParams(mass=1.0, hbar=1e-200)
        for func in (effective_potential, euclidean_effective_for):
            with pytest.raises(
                DomainError,
                match=r"hbar\^2/\(2m\) at hbar=1e-200, mass=1.0 underflows to 0",
            ):
                func(Free(), pp, 0.0, 1.0)

    def test_r_squared_overflow_raises(self):
        # r^2 overflows to inf: the free particle's U_eff, promised strictly
        # negative, was -0.0
        for func, m_ang in ((effective_potential, 0.0), (euclidean_effective_for, 2.0)):
            with pytest.raises(
                DomainError, match=r"r=1e\+160 comes out 0: .* at r\^2=inf leaves the double range"
            ):
                func(Free(), NATURAL_UNITS, m_ang, 1e160)
        # the Euclidean free value at |M| = 1/2 has no angular term, and a
        # Coulomb value keeps its potential
        assert euclidean_effective_for(Free(), NATURAL_UNITS, 0.5, 1e160) == 0.0
        assert effective_potential(Coulomb(1.0), NATURAL_UNITS, 0.0, 1e160) == -1e-160
        # where r^2 is finite the value keeps its bits
        assert effective_potential(Free(), NATURAL_UNITS, 0.0, 1e150) == -0.125 / (1e150 * 1e150)


class TestRadialCoefficient:
    def test_hand_values(self):
        assert radial_coefficient(Free(), NATURAL_UNITS, 0.0, -1.0, 1.0) == -1.75
        assert radial_coefficient(Coulomb(1.0), NATURAL_UNITS, 0.0, -2.0, 1.0) == -1.75

    def test_matches_effective_potential_identity(self):
        rng = np.random.default_rng(31)
        kinds = [Free(), Oscillator(1.7), Coulomb(0.8)]
        for _ in range(1000):
            kind = kinds[rng.integers(0, 3)]
            pp = PhysicalParams(rng.uniform(0.2, 4), rng.uniform(0.2, 4))
            m_ang = rng.uniform(-3, 3)
            energy = rng.uniform(-10, 10)
            r = rng.uniform(0.01, 30)
            q = radial_coefficient(kind, pp, m_ang, energy, r)
            want = (2 * pp.mass / pp.hbar**2) * (
                energy - effective_potential(kind, pp, m_ang, r)
            )
            assert q == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_m_symmetry(self):
        # everything depends on M^2 except the angular mode, which conjugates
        for m_ang in (0.5, 2.0):
            a = radial_coefficient(Free(), NATURAL_UNITS, m_ang, -1.0, 0.7)
            b = radial_coefficient(Free(), NATURAL_UNITS, -m_ang, -1.0, 0.7)
            assert a == b
            for kind in (Free(), Oscillator(1.3), Coulomb(0.9)):
                assert effective_potential(
                    kind, NATURAL_UNITS, m_ang, 0.7
                ) == effective_potential(kind, NATURAL_UNITS, -m_ang, 0.7)
            assert euclidean_effective_for(
                Coulomb(1.0), NATURAL_UNITS, m_ang, 0.7
            ) == euclidean_effective_for(Coulomb(1.0), NATURAL_UNITS, -m_ang, 0.7)

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            radial_coefficient(Free(), NATURAL_UNITS, 0.0, -1.0, 0.0)
        with pytest.raises(DomainError):
            radial_coefficient(Free(), NATURAL_UNITS, 0.0, -1.0, np.array([1.0, 0.0]))

    def test_grid_matches_pointwise(self):
        # the oracle evaluates Q on whole grids; each element must carry the
        # bits of the scalar call
        pp = PhysicalParams(2.0, 0.5)
        r = np.geomspace(0.01, 30.0, 200)
        for kind in (Free(), Oscillator(1.7), Coulomb(0.8)):
            q = radial_coefficient(kind, pp, 1.3, -0.7, r)
            assert q.tolist() == [
                radial_coefficient(kind, pp, 1.3, -0.7, float(ri)) for ri in r
            ]

    def test_any_number_or_array_of_radii(self):
        # an int radius raised AttributeError and an empty grid numpy's
        # ValueError; Python and numpy numbers now give the float's bits,
        # and an empty grid raises DomainError
        for kind in (Oscillator(1.7), Coulomb(0.8)):
            want_u = potential(kind, NATURAL_UNITS, 2.0)
            want_eff = effective_potential(kind, NATURAL_UNITS, 1.3, 2.0)
            want_q = radial_coefficient(kind, NATURAL_UNITS, 1.3, -0.7, 2.0)
            for r in (2, np.int64(2), np.float64(2.0)):
                assert potential(kind, NATURAL_UNITS, r) == want_u
                assert effective_potential(kind, NATURAL_UNITS, 1.3, r) == want_eff
                assert radial_coefficient(kind, NATURAL_UNITS, 1.3, -0.7, r) == want_q
            for r in (np.array([2, 3]), np.array([2.0, 3.0])):
                assert radial_coefficient(kind, NATURAL_UNITS, 1.3, -0.7, r)[0] == want_q
            with pytest.raises(DomainError, match="radius grid is empty"):
                potential(kind, NATURAL_UNITS, np.array([]))
        with pytest.raises(DomainError, match="radius grid is empty"):
            radial_coefficient(Free(), NATURAL_UNITS, 1.3, -0.7, np.array([]))

    def test_int_radii_are_squared_as_floats(self):
        # int64 radii were squared in int64, which wraps past 2**31.5: these
        # gave [inf, inf] with a divide-by-zero warning
        ints = np.array([2**32, 2**33, 3, 2**40 + 1])
        for kind in (Free(), Oscillator(1.0), Coulomb(1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = radial_coefficient(kind, NATURAL_UNITS, 0.7, -1.0, ints)
            want = radial_coefficient(kind, NATURAL_UNITS, 0.7, -1.0, ints.astype(float))
            assert got.tobytes() == want.tobytes()
        assert radial_coefficient(Oscillator(1.0), NATURAL_UNITS, 0.0, -1.0, ints)[0] < -1e19

    @pytest.mark.parametrize(
        "r", [10**200, 2**60 + 1, np.int64(2**62 + 1)], ids=["1e200", "2^60+1", "int64-2^62+1"]
    )
    def test_int_radius_takes_its_floats_value(self, r):
        # 10**200 raised an untyped OverflowError, 2**60 + 1 was squared
        # exactly before its rounding, and the int64 square wrapped
        def outcome(call):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    return float(call()).hex()
            except DomainError as exc:
                return str(exc)

        for kind in (Free(), Oscillator(1.0), Coulomb(1.0)):
            for f in (
                lambda r: potential(kind, NATURAL_UNITS, r),
                lambda r: effective_potential(kind, NATURAL_UNITS, 0.0, r),
                lambda r: euclidean_effective_for(kind, NATURAL_UNITS, 0.0, r),
                lambda r: radial_coefficient(kind, NATURAL_UNITS, 0.0, -1.0, r),
            ):
                assert outcome(lambda: f(r)) == outcome(lambda: f(float(r)))
        assert radial_coefficient(Coulomb(1.0), NATURAL_UNITS, 0.0, -1.0, 10**200) == -2.0

    def test_int_radius_past_the_double_range_raises(self):
        # an untyped OverflowError before
        r = 10**400
        for call in (
            lambda: potential(Coulomb(1.0), NATURAL_UNITS, r),
            lambda: potential(Oscillator(1.0), NATURAL_UNITS, r),
            lambda: effective_potential(Coulomb(1.0), NATURAL_UNITS, 0.5, r),
            lambda: euclidean_effective_for(Free(), NATURAL_UNITS, 0.5, r),
            lambda: radial_coefficient(Coulomb(1.0), NATURAL_UNITS, 0.0, -1.0, r),
        ):
            with pytest.raises(DomainError, match=r"int past the double range \(about 1.8e308\)"):
                call()

    @pytest.mark.parametrize(
        "pp, r, match",
        [
            # these raised ZeroDivisionError
            (NATURAL_UNITS, 1e-300, r"r\^2 at r=1e-300 underflows to 0"),
            (PhysicalParams(1.0, 1e-200), 1.0, r"hbar\^2 at hbar=1e-200 underflows to 0"),
            # this warned "divide by zero" and returned an inf
            (NATURAL_UNITS, np.array([1e-170, 1.0]), r"r\^2 at r=1e-170 underflows to 0"),
        ],
        ids=["scalar-r", "hbar", "array-r"],
    )
    def test_squares_that_underflow_raise(self, pp, r, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match + ": it leaves the double range"):
                radial_coefficient(Free(), pp, 2.0, -1.0, r)

    @pytest.mark.parametrize(
        "r", [1e-160, np.array([1e-160, 1.0])], ids=["scalar-r", "array-r"]
    )
    def test_angular_term_that_overflows_raises(self, r):
        # r^2 = 1e-320 is subnormal, not 0, so (M^2 + 1/4)/r^2 overflowed:
        # a scalar gave inf, and an array inf with numpy's overflow warning
        for kind in (Free(), Oscillator(1.0), Coulomb(1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(
                    DomainError,
                    match=r"\(M\^2 \+ 1/4\)/r\^2 at M=-1.0, r=1e-160 overflows: "
                    "it leaves the double range",
                ):
                    radial_coefficient(kind, NATURAL_UNITS, -1.0, -1.0, r)

    @pytest.mark.parametrize(
        "kind, pp, m_ang, energy, r, match",
        [
            # returned -inf
            (Oscillator(1.0), NATURAL_UNITS, 0.0, -1.0, 1e200, r"omega=1.0, r=1e\+200 overflows"),
            # warned "overflow encountered in multiply"
            (Oscillator(1.0), NATURAL_UNITS, 0.0, -1.0, np.array([1.0, 1e200]),
             r"omega=1.0, r=1e\+200 overflows"),
            # 2m/hbar^2 is inf: "invalid value encountered in multiply"
            (Coulomb(1.0), PhysicalParams(1e300, 1e-10), 0.0, -1.0, np.array([1.0, 2.0]),
             r"2m/hbar\^2 at mass=1e\+300, hbar=1e-10 overflows"),
            # E - U and the sum overflow: "overflow encountered in multiply"
            (Free(), NATURAL_UNITS, 0.0, -1e308, np.array([1.0, 2.0]),
             r"on Q\(r\) at E=-1e\+308, M=0.0, r >= 1.0 overflows"),
            (Coulomb(1e300), NATURAL_UNITS, 0.0, -1.0, np.array([1e-8, 1.0]),
             r"on Q\(r\) at E=-1.0, M=0.0, r >= 1e-08 overflows"),
        ],
        ids=["oscillator-scalar", "oscillator-array", "2m-over-hbar2", "free-sum", "coulomb-sum"],
    )
    def test_other_terms_past_the_double_range_raise(self, kind, pp, m_ang, energy, r, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match + ".*: it leaves the double range"):
                radial_coefficient(kind, pp, m_ang, energy, r)

    @pytest.mark.parametrize(
        "m_ang, energy, r, match",
        [
            (0.0, -1.0, math.nan, "radial coefficient needs r > 0, got nan"),
            (0.0, -1.0, np.array([1.0, math.nan]), "radial coefficient needs r > 0, got nan"),
            (0.0, math.nan, 1.0, "needs a finite E and M, got E=nan, M=0.0"),
            (math.nan, -1.0, 1.0, "needs a finite E and M, got E=-1.0, M=nan"),
            (math.inf, -1.0, np.array([1.0, 2.0]), "needs a finite E and M, got E=-1.0, M=inf"),
        ],
        ids=["r-nan", "r-array-nan", "E-nan", "M-nan", "M-inf"],
    )
    def test_nan_and_infinite_inputs_raise(self, m_ang, energy, r, match):
        # each returned nan, an array with numpy's "invalid value" warning
        for kind in (Free(), Oscillator(1.0), Coulomb(1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=match):
                    radial_coefficient(kind, NATURAL_UNITS, m_ang, energy, r)

    def test_terms_just_inside_the_range_keep_their_bits(self):
        # a large oscillator U and Coulomb E - U inside the double range,
        # on arrays whose other points are ordinary
        for kind, energy, r in [
            (Oscillator(1.0), -1.0, np.array([1.0, 1e154])),
            (Coulomb(1e300), -1.0, np.array([1e-7, 1.0])),
            (Coulomb(1.0), 1e307, np.array([1e-150, 1.0])),
        ]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                q = radial_coefficient(kind, NATURAL_UNITS, 0.0, energy, r)
                assert q.tolist() == [
                    radial_coefficient(kind, NATURAL_UNITS, 0.0, energy, float(x)) for x in r
                ]
            assert np.isfinite(q).all() and np.abs(q).max() > 1e306

    def test_angular_term_just_inside_the_range_keeps_its_bits(self):
        r = np.array([1e-154, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = radial_coefficient(Free(), NATURAL_UNITS, 1.0, -1.0, r)
            assert q[0] == 2.0 * -1.0 + 1.25 / (1e-154 * 1e-154)
            assert q[0] == radial_coefficient(Free(), NATURAL_UNITS, 1.0, -1.0, 1e-154)
