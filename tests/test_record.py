"""The twelve value records: built, compared, printed, frozen and copied
as the frozen dataclasses they replace were."""

import copy
import math
import pickle

import numpy as np
import pytest

from minkqm.errors import DomainError, PoleError
from minkqm.model import (
    Branch, Coulomb, DualityMap, Free, Oscillator, PhysicalParams, ScaledCoulomb, SpectrumEntry,
)
from minkqm.oracle import RadialSolution, ShootingConfig
from minkqm.specfun import KummerParams
from minkqm.spectra import ReflectionPhase
from minkqm.verification import CheckResult

# record class, its fields, values for them, and its repr, as the frozen
# dataclasses printed it
RECORDS = {
    "PhysicalParams": (
        PhysicalParams, ("mass", "hbar"), (2.0, 0.5), "PhysicalParams(mass=2.0, hbar=0.5)",
    ),
    "ScaledCoulomb": (
        ScaledCoulomb, ("r0", "g", "energy"), (1.0, 2.0, -0.5),
        "ScaledCoulomb(r0=1.0, g=2.0, energy=-0.5)",
    ),
    "Free": (Free, (), (), "Free()"),
    "Oscillator": (Oscillator, ("omega",), (1.5,), "Oscillator(omega=1.5)"),
    "Coulomb": (Coulomb, ("alpha",), (2.0,), "Coulomb(alpha=2.0)"),
    "SpectrumEntry": (
        SpectrumEntry, ("n", "m_ang", "energy", "branch"),
        (1, 0.5, -1 + 0j, Branch.QUANTIZED_THIRD),
        "SpectrumEntry(n=1, m_ang=0.5, energy=(-1+0j), "
        "branch=<Branch.QUANTIZED_THIRD: 'quantized_third'>)",
    ),
    "DualityMap": (
        DualityMap, ("r0_scale", "alpha", "e_coulomb", "omega", "e_osc", "m_coulomb", "m_osc"),
        (1.0, 1.0, -2.0, 4.0, 4.0, 0.5, 1.0),
        "DualityMap(r0_scale=1.0, alpha=1.0, e_coulomb=-2.0, omega=4.0, e_osc=4.0, "
        "m_coulomb=0.5, m_osc=1.0)",
    ),
    "KummerParams": (
        KummerParams, ("a", "c"), (-2 + 0j, 1 + 2j), "KummerParams(a=(-2+0j), c=(1+2j))",
    ),
    "ReflectionPhase": (
        ReflectionPhase, ("gamma", "beta", "gamma_raw", "r0"), (0.1, 0.2, 0.3, 0.4),
        "ReflectionPhase(gamma=0.1, beta=0.2, gamma_raw=0.3, r0=0.4)",
    ),
    "ShootingConfig": (
        ShootingConfig, ("r_min", "r_max", "steps"), (1.0, 2.0, 3000),
        "ShootingConfig(r_min=1.0, r_max=2.0, steps=3000)",
    ),
    "RadialSolution": (
        RadialSolution, ("r_grid", "u_values", "energy", "m_ang", "kind", "log_scale"),
        (np.array([1.0, 2.0, 3.0]), np.array([1j, 2.0, 3.0]), -1.0, 0.5, Coulomb(1.0), 0.0),
        "RadialSolution(r_grid=array([1., 2., 3.]), u_values=array([0.+1.j, 2.+0.j, 3.+0.j]), "
        "energy=-1.0, m_ang=0.5, kind=Coulomb(alpha=1.0), log_scale=0.0)",
    ),
    "CheckResult": (
        CheckResult, ("suite", "name", "measured", "threshold", "passed"),
        ("s", "n", 1.0, 2.0, True),
        "CheckResult(suite='s', name='n', measured=1.0, threshold=2.0, passed=True)",
    ),
}
# RadialSolution holds arrays, so its fields' tuple neither compares nor hashes
HASHABLE = sorted(set(RECORDS) - {"RadialSolution"})


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecords:
    def test_built_by_position_or_keyword(self, name):
        cls, fields, values, text = RECORDS[name]
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(reversed(fields), reversed(values))))
        for record in (by_position, by_keyword):
            assert repr(record) == text
            for field, value in zip(fields, values):
                assert getattr(record, field) is value or getattr(record, field) == value
        with pytest.raises(TypeError, match="positional argument"):
            cls(*values, 1.0)
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*values, bogus=1.0)

    def test_frozen(self, name):
        cls, fields, values, _ = RECORDS[name]
        record = cls(*values)
        field = fields[0] if fields else "x"
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert repr(record) == RECORDS[name][3]

    def test_pickle_and_copy_round_trip(self, name):
        cls, _, values, text = RECORDS[name]
        record = cls(*values)
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is cls
            assert repr(twin) == text
            if name in HASHABLE:
                assert twin == record and hash(twin) == hash(record)


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_only_within_one_class(name):
    cls, _, values, _ = RECORDS[name]
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert a != values
    for other in HASHABLE:
        if other != name:
            assert a != RECORDS[other][0](*RECORDS[other][2])


def test_defaults_and_cross_class_equality():
    assert PhysicalParams() == PhysicalParams(1.0, 1.0) == PhysicalParams(hbar=1.0)
    assert repr(PhysicalParams()) == "PhysicalParams(mass=1.0, hbar=1.0)"
    assert ShootingConfig(1.0, 2.0).steps == 6000
    assert RadialSolution(*RECORDS["RadialSolution"][2][:5]).log_scale == 0.0
    assert Free() == Free() and hash(Free()) == hash(())
    assert Coulomb(1.0) != Oscillator(1.0) and Coulomb(1.0) != (1.0,)
    assert len({Coulomb(1.0), Coulomb(1.0), Oscillator(1.0)}) == 2


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: PhysicalParams(mass=0.0), DomainError, "mass must be positive, got 0.0"),
        (lambda: PhysicalParams(1.0, math.inf), DomainError, "hbar must be positive, got inf"),
        (lambda: Oscillator(-1.0), DomainError, "omega must be positive, got -1.0"),
        (lambda: Coulomb(math.nan), DomainError, "alpha must be positive, got nan"),
        (lambda: ShootingConfig(2.0, 1.0), DomainError, r"0 < r_min < r_max, got \(2.0, 1.0\)"),
        (lambda: ShootingConfig(1.0, 2.0, steps=999), DomainError, "steps must be >= 1000"),
        (lambda: KummerParams(1.0, -2.0), PoleError, r"c=\(-2\+0j\) is a non-positive integer"),
        (lambda: KummerParams(a=math.inf, c=1.0), DomainError, "Kummer parameters must be finite"),
    ],
    ids=["mass", "hbar", "omega", "alpha", "window", "steps", "pole", "finite"],
)
def test_post_init_validates(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_post_init_sets_fields_and_private_caches():
    p = KummerParams(-2, 1)
    assert type(p.a) is complex and p.a == -2 and p.terminating_order() == 2
    assert len(p._pairs) == 2
    twin = pickle.loads(pickle.dumps(p))
    assert twin._pairs == p._pairs and twin.terminating_order() == 2
    sol = RadialSolution([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], -1.0, 0.5, Free())
    assert sol.r_grid.dtype == float and sol.u_values.dtype == complex
