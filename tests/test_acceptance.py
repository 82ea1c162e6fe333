"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with the measured value next to its threshold.

Where a `minkqm verify` check computes a criterion's number on the same
inputs, with the same or a tighter bound, the criterion asserts on that
check's result (see CRITERIA) instead of computing the number again.
The session runs each suite once (the suite_results fixture).  Only what
a criterion asks beyond its checks is computed here.
"""

import time

import numpy as np

from minkqm.model import NATURAL_UNITS, Coulomb, PhysicalParams
from minkqm.oracle import ode_residual, RadialSolution
from minkqm.spectra import (
    coulomb_closed_spectrum,
    coulomb_scaling,
    coulomb_u1,
    coulomb_u1_asymptotic,
    coulomb_u2,
    duality_forward,
    oscillator_closed_spectrum,
)

PP = NATURAL_UNITS

# criterion -> the verify checks that compute its numbers
CRITERIA = {
    2: ("spectra.euclidean_coincidence",),
    3: ("spectra.deep_ladder_ratios",),
    4: ("oracle.eigenvalue_agreement",),
    5: ("spectra.shallow_condensation",),
    6: ("spectra.free_particle_exactness",),
    8: ("phases.decay_condition_g2.0_m1.0", "phases.decay_sensitivity_g2.0_m1.0"),
    10: (
        "spectra.oscillator_closed_exact_m0",
        "spectra.oscillator_large_spacing",
        "spectra.oscillator_small_ladder",
    ),
    11: ("duality.closed_level_mapping",),
}


def report(num: int, ok: bool, name: str, detail: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")


def checks(num: int, suite_results):
    """(every check behind criterion num passed, their values and thresholds)."""
    results = [suite_results.check(name) for name in CRITERIA[num]]
    detail = "; ".join(
        f"{r.suite}.{r.name} {r.measured:.3g} (<={r.threshold:.3g})" for r in results
    )
    return all(r.passed for r in results), detail


def test_criterion_01_closed_coulomb_spectrum():
    def run():
        return [coulomb_closed_spectrum(PP, 1.0, n, 0.0) for n in range(10)]

    elapsed = min(
        (lambda t0=time.perf_counter(): (run(), time.perf_counter() - t0)[1])()
        for _ in range(5)
    )
    worst = max(
        abs(e.real - (-1.0 / (2 * (n + 0.5) ** 2))) / (1.0 / (2 * (n + 0.5) ** 2))
        + abs(e.imag)
        for n, e in enumerate(run())
    )
    ok = worst <= 1e-14 and elapsed < 1e-3
    report(1, ok, "closed Coulomb spectrum",
           f"max rel dev {worst:.3g} (<=1e-14), runtime {elapsed*1e3:.3f} ms (<1 ms)")
    assert worst <= 1e-14
    assert elapsed < 1e-3


def test_criterion_02_euclidean_coincidence(suite_results):
    ok, detail = checks(2, suite_results)
    report(2, ok, "Euclidean coincidence", detail)
    assert ok


def test_criterion_03_deep_geometric_ladder(suite_results):
    ok, detail = checks(3, suite_results)
    # the runtime bound covers the whole spectra suite, ladder call included
    elapsed = suite_results.elapsed("spectra")
    report(3, ok and elapsed < 1.0, "deep geometric ladder",
           f"{detail}; spectra suite runtime {elapsed:.3f} s (<1 s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_04_oracle_equivalence(suite_results):
    ok, detail = checks(4, suite_results)
    # the runtime bound covers the whole oracle suite, both routes included
    elapsed = suite_results.elapsed("oracle")
    report(4, ok and elapsed < 30.0, "oracle equivalence",
           f"{detail} over 3 levels; oracle suite runtime {elapsed:.1f} s (<30 s)")
    assert ok
    assert elapsed < 30.0


def test_criterion_05_shallow_condensation(suite_results):
    (fit,) = [suite_results.check(name) for name in CRITERIA[5]]
    ok = fit.measured < fit.threshold  # strict, as the criterion states it
    report(5, ok, "shallow condensation",
           f"max per-level rel err of the Rydberg fit: "
           f"{fit.suite}.{fit.name} {fit.measured:.3g} (<{fit.threshold:.3g})")
    assert ok


def test_criterion_06_free_particle_exactness(suite_results):
    ok, detail = checks(6, suite_results)
    report(6, ok, "free-particle exactness", detail)
    assert ok


def test_criterion_07_conjugation_identity():
    zs = np.linspace(1e-3, 30.0, 1000)
    worst = 0.0
    for m_ang in (0.5, 1.0, 2.0):
        for g in (0.7, 2.3):
            u1 = np.array([coulomb_u1(g, m_ang, float(z)) for z in zs])
            u2 = np.array([coulomb_u2(g, m_ang, float(z)) for z in zs])
            worst = max(worst, float(np.max(np.abs(u2 - np.conj(u1))) / np.max(np.abs(u1))))
    ok = worst == 0.0
    report(7, ok, "conjugation identity",
           f"max |u2 - conj(u1)| / max|u1| = {worst:.3g} (exact equality)")
    assert worst == 0.0


def test_criterion_08_decay_condition(suite_results):
    # the check's grid exp(linspace(log)) and np.geomspace differ in the
    # last bit at some points, but give the same max |u| to the bit
    ok, detail = checks(8, suite_results)
    report(8, ok, "decay condition", f"|u(60)|/max and 1e3/(gain of gamma+0.1): {detail}")
    assert ok


def test_criterion_09_asymptotic_gamma_form():
    g, m_ang = 2.0, 1.0
    devs = {
        z: abs(coulomb_u1(g, m_ang, z) / coulomb_u1_asymptotic(g, m_ang, z) - 1.0)
        for z in (30.0, 40.0, 50.0, 60.0)
    }
    seq = [devs[z] for z in (30.0, 40.0, 50.0, 60.0)]
    monotone = all(seq[i + 1] < seq[i] for i in range(3))
    ok = devs[50.0] <= 1e-2 and monotone
    report(9, ok, "asymptotic Gamma form",
           f"|ratio-1| at z=50 is {devs[50.0]:.3g} (<=1e-2); "
           f"sequence {[f'{d:.3g}' for d in seq]} monotone={monotone}")
    assert monotone
    # The leading term alone misses by the first correction
    # (c-a)(1-a)/z = 7.25/z (~0.145 at z=50); the asymptotic form carries the
    # correction series, whose truncation error falls to ~2e-13 at z=50 and
    # to the ~5e-14 accuracy of coulomb_u1 itself by z=60.
    assert devs[50.0] <= 1e-2


def test_criterion_10_oscillator_spectra(suite_results):
    ok, detail = checks(10, suite_results)
    # the check covers the closed levels n < 6
    exact_dev = 0.0
    for n in (6, 7):
        got = oscillator_closed_spectrum(PP, 1.0, n, 0.0)
        exact_dev = max(exact_dev, abs(got.real - 1.0 * (2 * n + 1)), abs(got.imag))
    report(10, ok and exact_dev == 0.0, "oscillator spectra",
           f"closed-level dev at n = 6, 7 {exact_dev:.3g} (exact); {detail}")
    assert exact_dev == 0.0
    assert ok


def test_criterion_11_duality_consistency(suite_results):
    rng = np.random.default_rng(101)
    worst_inv = 0.0
    for _ in range(1000):
        pp = PhysicalParams(rng.uniform(0.2, 5), rng.uniform(0.2, 5))
        alpha = rng.uniform(0.05, 8)
        e_c = -rng.uniform(1e-4, 1e4)
        m_c = rng.uniform(-4, 4)
        r0 = rng.uniform(0.01, 50)
        d = duality_forward(pp, alpha, e_c, m_c, r0)
        worst_inv = max(
            worst_inv,
            abs(d.r0_scale * d.e_osc - 4 * alpha) / abs(4 * alpha),
            abs(pp.mass * d.omega**2 * d.r0_scale**2 + 8 * e_c) / abs(8 * e_c),
            abs(d.m_osc - 2 * m_c),
        )
    ok, detail = checks(11, suite_results)
    report(11, ok and worst_inv <= 1e-12, "duality consistency",
           f"1000-draw invariant dev {worst_inv:.3g} (<=1e-12); {detail}")
    assert worst_inv <= 1e-12
    assert ok


def test_criterion_12_ode_residual():
    # the h = 1e-3 grid is exactly the even points of the h = 5e-4 one
    # (test_oracle's TestOdeResidual pins that), so each u1 grid is summed once
    residuals = {1e-3: 0.0, 5e-4: 0.0}
    for g in (0.5, 1.5, 2.5):
        energy = -1.0 / (2 * g * g)
        sc = coulomb_scaling(PP, 1.0, energy)
        r = np.arange(1.0, 30.0, 5e-4) * sc.r0
        u = np.array([coulomb_u1(g, 0.0, float(ri / sc.r0)) for ri in r])
        for h, step in ((1e-3, 2), (5e-4, 1)):
            sol = RadialSolution(r[::step], u[::step], energy, 0.0, Coulomb(1.0))
            residuals[h] = max(residuals[h], ode_residual(sol, PP))
    order_ratio = residuals[1e-3] / residuals[5e-4]
    ok = residuals[1e-3] <= 1e-6 and 3.4 <= order_ratio <= 4.6
    report(12, ok, "ODE residual",
           f"scaled residual {residuals[1e-3]:.3g} at h=1e-3 (<=1e-6); "
           f"halving ratio {order_ratio:.2f} (~4 for O(h^2))")
    assert residuals[1e-3] <= 1e-6
    assert 3.4 <= order_ratio <= 4.6
