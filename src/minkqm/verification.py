"""Named invariant suites behind the `verify` CLI command.

Each check returns a CheckResult with the measured value and the
threshold it was held to, so failures are diagnosable from the report
alone.  Randomized checks use fixed seeds; the report is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from . import _record, model, oracle, spectra
from .errors import PoleError
from .model import Coulomb, Free, NATURAL_UNITS
from .specfun import KummerParams, kummer_m, ln_gamma

class CheckResult(_record.Record):
    suite: str
    name: str
    measured: float
    threshold: float
    passed: bool

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.suite}.{self.name}: measured={self.measured:.6g} "
            f"threshold={self.threshold:.6g}"
        )


def _check(suite: str, name: str, measured: float, threshold: float) -> CheckResult:
    return CheckResult(suite, name, float(measured), float(threshold), measured <= threshold)


def _mod_pi_distance(x: float, y: float) -> float:
    """Distance between two phases on the circle of circumference pi."""
    d = math.fmod(abs(x - y), math.pi)
    return min(d, math.pi - d)


# -------------------------------------------------------------- specfun

def suite_specfun() -> list[CheckResult]:
    rng = np.random.default_rng(20240817)
    out = []

    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(0.2, 20.0), rng.uniform(-20.0, 20.0))
        if abs(z) > 20:
            continue
        lhs = ln_gamma(z + 1)
        rhs = ln_gamma(z) + np.log(complex(z))
        worst = max(worst, abs(np.exp(lhs - rhs) - 1.0))
    out.append(_check("specfun", "gamma_recurrence", worst, 1e-12))

    known = max(
        abs(ln_gamma(1.0)),
        abs(ln_gamma(0.5) - math.log(math.sqrt(math.pi))),
    )
    out.append(_check("specfun", "gamma_known_values", known, 1e-14))

    worst = 0.0
    for _ in range(50):
        a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        c = complex(rng.uniform(0.5, 3), rng.uniform(-3, 3))
        z = rng.uniform(0.0, 30.0)
        f = kummer_m(KummerParams(a, c), z)
        fbar = kummer_m(KummerParams(a.conjugate(), c.conjugate()), z)
        worst = max(worst, abs(fbar - f.conjugate()) / max(abs(f), 1e-300))
    out.append(_check("specfun", "kummer_conjugation", worst, 1e-12))

    worst = 0.0
    for n in (1, 2, 3, 5, 8):
        c = complex(1.0, 2.0 * rng.uniform(0.3, 2.0))
        p = KummerParams(complex(-n, 0.0), c)
        for z in rng.uniform(0.1, 10.0, size=2 * n):
            val = kummer_m(p, float(z))
            # explicit degree-n polynomial, summed at working precision
            term = np.clongdouble(1.0)
            acc = np.clongdouble(1.0)
            for k in range(n):
                term = term * (np.clongdouble(p.a) + k) * np.clongdouble(z) / (
                    (np.clongdouble(c) + k) * (k + 1)
                )
                acc = acc + term
            worst = max(worst, abs(val - complex(acc)))
    out.append(_check("specfun", "kummer_polynomial_termination", worst, 0.0))
    return out


# -------------------------------------------------------------- phases

def _phase_fit_residual(g: float, m_ang: float, z_lo: float, z_hi: float) -> float:
    """Rms residual of fitting the third solution to A sin(M ln z + gamma)."""
    rp = spectra.gamma_phase(g, m_ang)
    zs = np.exp(np.linspace(math.log(z_lo), math.log(z_hi), 200))
    vals = np.array(
        [spectra.coulomb_third(g, m_ang, float(z), rp.gamma) for z in zs]
    )
    scaled = vals / np.sqrt(zs)
    # common phase: the combination is 2i e^{-i gamma} x (real oscillation)
    osc = (scaled * np.exp(1j * rp.gamma) / 2j).real
    model_vals = np.sin(m_ang * np.log(zs) + rp.gamma)
    amp = np.linalg.lstsq(model_vals[:, None], osc, rcond=None)[0][0]
    resid = osc - amp * model_vals
    return float(np.sqrt(np.mean(resid**2)) / abs(amp))


def suite_phases() -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(7)

    worst = 0.0
    for _ in range(40):
        g = rng.uniform(0.1, 40.0)
        m = rng.uniform(0.1, 4.0)
        num = ln_gamma(complex(1, 2 * m)) + ln_gamma(complex(0.5 - g, -m))
        den = ln_gamma(complex(1, -2 * m)) + ln_gamma(complex(0.5 - g, m))
        worst = max(worst, abs(abs(np.exp(num - den)) - 1.0))
    out.append(_check("phases", "unit_modulus", worst, 1e-10))

    out.append(
        _check("phases", "gamma_zero_at_m0", abs(spectra.gamma_phase(0.3, 0.0).gamma), 0.0)
    )

    pole_ok = 0.0
    try:
        spectra.gamma_phase(1.5, 0.0)
        pole_ok = 1.0
    except PoleError:
        pass
    out.append(_check("phases", "gamma_pole_at_closed_levels", pole_ok, 0.0))

    worst = 0.0
    for _ in range(25):
        g = rng.uniform(0.2, 10.0)
        m = rng.uniform(0.1, 3.0)
        gp = spectra.gamma_phase(g, m).gamma
        gm = spectra.gamma_phase(g, -m).gamma
        worst = max(worst, _mod_pi_distance(gp, -gm))
    out.append(_check("phases", "gamma_conjugation", worst, 1e-12))

    out.append(
        _check(
            "phases",
            "small_z_phase_fit",
            _phase_fit_residual(2.0, 1.0, 1e-9, 1e-6),
            1e-6,
        )
    )
    # On the wider window [1e-6, 1e-3] the O(z) correction to the two-term
    # asymptote caps the attainable residual near |a/c - 1/2| * z_hi.
    out.append(
        _check(
            "phases",
            "small_z_phase_fit_wide",
            _phase_fit_residual(2.0, 1.0, 1e-6, 1e-3),
            5e-4,
        )
    )

    # decay condition at z = 60 via the growing-branch coefficient
    for g, m in ((2.0, 1.0), (2.3, 2.0)):
        rp = spectra.gamma_phase(g, m)
        zs = np.exp(np.linspace(math.log(0.5), math.log(35.0), 220))
        max_u = max(
            abs(spectra.coulomb_third(g, m, float(z), rp.gamma)) for z in zs
        )
        tail = abs(spectra.coulomb_third_asymptotic(g, m, 60.0, rp.gamma))
        ratio = tail / max_u
        out.append(_check("phases", f"decay_condition_g{g}_m{m}", ratio, 1e-6))
        tail_bad = abs(spectra.coulomb_third_asymptotic(g, m, 60.0, rp.gamma + 0.1))
        gain = (tail_bad / max_u) / max(ratio, 1e-300)
        out.append(_check("phases", f"decay_sensitivity_g{g}_m{m}", 1e3 / gain, 1.0))
    return out


# -------------------------------------------------------------- spectra

def suite_spectra() -> list[CheckResult]:
    pp = NATURAL_UNITS
    out = []

    worst = 0.0
    for n in range(10):
        got = spectra.coulomb_closed_spectrum(pp, 1.0, n, 0.0)
        want = -1.0 / (2.0 * (n + 0.5) ** 2)
        worst = max(worst, abs(got - want) / abs(want))
    out.append(_check("spectra", "closed_spectrum_m0", worst, 1e-14))

    worst = 0.0
    for n in range(51):
        a = spectra.coulomb_closed_spectrum(pp, 1.0, n, 0.0)
        b = spectra.shallow_spectrum(pp, 1.0, 0.5, n)
        worst = max(worst, abs(a.real - b) + abs(a.imag))
    out.append(_check("spectra", "euclidean_coincidence", worst, 0.0))

    entries = spectra.solve_quantized_spectrum(pp, 1.0, 1.0, -1e6, range(1, 6))
    es = [e.energy.real for e in entries]
    tgt = math.exp(2 * math.pi)
    worst = max(abs(es[i] / es[i - 1] - tgt) / tgt for i in range(1, 5))
    out.append(_check("spectra", "deep_ladder_ratios", worst, 1e-3))

    entries = spectra.solve_quantized_spectrum(pp, 0.0, 1.0, -1.0, range(-3, 4), tol=1e-12)
    worst = max(
        abs(e.energy.real - (-math.exp(2 * math.pi * e.n))) / math.exp(2 * math.pi * e.n)
        for e in entries
    )
    out.append(_check("spectra", "free_particle_exactness", worst, 1e-10))

    entries = spectra.solve_quantized_spectrum(pp, 1.0, 1.0, -2.0, range(-4, -9, -1))
    gs = np.array([spectra.coulomb_scaling(pp, 1.0, e.energy.real).g for e in entries])
    ks = np.array([e.n for e in entries], dtype=float)
    g0_fit = float(np.mean(gs + ks))
    worst = 0.0
    for e, k in zip(entries, ks):
        model_e = spectra.shallow_spectrum(pp, 1.0, g0_fit, int(-k))
        worst = max(worst, abs(e.energy.real - model_e) / abs(e.energy.real))
    out.append(_check("spectra", "shallow_condensation", worst, 1e-2))

    worst = 0.0
    for n in range(6):
        got = spectra.oscillator_closed_spectrum(pp, 1.0, n, 0.0)
        worst = max(worst, abs(got - (2 * n + 1.0)))
    out.append(_check("spectra", "oscillator_closed_exact_m0", worst, 0.0))

    ent = spectra.oscillator_quantized_spectrum(pp, 1.0, 1.0, 2e-4, [-1])
    ratio = ent[0].energy.real / 2e-4
    out.append(
        _check(
            "spectra",
            "oscillator_small_ladder",
            abs(ratio - math.exp(-2 * math.pi)) / math.exp(-2 * math.pi),
            1e-3,
        )
    )

    ent = spectra.oscillator_quantized_spectrum(pp, 1.0, 1.0, 25.0, range(0, 4))
    ladder = [x.energy.real for x in ent]
    spacing_dev = max(abs((ladder[i + 1] - ladder[i]) - 2.0) / 2.0 for i in range(3))
    out.append(_check("spectra", "oscillator_large_spacing", spacing_dev, 1e-2))

    worst = 0.0
    for n in range(4):
        ep = spectra.coulomb_closed_spectrum(pp, 1.0, n, 1.5)
        em = spectra.coulomb_closed_spectrum(pp, 1.0, n, -1.5)
        worst = max(worst, abs(em - ep.conjugate()))
    out.append(_check("spectra", "closed_conjugation_symmetry", worst, 0.0))
    return out


# -------------------------------------------------------------- oracle

def suite_oracle() -> list[CheckResult]:
    pp = NATURAL_UNITS
    out = []

    cfg = oracle.ShootingConfig(1.0, 10.0, steps=20000)
    r = np.linspace(1.0, 10.0, cfg.steps)
    # decaying solution in its stable direction (inward)
    sol = oracle.integrate_radial(
        Free(), pp, 0.0, -1.0, cfg, "inward",
        (math.exp(-r[-1]), math.exp(-r[-2])),
        q_func=lambda rr: -np.ones_like(rr),
    )
    worst = float(np.max(np.abs(sol.u_values - np.exp(-r)) / np.exp(-r)))
    out.append(_check("oracle", "constant_q_decay", worst, 1e-9))

    sol = oracle.integrate_radial(
        Free(), pp, 0.0, -1.0, cfg, "outward",
        (math.sin(r[0]), math.sin(r[1])),
        q_func=lambda rr: np.ones_like(rr),
    )
    worst = float(np.max(np.abs(sol.u_values - np.sin(r))))
    out.append(_check("oracle", "constant_q_oscillation", worst, 1e-9))

    # closed-form eigenfunction residual at h = 1e-3, plus O(h^2) refinement.
    # np.arange(1.0, 30.0, 1e-3) is exactly the even points of the h = 5e-4
    # grid, so the coarse solution is a view of the fine one.
    g = 0.5
    energy = -1.0 / (2.0 * g * g)
    sc = spectra.coulomb_scaling(pp, 1.0, energy)
    r_h2 = np.arange(1.0, 30.0, 5e-4) * sc.r0
    u2 = np.array([spectra.coulomb_u1(g, 0.0, float(ri / sc.r0)) for ri in r_h2])
    sol = oracle.RadialSolution(r_h2[::2], u2[::2], energy, 0.0, Coulomb(1.0))
    res1 = oracle.ode_residual(sol, pp)
    out.append(_check("oracle", "ode_residual_closed_form", res1, 1e-6))

    res2 = oracle.ode_residual(oracle.RadialSolution(r_h2, u2, energy, 0.0, Coulomb(1.0)), pp)
    out.append(_check("oracle", "ode_residual_h2_refinement", abs(res1 / res2 - 4.0), 0.6))

    # conjugated start -> conjugated solution, bitwise
    cfgc = oracle.ShootingConfig(0.5, 20.0, steps=2000)
    start = (complex(0.3, 0.7), complex(0.2, -0.4))
    sol_a = oracle.integrate_radial(Coulomb(1.0), pp, 1.0, -0.5, cfgc, "outward", start)
    sol_b = oracle.integrate_radial(
        Coulomb(1.0), pp, 1.0, -0.5, cfgc, "outward",
        (start[0].conjugate(), start[1].conjugate()),
    )
    worst = float(np.max(np.abs(sol_b.u_values - np.conj(sol_a.u_values))))
    out.append(_check("oracle", "conjugation_symmetry", worst, 0.0))

    # free particle: beta + M ln r0 constant in E (compared on the circle mod pi)
    betas = []
    for energy in (-0.5, -1.0, -2.0, -5.0):
        cfg_e = oracle.scaled_config(pp, energy, min_factor=1e-6, steps=6000)
        b = oracle.inward_phase(Free(), pp, 1.0, energy, cfg_e)
        r0 = oracle.bound_state_length(pp, energy)
        betas.append(b + math.log(r0))
    spread = max(
        _mod_pi_distance(betas[i], betas[j])
        for i in range(len(betas))
        for j in range(i + 1, len(betas))
    )
    out.append(_check("oracle", "free_beta_energy_law", spread, 1e-6))

    # phase additivity on the deep ladder (deep enough that the asymptotic
    # ladder partner is the true one to better than 1e-4 rad)
    e_deep = -1e9
    cfg_e = oracle.scaled_config(pp, e_deep, min_factor=1e-6, steps=6000)
    b1 = oracle.inward_phase(Coulomb(1.0), pp, 1.0, e_deep, cfg_e)
    e_next = e_deep * math.exp(2 * math.pi)
    cfg_n = oracle.scaled_config(pp, e_next, min_factor=1e-6, steps=6000)
    b2 = oracle.inward_phase(Coulomb(1.0), pp, 1.0, e_next, cfg_n)
    out.append(
        _check("oracle", "deep_ladder_phase_additivity", _mod_pi_distance(b1, b2), 1e-4)
    )

    # agreement between the two eigenvalue routes
    cfg_a = oracle.scaled_config(pp, -1.0, min_factor=1e-6, steps=6000)
    shot = oracle.shoot_eigenvalues(Coulomb(1.0), pp, 1.0, (-1e9, -1.0), 3, cfg_a, tol=1e-7)
    analytic = spectra.solve_quantized_spectrum(pp, 1.0, 1.0, -1.0, range(1, 4))
    worst = max(
        abs(s - a.energy.real) / abs(a.energy.real) for s, a in zip(shot, analytic)
    )
    out.append(_check("oracle", "eigenvalue_agreement", worst, 1e-4))

    # stability of the first level under window/resolution changes
    lvl = shot[0]
    cfg_b = oracle.scaled_config(pp, -1.0, min_factor=1e-6, max_factor=75.0, steps=12000)
    lvl_b = oracle.shoot_eigenvalues(Coulomb(1.0), pp, 1.0, (-1e4, -1.0), 1, cfg_b, tol=1e-8)[0]
    out.append(_check("oracle", "window_stability", abs(lvl - lvl_b) / abs(lvl), 1e-5))
    return out


# -------------------------------------------------------------- duality

def suite_duality() -> list[CheckResult]:
    pp_options = [NATURAL_UNITS, model.PhysicalParams(2.0, 0.5), model.PhysicalParams(0.7, 3.0)]
    rng = np.random.default_rng(2024)
    out = []

    worst = 0.0
    for _ in range(1000):
        pp = pp_options[rng.integers(0, len(pp_options))]
        alpha = float(rng.uniform(0.1, 5.0))
        e_c = -float(rng.uniform(1e-3, 1e3))
        m_c = float(rng.uniform(-3.0, 3.0))
        r0 = float(rng.uniform(0.05, 20.0))
        d = spectra.duality_forward(pp, alpha, e_c, m_c, r0)
        inv1 = abs(d.r0_scale * d.e_osc - 4 * d.alpha) / abs(4 * d.alpha)
        inv2 = abs(pp.mass * d.omega**2 * d.r0_scale**2 + 8 * d.e_coulomb) / abs(8 * d.e_coulomb)
        inv3 = abs(d.m_osc - 2 * d.m_coulomb)
        worst = max(worst, inv1, inv2, inv3)
    out.append(_check("duality", "forward_invariants_1000", worst, 1e-12))

    # closed Coulomb levels map onto closed oscillator levels
    pp = NATURAL_UNITS
    worst = 0.0
    for n in range(8):
        e_c = spectra.coulomb_closed_spectrum(pp, 1.0, n, 0.0).real
        d = spectra.duality_forward(pp, 1.0, e_c, 0.0, r0_scale=1.0)
        want = spectra.oscillator_closed_spectrum(pp, d.omega, n, 0.0).real
        worst = max(worst, abs(d.e_osc - want) / abs(want))
    out.append(_check("duality", "closed_level_mapping", worst, 1e-10))

    worst = 0.0
    for _ in range(200):
        alpha = float(rng.uniform(0.1, 5.0))
        e_c = -float(rng.uniform(1e-3, 1e3))
        d = spectra.duality_forward(NATURAL_UNITS, alpha, e_c, 1.0, float(rng.uniform(0.1, 10)))
        # invert the energy relation E_osc = 2 alpha omega sqrt(m)/sqrt(-2 E_C)
        e_back = -2.0 * (alpha * d.omega) ** 2 * NATURAL_UNITS.mass / d.e_osc**2
        worst = max(worst, abs(e_back - e_c) / abs(e_c))
    out.append(_check("duality", "energy_relation_roundtrip", worst, 1e-10))
    return out


_SUITE_FUNCS = {
    "specfun": suite_specfun,
    "phases": suite_phases,
    "spectra": suite_spectra,
    "oracle": suite_oracle,
    "duality": suite_duality,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suite(name: str) -> list[CheckResult]:
    """One suite's results, or every suite's in SUITES order for "all".

    Raises KeyError for an unknown name.
    """
    if name == "all":
        return [r for suite in _SUITE_FUNCS.values() for r in suite()]
    return _SUITE_FUNCS[name]()
