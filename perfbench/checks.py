"""Independent checks of op outputs, run outside the timed region.

Ladders and amplitudes are checked against mpmath, an arbitrary-precision
library that shares no code with minkqm's Lanczos log-Gamma and Kummer
series.  Oracle ops reuse the thresholds of ``minkqm verify oracle``.
CLI records must be byte-identical to records built from direct API
calls.

``check(op, output, mods)`` returns None when the output passes and a short
reason when it fails.  ``known_defect(op)`` names the documented defect
whose input regime an op lies in, or None; it looks only at the op's
inputs, never at its output.
"""

from __future__ import annotations

import json
import math
import zlib

import mpmath
import numpy as np

from workloads import Op, grid, wave_grid

LADDER_INDEX_TOL = 1e-2  # |(f(E_n) - f(E_0))/pi - n|
FREE_LADDER_RTOL = 1e-9  # free levels against E0 exp(2 pi n / M); solver tol is 1e-10
AMPLITUDE_RTOL = 1e-10  # u1, u2, oscillator against hyp1f1
THIRD_TOL = 1e-6  # third solution, relative to the grid's max |u| (decay-condition scale)
EIGENVALUE_RTOL = 1e-4  # verify oracle: eigenvalue_agreement
RESIDUAL_TOL = 1e-6  # verify oracle: ode_residual_closed_form

# Documented defects (ROADMAP item 2).  Ops whose inputs lie in these
# regimes stay in the workloads and their failures count in `failed` like
# any other; they only do not make a run incorrect.  Both predicates look
# at an op's inputs alone and keep a margin of 10 to 100 below the point
# where the check starts to fail.
#
# shallow_ladder: the ladder solvers bisect to a fixed relative-energy
#   tolerance (1e-10, i.e. 5e-11 in ln g), while the level spacing in ln g
#   shrinks like 1/g, so the index error grows like g * 2.5e-11.  Levels
#   collapse outright near g ~ 1e12 (|E0| ~ 1e-24 for Coulomb).
# third_cancellation: u1 - e^{-2i gamma} u2 cancels two series whose
#   relative truncation error (1e-13) is amplified by the growing-branch
#   size |Gamma(1+2iM)/Gamma(1/2+iM-g)| e^{z/2} z^{-g}.  Measured errors
#   follow this estimate within a factor of 3 for g in [0.2, 5].
SHALLOW_LADDER_G = 4e7
SERIES_TOL = 1e-13
THIRD_CANCELLATION_LIMIT = 1e-8


def anchor_g(op: Op) -> float:
    """Strength parameter g of a ladder op's reference level (hbar = m = alpha = omega = 1)."""
    if op.kind == "ladder_oscillator":
        return op["E0"] / 2.0
    return 1.0 / math.sqrt(-2.0 * op["E0"])


def third_error_estimate(g: float, m_ang: float, z: float) -> float:
    """Series tolerance times the growing-branch amplitude of u1 at z."""
    with mpmath.workdps(30):
        ratio = abs(mpmath.gamma(mpmath.mpc(1, 2 * m_ang))
                    / mpmath.gamma(mpmath.mpc(mpmath.mpf(0.5) - g, m_ang)))
        return float(SERIES_TOL * ratio * mpmath.exp(z / 2) * mpmath.power(z, -g))


def known_defect(op: Op) -> str | None:
    if op.kind in ("ladder_coulomb", "ladder_oscillator") and anchor_g(op) >= SHALLOW_LADDER_G:
        return "shallow_ladder"
    if (op.kind == "third"
            and third_error_estimate(op["g"], op["M"], op["z_end"]) >= THIRD_CANCELLATION_LIMIT):
        return "third_cancellation"
    return None


def check(op: Op, output, mods) -> str | None:
    """None when the output of op passes, else the reason; mods are the library modules."""
    if op.kind.startswith("ladder"):
        return _check_ladder(op, output)
    if op.kind in ("u1", "u2", "osc_wave", "third"):
        return _check_wave(op, output)
    if op.kind.startswith("shoot"):
        shot, analytic = output
        if len(shot) != op["count"] or len(analytic) != op["count"]:
            return "level count mismatch"
        worst = max(abs(s - a) / abs(a) for s, a in zip(shot, analytic))
        return None if worst <= EIGENVALUE_RTOL else f"eigenvalue disagreement {worst:.3g}"
    if op.kind == "residual":
        res = output[0]
        return None if res <= RESIDUAL_TOL else f"ode residual {res:.3g}"
    if op.kind.startswith("cli"):
        return _check_cli(op, output, mods)
    raise ValueError(op.kind)


# ------------------------------------------------------------------ ladder

def _mp_f(g, m_ang):
    """Quantization phase f = -M ln g + Im lnGamma(1/2 - g + iM) - Im lnGamma(1 + 2iM)."""
    return (-m_ang * mpmath.log(g) + mpmath.im(mpmath.loggamma(mpmath.mpc(mpmath.mpf(0.5) - g, m_ang)))
            - mpmath.im(mpmath.loggamma(mpmath.mpc(1, 2 * m_ang))))


def _check_ladder(op: Op, output) -> str | None:
    levels = op["levels"]
    if tuple(n for n, _ in output) != tuple(levels):
        return "level indices differ from the request"
    energies = [e for _, e in output]
    if not all(math.isfinite(e) for e in energies):
        return "non-finite level"
    steps = [b - a for a, b in zip(energies, energies[1:])]
    if not (all(d > 0 for d in steps) or all(d < 0 for d in steps)):
        return "energies not strictly monotone in n"
    m_ang, e0 = op["M"], op["E0"]
    if dict(output)[0] != e0:
        return "anchor level moved"
    with mpmath.workdps(40):
        if op.kind == "ladder_free":
            worst = max(
                abs(mpmath.mpf(e) / (e0 * mpmath.exp(2 * mpmath.pi * n / m_ang)) - 1)
                for n, e in output)
            return None if worst <= FREE_LADDER_RTOL else f"free ladder off by {float(worst):.3g}"
        if op.kind == "ladder_oscillator":  # g = E/(2 hbar omega), M_C = M/2, f(g_n) = f(g_0) - pi n
            m_c, sign = m_ang / 2.0, -1

            def g_of(e):
                return mpmath.mpf(e) / 2
        else:  # Coulomb: g = m alpha / (hbar sqrt(-2 m E)), f(g_n) = f(g_0) + pi n
            m_c, sign = m_ang, 1

            def g_of(e):
                return 1 / mpmath.sqrt(-2 * mpmath.mpf(e))
        f0 = _mp_f(g_of(e0), m_c)
        worst = max(abs(sign * (_mp_f(g_of(e), m_c) - f0) / mpmath.pi - n)
                    for n, e in output if n != 0)
    return None if worst <= LADDER_INDEX_TOL else f"level index off by {float(worst):.3g}"


# ------------------------------------------------------------ wavefunction

def sample_indices(op: Op, count: int) -> list[int]:
    """Two interior grid indices drawn from the op itself, plus the last point."""
    rng = np.random.default_rng(zlib.crc32(repr(op).encode()))
    picks = sorted(int(i) for i in rng.choice(count - 1, size=2, replace=False))
    return picks + [count - 1]


def _mp_kummer_amplitude(g, m_ang, z):
    """u1(g, M, z) = e^{-z/2} z^{1/2 + iM} 1F1(1/2 + iM - g, 1 + 2iM, z); u2 is M -> -M."""
    z = mpmath.mpf(z)
    return (mpmath.exp(-z / 2) * mpmath.power(z, mpmath.mpc(0.5, m_ang))
            * mpmath.hyp1f1(mpmath.mpc(mpmath.mpf(0.5) - g, m_ang), mpmath.mpc(1, 2 * m_ang), z))


def _mp_osc_amplitude(n, m_ang, rho):
    """rho^{iM} e^{-rho^2/2} 1F1(-n, 1 + iM, rho^2) at phi = 0, omega = m = hbar = 1."""
    rho = mpmath.mpf(rho)
    x = rho * rho
    return (mpmath.power(rho, mpmath.mpc(0, m_ang)) * mpmath.exp(-x / 2)
            * mpmath.hyp1f1(-n, mpmath.mpc(1, m_ang), x))


def _check_wave(op: Op, output) -> str | None:
    zs = wave_grid(op)
    gamma, u = output if op.kind == "third" else (None, output)
    if u.shape != zs.shape:
        return "wrong number of points"
    if not np.all(np.isfinite(u)):
        return "non-finite amplitude"
    idx = sample_indices(op, len(zs))
    m_ang = op["M"]
    if op.kind == "third":
        idx.append(int(np.argmax(np.abs(u))))
        with mpmath.workdps(60):  # the two series cancel by up to e^{z}
            phase = mpmath.exp(mpmath.mpc(0, -2) * mpmath.mpf(gamma))
            ref = [_mp_kummer_amplitude(op["g"], m_ang, zs[i])
                   - phase * _mp_kummer_amplitude(op["g"], -m_ang, zs[i]) for i in idx]
            scale = max(abs(r) for r in ref)
            worst = max(abs(mpmath.mpc(u[i]) - r) for i, r in zip(idx, ref)) / scale
        return None if worst <= THIRD_TOL else f"third solution off by {float(worst):.3g} of max|u|"
    with mpmath.workdps(30):
        if op.kind == "osc_wave":
            rhos = np.sqrt(zs)
            ref = [_mp_osc_amplitude(op["n"], m_ang, rhos[i]) for i in idx]
        else:
            sign = 1 if op.kind == "u1" else -1
            ref = [_mp_kummer_amplitude(op["g"], sign * m_ang, zs[i]) for i in idx]
        worst = max(abs(mpmath.mpc(u[i]) / r - 1) for i, r in zip(idx, ref))
    return None if worst <= AMPLITUDE_RTOL else f"amplitude off by {float(worst):.3g}"


# --------------------------------------------------------------------- cli

def api_records(op: Op, mods) -> tuple[str, list[dict]]:
    """(command, payloads) the CLI must print for a cli op, built from direct API calls."""
    spectra, model = mods.spectra, mods.model
    pp = model.NATURAL_UNITS
    p = dict(op.params)
    k = op.kind
    if k == "cli_closed":
        recs = []
        for n in range(0, p["n_hi"] + 1):
            if p["system"] == "coulomb":
                e = spectra.coulomb_closed_spectrum(pp, p["coupling"], n, p["M"])
            else:
                e = spectra.oscillator_closed_spectrum(pp, p["coupling"], n, p["M"])
            recs.append({"system": p["system"], "branch": "closed_form_u1", "n": n,
                         "M": p["M"], "E_re": e.real, "E_im": e.imag})
        return "spectrum", recs
    if k in ("cli_free", "cli_coulomb", "cli_oscillator"):
        if k == "cli_oscillator":
            system = "oscillator"
            entries = spectra.oscillator_quantized_spectrum(pp, 1.0, p["M"], p["E0"], range(0, 4))
        else:
            system = "free" if k == "cli_free" else "coulomb"
            alpha = 0.0 if k == "cli_free" else p["alpha"]
            levels = range(-2, 3) if k == "cli_free" else range(-3, 4)
            entries = spectra.solve_quantized_spectrum(pp, alpha, p["M"], p["E0"], levels)
        return "spectrum", [
            {"system": system, "branch": "quantized_third", "n": e.n, "M": e.m_ang,
             "E_re": e.energy.real, "E_im": e.energy.imag} for e in entries]
    if k == "cli_third":
        gamma = spectra.gamma_phase(p["g"], p["M"]).gamma
        recs = []
        for z in grid(1e-4, p["z_end"], 400, "log"):
            u = spectra.coulomb_third(p["g"], p["M"], float(z), gamma)
            recs.append({"system": "coulomb", "branch": "third", "r": float(z),
                         "u_re": u.real, "u_im": u.imag, "u_abs": abs(u)})
        return "wavefunction", recs
    if k == "cli_osc_wave":
        recs = []
        for rho in grid(0.01, p["rho_end"], 200, "linear"):
            u = spectra.oscillator_wavefunction(pp, 1.0, p["n"], p["M"], float(rho), 0.0)
            recs.append({"system": "oscillator", "branch": f"n={p['n']}", "r": float(rho),
                         "u_re": u.real, "u_im": u.imag, "u_abs": abs(u)})
        return "wavefunction", recs
    if k == "cli_potential":
        kind = {"coulomb": model.Coulomb(1.0), "free": model.Free(),
                "oscillator": model.Oscillator(1.0)}[p["system"]]
        recs = []
        for r in grid(p["r_min"], p["r_max"], 200, "linear"):
            r = float(r)
            recs.append({"system": p["system"], "M": p["M"], "r": r,
                         "U": model.potential(kind, pp, r),
                         "U_eff_minkowski": model.effective_potential(kind, pp, p["M"], r),
                         "U_eff_euclidean": model.euclidean_effective_for(kind, pp, p["M"], r)})
        return "potential", recs
    if k == "cli_phase":
        rp = spectra.gamma_phase(p["g"], p["M"])
        return "phase", [{"g": p["g"], "M": p["M"], "r0": p["g"] / 2.0, "gamma": rp.gamma,
                          "beta": rp.beta, "gamma_raw": rp.gamma_raw}]
    if k == "cli_duality":
        d = spectra.duality_forward(pp, p["alpha"], p["EC"], p["MC"], p["r0_scale"])
        return "duality", [{"r0_scale": d.r0_scale, "alpha": d.alpha, "E_coulomb": d.e_coulomb,
                            "omega": d.omega, "E_osc": d.e_osc, "M_coulomb": d.m_coulomb,
                            "M_osc": d.m_osc}]
    raise ValueError(k)


def expected_cli_stdout(op: Op, mods) -> str:
    command, payloads = api_records(op, mods)
    head = {"schema_version": 1, "command": command, "units": {"hbar": 1.0, "mass": 1.0}}
    lines = [json.dumps(head)]
    for payload in payloads:
        rec = {"schema_version": 1, "command": command, "hbar": 1.0, "mass": 1.0}
        rec.update(payload)
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


def _check_cli(op: Op, output, mods) -> str | None:
    code, stdout, stderr = output
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    if stdout != expected_cli_stdout(op, mods):
        return "records differ from the direct API results"
    return None
