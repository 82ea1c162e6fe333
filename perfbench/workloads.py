"""Seeded inputs and operations of the four benchmark workloads.

A run's input is an op set: a whole number of cycles of the workload's op
kinds, drawn from the seed, so every run has the same mix of kinds.  The
continuous parameters of each kind come from one seeded point set per kind
(see ``_points``).  The points cover the parameter box evenly, and the
inputs that set an op's cost are stratified in the same cells for every
seed.  That keeps the cost of a set steady across seeds even though single
ops differ in cost by a factor of a hundred.  The ranges are the full
ranges the benchmark is meant to cover, known defects included (see
``checks.known_defect``).

``Executor`` runs an op through the public Python API, or through
``python -m minkqm`` for the cli workload, and returns its output (a
tuple, or a complex array of amplitudes); ``checks.py`` verifies it.
"""

from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass
from typing import Callable

import numpy as np

PRIMES = (7, 11, 13, 17, 19)  # Halton bases of coordinates 3 to 7
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
STRATIFIED = 3  # coordinates that every op kind gives to the inputs that set its cost


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple  # (name, value) pairs

    def __getitem__(self, name):
        return dict(self.params)[name]


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i > 0:
        inv += f * (i % base)
        i //= base
        f /= base
    return inv


def _points(count: int, rng: np.random.Generator) -> list[list[float]]:
    """count points in [0, 1)^8 drawn from rng.

    Coordinates 0 to 2 are stratified: point i lies in slice i*g^d mod count
    of coordinate d (a Korobov lattice, g the integer coprime to count
    nearest count/golden ratio), at a seeded position inside the slice.  So
    every seed samples the same cells of the cost-setting inputs and differs
    only within them.  Coordinates 3 to 7 follow Halton sequences rotated by
    a seeded shift (mod 1).
    """
    near = round(count / GOLDEN)
    g = min((k for k in range(1, max(count, 2)) if math.gcd(k, count) == 1),
            key=lambda k: abs(k - near))
    jitter = rng.random((count, STRATIFIED))
    shift = rng.random(len(PRIMES))
    return [
        [float((i * g ** d % count + jitter[i, d]) / count) for d in range(STRATIFIED)]
        + [float((_radical_inverse(i + 1, b) + s) % 1.0) for b, s in zip(PRIMES, shift)]
        for i in range(count)
    ]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _signed_m(u_mag: float, u_sign: float, lo: float, hi: float) -> float:
    m = _log_uniform(u_mag, lo, hi)
    return m if u_sign < 0.5 else -m


def _pick(u: float, k: int) -> int:
    return min(int(u * k), k - 1)


# ------------------------------------------------------------------ ladder

# Level windows: 3 to 9 levels wide, with 1 to width - 1 levels below n = 0.
# Solving a level costs about depth^2/|M|, depth counted on the window's
# deep side, so a window run with +M and with -M costs about
# n_lo^2 + n_hi^2.  Windows are listed in that order, which lets the
# lattice coordinate that picks them spread cost evenly.
WINDOWS = sorted(
    ((-n_neg, width - n_neg) for width in range(3, 10) for n_neg in range(1, width)),
    key=lambda w: (w[0] ** 2 + (w[1] - 1) ** 2, w),
)


def _ladder_ops(kind: str, u: list[float]) -> list[Op]:
    # Each draw runs with +M and with -M.  The sign decides which side of
    # the window is the deep one, so the pair keeps heavy windows from
    # landing on one side by chance.
    lo, hi = WINDOWS[_pick(u[1], len(WINDOWS))]
    mag = _log_uniform(u[2], 1e-24, 1e9)
    m = _log_uniform(u[0], 0.25, 4.0)
    return [Op(kind, (
        ("M", sign * m),
        ("E0", mag if kind == "ladder_oscillator" else -mag),
        ("levels", tuple(range(lo, hi))),
    )) for sign in (1.0, -1.0)]


# ------------------------------------------------------------ wavefunction

def _wave_ops(kind: str, u: list[float]) -> list[Op]:
    # a linear grid costs about twice a log grid with the same ends: most
    # log points sit at small z, where the series is short
    spacing = "log" if u[2] < 0.5 else "linear"
    params = [
        ("z_min", _log_uniform(u[5], 1e-4, 1e-2) if spacing == "log" else 0.01),
        ("z_end", 5.0 + 75.0 * u[0]),  # grid end up to z = 80
        ("points", 200 + _pick(u[1], 201)),
        ("spacing", spacing),
        ("M", _signed_m(u[3], u[7], 0.25, 4.0)),
    ]
    if kind == "osc_wave":
        params.append(("n", _pick(u[6], 7)))
    else:
        params.append(("g", _log_uniform(u[4], 0.2, 20.0)))
    return [Op(kind, tuple(params))]


def grid(lo: float, hi: float, n: int, spacing: str) -> np.ndarray:
    """n points from lo to hi, evenly spaced in z ("linear") or in ln z ("log")."""
    if spacing == "log":
        return np.exp(np.linspace(math.log(lo), math.log(hi), n))
    return np.linspace(lo, hi, n)


def wave_grid(op: Op) -> np.ndarray:
    """Sample points of a wavefunction op: z = r/r0, or x = m omega rho^2/hbar."""
    return grid(op["z_min"], op["z_end"], op["points"], op["spacing"])


# ---------------------------------------------------------------- validate

def _validate_ops(kind: str, u: list[float]) -> list[Op]:
    if kind == "residual":
        # closed-form u1 eigenfunction: M = 0 and g = n + 1/2 give a real level.
        # The grid starts at z >= 1 as in `verify oracle`: below that the
        # three-point difference's own O(h^2) error passes the 1e-6 threshold.
        # n sets the cost of each point's series, alpha barely does: n is
        # stratified, alpha is not
        return [Op(kind, (
            ("n", _pick(u[1], 4)),
            ("alpha", _log_uniform(u[3], 0.5, 2.0)),
            ("z_lo", 1.0 + 1.0 * u[2]),
            ("z_hi", 20.0 + 20.0 * u[0]),
        ))]
    return [Op(kind, (
        ("M", _signed_m(u[1], u[3], 0.5, 2.0)),
        ("E_hi", -_log_uniform(u[2], 0.1, 1e3)),
        ("count", 1 + _pick(u[0], 3)),
    ))]


# --------------------------------------------------------------------- cli

def _cli_ops(kind: str, u: list[float]) -> list[Op]:
    return [_cli_op(kind, u)]


def _cli_op(kind: str, u: list[float]) -> Op:
    m = _signed_m(u[0], u[5], 0.5, 2.0)
    if kind == "cli_closed":
        return Op(kind, (("system", ("coulomb", "oscillator")[_pick(u[1], 2)]),
                         ("coupling", _log_uniform(u[2], 0.5, 2.0)), ("M", m),
                         ("n_hi", 2 + _pick(u[3], 4))))
    if kind == "cli_free":
        return Op(kind, (("M", m), ("E0", -_log_uniform(u[2], 0.1, 10.0))))
    if kind == "cli_coulomb":
        return Op(kind, (("alpha", _log_uniform(u[1], 0.5, 2.0)), ("M", m),
                         ("E0", -_log_uniform(u[2], 0.5, 5.0))))
    if kind == "cli_oscillator":
        return Op(kind, (("M", m), ("E0", _log_uniform(u[2], 5.0, 50.0))))
    if kind == "cli_third":
        return Op(kind, (("g", _log_uniform(u[1], 0.5, 5.0)), ("M", m),
                         ("z_end", 20.0 + 20.0 * u[2])))
    if kind == "cli_osc_wave":
        return Op(kind, (("n", _pick(u[1], 4)), ("M", m), ("rho_end", 2.0 + 3.0 * u[2])))
    if kind == "cli_potential":
        return Op(kind, (("system", ("coulomb", "free", "oscillator")[_pick(u[1], 3)]),
                         ("M", m), ("r_min", 0.1 + 0.2 * u[2]), ("r_max", 3.0 + 7.0 * u[3])))
    if kind == "cli_phase":
        return Op(kind, (("g", _log_uniform(u[1], 0.2, 20.0)), ("M", m)))
    if kind == "cli_duality":
        return Op(kind, (("alpha", _log_uniform(u[1], 0.5, 2.0)),
                         ("EC", -_log_uniform(u[2], 0.1, 10.0)), ("MC", m),
                         ("r0_scale", _log_uniform(u[3], 0.5, 2.0))))
    raise ValueError(kind)


def cli_argv(op: Op) -> list[str]:
    """README-style command line of a cli op.

    Numeric options use the ``--opt=value`` form: argparse rejects a
    separate negative value in exponent notation.
    """
    p = dict(op.params)

    def num(name):
        return f"--{name}={float(p[name])!r}"

    k = op.kind
    if k == "cli_closed":
        coupling = "alpha" if p["system"] == "coulomb" else "omega"
        return ["spectrum", "--system", p["system"], f"--{coupling}={p['coupling']!r}",
                num("M"), "--closed", "--n", f"0..{p['n_hi']}"]
    if k == "cli_free":
        return ["spectrum", "--system", "free", num("M"), num("E0"), "--n", "-2..2"]
    if k == "cli_coulomb":
        return ["spectrum", "--system", "coulomb", num("alpha"), num("M"), num("E0"),
                "--n", "-3..3"]
    if k == "cli_oscillator":
        return ["spectrum", "--system", "oscillator", num("M"), num("E0"), "--n", "0..3"]
    if k == "cli_third":
        return ["wavefunction", "--system", "coulomb", num("g"), num("M"), "--branch", "third",
                "--grid-min=0.0001", f"--grid-max={p['z_end']!r}", "--grid-points=400",
                "--grid-spacing", "log"]
    if k == "cli_osc_wave":
        return ["wavefunction", "--system", "oscillator", f"--n={p['n']}", num("M"),
                f"--grid-max={p['rho_end']!r}"]
    if k == "cli_potential":
        return ["potential", "--system", p["system"], num("M"),
                f"--grid-min={p['r_min']!r}", f"--grid-max={p['r_max']!r}"]
    if k == "cli_phase":
        return ["phase", num("g"), num("M")]
    if k == "cli_duality":
        return ["duality", num("alpha"), num("EC"), num("MC"), f"--r0-scale={p['r0_scale']!r}"]
    raise ValueError(k)


# ------------------------------------------------------------- generation

@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[str, ...]
    make: Callable[[str, list[float]], list[Op]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ladder", ("ladder_coulomb", "ladder_free", "ladder_coulomb", "ladder_oscillator"),
                 _ladder_ops),
        Workload("wavefunction", ("u1", "third", "osc_wave", "u2"), _wave_ops),
        Workload("validate", ("shoot_coulomb", "residual", "shoot_free", "residual"),
                 _validate_ops),
        Workload("cli", ("cli_closed", "cli_free", "cli_third", "cli_coulomb", "cli_potential",
                         "cli_oscillator", "cli_phase", "cli_osc_wave", "cli_duality"), _cli_ops),
    )
}


def op_set(workload: str, seed: int, cycles: int, warmup: bool = False) -> list[Op]:
    """The ops of `cycles` cycles of a workload, all drawn from the seed.

    Each op kind gets one point set sized to its share of the cycles, so
    the whole set, not only its long-run average, covers the parameter box
    evenly.  Ops come in cycle order.  `warmup` gives an unrelated set of
    the same shape.
    """
    w = WORKLOADS[workload]
    rng = np.random.default_rng([seed % 2**63, sorted(WORKLOADS).index(workload), int(warmup)])
    points = {k: iter(_points(cycles * w.cycle.count(k), rng)) for k in sorted(set(w.cycle))}
    return [op for _ in range(cycles) for k in w.cycle for op in w.make(k, next(points[k]))]


# -------------------------------------------------------------- execution

def work_of(op: Op, output) -> int:
    """Work units of a completed op: levels solved or shot, points, or CLI calls."""
    if op.kind.startswith("ladder"):
        return sum(1 for n, _ in output if n != 0)
    if op.kind.startswith("shoot"):
        return op["count"]
    if op.kind == "residual":
        return 0
    if op.kind.startswith("cli"):
        return 1
    if op.kind == "third":
        return output[1].size
    return output.size


class Executor:
    """Runs ops against the library.

    Calls go through module attributes (``spectra.coulomb_u1`` and so on)
    so that the tracer's wrappers see them.
    """

    def __init__(self, mods, python: str, env: dict):
        self.spectra = mods.spectra
        self.oracle = mods.oracle
        self.model = mods.model
        self.pp = mods.model.NATURAL_UNITS
        self.python = python
        self.env = env
        self.cli_script = None  # set to run CLI ops through a traced child

    def __call__(self, op: Op):
        if op.kind.startswith("cli"):
            return self.cli(op)
        return getattr(self, op.kind)(op)

    # ladder ----------------------------------------------------------
    def _solve(self, op: Op, alpha: float):
        entries = self.spectra.solve_quantized_spectrum(self.pp, alpha, op["M"], op["E0"], op["levels"])
        return tuple((e.n, e.energy.real) for e in entries)

    def ladder_coulomb(self, op):
        return self._solve(op, 1.0)

    def ladder_free(self, op):
        return self._solve(op, 0.0)

    def ladder_oscillator(self, op):
        entries = self.spectra.oscillator_quantized_spectrum(
            self.pp, 1.0, op["M"], op["E0"], op["levels"])
        return tuple((e.n, e.energy.real) for e in entries)

    # wavefunction ----------------------------------------------------
    def _amplitudes(self, fn, zs) -> np.ndarray:
        return np.array([fn(float(z)) for z in zs], dtype=complex)

    def u1(self, op):
        g, m = op["g"], op["M"]
        return self._amplitudes(lambda z: self.spectra.coulomb_u1(g, m, z), wave_grid(op))

    def u2(self, op):
        g, m = op["g"], op["M"]
        return self._amplitudes(lambda z: self.spectra.coulomb_u2(g, m, z), wave_grid(op))

    def third(self, op):
        # gamma found automatically, once per grid (what `wavefunction --gamma auto` does)
        g, m = op["g"], op["M"]
        gamma = self.spectra.gamma_phase(g, m).gamma
        return gamma, self._amplitudes(
            lambda z: self.spectra.coulomb_third(g, m, z, gamma), wave_grid(op))

    def osc_wave(self, op):
        n, m = op["n"], op["M"]
        rhos = np.sqrt(wave_grid(op))  # omega = m = hbar = 1, so x = rho^2
        return self._amplitudes(
            lambda rho: self.spectra.oscillator_wavefunction(self.pp, 1.0, n, m, rho, 0.0), rhos)

    # validate --------------------------------------------------------
    def _shoot(self, op, kind, alpha):
        m, e_hi, count = op["M"], op["E_hi"], op["count"]
        # room for count levels plus one spacing of the deep geometric ladder
        e_lo = e_hi * math.exp(2.0 * math.pi * (count + 1) / abs(m))
        cfg = self.oracle.scaled_config(self.pp, e_hi, min_factor=1e-6, steps=6000)
        shot = self.oracle.shoot_eigenvalues(kind, self.pp, m, (e_lo, e_hi), count, cfg, tol=1e-7)
        # n > 0 is deeper for M > 0 and shallower for M < 0
        deeper = [int(math.copysign(k, m)) for k in range(1, count + 1)]
        analytic = self.spectra.solve_quantized_spectrum(self.pp, alpha, m, e_hi, deeper)
        return tuple(shot), tuple(e.energy.real for e in analytic)

    def shoot_coulomb(self, op):
        return self._shoot(op, self.model.Coulomb(1.0), 1.0)

    def shoot_free(self, op):
        return self._shoot(op, self.model.Free(), 0.0)

    def residual(self, op):
        g = op["n"] + 0.5
        alpha = op["alpha"]
        energy = -alpha * alpha / (2.0 * g * g)
        r0 = self.spectra.coulomb_scaling(self.pp, alpha, energy).r0
        zs = np.arange(op["z_lo"], op["z_hi"], 1e-3)
        u = np.array([self.spectra.coulomb_u1(g, 0.0, float(z)) for z in zs])
        sol = self.oracle.RadialSolution(zs * r0, u, energy, 0.0, self.model.Coulomb(alpha))
        return (self.oracle.ode_residual(sol, self.pp), len(zs))

    # cli -------------------------------------------------------------
    def cli(self, op):
        argv = cli_argv(op)
        cmd = [self.python, self.cli_script] if self.cli_script else [self.python, "-m", "minkqm"]
        proc = subprocess.run(cmd + argv, env=self.env, capture_output=True, text=True, check=False)
        return (proc.returncode, proc.stdout, proc.stderr)
