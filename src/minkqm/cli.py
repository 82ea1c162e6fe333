"""Command-line interface: spectra, wavefunctions, potentials, phases,
duality maps and the verification suites, emitted as JSON or CSV records.

Output contract
---------------
JSON: one header object line, then one object per record.  CSV: a header
row, then one row per record.  Every record carries schema_version,
command, hbar and mass alongside its payload, and floats are serialized
as shortest round-trip decimals, so identical configurations produce
byte-identical output and the two formats carry identical numbers.

Exit codes: 0 success, 1 verification failure, 2 usage/config error or
any DomainError, 3 any other MinkqmError or an OverflowError.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from typing import Sequence

from .errors import DomainError, MinkqmError
from .model import (
    Branch, Coulomb, DEFAULT_SOLVER_TOL, Free, Oscillator, PhysicalParams, SpectrumEntry,
    coulomb_closed_spectrum, duality_forward, effective_potential, euclidean_effective_for,
    _require_positive, oscillator_closed_spectrum, potential, solve_quantized_spectrum,
)

# numpy, specfun, spectra and verification load in the commands that use them.
SCHEMA_VERSION = 1
# The tolerances --tol may set.  An unset one takes its solver's default,
# specfun.DEFAULT_SERIES_TOL or model.DEFAULT_SOLVER_TOL.
_TOLERANCES = ("series", "solver")


class UsageError(Exception):
    pass


# ------------------------------------------------------------ arg plumbing

def _parse_level_range(text: str) -> range:
    """Inclusive integer range 'a..b' (either end may be negative)."""
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise UsageError(f"bad level range {text!r}; expected form a..b") from exc
    if hi < lo:
        raise UsageError(f"bad level range {text!r}: upper end below lower end")
    return range(lo, hi + 1)


def _finite_float(text: str) -> float:
    """float(text) for argparse's type=, refusing nan and +-inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _gamma_or_auto(text: str) -> float | None:
    """None for 'auto' (gamma_phase's gamma), else _finite_float(text)."""
    return None if text == "auto" else _finite_float(text)


def _parse_tolerances(pairs: list[str] | None) -> dict[str, float]:
    tol = {}
    for item in pairs or []:
        name, _, value = item.partition("=")
        if not _ or name not in _TOLERANCES:
            raise UsageError(
                f"bad --tol {item!r}; known names: {', '.join(_TOLERANCES)}"
            )
        try:
            parsed = _finite_float(value)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"bad --tol value in {item!r}: {exc}") from exc
        if not parsed > 0:
            raise UsageError(f"tolerance {name} must be positive, got {parsed}")
        tol[name] = parsed
    return tol


def _load_config_args(path: str) -> list[str]:
    """Flat key=value config file -> pseudo command-line flags.

    Grammar: one `key = value` per line; blank lines and #-comments
    ignored; keys are long option names without dashes (hyphen or
    underscore spelling); boolean options use true/false.  Command-line
    flags win because they are parsed after these.
    """
    args: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key = key.strip().replace("_", "-")
        value = value.strip()
        if not key or not value:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                args.append(f"--{key}")
        else:
            args.append(f"--{key}={value}")
    return args


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite `--option -1e6` as `--option=-1e6`.

    argparse reads a token starting with "-" as an option unless it looks
    like a plain negative number, which leaves out exponent forms such as
    -1e6 and ranges such as -2..2.  A value that starts with "-" followed
    by a digit or "." is therefore joined to the option before it.
    """
    out: list[str] = []
    for token in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.match(r"-[\d.]", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _common_parser(records: bool) -> argparse.ArgumentParser:
    """Shared options; records adds --hbar, --mass, --tol and --format.

    verify runs in natural units with fixed tolerances and prints a text
    report, so it takes none of those four.
    """
    common = argparse.ArgumentParser(add_help=False)
    if records:
        common.add_argument("--hbar", type=_finite_float, default=1.0, help="Planck constant (default 1)")
        common.add_argument("--mass", type=_finite_float, default=1.0, help="particle mass (default 1)")
        common.add_argument(
            "--tol",
            action="append",
            metavar="NAME=VALUE",
            help="override a named tolerance (series, solver); repeatable",
        )
        common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", metavar="PATH", help="write records to PATH instead of stdout")
    common.add_argument("--config", metavar="PATH", help="flat key=value config file")
    return common


def _grid_arguments(sub: argparse.ArgumentParser, default_min: float, default_max: float):
    sub.add_argument("--grid-min", type=_finite_float, default=default_min)
    sub.add_argument("--grid-max", type=_finite_float, default=default_max)
    sub.add_argument("--grid-points", type=int, default=200)
    sub.add_argument("--grid-spacing", choices=("linear", "log"), default="linear")


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser(records=True)
    parser = argparse.ArgumentParser(
        prog="minkqm",
        description="Quantum spectra and wavefunctions on the Minkowski plane.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", parents=[common], help="energy levels")
    sp.add_argument("--system", choices=("coulomb", "free", "oscillator"), required=True)
    sp.add_argument("--alpha", type=_finite_float, default=1.0, help="Coulomb coupling")
    sp.add_argument("--omega", type=_finite_float, default=1.0, help="oscillator frequency")
    sp.add_argument("--M", type=_finite_float, required=True, help="angular eigenvalue (M_osc for the oscillator)")
    sp.add_argument("--closed", action="store_true", help="closed-form branch instead of the quantized one")
    sp.add_argument("--E0", type=_finite_float, help="reference level for the quantized branch")
    sp.add_argument("--n", required=True, metavar="A..B", help="inclusive level index range")

    wf = subs.add_parser("wavefunction", parents=[common], help="radial amplitude samples")
    wf.add_argument("--system", choices=("coulomb", "oscillator"), required=True)
    wf.add_argument("--branch", choices=("u1", "u2", "third"), default="u1")
    wf.add_argument("--g", type=_finite_float, help="Coulomb strength parameter")
    wf.add_argument("--M", type=_finite_float, required=True)
    wf.add_argument("--gamma", type=_gamma_or_auto, default="auto", help="reflection phase for the third branch, or 'auto'")
    wf.add_argument("--omega", type=_finite_float, default=1.0)
    wf.add_argument("--n", type=int, default=0, help="oscillator level index")
    wf.add_argument("--phi", type=_finite_float, default=0.0, help="oscillator angular coordinate")
    _grid_arguments(wf, 0.01, 30.0)

    pot = subs.add_parser("potential", parents=[common], help="potential and effective potentials")
    pot.add_argument("--system", choices=("coulomb", "free", "oscillator"), required=True)
    pot.add_argument("--alpha", type=_finite_float, default=1.0)
    pot.add_argument("--omega", type=_finite_float, default=1.0)
    pot.add_argument("--M", type=_finite_float, required=True)
    _grid_arguments(pot, 0.1, 10.0)

    ph = subs.add_parser("phase", parents=[common], help="reflection phase gamma and beta")
    ph.add_argument("--g", type=_finite_float, required=True)
    ph.add_argument("--M", type=_finite_float, required=True)
    ph.add_argument("--r0", type=_finite_float, help="length unit for beta (default natural-units g/2)")

    du = subs.add_parser("duality", parents=[common], help="Coulomb-oscillator duality map")
    du.add_argument("--alpha", type=_finite_float, required=True)
    du.add_argument("--EC", type=_finite_float, required=True, help="Coulomb energy (negative)")
    du.add_argument("--MC", type=_finite_float, required=True, help="Coulomb angular eigenvalue")
    du.add_argument("--r0-scale", type=_finite_float, required=True)

    ve = subs.add_parser("verify", parents=[_common_parser(records=False)], help="run invariant suites")
    # Set after add_argument, which would list the choices and so import
    # verification for every command.
    ve.add_argument("suite").choices = _Suites()
    return parser


class _Suites:
    """verify's suite choices, read from verification only when argparse
    checks a suite name (``in`` iterates) or prints the choices."""

    def __iter__(self):
        from . import verification
        return iter(verification.SUITES + ("all",))


# ------------------------------------------------------------ emission

def _emit(payloads: list[dict], command: str, pp: PhysicalParams, fmt: str) -> str:
    """Records of one command: each payload behind the fields every record carries."""
    head = {"schema_version": SCHEMA_VERSION, "command": command}
    records = [{**head, "hbar": pp.hbar, "mass": pp.mass, **p} for p in payloads]
    if fmt == "json":
        lines = [json.dumps({**head, "units": {"hbar": pp.hbar, "mass": pp.mass}})]
        lines.extend(json.dumps(rec) for rec in records)
        return "\n".join(lines) + "\n"
    buf = io.StringIO()
    if records:
        writer = csv.DictWriter(buf, records[0], lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
    return buf.getvalue()


def _grid(args):
    lo, hi, n = args.grid_min, args.grid_max, args.grid_points
    if n < 2:
        raise UsageError(f"grid needs at least 2 points, got {n}")
    if not lo < hi:
        raise UsageError(f"grid needs min < max, got [{lo}, {hi}]")
    if args.grid_spacing == "log":
        if lo <= 0:
            raise UsageError("log grid needs a positive lower end")
        import numpy as np
        return np.exp(np.linspace(math.log(lo), math.log(hi), n))
    # np.linspace(lo, hi, n) in Python floats, the same operations and bits
    # without loading numpy: i step + lo, or (i/div) delta + lo where the
    # step rounds to 0, and hi as the last point
    div, delta = n - 1, hi - lo
    step = delta / div
    grid = [i * step + lo for i in range(n)] if step else [i / div * delta + lo for i in range(n)]
    grid[-1] = hi
    return grid


# ------------------------------------------------------------ commands

def _cmd_spectrum(args, pp: PhysicalParams, tol: dict) -> list[dict]:
    levels = _parse_level_range(args.n)
    if args.closed:
        if args.system == "free":
            raise UsageError(
                "the free particle has no closed-form discrete branch; "
                "use the quantized mode with --E0"
            )
        if args.system == "coulomb":
            closed, coupling = coulomb_closed_spectrum, args.alpha
        else:
            closed, coupling = oscillator_closed_spectrum, args.omega
        entries = [
            SpectrumEntry(n, args.M, closed(pp, coupling, n, args.M), Branch.CLOSED_FORM_U1)
            for n in levels
        ]
    elif args.E0 is None:
        raise UsageError("quantized spectrum needs a reference level --E0")
    else:
        solve, coupling = solve_quantized_spectrum, 0.0  # the free ladder needs no numpy
        if args.system == "coulomb":
            # the library takes alpha = 0 as the free ladder, not a Coulomb one
            _require_positive("alpha", args.alpha)
        if args.system != "free":
            # through spectra's attributes, which perfbench's span tracer wraps
            from . import spectra
            solve, coupling = {
                "coulomb": (spectra.solve_quantized_spectrum, args.alpha),
                "oscillator": (spectra.oscillator_quantized_spectrum, args.omega),
            }[args.system]
        entries = solve(
            pp, coupling, args.M, args.E0, levels, tol=tol.get("solver", DEFAULT_SOLVER_TOL)
        )
    return [
        {
            "system": args.system,
            "branch": e.branch.value,
            "n": e.n,
            "M": e.m_ang,
            "E_re": e.energy.real,
            "E_im": e.energy.imag,
        }
        for e in entries
    ]


def _cmd_wavefunction(args, pp: PhysicalParams, tol: dict) -> list[dict]:
    from . import specfun, spectra
    grid = _grid(args)
    series_tol = tol.get("series", specfun.DEFAULT_SERIES_TOL)
    records = []
    if args.system == "coulomb":
        if args.g is None:
            raise UsageError("coulomb wavefunction needs --g")
        gamma = args.gamma
        if args.branch == "third" and gamma is None:
            gamma = spectra.gamma_phase(args.g, args.M).gamma
        # through spectra's attributes, which perfbench's span tracer wraps
        amplitude = {
            "u1": lambda z: spectra.coulomb_u1(args.g, args.M, z, series_tol),
            "u2": lambda z: spectra.coulomb_u2(args.g, args.M, z, series_tol),
            "third": lambda z: spectra.coulomb_third(args.g, args.M, z, gamma, series_tol),
        }[args.branch]
    else:
        def amplitude(rho: float) -> complex:
            return spectra.oscillator_wavefunction(
                pp, args.omega, args.n, args.M, rho, args.phi, series_tol
            )

    for r in grid:
        u = amplitude(float(r))
        records.append(
            {
                "system": args.system,
                "branch": args.branch if args.system == "coulomb" else f"n={args.n}",
                "r": float(r),
                "u_re": u.real,
                "u_im": u.imag,
                "u_abs": abs(u),
            }
        )
    return records


def _cmd_potential(args, pp: PhysicalParams, tol: dict) -> list[dict]:
    if args.system == "coulomb":
        kind = Coulomb(args.alpha)
    elif args.system == "oscillator":
        kind = Oscillator(args.omega)
    else:
        kind = Free()
    records = []
    for r in _grid(args):
        r = float(r)
        records.append(
            {
                "system": args.system,
                "M": args.M,
                "r": r,
                "U": potential(kind, pp, r),
                "U_eff_minkowski": effective_potential(kind, pp, args.M, r),
                "U_eff_euclidean": euclidean_effective_for(kind, pp, args.M, r),
            }
        )
    return records


def _cmd_phase(args, pp: PhysicalParams, tol: dict) -> list[dict]:
    from . import spectra
    rp = spectra.gamma_phase(args.g, args.M, args.r0)
    return [
        {
            "g": args.g,
            "M": args.M,
            "r0": rp.r0,
            "gamma": rp.gamma,
            "beta": rp.beta,
            "gamma_raw": rp.gamma_raw,
        }
    ]


def _cmd_duality(args, pp: PhysicalParams, tol: dict) -> list[dict]:
    d = duality_forward(pp, args.alpha, args.EC, args.MC, args.r0_scale)
    return [
        {
            "r0_scale": d.r0_scale,
            "alpha": d.alpha,
            "E_coulomb": d.e_coulomb,
            "omega": d.omega,
            "E_osc": d.e_osc,
            "M_coulomb": d.m_coulomb,
            "M_osc": d.m_osc,
        }
    ]


def _cmd_verify(args) -> tuple[str, int]:
    from . import verification
    results = verification.run_suite(args.suite)
    lines = [r.line() for r in results]
    failures = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - failures}/{len(results)} checks passed"
        + (f", {failures} FAILED" if failures else "")
    )
    return "\n".join(lines) + "\n", (1 if failures else 0)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "wavefunction": _cmd_wavefunction,
    "potential": _cmd_potential,
    "phase": _cmd_phase,
    "duality": _cmd_duality,
}


# ------------------------------------------------------------ entry point

def _write(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Namespace of argv, with the --config file's flags inserted before
    the explicit ones so that those win.

    The --config pre-parser applies argparse's own rules to the tokens
    after the command, so every spelling the full parser takes as
    --config (--config PATH, --config=PATH, unambiguous prefixes such as
    --conf PATH) is the file that gets read.
    """
    argv = _join_negative_values(argv)
    if argv and not argv[0].startswith("-"):
        pre = argparse.ArgumentParser(prog="minkqm", add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv[1:])[0].config
        if path is not None:
            argv = argv[:1] + _load_config_args(path) + argv[1:]
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        if args.command == "verify":
            text, code = _cmd_verify(args)
        else:
            pp = PhysicalParams(mass=args.mass, hbar=args.hbar)
            payloads = _COMMANDS[args.command](args, pp, _parse_tolerances(args.tol))
            text, code = _emit(payloads, args.command, pp, args.format), 0
        _write(text, args.out)
        return code
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MinkqmError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
