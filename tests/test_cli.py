import inspect
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from minkqm import cli, errors, verification
from minkqm.cli import main

GOLDEN = Path(__file__).parent / "golden"

# The CLI examples of the README, keyed by the name of their golden file.
README_EXAMPLES = {
    "spectrum_coulomb_closed": (
        "spectrum", "--system", "coulomb", "--alpha", "1", "--M", "0", "--closed",
        "--n", "0..3",
    ),
    "spectrum_free_ladder": (
        "spectrum", "--system", "free", "--M", "1", "--E0", "-1", "--n", "-2..2",
    ),
    "spectrum_coulomb_quantized": (
        "spectrum", "--system", "coulomb", "--alpha", "1", "--M", "1", "--E0", "-2",
        "--n", "-3..3",
    ),
    "spectrum_oscillator_closed": (
        "spectrum", "--system", "oscillator", "--M", "2", "--closed", "--n", "0..4",
    ),
    "spectrum_oscillator_quantized": (
        "spectrum", "--system", "oscillator", "--M", "1", "--E0", "25", "--n", "0..3",
    ),
    "wavefunction_coulomb_third": (
        "wavefunction", "--system", "coulomb", "--g", "2", "--M", "1", "--branch", "third",
        "--grid-min", "1e-4", "--grid-max", "35", "--grid-points", "400",
        "--grid-spacing", "log",
    ),
    "wavefunction_oscillator": (
        "wavefunction", "--system", "oscillator", "--n", "1", "--M", "0", "--grid-max", "4",
    ),
    "potential_oscillator": (
        "potential", "--system", "oscillator", "--M", "1", "--grid-min", "0.2",
        "--grid-max", "3",
    ),
    "phase": ("phase", "--g", "2", "--M", "1"),
    "duality": ("duality", "--alpha", "1", "--EC", "-2", "--MC", "0.5", "--r0-scale", "1"),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_records(out: str) -> list[dict]:
    lines = out.strip().split("\n")
    return [json.loads(line) for line in lines[1:]]  # skip header line


def csv_records(out: str) -> list[dict]:
    lines = out.strip().split("\n")
    cols = lines[0].split(",")
    return [dict(zip(cols, row.split(","))) for row in lines[1:]]


class TestSpectrumCommand:
    def test_closed_coulomb_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--system", "coulomb", "--alpha", "1",
            "--M", "0", "--closed", "--n", "0..3",
        )
        assert code == 0
        recs = json_records(out)
        want = [-2.0, -2.0 / 9.0, -2.0 / 25.0, -2.0 / 49.0]
        assert [r["E_re"] for r in recs] == pytest.approx(want, rel=1e-15)
        assert all(r["E_im"] == 0.0 for r in recs)
        assert all(r["branch"] == "closed_form_u1" for r in recs)

    def test_free_ladder(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--system", "free", "--M", "1",
            "--E0", "-1", "--n", "-2..2",
        )
        assert code == 0
        es = [r["E_re"] for r in json_records(out)]
        for a, b in zip(es, es[1:]):
            assert b / a == pytest.approx(math.exp(2 * math.pi), rel=1e-9)

    def test_missing_e0_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--system", "free", "--M", "1", "--n", "0..2")
        assert code == 2
        assert "--E0" in err

    def test_closed_free_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--system", "free", "--M", "1", "--closed", "--n", "0..2"
        )
        assert code == 2

    def test_numerical_failure_exit_code(self, capsys):
        # the level below E0 lies ~341 decades down, past the 160 decades
        # the ladder scan may walk
        code, _, err = run_cli(
            capsys, "spectrum", "--system", "oscillator", "--M", "0.008",
            "--E0", "1", "--n", "-1..-1",
        )
        assert code == 3
        assert "scan window" in err

    def test_level_outside_double_range_exits_2(self, capsys):
        # E0 exp(2 pi n / M) overflows; a finite level a double can hold
        # (n = 2 at M = 0.02 is -7.5e272) prints
        code, out, err = run_cli(
            capsys, "spectrum", "--system", "free", "--M", "1",
            "--E0", "-1", "--n", "300..300",
        )
        assert code == 2 and out == ""
        assert "normal double range" in err
        code, out, _ = run_cli(
            capsys, "spectrum", "--system", "free", "--M", "0.02",
            "--E0", "-1", "--n", "0..2",
        )
        assert code == 0
        assert json_records(out)[-1]["E_re"] == -1.0 * math.exp(2 * math.pi * 2 / 0.02)

    @pytest.mark.parametrize("alpha", ["0", "-0.0", "-1"])
    def test_quantized_coulomb_refuses_nonpositive_alpha(self, capsys, alpha):
        # alpha = 0 printed the free particle's ladder labelled "coulomb"
        # with exit code 0; --closed and potential refused it already
        code, out, err = run_cli(
            capsys, "spectrum", "--system", "coulomb", f"--alpha={alpha}", "--M", "1",
            "--E0", "-2", "--n", "0..3",
        )
        assert (code, out) == (2, "")
        assert err == f"error: alpha must be positive and finite, got {float(alpha)}\n"

    def test_quantized_level_outside_double_range_exits_2(self, capsys):
        # n = 4 lies at g ~ 2e-156, where E = -1/(2 g^2) overflows; it
        # printed "E_re": -Infinity with exit code 0
        code, out, err = run_cli(
            capsys, "spectrum", "--system", "coulomb", "--M", "1", "--E0=-1e300", "--n", "0..4",
        )
        assert code == 2 and out == ""
        assert "quantized level n=4" in err and "leaves the double range" in err
        assert "Traceback" not in err

    def test_level_denominator_underflow_exits_2(self, capsys):
        # g^2 is the least subnormal, which 2 hbar^2 = 0.5 halves to 0: the
        # level ended in a ZeroDivisionError traceback with exit code 1
        code, out, err = run_cli(
            capsys, "spectrum", "--system", "coulomb", "--mass", "2", "--hbar", "0.5",
            "--M", "0.03729003265705188", "--E0=-6.730407254452815e+250", "--n=-1..2",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: the level at g=1.9896544315986406e-162 leaves the double range: "
            "2 hbar^2 g^2 underflows to 0\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            # g^2 overflows at g ~ 3e161, so E = -1/(2 g^2) is -0.0, which
            # printed with exit code 0
            (
                ("--system", "coulomb", "--E0=-5e-324", "--n", "1..1"),
                "quantized level n=1 at E0=-5e-324, M=1.0 is -0.0: it leaves the double range",
            ),
            # the scan walks to where g = e^x underflows to 0; the message
            # used to name that g, which the user never passed
            (
                ("--system", "oscillator", "--E0=1e-320", "--n=-2..-1"),
                "the level scan leaves the double range: g = e^-745.148 underflows to 0",
            ),
            # f(g0) is -inf, which compared equal to the target of n = 1:
            # the anchor itself printed as that level with exit code 0
            (
                ("--system", "oscillator", "--E0=1.2e308", "--n", "0..1"),
                "quantization function f(g=6.000000000000135e+307, M=0.5) is -inf: "
                "it leaves the double range",
            ),
            # the anchor's g underflows, overflows, or sqrt(-2 m E0) does; the
            # error named r0 or g, which the user never passed
            (
                ("--system", "coulomb", "--E0=-1e308", "--alpha", "5e-324", "--n", "0..1"),
                "Coulomb reference level E0=-1e+308 at alpha=5e-324: its strength g = m alpha "
                "/ (hbar sqrt(-2 m E0)) comes out 0.0, as the scaling leaves the double range",
            ),
            (
                ("--system", "coulomb", "--E0=-5e-324", "--alpha", "1e300", "--n", "0..1"),
                "Coulomb reference level E0=-5e-324 at alpha=1e+300: its strength g = m alpha "
                "/ (hbar sqrt(-2 m E0)) comes out inf, as the scaling leaves the double range",
            ),
            (
                ("--system", "coulomb", "--E0=-1.5e308", "--n", "0..1"),
                "Coulomb reference level E0=-1.5e+308 at alpha=1.0: its strength g = m alpha "
                "/ (hbar sqrt(-2 m E0)) comes out 0.0, as the scaling leaves the double range",
            ),
        ],
        ids=["coulomb-level-underflows", "oscillator-scan-underflows", "f-overflows",
             "anchor-g-underflows", "anchor-g-overflows", "anchor-sqrt-overflows"],
    )
    def test_ladder_leaving_double_range_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "spectrum", "--M", "1", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # M_osc/2 is 0.0, and the error named M = 0, which the user
            # never passed
            (
                ("--M", "5e-324", "--E0", "3", "--n", "0..2"),
                "quantized spectrum needs M_osc/2 != 0, but M_osc=5e-324 halves to 0: "
                "it underflows",
            ),
            # E0 / (2 hbar omega) is 0.0, whose logarithm ended in an untyped
            # ValueError traceback with exit code 1
            (
                ("--M", "1", "--E0", "5e-324", "--n", "0..1"),
                "oscillator reference level E0=5e-324 over 2 hbar omega = 2.0 is 0.0: "
                "it leaves the double range",
            ),
        ],
        ids=["m-osc-halves-to-0", "anchor-ratio-underflows"],
    )
    def test_oscillator_inputs_that_underflow_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "spectrum", "--system", "oscillator", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # alpha^2 underflows: each level printed "E_re": -0.0 with exit 0
            (
                ("--system", "coulomb", "--closed", "--M", "-1", "--alpha", "1e-170"),
                "closed-form level n=0 at alpha=1e-170, M=-1.0 is (-0-0j): "
                "it leaves the double range",
            ),
            # hbar omega underflows: each level printed 0.0 with exit 0
            (
                ("--system", "oscillator", "--closed", "--M", "0", "--omega", "5e-324",
                 "--hbar", "0.1"),
                "closed-form level n=0 at omega=5e-324, M_osc=0.0 is 0j: "
                "it leaves the double range",
            ),
        ],
        ids=["coulomb-alpha-squared", "oscillator-hbar-omega"],
    )
    def test_closed_level_leaving_normal_range_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "spectrum", *argv, "--n", "0..1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_scan_window_beyond_double_range_exits_3(self, capsys):
        # the window's deep end lies at g ~ 5e-165, where g^2 is 0: naming
        # its energy ended in a ZeroDivisionError traceback
        code, out, err = run_cli(
            capsys, "spectrum", "--system", "coulomb", "--M=-0.0014", "--E0=-2.2e8", "--n=-1..0",
        )
        assert code == 3 and out == ""
        assert "scan window [g=" in err and "(E leaves the double range), E=-2.2e+08]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("g, m_ang", [("2", "1e14"), ("1e15", "0.5")])
    def test_unresolved_phase_exits_2(self, capsys, g, m_ang):
        # both printed a gamma with exit 0: 1.8967 at M = 1e14, where mpmath
        # gives 2.0774, and rounding noise at g = 1e15
        code, out, err = run_cli(capsys, "phase", "--g", g, "--M", m_ang)
        assert (code, out) == (2, "")
        assert err.startswith("error: gamma_phase(") and "cannot resolve gamma to 1e-09" in err

    def test_collapsed_levels_exit_3(self, capsys):
        # n = -1 and n = +1 used to print the same energy with exit code 0
        code, out, err = run_cli(
            capsys, "spectrum", "--system", "coulomb", "--alpha=1", "--M=1",
            "--E0=-1e-300", "--n", "-1..1",
        )
        assert code == 3
        assert out == ""
        assert "levels n=0 and n=1 collide" in err

    def test_negative_exponent_value(self, capsys):
        # argparse alone reads "-1e6" as an option and rejects the command
        args = ("spectrum", "--system", "coulomb", "--M", "1", "--n", "1..2")
        code, out, _ = run_cli(capsys, *args, "--E0", "-1e6")
        code_eq, out_eq, _ = run_cli(capsys, *args, "--E0=-1e6")
        assert code == code_eq == 0
        assert out == out_eq
        assert [r["n"] for r in json_records(out)] == [1, 2]

    def test_bad_range_syntax(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--system", "free", "--M", "1", "--E0", "-1",
            "--n", "2..0",
        )
        assert code == 2


class TestWavefunctionCommand:
    def test_oscillator_ground_state_gaussian(self, capsys):
        code, out, _ = run_cli(
            capsys, "wavefunction", "--system", "oscillator", "--n", "0", "--M", "0",
            "--grid-min", "0.2", "--grid-max", "2.0", "--grid-points", "10",
        )
        assert code == 0
        for rec in json_records(out):
            assert rec["u_re"] == pytest.approx(math.exp(-rec["r"] ** 2 / 2), rel=1e-12)
            assert rec["u_im"] == 0.0

    def test_third_solution_decays_with_auto_gamma(self, capsys):
        code, out, _ = run_cli(
            capsys, "wavefunction", "--system", "coulomb", "--branch", "third",
            "--g", "2", "--M", "1", "--grid-min", "1e-3", "--grid-max", "35",
            "--grid-points", "240", "--grid-spacing", "log",
        )
        assert code == 0
        recs = json_records(out)
        mags = [r["u_abs"] for r in recs]
        assert mags[-1] / max(mags) < 1e-3

    def test_third_solution_phase_fit_matches_gamma(self, capsys):
        # fitted phase of u/sqrt(z) on a deep log grid reproduces gamma
        from minkqm.spectra import gamma_phase

        code, out, _ = run_cli(
            capsys, "wavefunction", "--system", "coulomb", "--branch", "third",
            "--g", "2", "--M", "2", "--grid-min", "1e-6", "--grid-max", "1e-3",
            "--grid-points", "300", "--grid-spacing", "log",
        )
        assert code == 0
        recs = json_records(out)
        z = np.array([r["r"] for r in recs])
        u = np.array([complex(r["u_re"], r["u_im"]) for r in recs])
        gam = gamma_phase(2.0, 2.0).gamma
        osc = (u / np.sqrt(z) * np.exp(1j * gam) / 2j).real
        design = np.column_stack([np.sin(2.0 * np.log(z)), np.cos(2.0 * np.log(z))])
        (a, b), *_ = np.linalg.lstsq(design, osc, rcond=None)
        fitted = math.atan2(b, a) % math.pi
        assert min(abs(fitted - gam), math.pi - abs(fitted - gam)) < 1e-4

    def test_invalid_grid(self, capsys):
        code, _, err = run_cli(
            capsys, "wavefunction", "--system", "oscillator", "--M", "0",
            "--grid-min", "2.0", "--grid-max", "1.0",
        )
        assert code == 2

    def test_non_finite_amplitude_exits_2(self, capsys):
        # u1 leaves the double range between z = 1400 and z = 1500; past
        # z ~ 9e3 its Kummer series cannot converge within the term cap
        # either, which must exit 2 the same way; the oscillator's
        # m omega rho^2 / hbar overflows at rho = 1e199
        coulomb = ("--system", "coulomb", "--g", "2", "--M", "1", "--branch", "u1")
        oscillator = ("--system", "oscillator", "--n", "2", "--M", "1")
        for system, lo, hi in (
            (coulomb, "1400", "1500"), (coulomb, "10500", "10600"),
            (oscillator, "1e199", "1e200"),
        ):
            code, out, err = run_cli(
                capsys, "wavefunction", *system, "--grid-min", lo, "--grid-max", hi,
                "--grid-points", "2",
            )
            assert code == 2
            assert out == ""
            assert "double range" in err

    def test_series_that_cannot_start_its_tail_test_exits_3(self, capsys):
        # |c| = 12000 puts u1's tail window past the term cap: the series
        # raises ConvergenceError at once, and the CLI exits 3
        code, out, err = run_cli(
            capsys, "wavefunction", "--system", "coulomb", "--g", "2", "--M", "6000",
            "--grid-min", "1", "--grid-max", "2", "--grid-points", "2",
        )
        assert (code, out) == (3, "")
        assert "cannot converge within 10000 terms" in err and "|c| = 12000" in err

    def test_oscillator_degree_past_the_term_cap_exits_2(self):
        # n = 1e20 summed its polynomial term by term, with no bound on its
        # time; its series now raises DomainError before a term is summed
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "minkqm", "wavefunction", "--system", "oscillator", "--M", "1",
             "--n", "100000000000000000000", "--grid-points", "2"],
            capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "degree 100000000000000000000 is past the 10000-term cap" in proc.stderr

    def test_linear_grid_matches_linspace(self):
        # the linear grid is built in Python floats, without numpy, and must
        # be np.linspace's bit for bit: on seeded ends and point counts, on
        # spans whose step rounds to 0 (subnormal), where np.linspace takes
        # (i/div) delta, and on negative and zero-crossing ends
        import argparse
        import random

        rng = random.Random("linear-grid")
        cases = [(5e-324, 2e-323, 7), (0.0, 5e-324, 3), (-1e-323, 5e-324, 11), (-3.0, 2.5, 2),
                 (0.1, 10.0, 200), (1e300, 1.7e308, 9), (-1e308, 1e308, 5)]
        for _ in range(300):
            lo = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320, 300)
            hi = lo + abs(lo) * rng.uniform(1e-15, 10.0) + rng.uniform(0.0, 1e-300)
            cases.append((lo, hi, rng.randint(2, 500)))
            lo = rng.randint(-20, 20) * 5e-324
            cases.append((lo, lo + rng.randint(1, 20) * 5e-324, rng.randint(2, 60)))
        for lo, hi, n in cases:
            args = argparse.Namespace(grid_min=lo, grid_max=hi, grid_points=n, grid_spacing="linear")
            with np.errstate(over="ignore", invalid="ignore"):
                want = [float(x).hex() for x in np.linspace(lo, hi, n)]
            assert [float(x).hex() for x in cli._grid(args)] == want, (lo, hi, n)

    def test_log_grid_needs_positive_min(self, capsys):
        code, _, _ = run_cli(
            capsys, "wavefunction", "--system", "oscillator", "--M", "0",
            "--grid-min", "-1", "--grid-max", "1", "--grid-spacing", "log",
        )
        assert code == 2


class TestGammaOption:
    ARGS = ("wavefunction", "--system", "coulomb", "--branch", "third", "--g", "2", "--M", "1",
            "--grid-min", "0.5", "--grid-max", "3", "--grid-points", "4")

    @pytest.mark.parametrize("gamma", [None, "auto", "0.3"])
    def test_gamma_values(self, capsys, gamma):
        from minkqm import spectra

        extra = () if gamma is None else ("--gamma", gamma)
        code, out, _ = run_cli(capsys, *self.ARGS, *extra)
        assert code == 0
        want = 0.3 if gamma == "0.3" else spectra.gamma_phase(2.0, 1.0).gamma
        for rec in json_records(out):
            u = spectra.coulomb_third(2.0, 1.0, rec["r"], want)
            assert (rec["u_re"], rec["u_im"]) == (u.real, u.imag)

    def test_bad_gamma_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *self.ARGS, "--gamma", "x")
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "argument --gamma: expected a finite number, got 'x'" in captured.err


class TestLibraryRefusals:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("spectrum", "--system", "coulomb", "--M", "0.5", "--closed", "--n", "-1..1"),
             "level index must be >= 0, got -1"),
            (("spectrum", "--system", "oscillator", "--M", "2", "--closed", "--n", "-2..0"),
             "level index must be >= 0, got -2"),
            (("wavefunction", "--system", "oscillator", "--n", "-1", "--M", "0"),
             "n must be >= 0, got -1"),
            (("potential", "--system", "free", "--M", "0", "--grid-min", "0", "--grid-max", "1"),
             "effective potential needs r > 0, got 0.0"),
        ],
        ids=["coulomb-closed-n", "oscillator-closed-n", "oscillator-wavefunction-n",
             "potential-grid-min"],
    )
    def test_exits_2_with_the_library_message(self, capsys, argv, message):
        # the CLI refuses these inputs through the library's DomainError alone
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestPotentialCommand:
    def test_free_effective_strictly_negative_inverse_square(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--system", "free", "--M", "0",
            "--grid-min", "0.1", "--grid-max", "10", "--grid-points", "50",
            "--grid-spacing", "log",
        )
        assert code == 0
        recs = json_records(out)
        for rec in recs:
            assert rec["U_eff_minkowski"] < 0.0
            assert rec["U_eff_minkowski"] * rec["r"] ** 2 == pytest.approx(-0.125, rel=1e-12)

    def test_minkowski_equals_euclidean_at_m0(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--system", "coulomb", "--M", "0",
            "--grid-min", "0.2", "--grid-max", "5", "--grid-points", "40",
        )
        assert code == 0
        for rec in json_records(out):
            assert rec["U_eff_minkowski"] == rec["U_eff_euclidean"]

    def test_oscillator_euclidean_minimum_location(self, capsys):
        # the sign-flipped column has its single interior minimum at
        # r^4 = hbar^2 (M^2 - 1/4)/(m^2 omega^2); the Minkowski column is
        # monotone increasing from -infinity
        code, out, _ = run_cli(
            capsys, "potential", "--system", "oscillator", "--M", "1",
            "--grid-min", "0.3", "--grid-max", "3.0", "--grid-points", "2000",
        )
        assert code == 0
        recs = json_records(out)
        r = np.array([rec["r"] for rec in recs])
        eucl = np.array([rec["U_eff_euclidean"] for rec in recs])
        mink = np.array([rec["U_eff_minkowski"] for rec in recs])
        assert np.all(np.diff(mink) > 0)
        i_min = int(np.argmin(eucl))
        assert 0 < i_min < len(r) - 1
        assert r[i_min] == pytest.approx((1.0 - 0.25) ** 0.25, abs=2e-3)

    def test_r_squared_underflow_exits_2(self, capsys):
        # r^2 underflows to 0 at r = 1e-300: a ZeroDivisionError traceback
        # with exit code 1
        code, out, err = run_cli(
            capsys, "potential", "--system", "free", "--M", "2",
            "--grid-min", "1e-300", "--grid-max", "1", "--grid-points", "2",
        )
        assert (code, out, err) == (
            2, "",
            "error: effective potential -(hbar^2/2m) 4.25/r^2 + U(r) of Free() at "
            "PhysicalParams(mass=1.0, hbar=1.0) is not finite at r=1e-300: it leaves the double range\n",
        )

    def test_r_squared_overflow_exits_2(self, capsys):
        # r^2 overflows to inf at r = 1e160, so the free particle's strictly
        # negative U_eff printed 0.0 with exit 0
        code, out, err = run_cli(
            capsys, "potential", "--system", "free", "--M", "0",
            "--grid-min", "1e150", "--grid-max", "1e160", "--grid-points", "2",
        )
        assert (code, out, err) == (
            2, "",
            "error: effective potential at M=0.0, r=1e+160: its term -(hbar^2/2m) 0.25/r^2 "
            "underflows to 0: it leaves the double range\n",
        )

    def test_hbar_squared_over_2m_underflow_exits_2(self, capsys):
        # hbar^2/(2m) underflows to 0, so the centrifugal term vanished and
        # the free particle's strictly negative U_eff printed 0.0, exit 0
        code, out, err = run_cli(
            capsys, "potential", "--system", "free", "--M", "0", "--hbar", "1e-200",
            "--grid-min", "1", "--grid-max", "2", "--grid-points", "2",
        )
        assert (code, out, err) == (
            2, "",
            "error: hbar^2/(2m) at hbar=1e-200, mass=1.0 underflows to 0: "
            "it leaves the double range\n",
        )

    def test_hbar_squared_overflow_exits_2(self, capsys):
        # hbar**2 raised an untyped OverflowError: exit 3 with "numerical
        # failure: (34, 'Numerical result out of range')"
        code, out, err = run_cli(
            capsys, "potential", "--system", "free", "--M", "0", "--hbar", "1e200",
            "--grid-min", "1", "--grid-max", "2", "--grid-points", "2",
        )
        assert (code, out, err) == (
            2, "",
            "error: effective potential -(hbar^2/2m) 0.25/r^2 + U(r) of Free() at "
            "PhysicalParams(mass=1.0, hbar=1e+200) is not finite at r=1.0: it leaves the double range\n",
        )


class TestOutputContract:
    def test_deterministic_bytes(self, capsys):
        args = (
            "spectrum", "--system", "coulomb", "--alpha", "1", "--M", "1",
            "--E0", "-2", "--n", "-1..2",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_csv_json_numeric_round_trip(self, capsys):
        args = (
            "spectrum", "--system", "coulomb", "--alpha", "1", "--M", "1",
            "--E0", "-2", "--n", "0..3",
        )
        _, out_json, _ = run_cli(capsys, *args)
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        jrecs = json_records(out_json)
        crecs = csv_records(out_csv)
        assert len(jrecs) == len(crecs)
        for j, c in zip(jrecs, crecs):
            for key in ("E_re", "E_im", "M"):
                assert float(c[key]) == j[key]  # identical after parsing

    def test_records_carry_header_fields(self, capsys):
        _, out, _ = run_cli(capsys, "phase", "--g", "2", "--M", "1")
        rec = json_records(out)[0]
        assert rec["schema_version"] == 1
        assert rec["command"] == "phase"
        assert rec["hbar"] == 1.0 and rec["mass"] == 1.0

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "records.json"
        code, out, _ = run_cli(
            capsys, "phase", "--g", "2", "--M", "1", "--out", str(path)
        )
        assert code == 0 and out == ""
        content = path.read_text()
        assert json.loads(content.strip().split("\n")[1])["gamma"] > 0

    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        # used to escape as a traceback with exit 1, the verify-failure code
        path = tmp_path / target
        code, out, err = run_cli(capsys, "phase", "--g", "2", "--M", "1", "--out", str(path))
        assert code == 2 and out == ""
        assert f"cannot write {path}" in err

    def test_units_flags_propagate(self, capsys):
        _, out, _ = run_cli(
            capsys, "spectrum", "--hbar", "2", "--mass", "0.5",
            "--system", "coulomb", "--alpha", "1", "--M", "0", "--closed", "--n", "0..0",
        )
        rec = json_records(out)[0]
        assert rec["hbar"] == 2.0 and rec["mass"] == 0.5
        # E = -m alpha^2 / (2 hbar^2 (1/2)^2) = -0.5/(8*0.25)
        assert rec["E_re"] == pytest.approx(-0.25, rel=1e-15)


class TestConfigAndTolerances:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# quantized free ladder\nsystem = free\nM = 1\nE0 = -1\nn = 0..1\n"
        )
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        recs = json_records(out)
        assert [r["n"] for r in recs] == [0, 1]

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system = free\nM = 1\nE0 = -1\nn = 0..1\n")
        code, out, _ = run_cli(
            capsys, "spectrum", "--config", str(cfg), "--n", "0..3"
        )
        assert code == 0
        assert len(json_records(out)) == 4

    @pytest.mark.parametrize(
        "spelling",
        [("--config", "{}"), ("--config={}",), ("--conf", "{}"), ("--conf={}",)],
        ids=["config", "config=", "conf", "conf="],
    )
    def test_config_spellings_read_the_file(self, capsys, tmp_path, spelling):
        # argparse takes any unambiguous prefix of --config; --conf used to
        # parse without the file being read, and printed E = -2.0 with exit 0
        cfg = tmp_path / "a.cfg"
        cfg.write_text("alpha = 2\n")
        code, out, _ = run_cli(
            capsys, "spectrum", "--system", "coulomb", "--M", "0", "--closed",
            "--n", "0..0", *(token.format(cfg) for token in spelling),
        )
        assert code == 0
        assert json_records(out)[0]["E_re"] == -8.0

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 2

    def test_unknown_tolerance_name(self, capsys):
        # "fit": the phase-fit bound is fixed inside the oracle
        for name in ("bogus", "fit"):
            code, out, err = run_cli(
                capsys, "spectrum", "--system", "free", "--M", "1", "--E0", "-1",
                "--n", "0..0", "--tol", f"{name}=1e-5",
            )
            assert code == 2
            assert out == ""
            assert "known names: series, solver" in err

    def test_nonpositive_tolerance(self, capsys):
        code, _, _ = run_cli(
            capsys, "spectrum", "--system", "free", "--M", "1", "--E0", "-1",
            "--n", "0..0", "--tol", "solver=-1",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("phase", "--g", "nan", "--M", "1"),
            ("spectrum", "--system", "coulomb", "--alpha", "nan", "--M", "1", "--closed",
             "--n", "0..1"),
            ("spectrum", "--system", "coulomb", "--M", "1", "--E0", "-2", "--n", "0..1",
             "--tol", "solver=inf"),
            ("spectrum", "--system", "free", "--M", "1", "--E0=-inf", "--n", "0..1"),
            ("duality", "--alpha", "1", "--EC", "-2", "--MC", "0.5", "--r0-scale", "inf"),
            ("wavefunction", "--system", "coulomb", "--g", "2", "--M", "1", "--branch",
             "third", "--gamma", "nan", "--grid-points", "2"),
        ],
        ids=["phase-g", "closed-alpha", "tol-solver", "E0", "r0-scale", "gamma"],
    )
    def test_non_finite_number_exits_2(self, capsys, argv):
        # each of these used to print NaN or a wrong level and exit 0
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the option's value
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "expected a finite number" in captured.err


HUGE_M_COMMANDS = [
    ("spectrum", "--system", "coulomb", "--closed", "--n", "0..2"),
    ("spectrum", "--system", "coulomb", "--E0", "-2", "--n", "-1..1"),
    ("spectrum", "--system", "free", "--E0", "-1", "--n", "-1..1"),
    ("spectrum", "--system", "oscillator", "--closed", "--n", "0..2"),
    ("spectrum", "--system", "oscillator", "--omega", "10", "--closed", "--n", "0..2"),
    ("spectrum", "--system", "oscillator", "--E0", "25", "--n", "-1..1"),
    *(
        ("wavefunction", "--system", "coulomb", "--g", "2", "--branch", branch,
         "--grid-points", "3")
        for branch in ("u1", "u2", "third")
    ),
    ("wavefunction", "--system", "oscillator", "--n", "1", "--grid-points", "3"),
    *(("potential", "--system", system, "--grid-points", "3")
      for system in ("coulomb", "free", "oscillator")),
    ("phase", "--g", "2"),
    ("duality", "--alpha", "1", "--EC", "-2", "--r0-scale", "1"),
]


@pytest.mark.parametrize("m_ang", ["1.4e154", "1e200", "1e308"])
@pytest.mark.parametrize("argv", HUGE_M_COMMANDS, ids=lambda argv: "-".join(argv[:3]))
def test_huge_m_prints_finite_numbers_or_fails(capsys, argv, m_ang):
    # each record command at |M| near the top of the double range either
    # prints finite numbers or exits 2 or 3 with one error line; NaN and
    # +-inf used to print with exit 0.  Some exits are 3 by nature:
    # coulomb_u1 runs into its series term cap at M = 1e200, and levels
    # of the oscillator ladder collide at M = 1e308.
    flag = "--MC" if argv[0] == "duality" else "--M"
    code, out, err = run_cli(capsys, *argv, flag, m_ang)
    if code == 0:
        assert err == ""
        for rec in json_records(out):
            for value in rec.values():
                if isinstance(value, float):
                    assert math.isfinite(value), rec
    else:
        assert code in (2, 3) and out == ""
        prefix = "error: " if code == 2 else "numerical failure: "
        assert err.startswith(prefix) and err.count("\n") == 1, err


ERROR_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.MinkqmError)
] + [OverflowError]


class TestExitCodes:
    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_exit_code_follows_error_class(self, capsys, monkeypatch, error):
        def fail(args, pp, tol):
            raise error("planted failure")

        monkeypatch.setitem(cli._COMMANDS, "phase", fail)
        code, out, err = run_cli(capsys, "phase", "--g", "2", "--M", "1")
        assert code == (2 if issubclass(error, errors.DomainError) else 3)
        assert out == ""
        assert "planted failure" in err


class TestPhaseCommand:
    @pytest.mark.parametrize("r0", [None, "0.7"])
    def test_record_r0_is_the_phase_r0(self, capsys, r0):
        from minkqm import spectra

        extra = () if r0 is None else ("--r0", r0)
        code, out, _ = run_cli(capsys, "phase", "--g", "2", "--M", "1", *extra)
        assert code == 0
        rp = spectra.gamma_phase(2.0, 1.0, None if r0 is None else float(r0))
        rec = json_records(out)[0]
        assert rec["r0"] == rp.r0 == (1.0 if r0 is None else 0.7)
        assert (rec["gamma"], rec["beta"], rec["gamma_raw"]) == (rp.gamma, rp.beta, rp.gamma_raw)

    def test_gamma_pole_at_tiny_m_exits_2(self, capsys):
        # at g = 1/2, M = 5e-324 the lnGamma reflection took log(0): numpy
        # warned, and gamma printed with exit code 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "phase", "--g", "0.5", "--M", "5e-324")
        assert (code, out) == (2, "")
        assert err == "error: lnGamma pole: sin(pi z) rounds to 0 at z=5e-324j\n"


class TestVerifyCommand:
    def test_duality_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "duality")
        assert code == 0
        assert "PASS duality.forward_invariants_1000" in out
        assert "FAILED" not in out

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "bogus")
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "option",
        [("--hbar", "2"), ("--mass", "2"), ("--tol", "series=1"), ("--format", "csv")],
        ids=["hbar", "mass", "tol", "format"],
    )
    def test_units_and_tolerances_rejected(self, capsys, option):
        # the suites run in natural units with fixed tolerances and print a
        # text report
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "duality", *option)
        assert exc.value.code == 2


class TestDualityCommand:
    def test_map_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "duality", "--alpha", "1", "--EC", "-2", "--MC", "0.5",
            "--r0-scale", "1",
        )
        assert code == 0
        rec = json_records(out)[0]
        assert rec["omega"] == pytest.approx(4.0, rel=1e-15)
        assert rec["E_osc"] == pytest.approx(4.0, rel=1e-15)
        assert rec["M_osc"] == 1.0

    def test_r0_squared_underflow_exits_2(self, capsys):
        # m r0^2 underflows to 0: a ZeroDivisionError traceback with exit code 1
        code, out, err = run_cli(
            capsys, "duality", "--alpha", "1", "--EC", "-1", "--MC", "0.5",
            "--r0-scale", "1e-200",
        )
        assert (code, out, err) == (
            2, "",
            "error: m r0^2 at mass=1.0, r0_scale=1e-200 underflows to 0: "
            "it leaves the double range\n",
        )

    def test_omega_overflow_exits_2(self, capsys):
        # omega = sqrt(-8 E_C / (m r0^2)) overflows to inf: exit 3 with
        # "duality energy relation violated: 4e+160 vs inf"
        code, out, err = run_cli(
            capsys, "duality", "--alpha", "1", "--EC", "-1", "--MC", "0.5",
            "--r0-scale", "1e-160",
        )
        assert (code, out, err) == (
            2, "",
            "error: oscillator frequency omega = sqrt(-8 E_C / (m r0^2)) at E_C=-1.0, "
            "mass=1.0, r0_scale=1e-160 leaves the double range\n",
        )

    def test_subnormal_m_r0_squared_exits_2(self, capsys):
        # omega from a subnormal m r0^2 failed the energy relation: exit 3
        # with "duality energy relation violated: 40000000000.00012 vs
        # 40000222658.20545"
        code, out, err = run_cli(
            capsys, "duality", "--alpha", "1e-300", "--EC=-1e-300", "--MC", "0.5",
            "--r0-scale", "1e-310", "--mass", "1e300",
        )
        assert (code, out, err) == (
            2, "",
            "error: m r0^2 at mass=1e+300, r0_scale=1e-310 is 1e-320, subnormal: "
            "it leaves the normal double range\n",
        )

    def test_e_osc_overflow_exits_2(self, capsys):
        # E_osc = 4 alpha / r0 overflowed: "E_osc": Infinity with exit 0
        code, out, err = run_cli(
            capsys, "duality", "--alpha", "1e300", "--EC", "-1", "--MC", "0.5",
            "--r0-scale", "1e-10",
        )
        assert (code, out, err) == (
            2, "",
            "error: oscillator level E_osc = 4 alpha / r0 at alpha=1e+300, "
            "r0_scale=1e-10 leaves the double range\n",
        )

    def test_relation_where_2_alpha_omega_overflows(self, capsys):
        # the energy relation's 2 alpha omega overflowed: exit 3 with
        # "duality energy relation violated: 4e+300 vs inf"
        code, out, _ = run_cli(
            capsys, "duality", "--alpha", "1e300", "--EC", "-1e20", "--MC", "0.5",
            "--r0-scale", "1",
        )
        assert code == 0
        rec = json_records(out)[0]
        assert all(math.isfinite(v) for v in rec.values() if isinstance(v, float))
        assert (rec["omega"], rec["E_osc"], rec["M_osc"]) == (math.sqrt(8e20), 4e300, 1.0)


class TestEntryPoints:
    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "minkqm", "phase", "--g", "2", "--M", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert '"command": "phase"' in proc.stdout

    def test_public_names(self):
        import minkqm

        assert sorted(minkqm.__all__) == [
            "BracketError", "Branch", "ConsistencyError", "ConvergenceError", "Coulomb",
            "DomainError", "DualityMap", "FitQualityError", "Free", "InsufficientRootsError",
            "KummerParams", "MinkqmError", "NATURAL_UNITS", "Oscillator", "PhysicalParams",
            "PoleError", "RadialSolution", "ReflectionPhase", "ScaledCoulomb",
            "ShootingConfig", "SpectrumEntry", "SystemKind", "coulomb_closed_spectrum",
            "coulomb_scaling", "coulomb_third", "coulomb_third_asymptotic", "coulomb_u1",
            "coulomb_u1_asymptotic", "coulomb_u2", "deep_ladder", "duality_forward",
            "effective_potential", "errors", "gamma_phase", "integrate_radial",
            "inward_phase", "kummer_m", "ln_gamma", "model", "ode_residual", "oracle",
            "oscillator_closed_spectrum", "oscillator_quantized_spectrum",
            "oscillator_wavefunction", "potential", "quantization_f", "radial_coefficient",
            "scaled_config", "shallow_spectrum", "shoot_eigenvalues",
            "solve_quantized_spectrum", "specfun", "spectra",
        ]

    def test_console_script(self):
        import shutil
        import subprocess

        exe = shutil.which("minkqm")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "spectrum", "--system", "free", "--M", "1", "--E0", "-1", "--n", "0..1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0


# Calls that load no numpy: the import, the help, the closed-form levels,
# the free ladder, the duality map, the Coulomb scaling and potentials on a
# linear grid.
NUMPY_FREE_CALLS = {
    "import": ("-c", "import minkqm"),
    "help": ("-m", "minkqm", "--help"),
    "coulomb_closed": (
        "-m", "minkqm", "spectrum", "--system", "coulomb", "--M", "0.5", "--closed",
        "--n", "0..3",
    ),
    "oscillator_closed": (
        "-m", "minkqm", "spectrum", "--system", "oscillator", "--M", "2", "--closed",
        "--n", "0..4",
    ),
    "free_ladder": (
        "-m", "minkqm", "spectrum", "--system", "free", "--M", "1", "--E0", "-1", "--n", "-2..2",
        "--tol", "solver=1e-8",
    ),
    "duality": (
        "-m", "minkqm", "duality", "--alpha", "1", "--EC", "-2", "--MC", "0.5",
        "--r0-scale", "1",
    ),
    "coulomb_scaling": (
        "-c", "import minkqm; print(minkqm.coulomb_scaling(minkqm.NATURAL_UNITS, 1.0, -0.5))",
    ),
    "potential_linear": (
        "-m", "minkqm", "potential", "--system", "oscillator", "--M", "1", "--grid-min", "0.2",
        "--grid-max", "3",
    ),
}


# The child of _loaded_modules: it runs "-m module args..." or "-c code" as
# the interpreter would, and at exit writes the names in sys.modules to
# stderr.  -X importtime cannot stand in for it: it prints no line for a
# submodule loaded through a fromlist, as cli's `from . import spectra`.
_REPORT_MODULES = """\
import atexit, runpy, sys
atexit.register(lambda: print("\\nloaded modules:", *sorted(sys.modules), file=sys.stderr))
flag, target = sys.argv[1:3]
sys.argv[:3] = [flag]
if flag == "-m":
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
"""


def _loaded_modules(*args):
    """The modules in sys.modules when a fresh interpreter run with args exits."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_MODULES, *args], capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = proc.stderr.rsplit("loaded modules:", 1)[1]
    return set(report.split())


# One command of each kind that the benchmark's cli workload runs, and
# whether it loads numpy.
CLI_WORKLOAD_CALLS = {
    "cli_closed": (False, "spectrum", "--system", "coulomb", "--alpha=1.0", "--M=0.5",
                   "--closed", "--n", "0..3"),
    "cli_free": (False, "spectrum", "--system", "free", "--M=1.0", "--E0=-1.0", "--n", "-2..2"),
    "cli_third": (True, "wavefunction", "--system", "coulomb", "--g=2.0", "--M=1.0", "--branch",
                  "third", "--grid-min=0.0001", "--grid-max=30.0", "--grid-points=400",
                  "--grid-spacing", "log"),
    "cli_coulomb": (True, "spectrum", "--system", "coulomb", "--alpha=1.0", "--M=1.0",
                    "--E0=-2.0", "--n", "-3..3"),
    "cli_potential": (False, "potential", "--system", "oscillator", "--M=1.0",
                      "--grid-min=0.2", "--grid-max=3.0"),
    "cli_oscillator": (True, "spectrum", "--system", "oscillator", "--M=1.0", "--E0=25.0",
                       "--n", "0..3"),
    "cli_phase": (True, "phase", "--g=1.5", "--M=1.0"),
    "cli_osc_wave": (True, "wavefunction", "--system", "oscillator", "--n=1", "--M=0.5",
                     "--grid-max=4.0"),
    "cli_duality": (False, "duality", "--alpha=1.0", "--EC=-2.0", "--MC=0.5", "--r0-scale=1.0"),
}


class TestLazyImports:
    @pytest.mark.parametrize("call", list(NUMPY_FREE_CALLS), ids=str)
    def test_numpy_stays_unloaded(self, call):
        loaded = _loaded_modules(*NUMPY_FREE_CALLS[call])
        assert "minkqm" in loaded
        assert not {"numpy", "minkqm.specfun", "minkqm.spectra"} & loaded
        # nor dataclasses and what it imports, nor csv, which only --format csv needs
        assert not {"dataclasses", "inspect", "ast", "dis", "csv"} & loaded

    @pytest.mark.parametrize("kind", list(CLI_WORKLOAD_CALLS))
    def test_cli_workload_loads_no_dataclasses(self, kind):
        uses_numpy, *argv = CLI_WORKLOAD_CALLS[kind]
        loaded = _loaded_modules("-m", "minkqm", *argv)
        assert "minkqm.cli" in loaded
        assert ("numpy" in loaded) == uses_numpy
        assert "dataclasses" not in loaded

    def test_submodules_loaded_through_a_fromlist_are_seen(self):
        # cli loads these by `from . import ...`
        assert "minkqm.spectra" in _loaded_modules("-m", "minkqm", "phase", "--g", "1.5", "--M", "1")
        assert "minkqm.verification" in _loaded_modules("-m", "minkqm", "verify", "oracle")

    def test_oracle_loads_no_gamma_code(self):
        # the oracle is the Gamma-free cross-check of the analytic solvers
        loaded = _loaded_modules("-c", "import minkqm.oracle")
        assert "minkqm.oracle" in loaded
        assert not {"minkqm.specfun", "minkqm.spectra"} & loaded

    def test_every_public_name_resolves(self):
        import minkqm

        for name in minkqm.__all__:
            value = getattr(minkqm, name)
            home = minkqm._HOME.get(name)
            if home is not None:
                assert value is getattr(getattr(minkqm, home), name)
        # the names that moved to model are spectra's too
        for name in minkqm._LAZY["model"]:
            if hasattr(minkqm.spectra, name):
                assert getattr(minkqm.spectra, name) is getattr(minkqm.model, name)
        assert minkqm.spectra.DEFAULT_SOLVER_TOL is minkqm.model.DEFAULT_SOLVER_TOL

    def test_star_import(self):
        import minkqm

        namespace = {}
        exec("from minkqm import *", namespace)
        assert set(minkqm.__all__) <= set(namespace)
        assert namespace["gamma_phase"] is minkqm.spectra.gamma_phase

    def test_unknown_attribute(self):
        import minkqm

        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            minkqm.no_such_name

    def test_defaults_and_suites_have_one_definition(self):
        import ast

        src = Path(cli.__file__).parent
        assigned = []
        for path in src.glob("*.py"):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, ast.Assign):
                    assigned += [t.id for t in node.targets if isinstance(t, ast.Name)]
        for name in ("DEFAULT_SERIES_TOL", "DEFAULT_SOLVER_TOL", "SUITES"):
            assert assigned.count(name) == 1, name

    def test_verify_choices_are_the_suites(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--help")
        assert exc.value.code == 0
        assert "{" + ",".join(verification.SUITES + ("all",)) + "}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "bogus")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert all(suite in err for suite in verification.SUITES)


class TestGoldenOutput:
    """Byte-for-byte output of the README examples and of `verify all`.

    The files under tests/golden/ were written by `python -m minkqm` on
    x86-64 Linux, where numpy's longdouble is the 80-bit x87 format; a
    platform with a different longdouble may differ in the last digits.
    A change that alters any of these numbers on purpose rewrites the
    files (`python -m minkqm <args> > tests/golden/<name>.out` for each
    entry of README_EXAMPLES, and `verify all` > verify_all.out) and
    names every changed value in CHANGES.md.
    """

    @pytest.mark.parametrize("name", sorted(README_EXAMPLES))
    def test_readme_example(self, capsys, name):
        code, out, _ = run_cli(capsys, *README_EXAMPLES[name])
        assert code == 0
        assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()

    def test_verify_all(self, capsys, monkeypatch, suite_results):
        # each suite runs once per session; `verify all` reuses those results
        results = {suite: suite_results(suite) for suite in verification.SUITES}
        for suite in verification.SUITES:
            monkeypatch.setitem(
                verification._SUITE_FUNCS, suite, lambda suite=suite: results[suite]
            )
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert out.encode() == (GOLDEN / "verify_all.out").read_bytes()
