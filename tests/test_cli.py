import json
import math
from pathlib import Path

import numpy as np
import pytest

from minkqm import verification
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

    def test_log_grid_needs_positive_min(self, capsys):
        code, _, _ = run_cli(
            capsys, "wavefunction", "--system", "oscillator", "--M", "0",
            "--grid-min", "-1", "--grid-max", "1", "--grid-spacing", "log",
        )
        assert code == 2


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
