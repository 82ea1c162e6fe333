"""Tests of the benchmark itself: seeded inputs, checkers, tracer, BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import itertools
import json
import math
import os
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from minkqm import cli, model, oracle, spectra  # noqa: E402
from workloads import Op  # noqa: E402

MODS = types.SimpleNamespace(spectra=spectra, oracle=oracle, model=model, cli=cli)
EXECUTE = workloads.Executor(MODS, sys.executable, run._library_env())


def _ops(workload, seed, cycles=3):
    return workloads.op_set(workload, seed, cycles)


# ------------------------------------------------------------ inputs

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert _ops(workload, 7) == _ops(workload, 7)
    assert _ops(workload, 7) != _ops(workload, 8)
    assert all(type(v) in (int, float, str, tuple) for op in _ops(workload, 7) for _, v in op.params)
    assert workloads.op_set(workload, 7, 3, warmup=True) != _ops(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_cycle_has_the_workload_kind_mix(workload):
    cycle = workloads.WORKLOADS[workload].cycle
    per_draw = 2 if workload == "ladder" else 1  # ladders run each draw with +M and -M
    ops = _ops(workload, 3, cycles=4)
    assert [op.kind for op in ops] == [k for k in cycle for _ in range(per_draw)] * 4


def test_ladder_inputs_cover_the_stated_ranges():
    ops = _ops("ladder", 11, cycles=60)
    ms = [abs(op["M"]) for op in ops]
    mags = [abs(op["E0"]) for op in ops]
    windows = {op["levels"] for op in ops}
    assert 0.25 <= min(ms) < 0.3 and 3.5 < max(ms) <= 4.0
    assert any(op["M"] < 0 for op in ops) and any(op["M"] > 0 for op in ops)
    assert min(mags) < 1e-22 and max(mags) > 1e8
    assert {len(w) for w in windows} == set(range(3, 10))
    assert all(min(w) < 0 for w in windows)
    assert len(workloads.WINDOWS) == 35


def test_cost_setting_inputs_are_stratified_in_the_same_cells_for_every_seed():
    for count in (1, 3, 16, 32, 100):
        cells = [np.floor(np.array(workloads._points(count, np.random.default_rng(seed)))[:, :3]
                          * count) for seed in (1, 2)]
        assert np.array_equal(cells[0], cells[1])
        for axis in range(3):
            assert sorted(cells[0][:, axis]) == list(range(count))


def test_wavefunction_grids_reach_z_80():
    ops = _ops("wavefunction", 5, cycles=40)
    assert max(op["z_end"] for op in ops) > 78
    assert {op["points"] for op in ops} <= set(range(200, 401))


# ------------------------------------------------------------ checkers

def test_ladder_checker_accepts_real_levels_and_rejects_duplicates():
    op = Op("ladder_coulomb", (("M", 1.0), ("E0", -2.0), ("levels", (-1, 0, 1, 2))))
    out = EXECUTE(op)
    assert checks.check(op, out, MODS) is None
    dup = tuple((n, out[1][1] if n == -1 else e) for n, e in out)  # level -1 repeats E0
    assert "monotone" in checks.check(op, dup, MODS)


def test_ladder_checker_rejects_a_level_moved_by_a_tenth_of_a_spacing():
    op = Op("ladder_oscillator", (("M", 1.0), ("E0", 25.0), ("levels", (-1, 0, 1))))
    out = EXECUTE(op)
    assert checks.check(op, out, MODS) is None
    moved = tuple((n, e + 0.2 if n == 1 else e) for n, e in out)  # spacing ~2
    assert "index" in checks.check(op, moved, MODS)


def test_free_ladder_checker_holds_the_exact_geometric_ladder():
    op = Op("ladder_free", (("M", -0.7), ("E0", -3.0), ("levels", (-2, -1, 0, 1))))
    out = EXECUTE(op)
    assert checks.check(op, out, MODS) is None
    off = tuple((n, e * (1 + 1e-8) if n == 1 else e) for n, e in out)
    assert "free ladder" in checks.check(op, off, MODS)


def _wave_op(kind, **extra):
    params = {"z_min": 0.01, "z_end": 30.0, "points": 200, "spacing": "linear", "M": 1.3}
    params.update(extra)
    return Op(kind, tuple(params.items()))


@pytest.mark.parametrize("kind,extra", [("u1", {"g": 2.0}), ("u2", {"g": 0.7}),
                                        ("osc_wave", {"n": 3})])
def test_amplitude_checker_rejects_a_1e_8_perturbation(kind, extra):
    op = _wave_op(kind, **extra)
    out = EXECUTE(op)
    assert checks.check(op, out, MODS) is None
    bad = out.copy()
    bad[-1] *= 1 + 1e-8  # the last point is always sampled
    assert "amplitude" in checks.check(op, bad, MODS)


def test_third_solution_checker_uses_the_max_u_scale():
    op = _wave_op("third", g=2.0)
    gamma, values = EXECUTE(op)
    assert checks.check(op, (gamma, values), MODS) is None
    bad = values.copy()
    bad[-1] += 1e-5 * np.abs(values).max()
    assert "third" in checks.check(op, (gamma, bad), MODS)


def test_oracle_checkers_use_the_verify_thresholds():
    shoot = Op("shoot_free", (("M", 1.0), ("E_hi", -1.0), ("count", 2)))
    assert checks.check(shoot, ((-535.5, -2e5), (-535.49, -2e5)), MODS) is None
    assert "eigenvalue" in checks.check(shoot, ((-535.5, -2e5), (-535.4, -2e5)), MODS)
    res = Op("residual", (("n", 0), ("alpha", 1.0), ("z_lo", 1.0), ("z_hi", 20.0)))
    assert checks.check(res, (9e-7, 19000), MODS) is None
    assert "residual" in checks.check(res, (2e-6, 19000), MODS)


def test_cli_checker_accepts_the_real_cli_and_rejects_a_changed_record():
    op = Op("cli_free", (("M", -1.25), ("E0", -1e-05)))
    out = EXECUTE(op)  # a real `python -m minkqm` subprocess
    assert checks.check(op, out, MODS) is None
    code, stdout, stderr = out
    lines = stdout.splitlines(keepends=True)
    rec = json.loads(lines[2])
    rec["E_re"] = math.nextafter(rec["E_re"], 0.0)
    changed = "".join(lines[:2] + [json.dumps(rec) + "\n"] + lines[3:])
    assert "differ" in checks.check(op, (0, changed, stderr), MODS)
    assert "exit code 3" in checks.check(op, (3, stdout, "numerical failure"), MODS)


def test_known_defects_depend_on_inputs_only():
    shallow = Op("ladder_coulomb", (("M", 1.0), ("E0", -1e-24), ("levels", (-1, 0, 1))))
    deep = Op("ladder_coulomb", (("M", 1.0), ("E0", -2.0), ("levels", (-1, 0, 1))))
    assert checks.known_defect(shallow) == "shallow_ladder"
    assert checks.known_defect(deep) is None
    assert checks.known_defect(_wave_op("third", g=0.2, z_end=80.0)) == "third_cancellation"
    assert checks.known_defect(_wave_op("third", g=5.0, z_end=30.0)) is None
    assert checks.known_defect(_wave_op("u1", g=0.2, z_end=80.0)) is None


# ------------------------------------------------------------ tracer

def test_tracer_self_time_and_counts():
    tracer = spans.Tracer()
    tracer.install()
    try:
        op = Op("ladder_coulomb", (("M", 1.0), ("E0", -2.0), ("levels", (-1, 0, 1))))
        tracer.run_op(0, EXECUTE, op)
    finally:
        tracer.uninstall()
    assert spectra.quantization_f.__name__ == "quantization_f"  # unwrapped again
    s = tracer.summary()
    qf, lg, solver = (s["spans"][n] for n in ("spectra.quantization_f", "specfun.lngamma",
                                             "spectra.solver"))
    assert lg["calls"] == 2 * qf["calls"] > 0
    assert s["counts"]["spectra.levels_solved"] == 2
    assert solver["self_ms"] == pytest.approx(
        solver["total_ms"] - qf["total_ms"], rel=1e-9, abs=1e-9)
    assert set(tracer.op) == {0}
    m = spans.layer_metrics(s, 0.0)
    assert m["spectra.f_evals_per_level"] == qf["calls"] / 2


def test_free_ladders_stay_out_of_the_f_evals_per_level_base():
    tracer = spans.Tracer()
    tracer.install()
    try:
        free = Op("ladder_free", (("M", 1.0), ("E0", -2.0), ("levels", (-1, 0, 1))))
        tracer.run_op(0, EXECUTE, free)  # exact ladder: no f evaluations
    finally:
        tracer.uninstall()
    s = tracer.summary()
    assert s["spans"]["spectra.solver"]["calls"] == 1
    assert s["counts"]["spectra.levels_solved"] == 0


def test_tracer_reports_a_missing_boundary_as_absent(monkeypatch):
    monkeypatch.setattr(spans, "BOUNDARIES", spans.BOUNDARIES + (
        ("spectra.gone", "minkqm.spectra", "no_such_function"),))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["spectra.gone:minkqm.spectra.no_such_function"]
    assert spans.layer_metrics(tracer.summary(), 0.0)["trace.absent_spans"] == 1


# ------------------------------------------------------------ speed probe

def test_clock_rescales_wall_time_by_the_probe_windows_around_the_call(monkeypatch):
    windows = iter([2.0, 4.0, 3.0])  # mean chunk times, in units of REF_CHUNK_S
    asked = []

    def probe(seconds):
        asked.append(seconds)
        return next(windows) * speed.REF_CHUNK_S

    monkeypatch.setattr(speed.Clock, "_probe", staticmethod(probe))
    clock = speed.Clock()
    value, wall, ref = clock.timed(lambda: time.sleep(0.02) or "done")
    assert value == "done" and wall >= 0.02
    assert ref == pytest.approx(wall / 3.0)  # windows of 2 and 4 around the call
    assert asked[1] == pytest.approx(speed.PROBE_SHARE * wall)
    _, wall2, ref2 = clock.timed(lambda: None)  # the window after one call is the next one's before
    assert ref2 == pytest.approx(wall2 / 3.5)
    assert asked[2] == speed.MIN_PROBE_S
    assert clock.slowdowns == pytest.approx([3.0, 3.5])


def test_the_probe_reads_a_real_chunk_time():
    chunk_s = speed.Clock._probe(speed.MIN_PROBE_S)
    assert 0.0 < chunk_s < 1e3 * speed.REF_CHUNK_S


# ------------------------------------------------------------ BENCHMARK.json

def _result(monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "SET_CYCLES", {"ladder": 1})
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    assert run.main(["--workload", "ladder", "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    details, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    return details, result


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_a_run_reports_exactly_the_metrics_of_benchmark_json(monkeypatch, capsys, trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    details, result = _result(monkeypatch, capsys, trace)
    assert result["correct"] and details["repeatable"]
    assert result["attempted"] == len(workloads.WORKLOADS["ladder"].cycle) * 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}
    if trace:
        assert set(spans.layer_metrics(spans.Tracer().summary(), 0.0)) | {
            "trace.ops", "trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead_pct",
        } == {m["name"] for m in spec[section]}
    else:
        assert details["passes"] >= run.MIN_PASSES


def test_a_run_is_incorrect_when_a_later_pass_changes_an_output(monkeypatch, capsys):
    real, calls = workloads.Executor.ladder_free, itertools.count()

    def drifting(self, op):  # every call moves the non-anchor levels by a few ulps more
        k = next(calls)
        return tuple((n, e if n == 0 else e * (1 + k * 2.0**-52)) for n, e in real(self, op))

    monkeypatch.setattr(workloads.Executor, "ladder_free", drifting)
    details, result = _result(monkeypatch, capsys, 0)
    assert "unexpected" not in details["failures"]  # each output alone passes its check
    assert not details["repeatable"] and not result["correct"]
