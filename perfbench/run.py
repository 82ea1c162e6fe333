"""minkqm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.
One client drives the library in a closed loop: the next op starts when
the previous one returns.  The seed fixes the run's op set, a whole
number of cycles of the workload's op kinds.

``--trace 0`` runs the op set in repeated passes for ``--seconds`` seconds
(at least two whole passes).  The run is pinned to one CPU, and every op
and every setup spawn is timed at reference speed (``speed.py``): its wall
time rescaled by a probe of the host's speed taken around it, because on
the 2-vCPU host this was tuned on the speed of each vCPU drifts by up to
50 % over seconds to minutes.  Each op's time is the median of its
samples, and every end-to-end metric except ``peak_rss_mb`` is computed
from these times.  ``setup_s`` is the median of fresh ``import minkqm``
interpreters spawned at even intervals through the run.  The details line
holds the same metrics from plain wall times as well.

``--trace 1`` runs the op set once untraced and once traced, both timed at
reference speed, and reports the per-layer metrics.

The first pass's outputs are checked independently after the timed region
(``checks.py``); every later pass must reproduce them byte for byte.  The
last line of standard output is the JSON result; the line before it holds
the details (tail percentile, failures by cause, output digest,
environment).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Cycles in a run's op set.  A larger set steadies the set's cost across
# seeds; a smaller one leaves room for more passes, which steady each op's
# median time.  On a 2-vCPU x86-64 host one pass, probes included, takes
# 4 to 13 s, so a 25 s run makes 2 to 6 passes.
SET_CYCLES = {"ladder": 16, "wavefunction": 64, "validate": 8, "cli": 3}
MIN_PASSES = 2
SETUP_SPAWNS = 11  # fresh interpreters importing minkqm; setup_s is their median
WARMUP_OPS = 3
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with at least this many samples above it


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _library_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(x for x in (SRC, env.get("PYTHONPATH")) if x)
    return env


def _import_library():
    """Import minkqm from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "minkqm", "__init__.py")):
        raise SystemExit(f"error: no minkqm package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import minkqm
    from minkqm import cli, model, oracle, spectra

    if os.path.dirname(os.path.dirname(os.path.abspath(minkqm.__file__))) != SRC:
        raise SystemExit(f"error: imported minkqm from {minkqm.__file__}, not from {SRC}")
    return types.SimpleNamespace(minkqm=minkqm, spectra=spectra, oracle=oracle, model=model,
                                 cli=cli)


def spawn_setup(env: dict) -> float:
    """Wall time of one fresh interpreter running `import minkqm`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import minkqm"], env=env, check=True)
    return time.perf_counter() - t0


def op_set(workload: str, seed: int) -> list:
    import workloads

    return workloads.op_set(workload, seed, SET_CYCLES[workload])


def _warm_up(workload, seed, execute):
    import workloads

    for op in workloads.op_set(workload, seed, 1, warmup=True)[:WARMUP_OPS]:
        _call(execute, op)


def _call(execute, op):
    """(output, error) of one op; an exception is the op's failure, not the run's."""
    try:
        return execute(op), None
    except Exception as exc:  # noqa: BLE001 - every library failure counts against the op
        return None, f"raised {type(exc).__name__}: {exc}"


def _feed(h, value):
    if isinstance(value, np.ndarray):
        h.update(value.tobytes())
    elif isinstance(value, tuple):
        h.update(b"(")
        for item in value:
            _feed(h, item)
        h.update(b")")
    else:
        h.update(repr(value).encode() + b",")


def _digest(records) -> str:
    """Hash of every op's inputs, outputs (bit patterns) and errors."""
    h = hashlib.sha256()
    for op, out, err in records:
        _feed(h, (op.kind, op.params, out, err))
    return h.hexdigest()[:16]


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _check_all(records, mods, checks):
    """Failure reasons by cause: a documented defect's name, or 'unexpected'."""
    failures = {}
    for op, out, err in records:
        reason = err if err is not None else checks.check(op, out, mods)
        if reason is not None:
            cause = checks.known_defect(op) or "unexpected"
            failures.setdefault(cause, []).append(f"{op.kind}: {reason[:160]}")
    return failures


def _environment() -> dict:
    src_lines = 0
    pkg = os.path.join(SRC, "minkqm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "longdouble_mantissa_bits": int(np.finfo(np.longdouble).nmant),
        "src_lines": src_lines,
    }


def run_timed(workload, seed, seconds, mods, env):
    import speed
    import workloads

    ops = op_set(workload, seed)
    execute = workloads.Executor(mods, sys.executable, env)
    _warm_up(workload, seed, execute)
    clock = speed.Clock()

    # Ops run in passes over the set until `seconds` have gone by, stopping
    # mid-pass at the deadline once MIN_PASSES passes are complete.  Each
    # op's time is the median of its samples, timed at reference speed.
    # Only the first pass's outputs are kept; later ones must hash the same.
    samples = [[] for _ in ops]
    walls = [[] for _ in ops]
    records, hashes, repeatable = [], [], True
    setup_times, setup_walls = [], []

    def spawn():
        _, wall, ref = clock.timed(lambda: spawn_setup(env))
        setup_times.append(ref)
        setup_walls.append(wall)

    spawn_every = seconds / SETUP_SPAWNS
    sample = 0
    t0 = time.perf_counter()
    while True:
        i, passes = sample % len(ops), sample // len(ops)
        now = time.perf_counter() - t0
        if passes >= MIN_PASSES and now >= seconds:
            break
        if len(setup_times) < SETUP_SPAWNS and now >= len(setup_times) * spawn_every:
            spawn()
        (out, err), wall, ref = clock.timed(lambda: _call(execute, ops[i]))
        samples[i].append(ref)
        walls[i].append(wall)
        record = (ops[i], out, err)
        if passes == 0:
            records.append(record)
            hashes.append(_digest([record]))
        elif _digest([record]) != hashes[i]:
            repeatable = False
        sample += 1
    elapsed = time.perf_counter() - t0
    while len(setup_times) < SETUP_SPAWNS:
        spawn()

    work = sum(workloads.work_of(op, out) for op, out, err in records if err is None)
    op_s = [statistics.median(x) for x in samples]
    op_wall_s = [statistics.median(x) for x in walls]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    tail, pct = _tail(op_s)
    metrics = {
        "ops_per_s": len(ops) / sum(op_s),
        "work_per_s": work / sum(op_s),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,  # Linux reports KiB
    }
    wall_tail, _ = _tail(op_wall_s)
    details = {"ops": len(ops), "passes": sample / len(ops), "pass_s": sum(op_s),
               "elapsed_s": elapsed, "work": work,
               "op_tail_percentile": pct, "op_tail_samples_beyond": TAIL_BEYOND,
               "setup_spawns_s": setup_times,
               "slowdown_quartiles": statistics.quantiles(clock.slowdowns, n=4),
               "wall": {"ops_per_s": len(ops) / sum(op_wall_s),
                        "op_p50_ms": statistics.median(op_wall_s) * 1e3,
                        "op_tail_ms": wall_tail * 1e3,
                        "setup_s": statistics.median(setup_walls)},
               "digest": _digest(records)}
    return records, metrics, details, repeatable


def run_traced(workload, seed, mods, env):
    import spans
    import speed
    import workloads

    ops = op_set(workload, seed)
    execute = workloads.Executor(mods, sys.executable, env)
    _warm_up(workload, seed, execute)
    clock = speed.Clock()  # both passes are timed at reference speed

    plain, untraced_s = [], 0.0
    for op in ops:
        (out, err), _, ref = clock.timed(lambda: _call(execute, op))
        plain.append((op, out, err))
        untraced_s += ref

    tracer = spans.Tracer()
    if workload == "cli":
        execute.cli_script = os.path.join(HERE, "cli_child.py")
    child_summaries, startup_ms, traced, traced_s = [], 0.0, [], 0.0
    tracer.install()
    try:
        for i, op in enumerate(ops):
            (out, err), wall, ref = clock.timed(
                lambda: _call(lambda o: tracer.run_op(i, execute, o), op))
            traced_s += ref
            if workload == "cli" and out is not None:
                out, child = _split_child_trace(out)
                if child is None:
                    out, err = None, "traced CLI child wrote no span summary"
                else:
                    child_summaries.append(child)
                    # the child's span times are wall times, so this is too
                    startup_ms += wall * 1e3 - child["spans"].get("cli.main", {}).get("total_ms", 0.0)
            traced.append((op, out, err))
    finally:
        tracer.uninstall()

    summary = tracer.summary()
    for child in child_summaries:
        spans.merge(summary, child)
    metrics = spans.layer_metrics(summary, startup_ms)
    metrics["trace.ops"] = len(ops)
    metrics["trace.ops_per_s"] = len(ops) / traced_s
    metrics["trace.untraced_ops_per_s"] = len(ops) / untraced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    digest = _digest(plain)
    details = {"ops": len(ops), "absent_spans": summary["absent"], "digest": digest,
               "spans": summary["spans"], "counts": summary["counts"]}
    return traced, metrics, details, _digest(traced) == digest


def _split_child_trace(out):
    """(CLI output without the span summary, the summary or None if the child wrote none)."""
    import spans

    code, stdout, stderr = out
    lines = stderr.splitlines(keepends=True)
    if not lines or not lines[-1].startswith(spans.TRACE_PREFIX):
        return out, None
    summary = json.loads(lines[-1][len(spans.TRACE_PREFIX):])
    return (code, stdout, "".join(lines[:-1])), summary


def _metric_units(trace: int) -> dict:
    """{metric name: unit} of one kind of run, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    mods = _import_library()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = _library_env()
    import speed

    cpu = speed.pin_to_one_cpu()
    if args.trace:
        records, metrics, details, repeatable = run_traced(args.workload, args.seed, mods, env)
    else:
        records, metrics, details, repeatable = run_timed(
            args.workload, args.seed, args.seconds, mods, env)
    failures = _check_all(records, mods, checks)
    failed = sum(len(v) for v in failures.values())
    details.update(
        workload=args.workload, seed=args.seed, trace=args.trace, repeatable=repeatable,
        fail_frac=failed / len(records),
        failures={cause: {"count": len(v), "examples": v[:3]} for cause, v in failures.items()},
        environment=_environment(), pinned_cpu=cpu,
    )
    print(json.dumps(details))
    print(json.dumps({
        "correct": "unexpected" not in failures and repeatable,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in _metric_units(args.trace).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
