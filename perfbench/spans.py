"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the module attributes through which one layer calls the
next (``spectra._ln_gamma_ld``, ``oracle.inward_phase``, ``cli._emit``,
...) and records one span per call: name, start, end, parent span and op
id.  Nothing in ``src/`` is edited; callers that look the attribute up at
call time go through the wrapper.  A boundary whose attribute no longer
exists is reported as absent rather than failing the run.

A span's self time is its duration minus the time its direct children
cover.  Counts that ratios need (levels solved, levels shot, Numerov
steps) are taken at the same boundaries, from the wrapped call's
arguments and result.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (span name, module, attribute): the layer boundaries that get wrapped.
BOUNDARIES = (
    ("specfun.lngamma", "minkqm.spectra", "_ln_gamma_ld"),
    ("specfun.kummer", "minkqm.spectra", "_kummer_m_ld"),
    ("spectra.quantization_f", "minkqm.spectra", "quantization_f"),
    ("spectra.gamma_phase", "minkqm.spectra", "gamma_phase"),
    ("spectra.solver", "minkqm.spectra", "solve_quantized_spectrum"),
    ("spectra.solver", "minkqm.spectra", "oscillator_quantized_spectrum"),
    ("spectra.amplitude", "minkqm.spectra", "coulomb_u1"),
    ("spectra.amplitude", "minkqm.spectra", "coulomb_u2"),
    ("spectra.amplitude", "minkqm.spectra", "coulomb_third"),
    ("spectra.amplitude", "minkqm.spectra", "oscillator_wavefunction"),
    ("oracle.shoot", "minkqm.oracle", "shoot_eigenvalues"),
    ("oracle.inward_phase", "minkqm.oracle", "inward_phase"),
    ("oracle.ode_residual", "minkqm.oracle", "ode_residual"),
    ("model.radial_coefficient", "minkqm.oracle", "radial_coefficient"),
    ("cli.main", "minkqm.cli", "main"),
    ("cli.emit", "minkqm.cli", "_emit"),
)
OP = "op"  # root span the harness opens around every op
TRACE_PREFIX = "PERFBENCH-TRACE "  # marks the summary line a traced CLI child writes to stderr


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_levels_solved(tracer, args, kwargs, result):
    # free-particle ladders (alpha = 0) are exact and never evaluate f, so
    # they are left out of the base of spectra.f_evals_per_level
    if _arg(args, kwargs, 1, "alpha") != 0:
        tracer.counts["spectra.levels_solved"] += sum(1 for e in result if e.n != 0)


def _count_oscillator_levels(tracer, args, kwargs, result):
    tracer.counts["spectra.levels_solved"] += sum(1 for e in result if e.n != 0)


def _count_levels_shot(tracer, args, kwargs, result):
    tracer.counts["oracle.levels_shot"] += len(result)


def _count_numerov_steps(tracer, args, kwargs, result):
    # the inward recurrence runs once per grid point below the two start values
    tracer.counts["oracle.numerov_steps"] += _arg(args, kwargs, 4, "cfg").steps - 2


# attribute: counter called with the wrapped call's arguments and result
ON_RETURN = {
    "solve_quantized_spectrum": _count_levels_solved,
    "oscillator_quantized_spectrum": _count_oscillator_levels,
    "shoot_eigenvalues": _count_levels_shot,
    "inward_phase": _count_numerov_steps,
}


class Tracer:
    """Records spans of wrapped calls; one tracer per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.raised = bytearray()
        self.counts = {"spectra.levels_solved": 0, "oracle.levels_shot": 0,
                       "oracle.numerov_steps": 0}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.op.append(self._op_id)
        self.raised.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, raised: bool):
        self.end[idx] = time.perf_counter()
        self.raised[idx] = raised
        self._stack.pop()

    def _call(self, name_id: int, fn, args, kwargs):
        idx = self._open(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)
        return result

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span that carries its id."""
        self._op_id = op_id
        try:
            return self._call(self._name_id(OP), fn, args, {})
        finally:
            self._op_id = -1

    def install(self):
        """Wrap every boundary in BOUNDARIES that exists."""
        for name, module_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{name}:{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn, ON_RETURN.get(attr)))
            self._restore.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn, on_return):
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            result = self._call(name_id, fn, args, kwargs)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-span-name calls, self and total milliseconds and escaped errors, plus counts."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        raised = np.frombuffer(bytes(self.raised), dtype=np.uint8).astype(bool)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - covered
        layer = np.array([n.split(".")[0] for n in self.names] or [""])[name]
        # an error escapes a layer when its span raised and its parent is another layer
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")
        escaped = raised & (parent_layer != layer)
        spans = {}
        for nid, n in enumerate(self.names):
            sel = name == nid
            spans[n] = {
                "calls": int(sel.sum()),
                "self_ms": float(self_time[sel].sum() * 1e3),
                "total_ms": float(dur[sel].sum() * 1e3),
                "errors": int((escaped & sel).sum()),
            }
        return {"spans": spans, "counts": dict(self.counts), "absent": list(self.absent),
                "span_count": int(dur.size)}


def merge(into: dict, other: dict):
    """Add the summary of another tracer (a traced CLI child) into `into`."""
    for n, s in other["spans"].items():
        acc = into["spans"].setdefault(n, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0, "errors": 0})
        for key in acc:
            acc[key] += s[key]
    for key, value in other["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    into["absent"] = sorted(set(into["absent"]) | set(other["absent"]))
    into["span_count"] += other["span_count"]


def layer_metrics(summary: dict, cli_startup_ms: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as {name: value}, except the trace.ops* ones.

    Totals are over the traced run's op set; each ratio's base is reported
    beside it (levels_solved, levels_shot, numerov_steps).
    """
    spans = summary["spans"]
    counts = summary["counts"]

    def get(n, key):
        return spans.get(n, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def errors(layer):
        return sum(s["errors"] for n, s in spans.items() if n.split(".")[0] == layer)

    out = {}
    for n in ("specfun.lngamma", "spectra.quantization_f", "specfun.kummer", "spectra.amplitude",
              "spectra.gamma_phase", "oracle.inward_phase", "model.radial_coefficient"):
        out[f"{n}.calls"] = get(n, "calls")
        out[f"{n}.self_ms"] = get(n, "self_ms")
    out["spectra.solver.self_ms"] = get("spectra.solver", "self_ms")
    out["spectra.levels_solved"] = counts["spectra.levels_solved"]
    out["spectra.f_evals_per_level"] = ratio(get("spectra.quantization_f", "calls"),
                                             counts["spectra.levels_solved"])
    out["spectra.errors"] = errors("spectra")
    out["oracle.levels_shot"] = counts["oracle.levels_shot"]
    out["oracle.sweeps_per_level"] = ratio(get("oracle.inward_phase", "calls"),
                                           counts["oracle.levels_shot"])
    out["oracle.numerov_steps"] = counts["oracle.numerov_steps"]
    out["oracle.steps_per_s"] = ratio(counts["oracle.numerov_steps"],
                                      get("oracle.inward_phase", "total_ms") / 1e3)
    out["oracle.shoot.self_ms"] = get("oracle.shoot", "self_ms")
    out["oracle.ode_residual.self_ms"] = get("oracle.ode_residual", "self_ms")
    out["oracle.errors"] = errors("oracle")
    out["cli.main.self_ms"] = get("cli.main", "self_ms")
    out["cli.emit.self_ms"] = get("cli.emit", "self_ms")
    out["cli.startup_ms"] = cli_startup_ms
    out["trace.spans"] = summary["span_count"]
    out["trace.absent_spans"] = len(summary["absent"])
    return out
