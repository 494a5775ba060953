"""Spans and counters recorded around kfplab's public entry points.

The benchmark does not edit kfplab. It swaps module attributes at their call
sites for wrappers that open a span, call through and close the span, and it
puts every `splu` a kfplab module holds behind a proxy that records each
factorization (with its L.nnz + U.nnz fill) and each solve. Spans stay in
memory as [name, start, end, parent, operation] and are written out when the
run ends. A wrap point that no longer exists raises WrapPointMissing.
"""

import contextlib
import functools
import importlib
import os
import sys
import time

_clock = time.perf_counter

# (module, attribute, span name). COARSE points are wrapped in every run, a
# few calls per scenario; the rest only in a traced run.
COARSE = [
    ("runner", "build_problem", "runner.build_problem"),
    ("hypo", "compute_constants", "hypo.compute_constants"),
    ("evolution", "run_trajectory", "evolution.run_trajectory"),
]
FULL = COARSE + [
    ("runner", "run_scenario", "runner.run_scenario"),
    ("runner", "build_equilibrium", "equilibria.build_equilibrium"),
    ("runner", "assemble", "operators.assemble"),
    ("hypo", "bounded_auxiliary_ratio", "hypo.bounded_auxiliary_ratio"),
    ("spectral", "pencil_min_eig", "spectral.pencil_min_eig"),
    ("operators", "solve_elliptic", "operators.solve_elliptic"),
    ("evolution", "entropy_H", "hypo.entropy_H"),
    ("evolution", "dissipation_components", "hypo.dissipation_components"),
    ("rates", "fit_rate_with_sensitivity", "rates.fit_rate_with_sensitivity"),
    ("runner", "emit_report", "runner.emit_report"),
]
# modules whose `splu` is proxied; the module name tags the spans
SPLU_HOLDERS = ("evolution", "operators", "spectral")

# Which end-to-end metric a layer should move, on the workload where it
# matters most and on the one where it matters least.
_SOLVE = "wall_s, sim_time_per_s, peak_rss_mb | mostly tail_257 | little quadrant_sweep"
_STEP = "sim_time_per_s | mostly exp_dense | little quadrant_sweep"
_SAMPLE = "wall_s | mostly exp_dense | little tail_257"
_CONSTANTS = "setup_s | mostly quadrant_sweep | little tail_257"
_REPORT = "wall_s | mostly quadrant_sweep | little tail_257"

# Per-layer metric -> (unit, kind, source, mapping). kind is "time" (summed
# span durations), "calls" (span count), "self" (span minus its children),
# "counter" or "ratio" (of two metrics listed before it).
LAYER_METRICS = {
    "evolution.solve_s": ("s", "time", ["evolution.lu_solve"], _SOLVE),
    "evolution.solves": ("count", "calls", ["evolution.lu_solve"], _SOLVE),
    "evolution.factor_s": ("s", "time", ["evolution.splu"], _SOLVE),
    "evolution.factorizations": ("count", "calls", ["evolution.splu"], _SOLVE),
    "evolution.lu_fill": ("count", "counter", "evolution.lu_fill", _SOLVE),
    "evolution.steps": ("count", "counter", "evolution.steps", _STEP),
    "evolution.solves_per_step": ("ratio", "ratio",
                                  ("evolution.solves", "evolution.steps"),
                                  _STEP),
    "evolution.step_self_s": ("s", "self", ["evolution.run_trajectory"],
                              _STEP),
    "hypo.samples": ("count", "calls", ["hypo.entropy_H"], _SAMPLE),
    "hypo.sample_s": ("s", "time",
                      ["hypo.entropy_H", "hypo.dissipation_components"],
                      _SAMPLE),
    "operators.elliptic_solves": ("count", "calls",
                                  ["operators.solve_elliptic"], _SAMPLE),
    "operators.elliptic_s": ("s", "time", ["operators.solve_elliptic"],
                             _SAMPLE),
    "hypo.constants_s": ("s", "time", ["hypo.compute_constants"],
                         _CONSTANTS),
    "hypo.cM_probes": ("count", "calls", ["hypo.bounded_auxiliary_ratio"],
                       _CONSTANTS),
    "hypo.cM_probe_s": ("s", "time", ["hypo.bounded_auxiliary_ratio"],
                        _CONSTANTS),
    "spectral.pencil_calls": ("count", "calls", ["spectral.pencil_min_eig"],
                              _CONSTANTS),
    "spectral.pencil_s": ("s", "time", ["spectral.pencil_min_eig"],
                          _CONSTANTS),
    "equilibria.build_s": ("s", "time", ["equilibria.build_equilibrium"],
                           _CONSTANTS),
    "operators.assemble_s": ("s", "time", ["operators.assemble"],
                             _CONSTANTS),
    "rates.fit_s": ("s", "time", ["rates.fit_rate_with_sensitivity"],
                    _REPORT),
    "runner.report_s": ("s", "time", ["runner.emit_report"], _REPORT),
    "runner.report_bytes": ("bytes", "counter", "runner.report_bytes",
                            _REPORT),
    "runner.scenario_s": ("s", "time", ["runner.run_scenario"], _REPORT),
}


class WrapPointMissing(RuntimeError):
    """A kfplab entry point the benchmark wraps no longer exists."""


class Tracer:
    """In-memory spans and per-operation counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.op = -1
        self._stack = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = _clock()
        self._stack.pop()

    def count(self, key, value):
        ops = self.counters.setdefault(self.op, {})
        ops[key] = ops.get(key, 0) + value

    def call(self, name, fn, args, kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def operation_totals(self, op):
        """{span name: (calls, total seconds, self seconds)} for one operation."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, span_op) in enumerate(self.spans):
            if span_op != op:
                continue
            calls, total, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, total + end - start,
                            own + end - start - child[i])
        return totals

    def layer_metrics(self, op):
        """The LAYER_METRICS values of one operation."""
        totals = self.operation_totals(op)
        counters = self.counters.get(op, {})
        out = {}
        for name, (_, kind, source, _) in LAYER_METRICS.items():
            if kind == "counter":
                out[name] = counters.get(source, 0)
            elif kind == "ratio":
                num, den = (out[source[0]], out[source[1]])
                out[name] = num / den if den else 0.0
            else:
                column = {"calls": 0, "time": 1, "self": 2}[kind]
                out[name] = sum(totals.get(s, (0, 0.0, 0.0))[column]
                                for s in source)
        return out


class _TracedLU:
    """SuperLU stand-in that records each solve as a span."""

    def __init__(self, lu, tracer, name):
        self._lu = lu
        self._tracer = tracer
        self._name = name

    def solve(self, *args, **kwargs):
        return self._tracer.call(self._name, self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        after = _AFTER.get(name)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return wrapper


def _wrap_splu(tracer, tag, splu):
    @functools.wraps(splu)
    def wrapper(*args, **kwargs):
        lu = tracer.call(tag + ".splu", splu, args, kwargs)
        index = tracer.begin("trace.lu_fill")
        tracer.count(tag + ".lu_fill", lu.L.nnz + lu.U.nnz)
        tracer.end(index)
        return _TracedLU(lu, tracer, tag + ".lu_solve")
    return wrapper


def _after_trajectory(tracer, args, kwargs, record):
    # steps the schedule asks for; solves / steps is the refinement ratio
    dt, t_final = (kwargs["schedule"] if "schedule" in kwargs else args[1])[:2]
    tracer.count("evolution.steps", int(round(float(t_final) / float(dt))))
    tracer.count("evolution.sim_time",
                 float(record.times[-1] - record.times[0]))


def _after_report(tracer, args, kwargs, paths):
    tracer.count("runner.report_bytes", sum(os.path.getsize(p) for p in paths))


_AFTER = {
    "evolution.run_trajectory": _after_trajectory,
    "runner.emit_report": _after_report,
}


def _module(name):
    return importlib.import_module("kfplab." + name)


def check_wrap_points():
    """Raise WrapPointMissing unless every wrap point still exists and the
    kfplab modules holding scipy's splu are exactly SPLU_HOLDERS."""
    from scipy.sparse.linalg import splu
    missing = ["kfplab.%s.%s" % (m, a) for m, a, _ in FULL
               if not callable(getattr(_module(m), a, None))]
    holders = sorted(name[len("kfplab."):] for name, module
                     in list(sys.modules.items())
                     if name.startswith("kfplab.")
                     and getattr(module, "splu", None) is splu)
    if missing or holders != sorted(SPLU_HOLDERS):
        raise WrapPointMissing(
            "benchmark wrap points changed: missing %s; splu held by %s, "
            "expected %s" % (missing, holders, sorted(SPLU_HOLDERS)))


@contextlib.contextmanager
def instrumented(tracer, full):
    """Wrap the COARSE points (all points and splu when full) while inside."""
    saved = []
    try:
        for mod, attr, name in (FULL if full else COARSE):
            module = _module(mod)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original))
        for mod in (SPLU_HOLDERS if full else ()):
            module = _module(mod)
            saved.append((module, "splu", module.splu))
            module.splu = _wrap_splu(tracer, mod, module.splu)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
