"""The benchmark's wrap points still see the calls they are meant to count.

bench/tracing.py wraps module attributes at kfplab's call sites and proxies
every `splu` a kfplab module holds. A refactor that calls around a wrap point
keeps the suite green but silently changes the traced per-layer metrics, so
this test runs a small kinetic trajectory under the full instrumentation and
checks the counts the benchmark relies on.
"""

import importlib.util
import os

from kfplab import evolution, initial_bump

from conftest import make_problem

_TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("kfplab_bench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_kinetic_run_counts_every_wrap_point():
    tracing = _load_tracing()
    tracing.check_wrap_points()
    _, _, eq, ops = make_problem("power", 2.0, 8.0, 33, 8.0, 33, alpha=2.0)
    f0 = initial_bump(eq, 0.5)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, full=True):
        rec = evolution.run_trajectory(f0, (0.05, 1.0, 4), "kinetic", eq, ops,
                                       delta=0.3)
    samples = rec.times.size
    assert samples == 6                 # t = 0, 0.2, ..., 1.0
    metrics = tracer.layer_metrics(tracer.op)
    assert metrics["hypo.samples"] == samples
    assert metrics["evolution.factorizations"] == 1
    # entropy_H one elliptic solve, dissipation_components four
    assert metrics["operators.elliptic_solves"] == 5 * samples
