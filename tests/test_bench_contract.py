"""The benchmark's wrap points still see the calls they are meant to count.

bench/tracing.py wraps module attributes at kfplab's call sites and proxies
every `splu` a kfplab module holds. A refactor that calls around a wrap point
keeps the suite green but silently changes the traced per-layer metrics, so
these tests run a small kinetic trajectory and a small scenario with its
reports under the full instrumentation and check the counts the benchmark
relies on.
"""

import importlib.util
import os

from kfplab import evolution, initial_bump, runner

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
    # 15 steps on 33^2, fewer than a basis cap: the run steps
    with tracing.instrumented(tracer, full=True):
        rec = evolution.run_trajectory(f0, (0.05, 0.75, 3), "kinetic", eq,
                                       ops, delta=0.3)
    samples = rec.times.size
    assert samples == 6                 # t = 0, 0.15, ..., 0.75
    metrics = tracer.layer_metrics(tracer.op)
    # the benchmark still wraps the old entry points entropy_H and
    # dissipation_components, which the sampler no longer calls
    assert metrics["hypo.samples"] == 0
    assert metrics["evolution.factorizations"] == 1
    # each sample a one-row window: one entropy_and_dissipation_from call
    # and one elliptic solve with four right-hand sides
    assert metrics["operators.elliptic_solves"] == samples
    # the bump datum is even: only the even sector is factored and solved
    even = evolution.sector_lu(evolution.sector_generators(ops, [1])[1], 0.05,
                               "implicit_euler")[0]
    assert metrics["evolution.lu_fill"] == even.L.nnz + even.U.nnz
    assert metrics["evolution.solves_per_step"] == 1.0


def test_traced_scenario_counts_steps_time_and_report_bytes(tmp_path):
    # the hooks after run_trajectory and emit_report read the record's
    # times and the returned report paths
    tracing = _load_tracing()
    config = runner.ScenarioConfig({
        "name": "traced", "potential.alpha": "2.0",
        "grid.nx": "33", "grid.nv": "33",
        "schedule.dt": "0.05", "schedule.t_final": "5.0",
        "schedule.sample_stride": "5"})
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, full=True):
        bundle = runner.run_scenario(config)
        paths = runner.emit_report(bundle, str(tmp_path))
    assert bundle.status == "ok"
    metrics = tracer.layer_metrics(tracer.op)
    assert metrics["evolution.steps"] == 100          # t_final / dt
    assert tracer.counters[tracer.op]["evolution.sim_time"] == 5.0
    assert metrics["runner.report_bytes"] == sum(os.path.getsize(p)
                                                 for p in paths)


def test_traced_batch_builds_each_problem_once(tmp_path):
    # three configs, two of which describe one problem: two set-ups, whose
    # c_M comes from exact norms and makes no probe, and three scenario runs
    tracing = _load_tracing()
    text = ("potential.alpha = 2.0\ngrid.nx = 33\ngrid.nv = 33\n"
            "schedule.dt = 0.05\nschedule.t_final = 2.0\n"
            "schedule.sample_stride = 5\n")
    texts = {"kin.cfg": text,
             "mac.cfg": text + "mode = macro\n",
             "nv.cfg": text + "grid.nv = 17\n"}
    for name, body in texts.items():
        (tmp_path / name).write_text(body)
    list_path = tmp_path / "batch.txt"
    list_path.write_text("".join(name + "\n" for name in texts))
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, full=True):
        runner.run_batch(str(list_path), str(tmp_path / "out"), workers=1)
    totals = tracer.operation_totals(tracer.op)
    assert totals["runner.build_problem"][0] == 2
    assert totals["hypo.compute_constants"][0] == 2
    assert totals["runner.run_scenario"][0] == 3
    assert tracer.layer_metrics(tracer.op)["hypo.cM_probes"] == 0


def test_traced_krylov_run_factors_once_and_solves_less_than_it_steps():
    # 400 implicit-Euler steps on 65^2 are more than a basis cap: the run
    # samples from the one factor of I - gamma G (gamma = 1/4, the bump's
    # shift at dt = 0.05) and makes fewer solves than steps, while sampling
    # as often as stepping would
    tracing = _load_tracing()
    _, _, eq, ops = make_problem("power", 2.0, 8.0, 65, 8.0, 65, alpha=2.0)
    f0 = initial_bump(eq, 0.5)
    dt = 0.05
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, full=True):
        rec = evolution.run_trajectory(f0, (dt, 20.0, 10), "kinetic", eq,
                                       ops, delta=0.3)
    samples = rec.times.size
    assert samples == 41                # t = 0, 0.5, ..., 20
    metrics = tracer.layer_metrics(tracer.op)
    assert metrics["evolution.factorizations"] == 1
    assert metrics["evolution.solves"] < metrics["evolution.steps"] == 400
    # the benchmark still wraps the old entry points
    assert metrics["hypo.samples"] == 0
    # the initial sample, the first window's 22 samples (32 vectors) formed
    # one by one, and one solve for the second window (18 vectors, 18
    # samples), read in its basis
    assert metrics["operators.elliptic_solves"] == 1 + 22 + 1
    even = evolution.sector_lu(evolution.sector_generators(ops, [1])[1], 0.25,
                               "implicit_euler")[0]
    assert metrics["evolution.lu_fill"] == even.L.nnz + even.U.nnz


def test_traced_basis_windows_make_one_elliptic_solve_each(monkeypatch):
    # the exp_dense run (129^2, 1000 steps sampled every 2nd): both of its
    # windows (40 vectors for 457 samples, 6 for 43) read their samples
    # in their basis, each with one elliptic solve of 4m right-hand sides;
    # the initial sample, a one-row window, makes one, and a sample whose
    # combined residual failed the 1e-10 check would add one more (none
    # does here)
    tracing = _load_tracing()
    _, _, eq, ops = make_problem("power", 2.0, 8.0, 129, 8.0, 129,
                                 alpha=2.0)
    f0 = initial_bump(eq, 0.5)
    windows = []
    real_window = evolution._WindowSampler.window

    def recording(self, sign, basis, coeffs):
        windows.append(coeffs.shape)
        return real_window(self, sign, basis, coeffs)

    monkeypatch.setattr(evolution._WindowSampler, "window", recording)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer, full=True):
        rec = evolution.run_trajectory(f0, (0.02, 20.0, 2), "kinetic", eq,
                                       ops, delta=0.3)
    assert rec.times.size == 501
    assert windows == [(1, 1), (40, 457), (6, 43)]
    metrics = tracer.layer_metrics(tracer.op)
    assert metrics["evolution.factorizations"] == 1
    assert metrics["evolution.solves"] == 46
    assert metrics["hypo.samples"] == 0
    # 1 initial + 2 windows + 0 re-solves, against 501 before
    assert metrics["operators.elliptic_solves"] == 1 + 2 + 0
