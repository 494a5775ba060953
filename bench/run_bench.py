"""kfplab benchmark: generated scenarios driven through the public runner API.

Run from the repository root:

    python3 bench/run_bench.py --workload tail_257 --seed 1 --seconds 30 --trace 0
    python3 bench/run_bench.py --seed 1      # every workload, one process each

Load is a closed loop from one client: the next operation starts only after
the previous one returned and its outputs were checked (run_batch with
workers=1, BLAS pinned to one thread). After one untimed warm-up operation
the client repeats operations until --seconds have passed. An operation is
run_scenario + emit_report per scenario, or one run_batch call, followed by
the output checks of workloads.OutputChecker. setup_s is the median over
the untraced operations' set-ups, topped up with set-up-only passes
(build_problem + compute_constants) to at least MIN_SETUPS samples.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced operations and prints the per-layer metrics,
with trace.overhead_s the difference of their median wall times. Human
readable lines come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. Spans and a result record
with the environment go to .bench_work/.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before anything imports numpy

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
MIN_SETUPS = 5


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _blas_threads(numpy):
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        numpy.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                      None)
        if get is not None:
            return int(get())
    return None


def _commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(numpy),
        "commit": _commit(),
    }


def _run_scenario(runner, path, out_dir):
    """run_scenario + emit_report; a numerical failure leaves no report."""
    from kfplab.errors import NumericalError
    config = runner.ScenarioConfig.from_file(path)
    try:
        bundle = runner.run_scenario(config)
    except NumericalError as exc:       # FittingError included
        print("%s raised %s: %s" % (config.name, type(exc).__name__, exc),
              file=sys.stderr)
        return
    runner.emit_report(bundle, out_dir)


def run_workload(workload, seed, seconds, trace, spec):
    from kfplab import hypo, runner

    tracing.check_wrap_points()
    work = os.path.join(WORK, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    scenarios = workload.scenarios(seed)
    paths, list_path = workloads.write_inputs(scenarios,
                                              os.path.join(work, "inputs"))
    tracer = tracing.Tracer()
    checker = workloads.OutputChecker()

    def operation(op, full):
        out_dir = os.path.join(work, "out", "op%d" % op)
        tracer.op = op
        with tracing.instrumented(tracer, full):
            root = tracer.begin("bench.operation")
            try:
                if workload.batch:
                    runner.run_batch(list_path, out_dir, workers=1)
                else:
                    for path in paths:
                        _run_scenario(runner, path, out_dir)
                check = tracer.begin("bench.check")
                reasons = {sc.name: checker.check(sc, out_dir)
                           for sc in scenarios}
                tracer.end(check)
            finally:
                tracer.end(root)
        for name, why in reasons.items():
            if why:
                print("op %d %s failed: %s" % (op, name, "; ".join(why)),
                      file=sys.stderr)
        return sum(1 for why in reasons.values() if why)

    begun = time.perf_counter()
    warmup_failed = operation(-1, False)
    typical = time.perf_counter() - begun
    ops = []        # (op, traced, failed scenarios)
    start = time.perf_counter()
    # start another operation only if it is expected to end within --seconds
    while len(ops) < (2 if trace else 1) or \
            time.perf_counter() - start + typical <= seconds:
        op = len(ops)
        traced = trace and op % 2 == 1
        ops.append((op, traced, operation(op, traced)))
    # set-up is timed at least MIN_SETUPS times: top up with set-up-only passes
    setup_ops = [op for op, traced, _ in ops if not traced]
    while not trace and len(setup_ops) < MIN_SETUPS:
        setup_ops.append(len(ops) + len(setup_ops))
        tracer.op = setup_ops[-1]
        with tracing.instrumented(tracer, False):
            for path in paths:
                config = runner.ScenarioConfig.from_file(path)
                _, _, eq, built = runner.build_problem(config)
                hypo.compute_constants(eq, built, delta=config.delta,
                                       seed=config.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(ops) * len(scenarios)
    failed = sum(f for _, _, f in ops)
    samples = {}    # metric -> per-operation values
    for op, traced, _ in ops:
        totals = tracer.operation_totals(op)
        wall = totals["bench.operation"][1]
        if traced:
            values = tracer.layer_metrics(op)
            values["trace.wall_s"] = wall
            values["trace.unattributed_s"] = totals["bench.operation"][2]
        else:
            values = {
                "wall_s": wall,
                "sim_time_per_s": tracer.counters[op]["evolution.sim_time"]
                / totals["evolution.run_trajectory"][1],
            }
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    samples["setup_s"] = []
    for op in setup_ops:
        totals = tracer.operation_totals(op)
        samples["setup_s"].append(totals["runner.build_problem"][1]
                                  + totals["hypo.compute_constants"][1])
    samples["peak_rss_mb"] = [peak_rss_mb]
    samples["ok_fraction"] = [(attempted - failed) / attempted]
    if trace:
        samples["trace.overhead_s"] = [
            statistics.median(samples["trace.wall_s"])
            - statistics.median(samples["wall_s"])]

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    print("workload %s seed %d trace %d: %d operations x %d scenarios, "
          "%d failed" % (workload.name, seed, trace, len(ops),
                         len(scenarios), failed))
    metrics = {}
    for entry in listed:
        values = samples[entry["name"]]
        q1, med, q3 = _quartiles(values)
        metrics[entry["name"]] = {"value": med, "unit": entry["unit"]}
        print("  %-27s %12.6g %-9s q1 %.6g q3 %.6g n=%d  %s" % (
            entry["name"], med, entry["unit"], q1, q3, len(values),
            tracing.LAYER_METRICS.get(entry["name"], ("",) * 4)[3]))
    if trace:
        _print_self_times(tracer, [op for op, traced, _ in ops if traced])
    env = environment()
    print("  env: " + ", ".join("%s=%s" % kv for kv in sorted(env.items())))

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                          % (workload.name, seed, trace))
    with open(record, "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "trace": trace,
                   "seconds": seconds, "environment": env,
                   "samples": samples, "spans": tracer.spans,
                   "counters": {str(k): v for k, v in
                                tracer.counters.items()}}, fh)
    return {"correct": failed == 0 and warmup_failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def _print_self_times(tracer, traced_ops):
    """Mean self time per span over the traced operations; rows sum to wall."""
    own = {}
    for op in traced_ops:
        for name, (_, _, self_s) in tracer.operation_totals(op).items():
            own[name] = own.get(name, 0.0) + self_s / len(traced_ops)
    wall = sum(own.values())
    print("  self time per traced operation (mean of %d), total %.4f s:"
          % (len(traced_ops), wall))
    for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        print("    %-36s %10.4f s %5.1f%%" % (name, seconds,
                                              100.0 * seconds / wall))


def run_all(args):
    """Every workload in its own process, so peak RSS belongs to it."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kfplab", "__init__.py")):
        print("error: no kfplab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                          args.seconds, args.trace, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
