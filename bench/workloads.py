"""The benchmark's workloads: generated scenario configs and their expected outcomes.

Every input is a flat key=value config file written by this module; the
workload seed goes into each config's `seed`, which drives the c_M probe
suite. Why each workload exists:

* tail_257 -- the acceptance criterion 8 problem (alpha = beta = 0.5, 257^2,
  X = V = 48, bump datum), one run_scenario + emit_report. Solve-bound on a
  66,049-unknown LU with an algebraic tail, so the fill of the kinetic
  factorization and the step count decide the wall time. It runs dt = 0.25
  instead of the criterion's 0.05 (400 steps instead of 2000) so that one
  operation fits a benchmark run; the fitted exponent still clears 1.7.
* exp_dense -- the criterion 6/9 problem (alpha = beta = 2, 129^2, dt = 0.02,
  t_final = 20) sampled every 2nd step. Exponential regime with dense
  monitoring: stepping, per-step overhead and the H/D diagnostics all take
  a large share, so a solve-only gain is diluted and a per-step or
  per-sample cost shows.
* quadrant_sweep -- one run_batch over the four (alpha, beta) quadrants of
  the test fixtures (65/193 grids) x {kinetic, macro}: the paper's
  classification sweep. Set-up and constants take a large share, macro
  stepping and report I/O are exercised, large kinetic solves do little.
  Exponential cases run short horizons; algebraic cases run long horizons
  at dt = 1 because their fitted exponent only reaches the prediction late.
"""

import csv
import hashlib
import json
import os

# alpha, beta -> grid keys of the matching tests/conftest.py fixture
_QUADRANT_GRIDS = {
    (2.0, 2.0): ("8", "65", "8", "65", "1e-8"),
    (2.0, 0.5): ("8", "65", "48", "193", "1e-5"),
    (0.5, 2.0): ("48", "193", "8", "65", "1e-5"),
    (0.5, 0.5): ("48", "193", "48", "193", "1e-5"),
}

# alpha, beta, mode, dt, t_final, sample_stride, expected paper_case, regime
_SWEEP = [
    (2.0, 2.0, "kinetic", "0.05", "10", "5", "thm2.case1", "exponential"),
    (2.0, 2.0, "macro", "0.05", "10", "5", "table1.poincare", "exponential"),
    (2.0, 0.5, "kinetic", "1.0", "100", "2", "thm2.case2", "algebraic"),
    (2.0, 0.5, "macro", "0.2", "20", "2", "table1.poincare", "exponential"),
    (0.5, 2.0, "kinetic", "1.0", "100", "2", "thm2.case3", "algebraic"),
    (0.5, 2.0, "macro", "1.0", "100", "2", "table1.weighted_poincare",
     "algebraic"),
    (0.5, 0.5, "kinetic", "1.0", "100", "2", "thm2.case4", "algebraic"),
    (0.5, 0.5, "macro", "1.0", "400", "8", "table1.weighted_poincare",
     "algebraic"),
]

ALGEBRAIC_SLACK = 0.3     # fitted exponent >= predicted - 0.3 (criteria 7, 8)
H_MONOTONE_TOL = 1e-8     # H_{n+1} - H_n <= tol * H_0 (criterion 6)


class Scenario:
    """One generated config plus the outcome its report must show."""

    def __init__(self, name, mapping, paper_case, regime, h_monotone=False):
        self.name = name
        self.mapping = mapping
        self.paper_case = paper_case
        self.regime = regime
        self.h_monotone = h_monotone


class Workload:
    """A named set of scenarios; batch workloads go through run_batch."""

    def __init__(self, name, batch, make):
        self.name = name
        self.batch = batch
        self._make = make

    def scenarios(self, seed):
        return self._make(seed)


def _tail_257(seed):
    mapping = {
        "mode": "kinetic", "potential.x_mode": "power",
        "potential.alpha": "0.5", "beta": "0.5",
        "grid.x_half_width": "48", "grid.v_half_width": "48",
        "grid.nx": "257", "grid.nv": "257", "grid.truncation_tol": "1e-5",
        "schedule.dt": "0.25", "schedule.t_final": "100",
        "schedule.sample_stride": "8", "rates.k": "2", "rates.ell": "2",
        "initial.kind": "bump", "initial.epsilon": "0.5", "seed": str(seed),
    }
    return [Scenario("tail_257", mapping, "thm2.case4", "algebraic")]


def _exp_dense(seed):
    mapping = {
        "mode": "kinetic", "potential.x_mode": "power",
        "potential.alpha": "2.0", "beta": "2.0",
        "grid.x_half_width": "8", "grid.v_half_width": "8",
        "grid.nx": "129", "grid.nv": "129",
        "schedule.dt": "0.02", "schedule.t_final": "20",
        "schedule.sample_stride": "2",
        "initial.kind": "bump", "initial.epsilon": "0.5", "seed": str(seed),
    }
    return [Scenario("exp_dense", mapping, "thm2.case1", "exponential",
                     h_monotone=True)]


def _quadrant_sweep(seed):
    out = []
    for alpha, beta, mode, dt, t_final, stride, case, regime in _SWEEP:
        xh, nx, vh, nv, tol = _QUADRANT_GRIDS[(alpha, beta)]
        name = "q_a%g_b%g_%s" % (alpha, beta, mode)
        mapping = {
            "mode": mode, "potential.x_mode": "power",
            "potential.alpha": repr(alpha), "beta": repr(beta),
            "grid.x_half_width": xh, "grid.nx": nx,
            "grid.v_half_width": vh, "grid.nv": nv,
            "grid.truncation_tol": tol, "schedule.dt": dt,
            "schedule.t_final": t_final, "schedule.sample_stride": stride,
            "seed": str(seed),
        }
        out.append(Scenario(name, mapping, case, regime))
    return out


WORKLOADS = {w.name: w for w in (
    Workload("tail_257", False, _tail_257),
    Workload("exp_dense", False, _exp_dense),
    Workload("quadrant_sweep", True, _quadrant_sweep),
)}


def write_inputs(scenarios, directory):
    """Write one <name>.cfg per scenario and a batch list; return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for sc in scenarios:
        path = os.path.join(directory, sc.name + ".cfg")
        with open(path, "w") as fh:
            fh.write("name = %s\n" % sc.name)
            for key in sorted(sc.mapping):
                fh.write("%s = %s\n" % (key, sc.mapping[key]))
        paths.append(path)
    list_path = os.path.join(directory, "batch.list")
    with open(list_path, "w") as fh:
        fh.write("".join(os.path.basename(p) + "\n" for p in paths))
    return paths, list_path


class OutputChecker:
    """Checks one scenario's CSV/JSON pair; remembers digests across operations."""

    def __init__(self):
        self._digests = {}

    def check(self, scenario, out_dir):
        """Return the reasons the outputs fail (an empty list means they pass)."""
        json_path = os.path.join(out_dir, scenario.name + ".json")
        csv_path = os.path.join(out_dir, scenario.name + ".csv")
        if not (os.path.isfile(json_path) and os.path.isfile(csv_path)):
            return ["report files missing"]
        with open(json_path, "rb") as fh:
            json_bytes = fh.read()
        with open(csv_path, "rb") as fh:
            csv_bytes = fh.read()
        summary = json.loads(json_bytes)
        reasons = []
        if summary.get("status") != "ok":
            reasons.append("status %r: %s" % (summary.get("status"),
                                              summary.get("error")))
        if summary.get("paper_case") != scenario.paper_case:
            reasons.append("paper_case %r" % summary.get("paper_case"))
        if summary.get("regime") != scenario.regime:
            reasons.append("regime %r" % summary.get("regime"))
        fitted = summary.get("fitted_value")
        if scenario.regime == "algebraic":
            floor = summary["predicted_exponent_or_rate"] - ALGEBRAIC_SLACK
        else:
            floor = summary["constants"]["lambda_rate"]
        if fitted is None or not fitted >= floor:
            reasons.append("fitted %s below %.6g" % (fitted, floor))
        rows = list(csv.DictReader(csv_bytes.decode().splitlines()))
        if not rows or any(r["max_principle_ok"] != "1" for r in rows):
            reasons.append("max principle violated or no samples")
        if scenario.h_monotone and rows:
            h = [float(r["entropy_H"]) for r in rows]
            if any(b - a > H_MONOTONE_TOL * h[0] for a, b in zip(h, h[1:])):
                reasons.append("H not monotone")
        digest = hashlib.sha256(csv_bytes + b"\0" + json_bytes).hexdigest()
        previous = self._digests.setdefault(scenario.name, digest)
        if digest != previous:
            reasons.append("CSV/JSON differ from the previous operation")
        return reasons
