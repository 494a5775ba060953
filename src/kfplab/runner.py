"""Scenario configuration, orchestration, and report emission.

A scenario is a flat key=value text file (diff-friendly, no nesting):

    name                 = case1
    mode                 = kinetic            # or macro
    potential.x_mode     = power              # power | logarithmic | zero
    potential.alpha      = 2.0                # (or potential.gamma)
    beta                 = 2.0
    grid.x_half_width    = 8
    grid.v_half_width    = 8
    grid.nx              = 129
    grid.nv              = 129
    grid.truncation_tol  = 1e-8
    schedule.dt          = 0.02
    schedule.t_final     = 20
    schedule.sample_stride = 10
    delta                = auto               # or a number in (0, delta_star)
    moments.x            = 2                  # comma-separated powers
    moments.v            = 2
    rates.k              = 2                  # classification parameters
    rates.ell            = 2
    initial.kind         = bump               # bump | odd_v | shifted_gaussian
    initial.epsilon      = 0.5                #   | macro_gaussian | macro_bump
    seed                 = 1234
    output_dir           = out

Reports: one CSV trajectory (columns exactly t, norm_sq_mu, entropy_H,
dissipation_D, envelope, J_<k>..., K_<l>..., max_principle_ok) and one JSON
summary per scenario; batch mode adds an index file. All outputs are
deterministic for a fixed (config, seed).

A config describes a problem (potential, grids, truncation_tol and delta:
what build_problem and compute_constants read) and a run on it.
run_batch builds and certifies each distinct problem once and runs every
config that describes it on that one problem.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import evolution, hypo, rates, spectral
from .equilibria import PotentialSpec, build_equilibrium
from .errors import NumericalError, ValidationError
from .grids import Grid1D, PhaseGrid
from .operators import assemble

# initial.kind -> the mode whose state it generates
_INITIAL_KINDS = {"bump": "kinetic", "odd_v": "kinetic",
                  "shifted_gaussian": "kinetic", "macro_gaussian": "macro",
                  "macro_bump": "macro"}


def parse_config_text(text):
    """Flat key=value lines; '#' starts a comment; later keys win."""
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValidationError("config line %d has no '=': %r" % (lineno, line))
        key, value = body.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


_KNOWN_KEYS = frozenset([
    "name", "mode", "potential.x_mode", "potential.alpha", "potential.gamma",
    "beta", "grid.x_half_width", "grid.v_half_width", "grid.nx", "grid.nv",
    "grid.truncation_tol", "schedule.dt", "schedule.t_final",
    "schedule.sample_stride", "delta", "moments.x", "moments.v", "rates.k",
    "rates.ell", "initial.kind", "initial.epsilon", "initial.center_x",
    "initial.center_v", "initial.width", "initial.clip_factor", "initial.s0",
    "scheme", "seed", "output_dir",
])


def _parse_number(key, text, kind):
    """kind(text) for a config value, finite; ValidationError names the key."""
    try:
        value = kind(str(text))
    except ValueError:
        raise ValidationError("%s = %r is not %s" % (
            key, text, "an integer" if kind is int else "a number"))
    if kind is float and not np.isfinite(value):
        raise ValidationError("%s = %r is not finite" % (key, text))
    return value


class ScenarioConfig:
    """Validated scenario description; .raw echoes the source mapping."""

    def __init__(self, mapping, name=None):
        raw = dict(mapping)
        unknown = sorted(set(raw) - _KNOWN_KEYS)
        if unknown:
            raise ValidationError("unknown config keys: %s" % ", ".join(unknown))
        self.raw = raw
        get = raw.get

        def number(key, default, kind=float):
            text = get(key)
            return default if text is None else _parse_number(key, text, kind)

        def numbers(key, default):
            items = [p.strip() for p in str(get(key, default)).split(",")]
            return tuple(_parse_number(key, p, float) for p in items if p)

        self.name = str(get("name", name or "scenario"))
        if self.name in ("", ".", "..") or "/" in self.name \
                or os.sep in self.name:
            raise ValidationError("name = %r must be a plain file name: not "
                                  "empty, '.' or '..', and without a path "
                                  "separator" % self.name)
        self.mode = str(get("mode", "kinetic"))
        if self.mode not in ("kinetic", "macro"):
            raise ValidationError("mode must be 'kinetic' or 'macro'")

        x_mode = str(get("potential.x_mode", "power"))
        self.beta = number("beta", 2.0)
        self.potential = PotentialSpec(
            x_mode, self.beta,
            alpha=number("potential.alpha", None),
            gamma=number("potential.gamma", None))

        self.x_half_width = number("grid.x_half_width", 8.0)
        self.v_half_width = number("grid.v_half_width", 8.0)
        self.nx = number("grid.nx", 129, int)
        self.nv = number("grid.nv", 129, int)
        if self.nx % 2 == 0 or self.nv % 2 == 0:
            raise ValidationError("grid.nx and grid.nv must be odd")
        self.truncation_tol = number("grid.truncation_tol", 1e-8)

        self.dt = number("schedule.dt", 0.02)
        self.t_final = number("schedule.t_final", 10.0)
        self.sample_stride = number("schedule.sample_stride", 10, int)
        if self.dt <= 0 or self.t_final <= self.dt or self.sample_stride < 1:
            raise ValidationError("schedule must satisfy dt > 0, "
                                  "t_final > dt, sample_stride >= 1")
        evolution.step_count(self.dt, self.t_final)

        auto_delta = str(get("delta", "auto")) == "auto"
        self.delta = None if auto_delta else number("delta", None)

        self.moments_x = numbers("moments.x", "2")
        default_mv = "" if self.mode == "macro" else "2"
        self.moments_v = numbers("moments.v", default_mv)
        if self.mode == "macro" and self.moments_v:
            raise ValidationError("moments.v is kinetic-only; macro runs "
                                  "have no velocity moments")

        self.rates_k = number("rates.k",
                              self.moments_x[0] if self.moments_x else 2.0)
        self.rates_ell = number("rates.ell",
                                self.moments_v[0] if self.moments_v else 2.0)

        self.initial_kind = str(get("initial.kind",
                                    "bump" if self.mode == "kinetic"
                                    else "macro_bump"))
        if self.initial_kind not in _INITIAL_KINDS:
            raise ValidationError("unknown initial.kind %r" % self.initial_kind)
        if _INITIAL_KINDS[self.initial_kind] != self.mode:
            raise ValidationError("initial.kind = %s is for mode = %s, not %s"
                                  % (self.initial_kind,
                                     _INITIAL_KINDS[self.initial_kind],
                                     self.mode))
        self.initial_epsilon = number("initial.epsilon", 0.5)
        self.initial_center = (number("initial.center_x", 0.5),
                               number("initial.center_v", 0.5))
        self.initial_width = number("initial.width", 1.0)
        self.initial_clip_factor = number("initial.clip_factor", 4.0)
        self.initial_s0 = number("initial.s0", 2.0)

        self.scheme = str(get("scheme", "implicit_euler"))
        if self.mode == "macro" and self.scheme != "implicit_euler":
            raise ValidationError("scheme = %s is kinetic-only; macro runs "
                                  "use implicit_euler" % self.scheme)
        self.seed = number("seed", 0, int)
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        self.output_dir = str(get("output_dir", "out"))

    @classmethod
    def from_file(cls, path):
        with open(path, "r") as fh:
            mapping = parse_config_text(fh.read())
        stem = os.path.splitext(os.path.basename(path))[0]
        return cls(mapping, name=stem)

    def override(self, dt=None, t_final=None, output_dir=None):
        raw = dict(self.raw)
        if dt is not None:
            raw["schedule.dt"] = repr(float(dt))
        if t_final is not None:
            raw["schedule.t_final"] = repr(float(t_final))
        if output_dir is not None:
            raw["output_dir"] = str(output_dir)
        return ScenarioConfig(raw, name=self.name)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def build_problem(config):
    """Equilibrium and operators for a config: (spec, grid, eq, ops)."""
    spec = config.potential
    grid = PhaseGrid(Grid1D(config.x_half_width, config.nx),
                     Grid1D(config.v_half_width, config.nv))
    eq = build_equilibrium(spec, grid, truncation_tol=config.truncation_tol)
    ops = assemble(eq)
    return spec, grid, eq, ops


def certified_problem(config):
    """(spec, grid, eq, ops, constants): build_problem(config) and its
    hypocoercivity constants, the set-up every run on the problem shares."""
    spec, grid, eq, ops = build_problem(config)
    constants = hypo.compute_constants(eq, ops, delta=config.delta)
    return spec, grid, eq, ops, constants


def problem_key(config):
    """What build_problem and compute_constants read from a config: configs
    with equal keys describe one problem."""
    spec = config.potential
    return (spec.x_mode, spec.alpha, spec.gamma, spec.beta,
            config.x_half_width, config.nx, config.v_half_width, config.nv,
            config.truncation_tol, config.delta)


def make_initial_state(config, eq):
    """The initial state of config.initial_kind, which suits config.mode."""
    kind = config.initial_kind
    if kind == "macro_gaussian":
        return evolution.initial_macro_gaussian(eq.grid.x_grid,
                                                config.initial_s0)
    if kind == "macro_bump":
        return evolution.initial_macro_bump(eq, config.initial_epsilon)
    if kind == "bump":
        return evolution.initial_bump(eq, config.initial_epsilon)
    if kind == "odd_v":
        return evolution.initial_odd_v(eq, config.initial_epsilon)
    return evolution.initial_shifted_gaussian(
        eq, config.initial_center, config.initial_width,
        config.initial_clip_factor)


class ReportBundle:
    """Everything run_scenario produced: summary dict, record, status.

    A failed bundle carries the record as far as it got (the partial record
    of an aborted trajectory), or None when no sample was taken.
    """

    def __init__(self, config, summary, record, status):
        self.config = config
        self.summary = summary
        self.record = record
        self.status = status


def _envelope(record, prediction, delta, mode):
    """The theoretical norm_sq envelope over record.times.

    Kinetic exponential regime: (4/(2-delta)) H0 e^{-lambda t}, valid from
    t = 0 by the entropy sandwich; macro exponential: norm0 e^{-rate t}.
    Algebraic regime: C (1+t)^{-zeta} anchored at the default fitting-window
    start (the theorems are asymptotic; domination is asserted beyond the
    window start only).
    """
    t = record.times
    if prediction.regime == "exponential":
        if mode == "macro":
            return record.norm_sq_mu[0] * np.exp(-prediction.rate * t)
        h0 = record.entropy_H[0]
        return (4.0 / (2.0 - delta)) * h0 * np.exp(-prediction.rate * t)
    zeta = prediction.exponent
    lo = rates.default_window(record)[0]
    idx = int(np.searchsorted(t, lo - 1e-12))
    idx = min(idx, t.size - 1)
    c_anchor = record.norm_sq_mu[idx] * (1.0 + t[idx]) ** zeta
    return c_anchor * (1.0 + t) ** (-zeta)


def run_scenario(config, problem=None):
    """Build, evolve, fit, classify; returns a ReportBundle (never raises for
    a numerical failure of the trajectory, its envelope or its fit -- those
    produce a 'failed' bundle with the record as far as it got).

    problem is the certified_problem of a config with the same problem_key,
    or None to build it here. The run leaves the problem's operators as it
    found them, so runs can share one problem.

    The predicted macro exponential rate is 2 sigma_normalized lambda, with
    lambda the smallest nonzero eigenvalue of the pencil (Sx_macro, wx
    rho_star): the exact decay rate of the squared norm under the
    semi-discrete flow the run steps.
    """
    if problem is None:
        problem = certified_problem(config)
    spec, grid, eq, ops, constants = problem
    dynamics = "macro" if config.mode == "macro" else "kinetic"
    if dynamics == "macro":
        rate_hint = None
        if spec.x_mode == "power" and spec.alpha >= 1.0:
            m = grid.x_grid.weights * eq.rho_star.values
            rate_hint = (2.0 * eq.sigma_normalized
                         * spectral.pencil_min_eig(ops.Sx_macro, m, m))
    else:
        rate_hint = constants.lambda_rate
    prediction = rates.classify_regime(spec, k=config.rates_k,
                                       ell=config.rates_ell, d=1,
                                       dynamics=dynamics, rate=rate_hint)
    f0 = make_initial_state(config, eq)
    schedule = (config.dt, config.t_final, config.sample_stride)

    base_summary = {
        "name": config.name,
        "mode": config.mode,
        "regime": prediction.regime,
        "paper_case": prediction.source,
        "predicted_exponent_or_rate": (prediction.rate
                                       if prediction.regime == "exponential"
                                       else prediction.exponent),
        "constants": dict(constants.to_dict(), sigma=eq.sigma),
        "sigma_normalized": eq.sigma_normalized,
        "c_M_parts": constants.c_M_parts,
        "grid": {"x_half_width": config.x_half_width,
                 "v_half_width": config.v_half_width,
                 "nx": config.nx, "nv": config.nv,
                 "truncation_tol": config.truncation_tol},
        "schedule": {"dt": config.dt, "t_final": config.t_final,
                     "sample_stride": config.sample_stride},
        "initial_data": {"kind": config.initial_kind,
                         "epsilon": config.initial_epsilon,
                         "seed": config.seed},
        "moment_powers": {"x": list(config.moments_x),
                          "v": list(config.moments_v)},
        "seed": config.seed,
        "config_echo": dict(config.raw),
    }

    record = None
    try:
        record = evolution.run_trajectory(
            f0, schedule, config.mode, eq, ops, delta=constants.delta,
            moment_powers=(config.moments_x, config.moments_v),
            scheme=config.scheme)
        record.envelope = _envelope(record, prediction, constants.delta,
                                    config.mode)
        fit = rates.fit_rate_with_sensitivity(record, prediction.regime)
    except NumericalError as exc:
        summary = dict(base_summary)
        summary.update({
            "status": "failed",
            "error": str(exc),
            "last_good_time": getattr(exc, "last_good_time", None),
            "fitted_value": None, "r_squared": None,
        })
        return ReportBundle(config, summary,
                            getattr(exc, "partial_record", record), "failed")

    summary = dict(base_summary)
    summary.update({
        "status": "ok",
        "fitted_value": fit["value"],
        "r_squared": fit["r_squared"],
        "fit_window": list(fit["window"]),
        "fit_sensitivity": {"window_30": fit["value_window_30"],
                            "window_70": fit["value_window_70"]},
    })
    return ReportBundle(config, summary, record, "ok")


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _fmt(x):
    return repr(float(x))


def _moment_columns(config):
    """[(column, power)] of the x- and v-moments: sorted, distinct powers."""
    return ([("J_%g" % p, p) for p in sorted(set(config.moments_x))],
            [("K_%g" % p, p) for p in sorted(set(config.moments_v))])


def _write_json(path, payload):
    """payload as sorted, indented JSON (non-finite floats as null)."""
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if not np.isfinite(x) else x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def emit_report(bundle, out_dir):
    """Write <name>.csv and <name>.json; returns (csv_path, json_path)."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, bundle.config.name + ".csv")
    json_path = os.path.join(out_dir, bundle.config.name + ".json")

    record = bundle.record
    j_cols, k_cols = _moment_columns(bundle.config)
    header = (["t", "norm_sq_mu", "entropy_H", "dissipation_D", "envelope"]
              + [c for c, _ in j_cols] + [c for c, _ in k_cols]
              + ["max_principle_ok"])
    lines = [",".join(header)]
    for i, t in enumerate(record.times if record is not None else ()):
        row = [_fmt(t), _fmt(record.norm_sq_mu[i]),
               _fmt(record.entropy_H[i]), _fmt(record.dissipation_D[i]),
               _fmt(record.envelope[i])]
        row += [_fmt(record.moments_J[p][i]) for _, p in j_cols]
        row += [_fmt(record.moments_K[p][i]) for _, p in k_cols]
        row.append(str(int(record.max_principle_ok[i])))
        lines.append(",".join(row))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    _write_json(json_path, dict(bundle.summary,
                                csv_path=os.path.basename(csv_path)))
    return csv_path, json_path


def emit_constants_report(config, out_dir):
    """The `constants` command: constants bundle only, no evolution."""
    _, _, eq, _, constants = certified_problem(config)
    payload = {
        "name": config.name,
        "constants": dict(constants.to_dict(), sigma=eq.sigma),
        "sigma_normalized": eq.sigma_normalized,
        "c_M_parts": constants.c_M_parts,
        "z_constant": eq.z_constant,
        "transport_integrals": hypo.transport_coefficient_integrals(eq),
        "grid": {"x_half_width": config.x_half_width,
                 "v_half_width": config.v_half_width,
                 "nx": config.nx, "nv": config.nv},
        "config_echo": dict(config.raw),
    }
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, config.name + "_constants.json")
    _write_json(json_path, payload)
    return json_path


# ---------------------------------------------------------------------------
# batch execution
# ---------------------------------------------------------------------------

def _error_entry(path, exc):
    status = ("invalid" if isinstance(exc, ValidationError)
              else "failed" if isinstance(exc, NumericalError) else "io_error")
    return {"config": path, "json": None, "status": status, "error": str(exc)}


_ENTRY_ERRORS = (ValidationError, NumericalError, OSError)
_INDEX_NAME = "batch_index"     # the index is <out>/batch_index.json


def _run_group(args):
    """Index entries of configs that share one problem, built and certified
    once; when it cannot be, every config gets that error."""
    members, out_dir = args
    try:
        problem = certified_problem(members[0][1])
    except _ENTRY_ERRORS as exc:
        return [_error_entry(path, exc) for path, _ in members]
    entries = []
    for path, config in members:
        try:
            bundle = run_scenario(config, problem)
            _, json_path = emit_report(bundle, out_dir)
            entries.append({"config": path, "json": json_path,
                            "status": bundle.status})
        except _ENTRY_ERRORS as exc:
            entries.append(_error_entry(path, exc))
    return entries


def run_batch(list_path, out_dir, workers=1, dt=None, t_final=None):
    """Run every config named in list_path (one path per line, # comments).

    Writes out_dir/batch_index.json mapping configs to their summaries and
    returns the index entries in input order. A config that is invalid, fails
    numerically or cannot be read or written gets the status 'invalid',
    'failed' or 'io_error' with its error, and the others still run. Configs
    that share a name would write one report, so each of them is 'invalid'
    before anything runs; so is a config named batch_index, whose summary
    the index would overwrite.

    Configs with one problem_key form a group: its problem is built and
    certified once, every config of it runs on that problem, and the problem
    is released before the next group starts. With workers > 1 each group is
    one task of the process pool; workers < 1 is a ValidationError.
    """
    if workers < 1:
        raise ValidationError("workers must be at least 1, got %d" % workers)
    with open(list_path, "r") as fh:
        base = os.path.dirname(os.path.abspath(list_path))
        paths = []
        for line in fh:
            body = line.split("#", 1)[0].strip()
            if body:
                paths.append(body if os.path.isabs(body)
                             else os.path.join(base, body))
    if not paths:
        raise ValidationError("config list %r names no configs" % list_path)
    entries = [None] * len(paths)
    configs = {}    # position -> config
    for i, path in enumerate(paths):
        try:
            config = ScenarioConfig.from_file(path)
            if dt is not None or t_final is not None:
                config = config.override(dt=dt, t_final=t_final)
        except _ENTRY_ERRORS as exc:
            entries[i] = _error_entry(path, exc)
        else:
            configs[i] = config
    sharing = {}    # name -> positions of the configs that carry it
    for i, config in configs.items():
        sharing.setdefault(config.name, []).append(i)
    groups = {}     # problem key -> [(position, path, config)]
    for i, config in configs.items():
        clash = sharing[config.name]
        if config.name == _INDEX_NAME:
            entries[i] = _error_entry(paths[i], ValidationError(
                "name %r would overwrite the batch index" % _INDEX_NAME))
        elif len(clash) > 1:
            entries[i] = _error_entry(paths[i], ValidationError(
                "name %r is shared by %s; their reports would overwrite "
                "each other" % (config.name,
                                ", ".join(paths[j] for j in clash))))
        else:
            groups.setdefault(problem_key(config), []).append(
                (i, paths[i], config))
    tasks = [([(path, config) for _, path, config in members], out_dir)
             for members in groups.values()]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_group, tasks))
    else:
        results = map(_run_group, tasks)    # one group's problem at a time
    for members, group_entries in zip(groups.values(), results):
        for (i, _, _), entry in zip(members, group_entries):
            entries[i] = entry
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, _INDEX_NAME + ".json"),
                {"entries": entries})
    return entries
