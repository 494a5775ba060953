"""Config parsing, scenario orchestration, report emission, CLI exit codes."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import kfplab.cli
import kfplab.evolution
from kfplab import runner
from kfplab.cli import main
from kfplab.errors import NumericalError, ValidationError
from kfplab.evolution import TrajectoryRecord
from kfplab.runner import (
    ScenarioConfig,
    emit_constants_report,
    emit_report,
    parse_config_text,
    run_batch,
    run_scenario,
)

_TINY_KINETIC = """
# quadratic confinement, strong collisions: the exponential reference case
mode = kinetic
potential.x_mode = power
potential.alpha = 2.0
beta = 2.0
grid.x_half_width = 8.0
grid.v_half_width = 8.0
grid.nx = 65
grid.nv = 65
schedule.dt = 0.05
schedule.t_final = 5.0
schedule.sample_stride = 5
initial.kind = bump
initial.epsilon = 0.5
seed = 0
"""


_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO, "src")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_parse_config_text():
    text = "a = 1  # trailing comment\n\n# full comment\nb=2\na = 3\n"
    assert parse_config_text(text) == {"a": "3", "b": "2"}
    with pytest.raises(ValidationError):
        parse_config_text("a = 1\nnot a pair\n")


def test_scenario_config_defaults_and_validation():
    base = {"potential.alpha": "2.0"}
    cfg = ScenarioConfig(base, name="defaults")
    assert cfg.mode == "kinetic"
    assert cfg.potential.alpha == 2.0 and cfg.beta == 2.0
    assert cfg.nx == 129 and cfg.moments_x == (2.0,)
    with pytest.raises(ValidationError):
        ScenarioConfig({})  # the default power mode needs an explicit alpha
    with pytest.raises(ValidationError):
        ScenarioConfig(dict(base, mode="stationary"))
    with pytest.raises(ValidationError):
        ScenarioConfig(dict(base, **{"grid.nx": "64"}))
    with pytest.raises(ValidationError):
        ScenarioConfig(dict(base, **{"schedule.dt": "-0.1"}))
    with pytest.raises(ValidationError):
        ScenarioConfig(dict(base, **{"initial.kind": "vortex"}))
    # non-numeric and non-finite values are rejected by key, not passed on
    for key, text in (("schedule.dt", "nan"), ("schedule.t_final", "inf"),
                      ("grid.nx", "abc"), ("potential.alpha", "-inf"),
                      ("moments.x", "2, nan"), ("seed", "abc"),
                      ("seed", "-1")):
        with pytest.raises(ValidationError, match=key):
            ScenarioConfig(dict(base, **{key: text}))
    # unknown keys are listed in one error instead of silently ignored
    with pytest.raises(ValidationError,
                       match="unknown config keys: grid.nxx, schedule.dtt"):
        ScenarioConfig(dict(base, **{"schedule.dtt": "0.5", "grid.nxx": "9"}))
    # Crank-Nicolson is kinetic-only: a macro config asking for it is invalid
    assert ScenarioConfig(dict(base, scheme="crank_nicolson")).scheme \
        == "crank_nicolson"
    with pytest.raises(ValidationError, match="scheme"):
        ScenarioConfig(dict(base, mode="macro", scheme="crank_nicolson"))
    # so are velocity moments: macro densities have none to write
    with pytest.raises(ValidationError, match="moments.v"):
        ScenarioConfig(dict(base, mode="macro", **{"moments.v": "2"}))
    # t_final must be a whole number of steps, not silently rounded to one
    with pytest.raises(ValidationError, match="whole number of steps"):
        ScenarioConfig(dict(base, **{"schedule.dt": "0.2",
                                     "schedule.t_final": "5.1"}))


def test_scenario_config_rejects_names_that_leave_the_output_dir(tmp_path,
                                                               capsys):
    # the name becomes <out>/<name>.csv and .json: a path in it would write
    # outside --out, an empty or dot name would write hidden files
    base = {"potential.alpha": "2.0"}
    for name in ("", ".", "..", "../escaped", "sub/case", "/abs"):
        with pytest.raises(ValidationError, match="name"):
            ScenarioConfig(dict(base, name=name))
    cfg = _write(tmp_path, "esc.cfg", _TINY_KINETIC + "name = ../escaped\n")
    out = tmp_path / "run" / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert "name" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_batch_rejects_a_name_that_leaves_the_output_dir(tmp_path):
    _write(tmp_path, "esc.cfg", _SMALL_KINETIC + "name = ../escaped\n")
    _write(tmp_path, "other.cfg", _SMALL_KINETIC)
    out = tmp_path / "run" / "out"
    entries = run_batch(_write(tmp_path, "batch.txt", "esc.cfg\nother.cfg\n"),
                        str(out))
    assert [e["status"] for e in entries] == ["invalid", "ok"]
    assert "name" in entries[0]["error"]
    assert sorted(os.listdir(tmp_path / "run")) == ["out"]
    assert sorted(os.listdir(out)) == ["batch_index.json", "other.csv",
                                       "other.json"]


def test_run_batch_rejects_the_index_name(tmp_path):
    # a config named batch_index would write the summary the index then
    # overwrites: it is invalid before anything runs
    _write(tmp_path, "idx.cfg", _SMALL_KINETIC + "name = batch_index\n")
    _write(tmp_path, "other.cfg", _SMALL_KINETIC)
    out = str(tmp_path / "out")
    entries = run_batch(_write(tmp_path, "batch.txt", "idx.cfg\nother.cfg\n"),
                        out)
    assert [e["status"] for e in entries] == ["invalid", "ok"]
    assert "batch_index" in entries[0]["error"]
    with open(os.path.join(out, "batch_index.json")) as fh:
        assert json.load(fh) == {"entries": entries}
    assert sorted(os.listdir(out)) == ["batch_index.json", "other.csv",
                                       "other.json"]


def test_scenario_config_from_file_and_override(tmp_path):
    path = _write(tmp_path, "case1.cfg", _TINY_KINETIC)
    cfg = ScenarioConfig.from_file(path)
    assert cfg.name == "case1"
    assert cfg.dt == 0.05 and cfg.t_final == 5.0
    short = cfg.override(dt=0.1, t_final=1.0, output_dir="elsewhere")
    assert short.dt == 0.1 and short.t_final == 1.0
    assert short.output_dir == "elsewhere"
    assert short.name == "case1"
    assert cfg.dt == 0.05  # original untouched


# ---------------------------------------------------------------------------
# scenario runs and reports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    path = _write(tmp_path_factory.mktemp("cfg"), "tiny.cfg", _TINY_KINETIC)
    return run_scenario(ScenarioConfig.from_file(path))


def test_run_scenario_summary(tiny_bundle):
    s = tiny_bundle.summary
    assert tiny_bundle.status == "ok" and s["status"] == "ok"
    assert s["regime"] == "exponential"
    assert s["paper_case"] == "thm2.case1"
    assert s["predicted_exponent_or_rate"] > 0
    for key in ("delta", "delta_star", "lambda_m", "lambda_M", "c_M",
                "lambda_rate", "sigma"):
        assert key in s["constants"]
    assert s["fitted_value"] is not None
    assert s["fitted_value"] >= s["predicted_exponent_or_rate"]
    assert "config_echo" in s and s["seed"] == 0


def test_run_scenario_envelope_dominates(tiny_bundle):
    rec = tiny_bundle.record
    # exponential envelope anchored by the entropy sandwich at t = 0
    assert np.all(rec.norm_sq_mu <= rec.envelope * (1.0 + 1e-9))


# the two macro configs of the benchmark's quadrant sweep in the
# exponential regime (alpha = 2 on 65 x-nodes, X = 8)
_MACRO_EXPONENTIAL = {
    "q_a2_b2_macro": {"beta": "2", "grid.v_half_width": "8",
                      "grid.nv": "65", "grid.truncation_tol": "1e-8",
                      "schedule.dt": "0.05", "schedule.t_final": "10",
                      "schedule.sample_stride": "5"},
    "q_a2_b0.5_macro": {"beta": "0.5", "grid.v_half_width": "48",
                        "grid.nv": "193", "grid.truncation_tol": "1e-5",
                        "schedule.dt": "0.2", "schedule.t_final": "20",
                        "schedule.sample_stride": "2"},
}
_MACRO_BASE = {"mode": "macro", "potential.alpha": "2",
               "grid.x_half_width": "8", "grid.nx": "65"}


@pytest.mark.parametrize("name", sorted(_MACRO_EXPONENTIAL))
def test_macro_envelope_bounds_every_implicit_euler_sample(name):
    # implicit-Euler samples decay more slowly than e^{-r t}; the envelope
    # norm0 (1 + dt r/2)^(-2n) bounds them, and the squared norm decays at
    # the implicit-Euler rate 2 log1p(dt r/2) / dt
    config = ScenarioConfig(dict(_MACRO_BASE, name=name,
                                 **_MACRO_EXPONENTIAL[name]))
    bundle = run_scenario(config)
    assert (bundle.status, bundle.summary["regime"]) == ("ok", "exponential")
    rec = bundle.record
    assert np.all(rec.norm_sq_mu <= rec.envelope * (1.0 + 1e-9))
    rate, dt = bundle.summary["predicted_exponent_or_rate"], config.dt
    assert bundle.summary["fitted_value"] == pytest.approx(
        2.0 * np.log1p(0.5 * dt * rate) / dt, rel=1e-6)


def test_macro_gaussian_on_an_integrable_branch_keeps_no_kernel_mass():
    # rescaled to the equilibrium mass, rho - rho_star carries none that
    # could stall the decay, and the fit reaches the predicted rate
    config = ScenarioConfig(dict(
        _MACRO_BASE, **dict(_MACRO_EXPONENTIAL["q_a2_b2_macro"],
                            **{"initial.kind": "macro_gaussian",
                               "schedule.t_final": "20"})))
    problem = runner.certified_problem(config)
    eq = problem[2]
    wx = eq.grid.x_grid.weights
    rho0 = runner.make_initial_state(config, eq)
    assert wx @ rho0.values == pytest.approx(wx @ eq.rho_star.values,
                                             rel=1e-14)
    summary = run_scenario(config, problem).summary
    assert summary["status"] == "ok"
    assert summary["fitted_value"] >= summary["predicted_exponent_or_rate"]


def test_emit_report_csv_and_json(tiny_bundle, tmp_path):
    csv_path, json_path = emit_report(tiny_bundle, str(tmp_path))
    lines = _read(csv_path).splitlines()
    assert lines[0] == ("t,norm_sq_mu,entropy_H,dissipation_D,envelope,"
                        "J_2,K_2,max_principle_ok")
    assert len(lines) == 1 + tiny_bundle.record.times.size
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        assert cells[-1] in ("0", "1")
        [float(c) for c in cells[:-1]]

    with open(json_path) as fh:
        payload = json.load(fh)
    assert list(payload) == sorted(payload)
    assert payload["csv_path"] == os.path.basename(csv_path)
    assert payload["paper_case"] == "thm2.case1"


def test_reports_are_deterministic(tmp_path):
    path = _write(tmp_path, "det.cfg", _TINY_KINETIC)
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        bundle = run_scenario(ScenarioConfig.from_file(path))
        csv_path, json_path = emit_report(bundle, str(out))
        blobs.append((_read(csv_path, "rb"), _read(json_path, "rb")))
    assert blobs[0] == blobs[1]


def test_macro_scenario(tmp_path):
    text = _TINY_KINETIC + "mode = macro\ninitial.kind = macro_bump\n"
    path = _write(tmp_path, "macro.cfg", text)
    bundle = run_scenario(ScenarioConfig.from_file(path))
    assert bundle.status == "ok"
    assert bundle.summary["regime"] == "exponential"
    assert bundle.summary["paper_case"].startswith("table1.")
    # the predicted macro rate r is the exact decay rate of the semi-discrete
    # flow, so the fitted rate is its implicit-Euler image
    # 2 log(1 + dt r/2)/dt once the higher modes have died out
    predicted = bundle.summary["predicted_exponent_or_rate"]
    assert predicted == pytest.approx(2.0, rel=0.05)
    assert bundle.summary["fitted_value"] == pytest.approx(predicted, rel=0.15)
    dt = bundle.config.dt
    assert bundle.summary["fitted_value"] == pytest.approx(
        2.0 * np.log1p(0.5 * dt * predicted) / dt, rel=1e-6)


def test_failed_scenario_bundle(tmp_path, monkeypatch):
    def blow_up(*args, **kwargs):
        err = NumericalError("synthetic blowup; last good time 0.05")
        err.last_good_time = 0.05
        err.partial_record = TrajectoryRecord(
            [0.0, 0.05], [1.0, 0.9], [0.5, 0.45], [0.2, 0.18],
            {2.0: [3.0, 2.9]}, {2.0: [1.0, 1.1]}, [True, True],
            [np.nan, np.nan])
        raise err

    monkeypatch.setattr(kfplab.evolution, "run_trajectory", blow_up)
    path = _write(tmp_path, "doomed.cfg", _TINY_KINETIC)
    bundle = run_scenario(ScenarioConfig.from_file(path))
    assert bundle.status == "failed"
    assert bundle.summary["last_good_time"] == 0.05
    assert bundle.summary["fitted_value"] is None
    assert bundle.record.times.size == 2

    csv_path, json_path = emit_report(bundle, str(tmp_path / "out"))
    lines = _read(csv_path).splitlines()
    assert lines == ["t,norm_sq_mu,entropy_H,dissipation_D,envelope,"
                     "J_2,K_2,max_principle_ok",
                     "0.0,1.0,0.5,0.2,nan,3.0,1.0,1",
                     "0.05,0.9,0.45,0.18,nan,2.9,1.1,1"]
    with open(json_path) as fh:
        assert json.load(fh)["status"] == "failed"


def test_failed_run_csv_matches_ok_columns(tmp_path, monkeypatch):
    # an abort after three steps writes the ok run's header and every
    # computed column; only the envelope, attached after the run, is nan.
    # 18 steps on 33^2, fewer than a basis cap, step
    text = (_TINY_KINETIC + "grid.nx = 33\ngrid.nv = 33\n"
            "schedule.t_final = 0.9\n"
            "schedule.sample_stride = 1\nmoments.x = 4, 2\n")
    cfg = ScenarioConfig(parse_config_text(text), name="cols")
    ok_csv, _ = emit_report(run_scenario(cfg), str(tmp_path / "ok"))

    real_solve = kfplab.evolution.solve_with_refinement
    calls = {"n": 0}

    def flaky(lu, system, rhs, what):
        calls["n"] += 1
        sol = real_solve(lu, system, rhs, what)
        return sol * np.nan if calls["n"] >= 4 else sol

    monkeypatch.setattr(kfplab.evolution, "solve_with_refinement", flaky)
    bundle = run_scenario(cfg)
    assert bundle.status == "failed"
    failed_csv, _ = emit_report(bundle, str(tmp_path / "failed"))
    ok_lines = _read(ok_csv).splitlines()
    failed_lines = _read(failed_csv).splitlines()
    assert failed_lines[0] == ok_lines[0] == (
        "t,norm_sq_mu,entropy_H,dissipation_D,envelope,J_2,J_4,K_2,"
        "max_principle_ok")
    assert len(failed_lines) == 1 + 4    # t = 0, 0.05, 0.10, 0.15
    for ok_line, failed_line in zip(ok_lines[1:], failed_lines[1:]):
        ok_row, failed_row = ok_line.split(","), failed_line.split(",")
        assert failed_row[4] == "nan"
        assert failed_row[:4] + failed_row[5:] == ok_row[:4] + ok_row[5:]


def test_emit_constants_report(tmp_path):
    cfg = ScenarioConfig(parse_config_text(_TINY_KINETIC), name="tiny")
    json_path = emit_constants_report(cfg, str(tmp_path))
    with open(json_path) as fh:
        payload = json.load(fh)
    for key in ("integrable", "constants", "sigma_normalized", "c_M_parts",
                "z_constant", "transport_integrals", "grid", "config_echo"):
        assert key in payload
    assert payload["integrable"] is True
    assert payload["constants"]["delta_star"] > 0
    assert payload["z_constant"] == pytest.approx(2.0 * np.pi * np.exp(-1.0))


def test_run_batch(tmp_path):
    good = _write(tmp_path, "good.cfg", _TINY_KINETIC)
    bad = _write(tmp_path, "bad.cfg", _TINY_KINETIC + "grid.nx = 64\n")
    list_path = _write(tmp_path, "batch.txt",
                       "good.cfg\nbad.cfg  # even grid: rejected\n")
    out = str(tmp_path / "out")
    entries = run_batch(list_path, out)
    assert [e["status"] for e in entries] == ["ok", "invalid"]
    assert entries[0]["json"].endswith("good.json")
    assert os.path.exists(os.path.join(out, "good.csv"))
    with open(os.path.join(out, "batch_index.json")) as fh:
        index = json.load(fh)
    assert len(index["entries"]) == 2
    with pytest.raises(ValidationError):
        run_batch(_write(tmp_path, "empty.txt", "# nothing\n"), out)


def test_run_batch_records_unparsable_config(tmp_path, capsys):
    # a value that is not a number makes its config invalid and a missing
    # file an io_error; the sweep still runs the others and writes the index
    good = _write(tmp_path, "good.cfg", _TINY_KINETIC)
    bad = _write(tmp_path, "abc.cfg", _TINY_KINETIC + "grid.nx = abc\n")
    missing = str(tmp_path / "missing.cfg")
    list_path = _write(tmp_path, "batch.txt",
                       "abc.cfg\nmissing.cfg\ngood.cfg\n")
    out = str(tmp_path / "out")
    entries = run_batch(list_path, out)
    with open(os.path.join(out, "batch_index.json")) as fh:
        index = json.load(fh)
    assert [e["config"] for e in index["entries"]] == [bad, missing, good]
    assert [e["status"] for e in index["entries"]] == ["invalid", "io_error",
                                                       "ok"]
    assert "grid.nx" in index["entries"][0]["error"]
    assert "missing.cfg" in index["entries"][1]["error"]
    assert index["entries"] == entries
    # the CLI writes the index, then exits with the I/O error code
    only_missing = _write(tmp_path, "missing.txt", "missing.cfg\n")
    out_cli = str(tmp_path / "out_cli")
    assert main(["batch", only_missing, "--out", out_cli]) == 3
    assert os.path.exists(os.path.join(out_cli, "batch_index.json"))
    capsys.readouterr()


# ---------------------------------------------------------------------------
# batch groups: one problem per distinct problem key
# ---------------------------------------------------------------------------

_POWER_BASE = {"potential.alpha": "2.0"}
_LOG_BASE = {"potential.x_mode": "logarithmic", "potential.gamma": "3.0"}

# every config key -> (problem | run, base mapping, changes to it); None
# deletes a key. A new config key fails test_problem_key_partitions_config_
# keys until it is classified here.
_KEY_CLASSES = {
    "name": ("run", _POWER_BASE, {"name": "other"}),
    "mode": ("run", _POWER_BASE, {"mode": "macro"}),
    "potential.x_mode": ("problem", _LOG_BASE,
                         {"potential.x_mode": "zero",
                          "potential.gamma": None}),
    "potential.alpha": ("problem", _POWER_BASE, {"potential.alpha": "1.5"}),
    "potential.gamma": ("problem", _LOG_BASE, {"potential.gamma": "4.0"}),
    "beta": ("problem", _POWER_BASE, {"beta": "1.5"}),
    "grid.x_half_width": ("problem", _POWER_BASE, {"grid.x_half_width": "9"}),
    "grid.v_half_width": ("problem", _POWER_BASE, {"grid.v_half_width": "9"}),
    "grid.nx": ("problem", _POWER_BASE, {"grid.nx": "131"}),
    "grid.nv": ("problem", _POWER_BASE, {"grid.nv": "131"}),
    "grid.truncation_tol": ("problem", _POWER_BASE,
                            {"grid.truncation_tol": "1e-6"}),
    "schedule.dt": ("run", _POWER_BASE, {"schedule.dt": "0.05"}),
    "schedule.t_final": ("run", _POWER_BASE, {"schedule.t_final": "20"}),
    "schedule.sample_stride": ("run", _POWER_BASE,
                               {"schedule.sample_stride": "3"}),
    "delta": ("problem", _POWER_BASE, {"delta": "0.01"}),
    "moments.x": ("run", _POWER_BASE, {"moments.x": "4"}),
    "moments.v": ("run", _POWER_BASE, {"moments.v": "4"}),
    "rates.k": ("run", _POWER_BASE, {"rates.k": "3"}),
    "rates.ell": ("run", _POWER_BASE, {"rates.ell": "3"}),
    "initial.kind": ("run", _POWER_BASE, {"initial.kind": "odd_v"}),
    "initial.epsilon": ("run", _POWER_BASE, {"initial.epsilon": "0.25"}),
    "initial.center_x": ("run", _POWER_BASE, {"initial.center_x": "1.0"}),
    "initial.center_v": ("run", _POWER_BASE, {"initial.center_v": "1.0"}),
    "initial.width": ("run", _POWER_BASE, {"initial.width": "2.0"}),
    "initial.clip_factor": ("run", _POWER_BASE,
                            {"initial.clip_factor": "3.0"}),
    "initial.s0": ("run", _POWER_BASE, {"initial.s0": "1.0"}),
    "scheme": ("run", _POWER_BASE, {"scheme": "crank_nicolson"}),
    "seed": ("run", _POWER_BASE, {"seed": "5"}),
    "output_dir": ("run", _POWER_BASE, {"output_dir": "elsewhere"}),
}


def test_problem_key_partitions_config_keys():
    # a run key keeps the group, a problem key (one that build_problem or
    # compute_constants reads) splits it
    assert set(_KEY_CLASSES) == runner._KNOWN_KEYS
    for key, (kind, base, changes) in _KEY_CLASSES.items():
        assert key in changes
        changed = {k: v for k, v in dict(base, **changes).items()
                   if v is not None}
        same = (runner.problem_key(ScenarioConfig(changed))
                == runner.problem_key(ScenarioConfig(base)))
        assert same == (kind == "run"), key


_SMALL_KINETIC = _TINY_KINETIC + "grid.nx = 33\ngrid.nv = 33\n"


def _batch_files(out):
    """{file name: bytes} of a batch output directory, index paths made
    relative so two output directories compare."""
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    files["batch_index.json"] = files["batch_index.json"].replace(
        (out + os.sep).encode(), b"")
    return files


def test_run_batch_shares_problems_and_matches_single_runs(tmp_path,
                                                           monkeypatch):
    # kinetic and macro on one problem, the kinetic run on another seed (a
    # run key) and on another v-grid, and an invalid config: the batch builds
    # two problems and writes exactly the files one-by-one runs write, with
    # one or two workers
    texts = {
        "kin.cfg": _SMALL_KINETIC,
        "bad.cfg": _SMALL_KINETIC + "grid.nx = 32\n",
        "mac.cfg": _SMALL_KINETIC + "mode = macro\ninitial.kind = macro_bump\n",
        "kin_seed.cfg": _SMALL_KINETIC + "seed = 3\n",
        "kin_nv.cfg": _SMALL_KINETIC + "grid.nv = 35\n",
    }
    for name, text in texts.items():
        _write(tmp_path, name, text)
    list_path = _write(tmp_path, "batch.txt", "".join(
        name + "\n" for name in texts))

    single = tmp_path / "single"
    for name in texts:
        if name != "bad.cfg":
            config = ScenarioConfig.from_file(str(tmp_path / name))
            emit_report(run_scenario(config), str(single))

    real_build = runner.build_problem
    builds = []

    def counting_build(config):
        builds.append(config.name)
        return real_build(config)

    monkeypatch.setattr(runner, "build_problem", counting_build)
    out1 = str(tmp_path / "w1")
    entries = run_batch(list_path, out1, workers=1)
    monkeypatch.undo()
    assert builds == ["kin", "kin_nv"]
    assert [e["status"] for e in entries] == ["ok", "invalid", "ok", "ok",
                                              "ok"]
    assert "grid.nx" in entries[1]["error"]

    files = _batch_files(out1)
    for name in os.listdir(str(single)):
        with open(str(single / name), "rb") as fh:
            assert files[name] == fh.read(), name
    assert sorted(files) == sorted(os.listdir(str(single))
                                   + ["batch_index.json"])

    out2 = str(tmp_path / "w2")
    run_batch(list_path, out2, workers=2)
    assert _batch_files(out2) == files


def test_run_batch_rejects_repeated_names(tmp_path, capsys):
    # a kinetic and a macro config both named `same` would write one
    # same.json: both are invalid before anything runs, the rest of the
    # batch still runs, and the CLI exits with the invalid code
    texts = {
        "kin.cfg": _SMALL_KINETIC + "name = same\n",
        "mac.cfg": _SMALL_KINETIC + "name = same\nmode = macro\n"
                   "initial.kind = macro_bump\n",
        "other.cfg": _SMALL_KINETIC,
    }
    for name, text in texts.items():
        _write(tmp_path, name, text)
    list_path = _write(tmp_path, "batch.txt", "".join(
        name + "\n" for name in texts))
    out = str(tmp_path / "out")
    entries = run_batch(list_path, out)
    assert [e["status"] for e in entries] == ["invalid", "invalid", "ok"]
    for entry in entries[:2]:
        assert "'same'" in entry["error"]
        assert "kin.cfg" in entry["error"] and "mac.cfg" in entry["error"]
    assert sorted(os.listdir(out)) == ["batch_index.json", "other.csv",
                                       "other.json"]
    assert main(["batch", list_path, "--out", str(tmp_path / "cli")]) == 1
    capsys.readouterr()


def test_run_batch_failed_problem_gives_each_config_its_own_error(tmp_path):
    # alpha = 0.5 does not fit the X = 8 box at tol 1e-8, and delta = 5 lies
    # beyond delta_star: each member of the group gets the entry it gets
    # when it is the only config of a batch
    truncated = _SMALL_KINETIC + "potential.alpha = 0.5\n"
    big_delta = _SMALL_KINETIC + "delta = 5\n"
    texts = {
        "trunc_kin.cfg": truncated,
        "delta_kin.cfg": big_delta,
        "trunc_mac.cfg": truncated + "mode = macro\n",
        "delta_mac.cfg": big_delta + "mode = macro\n",
    }
    for name, text in texts.items():
        _write(tmp_path, name, text)
    entries = run_batch(_write(tmp_path, "batch.txt", "".join(
        name + "\n" for name in texts)), str(tmp_path / "out"))
    alone = []
    for name in texts:
        one = _write(tmp_path, name + ".txt", name + "\n")
        alone += run_batch(one, str(tmp_path / "alone"))
    assert entries == alone
    assert [e["status"] for e in entries] == ["invalid"] * 4
    assert "delta_star" in entries[1]["error"]
    with pytest.raises(ValidationError) as exc:
        run_scenario(ScenarioConfig.from_file(str(tmp_path / "trunc_mac.cfg")))
    assert entries[2]["error"] == str(exc.value)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    cfg = _write(tmp_path, "cli.cfg", _TINY_KINETIC)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "cli.csv"))

    bad = _write(tmp_path, "bad.cfg", _TINY_KINETIC + "grid.nx = 64\n")
    assert main(["run", bad, "--out", out]) == 1

    assert main(["run", str(tmp_path / "missing.cfg")]) == 3

    # over-shortened run: trajectory succeeds but leaves too few samples to
    # fit a rate; the run still writes its reports, then exits 2
    short = str(tmp_path / "short")
    assert main(["run", cfg, "--out", short, "--t-final", "1.0"]) == 2
    assert os.path.exists(os.path.join(short, "cli.csv"))
    with open(os.path.join(short, "cli.json")) as fh:
        assert json.load(fh)["status"] == "failed"
    capsys.readouterr()


def test_cli_run_rejects_bad_values_in_one_line(tmp_path, capsys):
    for text in ("schedule.dt = nan\n", "grid.nx = abc\n",
                 "schedule.dtt = 0.5\n"):
        cfg = _write(tmp_path, "bad.cfg", _TINY_KINETIC + text)
        capsys.readouterr()
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert len(err.splitlines()) == 1, err
        assert text.split(" =")[0] in err


def test_cli_run_rejects_a_repeated_moment_power(tmp_path, capsys):
    # the report names each moment column J_%g / K_%g after its power, so a
    # repeat (2 and 2.0 included) would be echoed in the JSON but written
    # once to the CSV, and 2 and 2.0000001 would head two columns J_2
    for key, value in (("moments.x", "2, 2"), ("moments.v", "2, 2.0"),
                       ("moments.x", "2, 2.0000001"),
                       ("moments.v", "2.0000001, 2")):
        cfg = _write(tmp_path, "repeat.cfg", _TINY_KINETIC
                     + "grid.nx = 17\ngrid.nv = 17\n%s = %s\n" % (key, value))
        capsys.readouterr()
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and key in err, err
        assert len(err.splitlines()) == 1, err
    assert not os.path.exists(str(tmp_path / "out"))
    assert ScenarioConfig(parse_config_text(
        _TINY_KINETIC + "moments.x = 2, 2.001\n")).moments_x == (2.0, 2.001)


def test_cli_batch_flags_invalid(tmp_path, capsys):
    good = _write(tmp_path, "good.cfg", _TINY_KINETIC)
    bad = _write(tmp_path, "bad.cfg", _TINY_KINETIC + "mode = nope\n")
    list_path = _write(tmp_path, "batch.txt", "good.cfg\nbad.cfg\n")
    code = main(["batch", list_path, "--out", str(tmp_path / "out"),
                 "--t-final", "1.0"])
    assert code == 1
    # the shortened good config fails its fit but still has its reports
    with open(str(tmp_path / "out" / "batch_index.json")) as fh:
        entry = json.load(fh)["entries"][0]
    assert entry["status"] == "failed"
    assert entry["json"].endswith("good.json")
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_batch_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    # refused before any config runs: no report and no index
    _write(tmp_path, "good.cfg", _TINY_KINETIC)
    list_path = _write(tmp_path, "batch.txt", "good.cfg\n")
    out = str(tmp_path / "out")
    assert main(["batch", list_path, "--out", out, "--workers", workers]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "workers" in err
    assert len(err.splitlines()) == 1, err
    assert not os.path.exists(out)


# a small quadratic problem; the lines added to it push one input to an
# extreme that used to escape as a ZeroDivisionError or a NaN fit
_EXTREME_BASE = """
potential.alpha = 2
grid.nx = 17
grid.nv = 17
schedule.dt = 0.1
schedule.t_final = 2
schedule.sample_stride = 1
"""


@pytest.mark.parametrize("extra, code, prefix", [
    # e^{-psi} or e^{-phi} underflows to zero at every node
    ("beta = 1e-3\n", 2, "numerical error: f_star underflowed"),
    ("potential.alpha = 1e-6\n", 2, "numerical error: f_star underflowed"),
    # <z>^beta or <z>^alpha overflows to inf, so e^{-psi} or e^{-phi} is 0
    ("beta = 1000\n", 2, "numerical error: f_star underflowed"),
    ("potential.alpha = 1000\n", 2, "numerical error: f_star underflowed"),
    # the clipped Gaussian datum has no quadrature mass
    ("initial.kind = shifted_gaussian\ninitial.width = 1e-300\n", 1,
     "validation error: shifted Gaussian"),
    ("initial.kind = shifted_gaussian\ninitial.center_x = 1e300\n", 1,
     "validation error: shifted Gaussian"),
    # rescaled to the equilibrium mass, the datum exceeds 2 * clip * f_star
    ("initial.kind = shifted_gaussian\ninitial.width = 0.2\n"
     "grid.nx = 65\ngrid.nv = 65\n", 1, "validation error: shifted Gaussian"),
    # a negative moment power, refused when the config is read
    ("mode = macro\nmoments.x = -1\n", 1, "validation error: moments.x = "),
    ("moments.v = -1\n", 1, "validation error: moments.v = "),
    # width^2 overflows a Python float: the exponent is formed in numpy as
    # -((z - c) / width)^2 / 2, so the datum is flat, and its run writes a
    # report and fails the fit, as at width 1e154
    ("initial.kind = shifted_gaussian\ninitial.width = 1e300\n", 2,
     "scenario failed: norm series must be positive inside the window"),
    # <x>^k overflows at the box edge X = 8, refused before the first sample
    ("moments.x = 1e308\n", 1, "validation error: x-moment power 1e+308: "
     "its weight <x>^k overflows at the box edge |x| = 8"),
    ("mode = macro\nmoments.x = 1e308\n", 1,
     "validation error: x-moment power 1e+308"),
])
def test_cli_run_extreme_inputs_exit_in_one_line(tmp_path, capsys, extra,
                                                 code, prefix):
    # in process, so a numpy warning on the way (an error under pytest) fails
    cfg = _write(tmp_path, "extreme.cfg", _EXTREME_BASE + extra)
    capsys.readouterr()
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert len(err.splitlines()) == 1, err


def test_cli_batch_runs_past_an_underflowing_equilibrium(tmp_path, capsys):
    _write(tmp_path, "good.cfg", _EXTREME_BASE)
    _write(tmp_path, "flat.cfg", _EXTREME_BASE + "beta = 1e-3\n")
    list_path = _write(tmp_path, "batch.txt", "good.cfg\nflat.cfg\n")
    out = str(tmp_path / "out")
    assert main(["batch", list_path, "--out", out]) == 2
    with open(os.path.join(out, "batch_index.json")) as fh:
        entries = json.load(fh)["entries"]
    assert [e["status"] for e in entries] == ["ok", "failed"]
    assert "f_star underflowed" in entries[1]["error"]
    capsys.readouterr()


# no integrable equilibrium: the norm of a perturbation of f_star does not
# decay, so a fit of it says nothing about the paper's rates
_NON_INTEGRABLE = """
potential.x_mode = zero
beta = 2
grid.x_half_width = 24
grid.v_half_width = 8
grid.nx = 97
grid.nv = 33
schedule.dt = 0.5
schedule.t_final = 50
schedule.sample_stride = 1
"""


@pytest.mark.parametrize("extra, kind", [("", "bump"), ("", "odd_v"),
                                         ("mode = macro\n", "macro_bump")])
def test_perturbed_datum_needs_an_integrable_equilibrium(tmp_path, capsys,
                                                         extra, kind):
    cfg = _write(tmp_path, "free.cfg", _NON_INTEGRABLE + extra
                 + "initial.kind = %s\n" % kind)
    capsys.readouterr()
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: initial.kind = %s " % kind), err
    assert "shifted_gaussian" in err and "macro_gaussian" in err, err
    assert len(err.splitlines()) == 1, err
    list_path = _write(tmp_path, "batch.txt", "free.cfg\n")
    out = str(tmp_path / "batch")
    assert main(["batch", list_path, "--out", out]) == 1
    with open(os.path.join(out, "batch_index.json")) as fh:
        entries = json.load(fh)["entries"]
    assert [e["status"] for e in entries] == ["invalid"]
    # the constants need no datum, and say that they belong to the box
    assert main(["constants", cfg, "--out", str(tmp_path / "c")]) == 0
    with open(str(tmp_path / "c" / "free_constants.json")) as fh:
        assert json.load(fh)["integrable"] is False
    capsys.readouterr()


@pytest.mark.parametrize("mode, kind", [("kinetic", "shifted_gaussian"),
                                        ("macro", "macro_gaussian")])
def test_default_datum_follows_the_equilibrium(tmp_path, capsys, mode, kind):
    # a config that names no initial.kind perturbs f_star when there is
    # one, and starts from a Gaussian when there is none
    confined = ScenarioConfig({"mode": mode, "potential.alpha": "2"})
    assert confined.initial_kind == ("bump" if mode == "kinetic"
                                     else "macro_bump")
    cfg = _write(tmp_path, "free.cfg", _NON_INTEGRABLE + "mode = %s\n" % mode)
    assert ScenarioConfig.from_file(cfg).initial_kind == kind
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["run", cfg, "--out", out]) == 0
    with open(os.path.join(out, "free.json")) as fh:
        summary = json.load(fh)
    assert (summary["status"], summary["initial_data"]["kind"]) == ("ok",
                                                                    kind)
    capsys.readouterr()


@pytest.mark.parametrize("schedule", [
    # 1e15 steps sampled every 10th
    "schedule.dt = 1e-9\nschedule.t_final = 1e6\n"
    "schedule.sample_stride = 10\n",
    # one sample past the ceiling
    "schedule.dt = 1\nschedule.t_final = 1000001\n"
    "schedule.sample_stride = 1\n",
])
def test_cli_refuses_too_many_samples_before_set_up(tmp_path, capsys,
                                                    monkeypatch, schedule):
    def no_build(config):
        raise AssertionError("build_problem ran for too many samples")

    monkeypatch.setattr(runner, "build_problem", no_build)
    cfg = _write(tmp_path, "long.cfg", _EXTREME_BASE + schedule)
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["run", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: schedule asks for "), err
    assert "at most 1000000" in err and len(err.splitlines()) == 1, err
    assert not os.path.exists(out)


def test_run_trajectory_refuses_too_many_samples(strong_strong):
    # the same ceiling holds for a schedule passed straight to a run, which
    # refuses it before it factors or allocates anything
    _, _, eq, ops = strong_strong
    f0 = kfplab.evolution.initial_bump(eq, 0.5)
    with pytest.raises(ValidationError, match="at most 1000000"):
        kfplab.evolution.run_trajectory(f0, (1e-9, 1e6, 10), "kinetic", eq,
                                        ops)
    # exactly at the ceiling it is accepted (checked without running)
    assert kfplab.evolution._validate_schedule((1.0, 1e6, 1)) == (
        1.0, 10 ** 6, 1)


def test_initial_kind_must_suit_the_mode(tmp_path, capsys, monkeypatch):
    # refused at parse time, before any problem is built
    def no_build(config):
        raise AssertionError("build_problem ran for a mismatched config")

    monkeypatch.setattr(runner, "build_problem", no_build)
    mixed = {"to_macro.cfg": "mode = macro\ninitial.kind = bump\n",
             "to_kinetic.cfg": "initial.kind = macro_gaussian\n"}
    for name, extra in mixed.items():
        cfg = _write(tmp_path, name, _EXTREME_BASE + extra)
        capsys.readouterr()
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: initial.kind = "), err
        assert len(err.splitlines()) == 1, err
    list_path = _write(tmp_path, "batch.txt", "\n".join(mixed) + "\n")
    out = str(tmp_path / "out")
    assert main(["batch", list_path, "--out", out]) == 1
    with open(os.path.join(out, "batch_index.json")) as fh:
        entries = json.load(fh)["entries"]
    assert [e["status"] for e in entries] == ["invalid", "invalid"]
    assert all("initial.kind" in e["error"] for e in entries)
    capsys.readouterr()


def _console_script():
    """The command line that runs the `kfplab` console script.

    An installed script on PATH wins. Otherwise the entry point declared
    under [project.scripts] in pyproject.toml is run the way pip's generated
    script would run it, so a renamed function, a moved module or a broken
    declaration still fails.
    """
    exe = shutil.which("kfplab")
    if exe is not None:
        return [exe]
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(_REPO, "pyproject.toml"), "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["kfplab"]
    module, _, func = entry.partition(":")
    return [sys.executable, "-c",
            "import sys; from %s import %s; sys.exit(%s())"
            % (module, func.split(".")[0], func)]


def _run_console_script(args, cwd):
    """The console script with args, as a separate process in cwd that
    imports this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(_console_script() + args, capture_output=True,
                          text=True, timeout=600, cwd=cwd, env=env)


_CHECK_LABELS = [
    "delta_star(1,1,1) equals 2/3",
    "lambda(1,1,1,0.3) inside its window (0, 0.3]",
    "rate quadratic over random constants",
    "transport skew-adjoint in the weighted inner product",
    "collision self-adjoint",
    "collision dissipative",
    "Pi idempotent",
    "Pi self-adjoint",
    "equilibrium in the kernel of T and L",
    "implicit step conserves mass",
    "auxiliary-operator estimates on random states",
    "dissipation coercive at delta_star/2 (kappa > 0)",
    "quadratic-potential Poincare gap near 1",
    "algebraic envelope matches its ODE integrator",
]


def test_console_script_constants_and_check(tmp_path):
    cfg = _write(tmp_path, "tiny.cfg", _TINY_KINETIC)
    out = str(tmp_path / "out")
    proc = _run_console_script(["constants", cfg, "--out", out], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "tiny_constants.json"))

    proc = _run_console_script(["check"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["PASS  " + label
                                        for label in _CHECK_LABELS]


@pytest.mark.parametrize("name, label", [
    ("T_hat", "transport skew-adjoint in the weighted inner product"),
    ("L_hat", "collision self-adjoint"),
])
def test_check_reports_every_invariant_when_an_operator_breaks(
        monkeypatch, capsys, name, label):
    # a superdiagonal breaks the skewness of T_hat or the symmetry of L_hat,
    # and the reflection symmetry the step factorization asserts
    assemble = kfplab.cli.assemble

    def broken(eq):
        ops = assemble(eq)
        x = getattr(ops, name)
        return dataclasses.replace(
            ops, **{name: (x + 1e-3 * sp.eye(x.shape[0], k=1)).tocsr()})

    monkeypatch.setattr(kfplab.cli, "assemble", broken)
    assert main(["check"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line[6:].split("  (")[0] for line in lines] == _CHECK_LABELS
    assert lines[_CHECK_LABELS.index(label)].startswith("FAIL  ")


def test_check_sees_a_transport_broken_in_the_bulk_of_the_box(monkeypatch,
                                                              capsys):
    # a 0.1 superdiagonal only on |x|, |v| <= 3: the check's random states
    # are white noise in q, so the bulk of the box weighs in the skewness
    # line (noise in f, divided by sqrt(f_star), is carried by the corners)
    assemble = kfplab.cli.assemble

    def broken(eq):
        ops = assemble(eq)
        x, v = np.meshgrid(eq.grid.x_grid.nodes, eq.grid.v_grid.nodes,
                           indexing="ij")
        bulk = ((np.abs(x) <= 3.0) & (np.abs(v) <= 3.0)).ravel()
        t_hat = ops.T_hat + 0.1 * sp.diags(bulk[:-1].astype(float), 1)
        return dataclasses.replace(ops, T_hat=t_hat.tocsr())

    monkeypatch.setattr(kfplab.cli, "assemble", broken)
    assert main(["check"]) == 2
    lines = capsys.readouterr().out.splitlines()
    skew = lines[_CHECK_LABELS.index(
        "transport skew-adjoint in the weighted inner product")]
    assert skew.startswith("FAIL  "), skew


def test_python_m_kfplab_writes_constants(tmp_path):
    # `python -m kfplab` runs the same command line without an installed
    # console script
    cfg = _write(tmp_path, "tiny.cfg", _TINY_KINETIC
                 + "grid.nx = 17\ngrid.nv = 17\n")
    out = str(tmp_path / "out")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "kfplab", "constants", cfg,
                           "--out", out], capture_output=True, text=True,
                          timeout=600, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "tiny_constants.json"))


def test_import_loads_no_quadrature_or_special_functions():
    # in a fresh interpreter: this process may already hold these modules
    code = ("import sys, kfplab; print(sorted(m for m in sys.modules if "
            "m.startswith(('scipy.integrate', 'scipy.optimize', "
            "'scipy.special'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n", proc.stdout


def test_cli_run_with_an_overflowing_sample_fails_in_one_line(tmp_path,
                                                             capsys):
    # s0 = 1e-320 gives a finite datum (about 4e159 at the centre) whose
    # squared norm overflows: the first sample aborts the run before any
    # step, which writes a failed bundle with no rows and exits 2. The
    # potential is zero, so no equilibrium mass rescales the datum. In
    # process, so any numpy warning on the way (an error under pytest)
    # fails the test.
    base = _EXTREME_BASE.replace("potential.alpha = 2",
                                 "potential.x_mode = zero")
    cfg = _write(tmp_path, "overflow.cfg", base + (
        "mode = macro\ninitial.kind = macro_gaussian\ninitial.s0 = 1e-320\n"))
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["run", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == "scenario failed: non-finite sample at t = 0\n", err
    with open(os.path.join(out, "overflow.json")) as fh:
        summary = json.load(fh)
    assert (summary["status"], summary["fitted_value"],
            summary["last_good_time"]) == ("failed", None, None)
    assert _read(os.path.join(out, "overflow.csv")).count("\n") == 1


@pytest.mark.parametrize("command", ["run", "constants"])
def test_cli_refuses_an_unknown_scheme_before_set_up(tmp_path, capsys,
                                                     monkeypatch, command):
    # refused when the config is read: no problem is built, no report
    # written, and the message is the stepper's own one line
    def no_build(config):
        raise AssertionError("build_problem ran for an unknown scheme")

    monkeypatch.setattr(runner, "build_problem", no_build)
    cfg = _write(tmp_path, "rk4.cfg", _EXTREME_BASE + "scheme = rk4\n")
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main([command, cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == ("validation error: scheme must be 'implicit_euler' or "
                   "'crank_nicolson'\n"), err
    assert not os.path.exists(out)


def test_cli_refuses_a_macro_crank_nicolson_run_in_one_line(tmp_path,
                                                            capsys,
                                                            monkeypatch):
    # macro runs take implicit Euler only: refused when the config is read
    def no_build(config):
        raise AssertionError("build_problem ran for a macro Crank-Nicolson "
                             "config")

    monkeypatch.setattr(runner, "build_problem", no_build)
    cfg = _write(tmp_path, "cn.cfg", _EXTREME_BASE
                 + "mode = macro\nscheme = crank_nicolson\n")
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["run", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == ("validation error: scheme = crank_nicolson is "
                   "kinetic-only; macro runs use implicit_euler\n"), err
    assert not os.path.exists(out)


@pytest.mark.parametrize("extra, key", [
    ("mode = macro\nmoments.x = -1\n", "moments.x"),
    ("moments.x = 2, -0.5\n", "moments.x"),
    ("moments.v = -1\n", "moments.v"),
])
def test_cli_refuses_a_negative_moment_power_before_set_up(
        tmp_path, capsys, monkeypatch, extra, key):
    def no_build(config):
        raise AssertionError("build_problem ran for a negative moment power")

    monkeypatch.setattr(runner, "build_problem", no_build)
    cfg = _write(tmp_path, "negative.cfg", _EXTREME_BASE + extra)
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert main(["run", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: %s = " % key), err
    assert "moment power must be >= 0" in err and len(err.splitlines()) == 1
    assert not os.path.exists(out)


def test_krylov_run_failure_writes_a_failed_bundle(tmp_path, monkeypatch):
    # 200 implicit-Euler steps on 65^2 take the Krylov path; a NaN solve in
    # its second window ends the run at the last sample the first accepted
    text = _TINY_KINETIC + "schedule.t_final = 10.0\n"
    cfg = ScenarioConfig(parse_config_text(text), name="krylov")
    monkeypatch.setattr(kfplab.evolution, "_MAX_BASIS", 29)
    ok_csv, _ = emit_report(run_scenario(cfg), str(tmp_path / "ok"))

    real_solve = kfplab.evolution.solve_with_refinement
    calls = {"n": 0}

    def flaky(lu, system, rhs, what):
        calls["n"] += 1
        sol = real_solve(lu, system, rhs, what)
        return sol * np.nan if calls["n"] > 29 else sol

    monkeypatch.setattr(kfplab.evolution, "solve_with_refinement", flaky)
    bundle = run_scenario(cfg)
    assert bundle.status == "failed"
    assert "non-finite state" in bundle.summary["error"]
    accepted = bundle.record.times.size
    assert 2 <= accepted < 41
    assert bundle.summary["last_good_time"] == bundle.record.times[-1]
    failed_csv, failed_json = emit_report(bundle, str(tmp_path / "failed"))
    with open(failed_json) as fh:
        assert json.load(fh)["status"] == "failed"
    ok_lines = _read(ok_csv).splitlines()
    failed_lines = _read(failed_csv).splitlines()
    assert failed_lines[0] == ok_lines[0]
    assert len(failed_lines) == 1 + accepted
    for ok_line, failed_line in zip(ok_lines[1:], failed_lines[1:]):
        ok_row, failed_row = ok_line.split(","), failed_line.split(",")
        assert failed_row[:4] + failed_row[5:] == ok_row[:4] + ok_row[5:]
