"""Command-line front end.

    kfplab run <config>          evolve one scenario, write CSV + JSON
    kfplab batch <config-list>   run many configs (optionally in parallel)
    kfplab constants <config>    constants only, no evolution
    kfplab check                 fast sweep of the core invariants

Exit codes: 0 success, 1 validation error, 2 numerical error (including a
scenario that went unstable mid-run), 3 I/O error.
"""

import argparse
import sys

import numpy as np

from . import evolution, hypo, rates, runner, spectral
from .equilibria import PotentialSpec, build_equilibrium
from .errors import NumericalError, ValidationError
from .grids import Field, Grid1D, PhaseGrid, inner_product_mu, norm_mu
from .operators import apply_A, apply_Pi, assemble


# ---------------------------------------------------------------------------
# the `check` invariant sweep
# ---------------------------------------------------------------------------

def _report(label, ok, detail=""):
    line = ("PASS  " if ok else "FAIL  ") + label
    if detail and not ok:
        line += "  (%s)" % detail
    print(line)
    return bool(ok)


def run_check():
    """One PASS/FAIL line per invariant; True when everything holds."""
    good = []

    # --- constant algebra ---------------------------------------------------
    ds = hypo.delta_star(1.0, 1.0, 1.0)
    good.append(_report("delta_star(1,1,1) equals 2/3",
                        abs(ds - 2.0 / 3.0) < 1e-15, "%r" % ds))
    lam = hypo.lambda_rate(1.0, 1.0, 1.0, 0.3)
    good.append(_report("lambda(1,1,1,0.3) inside its window (0, 0.3]",
                        0.0 < lam <= 0.3, "%r" % lam))
    rng = np.random.default_rng(7)
    algebra_ok = True
    for _ in range(200):
        lm, lM, cm = rng.uniform(0.1, 5.0, size=3)
        delta = rng.uniform(0.05, 0.95) * hypo.delta_star(lm, lM, cm)
        try:
            hypo.lambda_rate(lm, lM, cm, delta)
        except (ValidationError, NumericalError) as exc:
            algebra_ok = _report("rate quadratic over random constants",
                                 False, str(exc))
            break
    else:
        algebra_ok = _report("rate quadratic over random constants", True)
    good.append(algebra_ok)

    # --- operator structure (quadratic potentials, small box) ---------------
    spec = PotentialSpec("power", 2.0, alpha=2.0)
    grid = PhaseGrid(Grid1D(8.0, 65), Grid1D(8.0, 65))
    eq = build_equilibrium(spec, grid)
    ops = assemble(eq, spec, grid)
    rng = np.random.default_rng(11)
    f = Field(rng.standard_normal(grid.shape), grid)
    g = Field(rng.standard_normal(grid.shape), grid)

    tf, tg = ops.apply_transport(f), ops.apply_transport(g)
    skew = abs(inner_product_mu(tf, g, eq) + inner_product_mu(f, tg, eq))
    scale = norm_mu(tf, eq) * norm_mu(g, eq) + norm_mu(f, eq) * norm_mu(tg, eq)
    good.append(_report("transport skew-adjoint in the weighted inner product",
                        skew <= 1e-12 * scale, "%.3e" % (skew / scale)))

    lf, lg = ops.apply_collision(f), ops.apply_collision(g)
    sym = abs(inner_product_mu(lf, g, eq) - inner_product_mu(f, lg, eq))
    scale = norm_mu(lf, eq) * norm_mu(g, eq) + norm_mu(f, eq) * norm_mu(lg, eq)
    good.append(_report("collision self-adjoint", sym <= 1e-12 * scale))
    good.append(_report("collision dissipative",
                        inner_product_mu(lf, f, eq) <= 0.0))

    pf = apply_Pi(f, eq)
    ppf = apply_Pi(pf, eq)
    proj = float(np.max(np.abs(ppf.values - pf.values)))
    good.append(_report("Pi idempotent",
                        proj <= 1e-13 * max(1.0, np.max(np.abs(pf.values)))))
    adj = abs(inner_product_mu(pf, g, eq) - inner_product_mu(f, apply_Pi(g, eq), eq))
    good.append(_report("Pi self-adjoint", adj <= 1e-12 * scale))

    tfs = ops.apply_transport(eq.f_star)
    lfs = ops.apply_collision(eq.f_star)
    kernel = max(norm_mu(tfs, eq), norm_mu(lfs, eq))
    good.append(_report("equilibrium in the kernel of T and L",
                        kernel <= 1e-10 * norm_mu(eq.f_star, eq)))

    f0 = evolution.initial_bump(eq, 0.5)
    f1 = evolution.step_kinetic(f0, 0.05, eq, ops)
    m0 = float(np.sum(grid.weight_matrix * f0.values))
    m1 = float(np.sum(grid.weight_matrix * f1.values))
    good.append(_report("implicit step conserves mass",
                        abs(m1 - m0) <= 1e-12 * abs(m0)))

    # --- abstract-operator estimates and dissipation coercivity -------------
    estimates_ok = True
    detail = ""
    for k in range(20):
        h = Field(np.random.default_rng(100 + k).standard_normal(grid.shape),
                  grid)
        micro = Field(h.values - apply_Pi(h, eq).values, grid)
        nh2 = inner_product_mu(h, h, eq)
        nm = norm_mu(micro, eq)
        ah = apply_A(h, eq, ops)
        tah = ops.apply_transport(ah)
        checks = (
            abs(inner_product_mu(ah, h, eq)) <= 0.25 * nh2 * (1 + 1e-10),
            norm_mu(ah, eq) <= 0.5 * nm * (1 + 1e-10),
            norm_mu(tah, eq) <= nm * (1 + 1e-10),
            inner_product_mu(tah, h, eq) <= nm ** 2 * (1 + 1e-10),
        )
        if not all(checks):
            estimates_ok = False
            detail = "sample %d: %s" % (k, checks)
            break
    good.append(_report("auxiliary-operator estimates on random states",
                        estimates_ok, detail))

    constants = hypo.compute_constants(eq, ops)
    kappa = hypo.empirical_kappa(eq, ops, delta=constants.delta,
                                 sample_count=30, seed=3)
    good.append(_report("dissipation coercive at delta_star/2 (kappa > 0)",
                        kappa > 0.0, "%r" % kappa))

    # --- spectral gap of the quadratic-potential density measure ------------
    est = spectral.poincare_constant(spec, Grid1D(8.0, 129))
    good.append(_report("quadratic-potential Poincare gap near 1",
                        est.converged and abs(est.constant - 1.0) < 0.02,
                        "%r" % est.constant))

    # --- algebraic envelope vs its ODE ---------------------------------------
    times = np.linspace(0.0, 5.0, 11)
    env_ok = True
    for zeta in (0.5, 1.0, 2.0):
        closed = rates.bihari_lasalle_envelope(2.0, 0.7, zeta, times)
        ode = rates.bihari_lasalle_rk4(2.0, 0.7, zeta, times)
        if np.max(np.abs(closed - ode)) > 1e-6 * 2.0:
            env_ok = False
    good.append(_report("algebraic envelope matches its ODE integrator",
                        env_ok))

    return all(good)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; map that to the validation code 1
    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    parser = _Parser(prog="kfplab",
                     description="kinetic Fokker-Planck decay laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--dt", type=float, default=None)
    run_p.add_argument("--t-final", type=float, default=None)

    batch_p = sub.add_parser("batch", help="run every config in a list file")
    batch_p.add_argument("config_list")
    batch_p.add_argument("--workers", type=int, default=1)
    batch_p.add_argument("--out", default="out")
    batch_p.add_argument("--dt", type=float, default=None)
    batch_p.add_argument("--t-final", type=float, default=None)

    const_p = sub.add_parser("constants",
                             help="compute the constant bundle, no evolution")
    const_p.add_argument("config")
    const_p.add_argument("--out", default=None)

    sub.add_parser("check", help="run the fast invariant sweep")
    return parser


def _dispatch(args):
    if args.command == "run":
        config = runner.ScenarioConfig.from_file(args.config)
        if args.dt is not None or args.t_final is not None:
            config = config.override(dt=args.dt, t_final=args.t_final)
        out = args.out or config.output_dir
        bundle = runner.run_scenario(config)
        csv_path, json_path = runner.emit_report(bundle, out)
        print("wrote %s" % csv_path)
        print("wrote %s" % json_path)
        if bundle.status != "ok":
            print("scenario failed: %s" % bundle.summary.get("error"),
                  file=sys.stderr)
            return 2
        print("%s: regime=%s predicted=%.6g fitted=%.6g r2=%.4f"
              % (config.name, bundle.summary["regime"],
                 bundle.summary["predicted_exponent_or_rate"],
                 bundle.summary["fitted_value"],
                 bundle.summary["r_squared"]))
        return 0

    if args.command == "batch":
        entries = runner.run_batch(args.config_list, args.out,
                                   workers=args.workers, dt=args.dt,
                                   t_final=args.t_final)
        for entry in entries:
            print("%-8s %s" % (entry["status"], entry["config"]))
        if any(e["status"] == "io_error" for e in entries):
            return 3
        if any(e["status"] == "invalid" for e in entries):
            return 1
        if any(e["status"] == "failed" for e in entries):
            return 2
        return 0

    if args.command == "constants":
        config = runner.ScenarioConfig.from_file(args.config)
        out = args.out or config.output_dir
        path = runner.emit_constants_report(config, out)
        print("wrote %s" % path)
        return 0

    return 0 if run_check() else 2


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValidationError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 1
    except NumericalError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
