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
from .grids import Grid1D, PhaseGrid
from .operators import assemble, q_profiles, solve_elliptic


# ---------------------------------------------------------------------------
# the `check` invariant sweep
# ---------------------------------------------------------------------------

def _report(label, check):
    """Print one invariant's PASS/FAIL line; check() gives (ok, detail). A
    check that raises ValidationError or NumericalError fails with the
    message, and the sweep goes on."""
    try:
        ok, detail = check()
    except (ValidationError, NumericalError) as exc:
        ok, detail = False, str(exc)
    print(("PASS  " if ok else "FAIL  ") + label
          + ("  (%s)" % detail if detail and not ok else ""))
    return bool(ok)


def _within(err, scale, tol):
    return err <= tol * scale, "%.3e" % (err / scale)


def _delta_star():
    ds = hypo.delta_star(1.0, 1.0, 1.0)
    return abs(ds - 2.0 / 3.0) < 1e-15, "%r" % ds


def _rate_window():
    lam = hypo.lambda_rate(1.0, 1.0, 1.0, 0.3)
    return 0.0 < lam <= 0.3, "%r" % lam


def _rate_quadratic():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lm, lM, cm = rng.uniform(0.1, 5.0, size=3)
        delta = rng.uniform(0.05, 0.95) * hypo.delta_star(lm, lM, cm)
        hypo.lambda_rate(lm, lM, cm, delta)
    return True, ""


def _envelope_matches_ode():
    times = np.linspace(0.0, 5.0, 11)
    err = max(np.max(np.abs(rates.bihari_lasalle_envelope(2.0, 0.7, z, times)
                            - rates.bihari_lasalle_rk4(2.0, 0.7, z, times)))
              for z in (0.5, 1.0, 2.0))
    return err <= 1e-6 * 2.0, "%.3e" % err


def run_check():
    """One PASS/FAIL line per invariant; True when everything holds. The
    operators are checked in q = f/sqrt(f_star), as runs use them:
    <f, g>_mu = sum(w_flat q_f q_g), and Pi q and A q are the q-forms
    u_f sqrt(f_star) and u sqrt(f_star), u = (I + N)^-1 B q, of q_profiles."""
    spec = PotentialSpec("power", 2.0, alpha=2.0)
    grid = PhaseGrid(Grid1D(8.0, 65), Grid1D(8.0, 65))
    eq = build_equilibrium(spec, grid)
    ops = assemble(eq)
    w, sqrt_f = ops.w_flat, ops.sqrt_f

    def dot(a, b):
        return float(np.sum(w * a * b))

    def norm(a):
        return np.sqrt(max(dot(a, a), 0.0))

    def local_eq(u):                    # the q-form of u f_star
        return (u[:, np.newaxis] * sqrt_f.reshape(grid.shape)).ravel()

    def pi(q):
        return local_eq(q_profiles(q, ops)[0] / ops.mrho)

    def draw(rng):                      # white noise in q = f/sqrt(f_star)
        return rng.standard_normal(sqrt_f.size)

    rng = np.random.default_rng(11)
    qf, qg = draw(rng), draw(rng)

    def symmetric(apply, sign):         # <X f, g> = sign <f, X g>
        xf, xg = apply(qf), apply(qg)
        return _within(abs(dot(xf, qg) - sign * dot(qf, xg)),
                       norm(xf) * norm(qg) + norm(qf) * norm(xg), 1e-12)

    def idempotent():
        pf = pi(qf)
        return _within(float(np.max(np.abs(pi(pf) - pf))),
                       max(1.0, np.max(np.abs(pf))), 1e-13)

    def step_mass():
        q0 = evolution.initial_bump(eq, 0.5).values.ravel() / sqrt_f
        parts = evolution.fold(q0)
        sectors = {sign: evolution.sector_lu(gen, 0.05, "implicit_euler")
                   for sign, gen in evolution.sector_generators(
                       ops, parts).items()}
        q1 = evolution.unfold(evolution.advance(parts, sectors,
                                                "kinetic step"), q0.size)
        m0, m1 = (float(np.sum(w * sqrt_f * q)) for q in (q0, q1))
        return _within(abs(m1 - m0), abs(m0), 1e-12)

    def estimates():
        for k in range(20):
            q = draw(np.random.default_rng(100 + k))
            nm = norm(q - pi(q))
            aq = local_eq(solve_elliptic(q_profiles(q, ops)[1], ops))
            taq = ops.T_hat @ aq
            checks = (
                abs(dot(aq, q)) <= 0.25 * dot(q, q) * (1 + 1e-10),
                norm(aq) <= 0.5 * nm * (1 + 1e-10),
                norm(taq) <= nm * (1 + 1e-10),
                dot(taq, q) <= nm ** 2 * (1 + 1e-10),
            )
            if not all(checks):
                return False, "sample %d: %s" % (k, checks)
        return True, ""

    def coercive():
        delta = hypo.compute_constants(eq, ops).delta
        kappa = hypo.empirical_kappa(eq, ops, delta, sample_count=30, seed=3)
        return kappa > 0.0, "%r" % kappa

    def poincare_gap():
        est = spectral.poincare_constant(spec, Grid1D(8.0, 129))
        return (est.converged and abs(est.constant - 1.0) < 0.02,
                "%r" % est.constant)

    checks = [
        ("delta_star(1,1,1) equals 2/3", _delta_star),
        ("lambda(1,1,1,0.3) inside its window (0, 0.3]", _rate_window),
        ("rate quadratic over random constants", _rate_quadratic),
        ("transport skew-adjoint in the weighted inner product",
         lambda: symmetric(ops.T_hat.dot, -1.0)),
        ("collision self-adjoint", lambda: symmetric(ops.L_hat.dot, 1.0)),
        ("collision dissipative", lambda: (dot(ops.L_hat @ qf, qf) <= 0, "")),
        ("Pi idempotent", idempotent),
        ("Pi self-adjoint", lambda: symmetric(pi, 1.0)),
        ("equilibrium in the kernel of T and L",
         lambda: _within(max(norm(ops.T_hat @ sqrt_f),
                             norm(ops.L_hat @ sqrt_f)), norm(sqrt_f), 1e-10)),
        ("implicit step conserves mass", step_mass),
        ("auxiliary-operator estimates on random states", estimates),
        ("dissipation coercive at delta_star/2 (kappa > 0)", coercive),
        ("quadratic-potential Poincare gap near 1", poincare_gap),
        ("algebraic envelope matches its ODE integrator",
         _envelope_matches_ode),
    ]
    return all([_report(label, check) for label, check in checks])


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
