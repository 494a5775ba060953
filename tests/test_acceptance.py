"""Acceptance gate: twelve numbered end-to-end criteria.

Each test prints one PASS line carrying the measured numbers and the wall
time; a pytest failure on the corresponding assert is the FAIL line. Frozen
tolerances live next to each assert.
"""

import time

import numpy as np
import pytest

from conftest import make_problem
from field_oracle import (apply_A, apply_collision, apply_Pi, apply_transport,
                          inner_product_mu, norm_beta, norm_mu, step_macro,
                          weighted_moment)
from kfplab import (
    Field,
    Grid1D,
    PhaseGrid,
    PotentialSpec,
    assemble,
    build_equilibrium,
    initial_bump,
    initial_macro_gaussian,
    run_trajectory,
)
from kfplab import hypo, rates, spectral
from kfplab.cli import main
from kfplab.runner import ScenarioConfig, run_scenario


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _passed(num, limit_s, timer, detail):
    assert timer.elapsed < limit_s, (
        "criterion %d exceeded its %gs budget: %.1fs" % (num, limit_s,
                                                         timer.elapsed))
    print("PASS criterion %02d: %s [%.2fs < %gs]"
          % (num, detail, timer.elapsed, limit_s))


@pytest.fixture(scope="module")
def case1_fine():
    # the 129^2 quadratic/Gaussian reference problem (criteria 6 and 9)
    return make_problem("power", 2.0, 8.0, 129, 8.0, 129, alpha=2.0)


# ---------------------------------------------------------------------------

def test_criterion_01_constant_algebra():
    with _Timer() as tm:
        ds = hypo.delta_star(1.0, 1.0, 1.0)
        assert ds == 2.0 / 3.0
        lam = hypo.lambda_rate(1.0, 1.0, 1.0, 0.3)
        s = 0.5 * lam
        residual = abs(3.91 * s ** 2 - 3.58 * s + 0.33)
        assert residual < 1e-12
        # the dissipation quadratic form in (X, Y) = (micro, macro) norms at
        # the returned lambda: a X^2 - cross XY + b Y^2 with zero discriminant
        a = 1.0 - 0.3 - s
        b = 0.3 * 0.5 - s
        cross = 0.3 * (1.0 + s)
        rng = np.random.default_rng(2026)
        pairs_x, pairs_y = rng.standard_normal((2, 100000))
        form = a * pairs_x ** 2 - cross * pairs_x * pairs_y + b * pairs_y ** 2
        scale = pairs_x ** 2 + pairs_y ** 2
        worst = float(np.min(form / scale))
        assert worst >= -1e-9
    _passed(1, 1.0, tm,
            "delta_star(1,1,1)=2/3 exact; quadratic residual %.2e; "
            "form min %.2e on 1e5 pairs" % (residual, worst))


def _consistency_errors(eq, ops, grid):
    # alpha = beta = 2: phi' = x, psi' = v, so on f = u f_star
    # T f = (v u_x - x u_v) f_star and L f = (u_vv - v u_v) f_star
    x = grid.x_grid.nodes[:, None]
    v = grid.v_grid.nodes[None, :]
    u = np.sin(0.8 * x) * np.exp(-0.1 * v ** 2)
    u_x = 0.8 * np.cos(0.8 * x) * np.exp(-0.1 * v ** 2)
    u_v = -0.2 * v * u
    u_vv = (-0.2 + 0.04 * v ** 2) * u
    fs = eq.f_star.values
    f = Field(u * fs, grid)
    t_exact = Field((v * u_x - x * u_v) * fs, grid)
    l_exact = Field((u_vv - v * u_v) * fs, grid)
    t_err = (norm_mu(Field(apply_transport(ops, f).values - t_exact.values,
                           grid), eq) / norm_mu(t_exact, eq))
    l_err = (norm_mu(Field(apply_collision(ops, f).values - l_exact.values,
                           grid), eq) / norm_mu(l_exact, eq))
    return t_err, l_err


def test_criterion_02_operator_structure():
    with _Timer() as tm:
        kernel_rel = []
        t_errs, l_errs = [], []
        for n in (65, 129, 257):
            _, grid, eq, ops = make_problem("power", 2.0, 8.0, n, 8.0, n,
                                            alpha=2.0)
            rng = np.random.default_rng(5)
            sqrt_f = np.sqrt(eq.f_star.values)
            f = Field(rng.standard_normal(grid.shape) * sqrt_f, grid)
            g = Field(rng.standard_normal(grid.shape) * sqrt_f, grid)

            tf, tg = apply_transport(ops, f), apply_transport(ops, g)
            scale = (norm_mu(tf, eq) * norm_mu(g, eq)
                     + norm_mu(f, eq) * norm_mu(tg, eq))
            assert abs(inner_product_mu(tf, g, eq)
                       + inner_product_mu(f, tg, eq)) <= 1e-12 * scale
            lf, lg = apply_collision(ops, f), apply_collision(ops, g)
            scale = (norm_mu(lf, eq) * norm_mu(g, eq)
                     + norm_mu(f, eq) * norm_mu(lg, eq))
            assert abs(inner_product_mu(lf, g, eq)
                       - inner_product_mu(f, lg, eq)) <= 1e-11 * scale
            pf = apply_Pi(f, eq)
            assert np.max(np.abs(apply_Pi(pf, eq).values - pf.values)) <= (
                1e-13 * max(1.0, float(np.max(np.abs(pf.values)))))
            assert abs(inner_product_mu(pf, g, eq)
                       - inner_product_mu(f, apply_Pi(g, eq), eq)) <= (
                1e-12 * norm_mu(f, eq) * norm_mu(g, eq))
            ptp = apply_Pi(apply_transport(ops, pf), eq)
            assert norm_mu(ptp, eq) <= 1e-12 * norm_mu(f, eq)

            res = max(norm_mu(apply_transport(ops, eq.f_star), eq),
                      norm_mu(apply_collision(ops, eq.f_star), eq))
            kernel_rel.append(res / norm_mu(eq.f_star, eq))
            t_err, l_err = _consistency_errors(eq, ops, grid)
            t_errs.append(t_err)
            l_errs.append(l_err)

        # kernel residuals are EXACT by construction (discrete log-derivative
        # coefficients), which dominates any finite decay order; the >= 1.8
        # convergence order is measured where discretization error lives,
        # on T and L applied to a smooth non-equilibrium state
        assert max(kernel_rel) <= 1e-12
        orders = [np.log2(e[0] / e[1]) for e in
                  (t_errs[:2], t_errs[1:], l_errs[:2], l_errs[1:])]
        assert min(orders) >= 1.8
    _passed(2, 60.0, tm,
            "kernel residual <= %.1e at nx=nv in {65,129,257}; "
            "consistency orders %s" % (max(kernel_rel),
                                       ["%.2f" % o for o in orders]))


def test_criterion_03_abstract_estimates(quadrants):
    with _Timer() as tm:
        reports = []
        for alpha, beta in ((2.0, 2.0), (0.5, 0.5)):
            _, grid, eq, ops = quadrants[(alpha, beta)]
            worst = {"af": 0.0, "taf": 0.0, "aff": 0.0, "taff": 0.0}
            for f in hypo._random_suite(eq, 100, seed=5):
                pi_f = apply_Pi(f, eq)
                micro = Field(f.values - pi_f.values, grid)
                nm = norm_mu(micro, eq)
                nf2 = inner_product_mu(f, f, eq)
                af = apply_A(f, eq, ops)
                taf = apply_transport(ops, af)
                worst["af"] = max(worst["af"], norm_mu(af, eq) / (0.5 * nm))
                worst["taf"] = max(worst["taf"], norm_mu(taf, eq) / nm)
                worst["aff"] = max(worst["aff"],
                                   abs(inner_product_mu(af, f, eq))
                                   / (0.25 * nf2))
                if beta >= 1.0:
                    bound = nm ** 2
                else:
                    bound = norm_beta(micro, beta, eq) ** 2 / eq.sigma
                worst["taff"] = max(worst["taff"],
                                    abs(inner_product_mu(taf, f, eq)) / bound)
            assert max(worst.values()) <= 1.0 + 1e-8, (alpha, beta, worst)
            reports.append("(%g,%g) worst %.6f" % (alpha, beta,
                                                   max(worst.values())))
    _passed(3, 300.0, tm,
            "0 violations in 100 draws/quadrant; " + "; ".join(reports))


def test_criterion_04_kappa_positive(quadrants):
    with _Timer() as tm:
        reports = []
        for (alpha, beta), problem in sorted(quadrants.items()):
            _, _, eq, ops = problem
            constants = hypo.compute_constants(eq, ops)
            kappa = hypo.empirical_kappa(eq, ops, delta=constants.delta,
                                         sample_count=100, seed=1)
            assert kappa > 0.0, (alpha, beta, kappa)
            reports.append("alpha=%g beta=%g kappa=%.4f" % (alpha, beta,
                                                            kappa))
    _passed(4, 600.0, tm, "; ".join(reports))


def test_criterion_05_heat_decay():
    with _Timer() as tm:
        spec = PotentialSpec("zero", 2.0)
        grid = PhaseGrid(Grid1D(12.0, 481), Grid1D(8.0, 65))
        eq = build_equilibrium(spec, grid)
        ops = assemble(eq)
        rho0 = initial_macro_gaussian(grid.x_grid, s0=2.0)
        rec = run_trajectory(rho0, (0.0025, 3.0, 40), "macro", eq, ops)
        fitted, r_sq = rates.fit_rate(rec, "algebraic")
        assert abs(fitted - 0.5) <= 0.05

        rho = rho0
        for _ in range(1200):
            rho = step_macro(rho, 0.0025, eq, ops)
        s_t = 2.0 + 2.0 * eq.sigma_normalized * 3.0
        exact = (np.exp(-grid.x_grid.nodes ** 2 / (2.0 * s_t))
                 / np.sqrt(2.0 * np.pi * s_t))
        point_err = float(np.max(np.abs(rho.values - exact))
                          / np.max(exact))
        assert point_err <= 0.02
    _passed(5, 60.0, tm,
            "fitted exponent %.4f (target 0.50 +- 0.05, r2=%.5f); "
            "pointwise error %.1e of peak <= 2e-2" % (fitted, r_sq,
                                                      point_err))


def test_criterion_06_exponential_regime(case1_fine):
    with _Timer() as tm:
        _, grid, eq, ops = case1_fine
        constants = hypo.compute_constants(eq, ops)
        lam = constants.lambda_rate
        f0 = initial_bump(eq, 0.5)
        rec = run_trajectory(f0, (0.02, 20.0, 20), "kinetic", eq, ops,
                             delta=constants.delta)
        h0 = rec.entropy_H[0]
        assert np.all(np.diff(rec.entropy_H) <= 1e-8 * h0)
        fitted, _ = rates.fit_rate(rec, "exponential")
        assert fitted >= lam
        envelope = h0 * np.exp(-lam * rec.times)
        assert np.all(rec.entropy_H <= envelope * (1.0 + 1e-9))
    _passed(6, 600.0, tm,
            "H monotone; fitted rate %.3f >= pipeline lambda %.4f; "
            "H0 e^{-lambda t} dominates all %d samples"
            % (fitted, lam, rec.times.size))


def test_criterion_07_subexponential_regime():
    with _Timer() as tm:
        cfg = ScenarioConfig({
            "mode": "kinetic", "potential.x_mode": "power",
            "potential.alpha": "2.0", "beta": "0.5",
            "grid.x_half_width": "8", "grid.v_half_width": "48",
            "grid.nx": "129", "grid.nv": "385",
            "grid.truncation_tol": "1e-5",
            "schedule.dt": "0.05", "schedule.t_final": "50",
            "schedule.sample_stride": "20",
            "rates.ell": "2", "initial.kind": "bump",
            "initial.epsilon": "0.5", "seed": "21",
        }, name="case2")
        bundle = run_scenario(cfg)
        assert bundle.status == "ok"
        assert bundle.summary["paper_case"] == "thm2.case2"
        assert bundle.summary["regime"] == "algebraic"
        predicted = bundle.summary["predicted_exponent_or_rate"]
        assert predicted == pytest.approx(2.0)       # ell / (2 (1 - beta))
        fitted = bundle.summary["fitted_value"]
        assert fitted >= 2.0 - 0.3
        rec = bundle.record
        lo = rates.default_window(rec)[0]
        sel = rec.times >= lo - 1e-12
        assert np.all(rec.norm_sq_mu[sel] <= rec.envelope[sel] * (1.0 + 1e-9))
    _passed(7, 900.0, tm,
            "fitted exponent %.3f >= 1.7 (predicted 2); envelope "
            "C(1+t)^-2 dominates for t >= %.1f" % (fitted, lo))


def test_criterion_08_mixed_regime():
    with _Timer() as tm:
        cfg = ScenarioConfig({
            "mode": "kinetic", "potential.x_mode": "power",
            "potential.alpha": "0.5", "beta": "0.5",
            "grid.x_half_width": "48", "grid.v_half_width": "48",
            "grid.nx": "257", "grid.nv": "257",
            "grid.truncation_tol": "1e-5",
            "schedule.dt": "0.05", "schedule.t_final": "100",
            "schedule.sample_stride": "40",
            "rates.k": "2", "rates.ell": "2",
            "initial.kind": "bump", "initial.epsilon": "0.5", "seed": "22",
        }, name="case4")
        bundle = run_scenario(cfg)
        assert bundle.status == "ok"
        assert bundle.summary["paper_case"] == "thm2.case4"
        predicted = bundle.summary["predicted_exponent_or_rate"]
        assert predicted == pytest.approx(2.0)       # zeta = min{2, 2}
        fitted = bundle.summary["fitted_value"]
        assert fitted >= 2.0 - 0.3
    _passed(8, 900.0, tm,
            "fitted exponent %.3f >= 1.7 (zeta = min{2,2} = 2)" % fitted)


def test_criterion_09_moment_maximum_principle(case1_fine):
    with _Timer() as tm:
        _, grid, eq, ops = case1_fine
        x = grid.x_grid.nodes[:, None]
        v = grid.v_grid.nodes[None, :]
        bump = np.exp(-((x - 1.0) ** 2 + (v - 1.0) ** 2) / 2.0)
        f0 = Field(np.minimum(eq.f_star.values * (1.0 + 1.5 * bump),
                              2.0 * eq.f_star.values), grid)
        c0 = float(np.max(f0.values / eq.f_star.values))
        rec = run_trajectory(f0, (0.05, 10.0, 10), "kinetic", eq, ops,
                             delta=0.3)
        assert np.all(rec.max_principle_ok)  # f <= c0 f_star + 1e-6, f >= -1e-6
        margins = []
        for axis, series in (("x", rec.moments_J[2.0]),
                             ("v", rec.moments_K[2.0])):
            bound = c0 ** 2 * weighted_moment(eq.f_star, axis, 2.0, eq)
            assert np.max(series) <= bound * (1.0 + 1e-8)
            margins.append(float(np.max(series) / bound))
    _passed(9, 300.0, tm,
            "max principle holds at all %d samples (C=%g); J_2, K_2 at "
            "%.2f, %.2f of their C^2-bounds" % (rec.times.size, c0,
                                                margins[0], margins[1]))


def test_criterion_10_spectral_constants():
    with _Timer() as tm:
        spec2 = PotentialSpec("power", 2.0, alpha=2.0)
        est_p = spectral.poincare_constant(spec2, Grid1D(8.0, 129))
        assert est_p.converged and abs(est_p.constant - 1.0) <= 0.02

        grid = Grid1D(48.0, 193)
        est_w = spectral.weighted_poincare_constant(0.5, grid)
        est_h = spectral.hardy_poincare_constant(3.0, 1.0, grid)
        assert est_w.constant > 0.0 and est_w.converged
        assert est_h.constant > 0.0 and est_h.converged

        # feasibility: 20 random functions per inequality on the ladder's
        # finest grid, in the estimator's own discrete forms
        fine = grid.refine().refine()
        from kfplab.equilibria import eval_potential
        mid = 0.5 * (fine.nodes[:-1] + fine.nodes[1:])
        spec_w = PotentialSpec("power", 2.0, alpha=0.5)
        phi_mid = np.array([eval_potential(spec_w, "x", m) for m in mid])
        phi = np.array([eval_potential(spec_w, "x", p) for p in fine.nodes])
        bracket = np.sqrt(1.0 + fine.nodes ** 2)
        bracket_mid = np.sqrt(1.0 + mid ** 2)
        cases = (
            (est_w.constant, np.exp(-phi_mid),
             fine.weights * bracket ** (-1.0) * np.exp(-phi)),
            (est_h.constant, bracket_mid ** (-2.0),
             fine.weights * bracket ** (-4.0)),
        )
        rng = np.random.default_rng(29)
        for constant, face, mass in cases:
            for _ in range(20):
                u = rng.standard_normal(fine.count)
                ubar = np.sum(mass * u) / np.sum(mass)
                num = np.sum(face * np.diff(u) ** 2 / fine.spacing)
                den = np.sum(mass * (u - ubar) ** 2)
                assert num >= constant * den * (1.0 - 1e-8)
    _passed(10, 120.0, tm,
            "Poincare %.4f (1 +- 0.02, converged); weighted-Poincare %.4f "
            "and Hardy-Poincare %.4f positive, converged, feasible on "
            "20 random functions each"
            % (est_p.constant, est_w.constant, est_h.constant))


def test_criterion_11_algebraic_envelope_ode():
    with _Timer() as tm:
        times = np.linspace(0.0, 50.0, 501)
        worst = 0.0
        for zeta in (0.5, 1.0, 2.0):
            closed = rates.bihari_lasalle_envelope(2.0, 0.7, zeta, times)
            ode = rates.bihari_lasalle_rk4(2.0, 0.7, zeta, times)
            worst = max(worst, float(np.max(np.abs(closed - ode))))
        assert worst <= 1e-6
    _passed(11, 1.0, tm,
            "closed form vs RK4 max |diff| %.1e <= 1e-6 for "
            "zeta in {1/2, 1, 2}" % worst)


def test_criterion_12_determinism(tmp_path):
    with _Timer() as tm:
        cfg_path = tmp_path / "repeat.cfg"
        cfg_path.write_text(
            "mode = kinetic\npotential.x_mode = power\n"
            "potential.alpha = 2.0\nbeta = 2.0\n"
            "grid.x_half_width = 8\ngrid.v_half_width = 8\n"
            "grid.nx = 65\ngrid.nv = 65\n"
            "schedule.dt = 0.05\nschedule.t_final = 5\n"
            "schedule.sample_stride = 5\nseed = 7\n")
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", str(cfg_path), "--out", str(out)]) == 0
            blobs.append(((out / "repeat.csv").read_bytes(),
                          (out / "repeat.json").read_bytes()))
        assert blobs[0] == blobs[1]
    _passed(12, 60.0, tm,
            "two `run` invocations, seed 7: CSV and JSON byte-identical "
            "(%d + %d bytes)" % (len(blobs[0][0]), len(blobs[0][1])))
