"""Implicit time integration of the kinetic and macroscopic equations.

Kinetic steps solve (I - dt (L - T)) f_{n+1} = f_n in q = f/sqrt(f_star)
coordinates, where the system matrix is I - dt (L_hat - T_hat); because
L_hat is weighted-symmetric nonpositive and T_hat weighted-skew, the step is
unconditionally nonexpansive in the mu-norm and conserves the discrete mass
to solver precision. Macroscopic steps do the same with the sigma-scaled
Fokker-Planck generator on densities.

Trajectories sample the squared mu-norm of the tracked state (f - f_star on
integrable branches, f itself when no stationary state exists), the twisted
entropy H, its dissipation D (directly and as a difference quotient of H),
x- and v-moments, and a maximum-principle indicator.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalError, ValidationError
from .grids import DensityField, Field, weighted_moment
from .hypo import dissipation_components, entropy_H
from .operators import SPLU_OPTIONS, solve_with_refinement

_MASS_TOL = 1e-9
_MAXP_TOL = 1e-6


class TrajectoryRecord:
    """Sampled time series of one run; arrays share length, times increase."""

    def __init__(self, times, norm_sq_mu, entropy_h, dissipation_d,
                 moments_j, moments_k, max_principle_ok, envelope):
        times = np.asarray(times, dtype=float)
        norm_sq_mu = np.asarray(norm_sq_mu, dtype=float)
        n = times.size
        arrays = {
            "entropy_H": np.asarray(entropy_h, dtype=float),
            "dissipation_D": np.asarray(dissipation_d, dtype=float),
            "envelope": np.asarray(envelope, dtype=float),
        }
        if norm_sq_mu.size != n or any(a.size != n for a in arrays.values()):
            raise ValidationError("trajectory arrays must share one length")
        for name, arr in list(moments_j.items()) + list(moments_k.items()):
            if np.asarray(arr).size != n:
                raise ValidationError("moment series %r has wrong length" % name)
        if n >= 2 and not np.all(np.diff(times) > 0):
            raise ValidationError("times must be strictly increasing")
        if np.any(norm_sq_mu < 0):
            raise ValidationError("norm_sq_mu must be nonnegative")
        self.times = times
        self.norm_sq_mu = norm_sq_mu
        self.entropy_H = arrays["entropy_H"]
        self.dissipation_D = arrays["dissipation_D"]
        self.moments_J = {k: np.asarray(v, dtype=float)
                          for k, v in moments_j.items()}
        self.moments_K = {k: np.asarray(v, dtype=float)
                          for k, v in moments_k.items()}
        self.max_principle_ok = np.asarray(max_principle_ok, dtype=bool)
        self.envelope = arrays["envelope"]


def _difference_quotient_of_H(times, entropy_h):
    """-dH/dt by central differences (one-sided at the ends)."""
    h = np.asarray(entropy_h, dtype=float)
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        return np.zeros_like(h)
    return -np.gradient(h, t)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def _kinetic_lu(dt, scheme, ops):
    key = ("kinetic", scheme, float(dt))
    if key not in ops._step_cache:
        gen = (ops._L_hat - ops._T_hat).tocsr()
        n = gen.shape[0]
        eye = sp.identity(n, format="csr")
        if scheme == "implicit_euler":
            system = eye - dt * gen
            rhs_mat = None
        elif scheme == "crank_nicolson":
            system = eye - 0.5 * dt * gen
            rhs_mat = (eye + 0.5 * dt * gen).tocsr()
        else:
            raise ValidationError("scheme must be 'implicit_euler' or "
                                  "'crank_nicolson'")
        ops._step_cache[key] = (splu(system.tocsc(), **SPLU_OPTIONS),
                                 system.tocsr(), rhs_mat)
    return ops._step_cache[key]


def _macro_lu(dt, ops):
    key = ("macro", float(dt))
    if key not in ops._step_cache:
        n = ops.macro_generator.shape[0]
        system = (sp.identity(n, format="csr") - dt * ops.macro_generator).tocsr()
        ops._step_cache[key] = (splu(system.tocsc(), **SPLU_OPTIONS), system,
                                 None)
    return ops._step_cache[key]


def step_kinetic(f, dt, eq, ops, scheme="implicit_euler"):
    """One implicit step of df/dt + Tf = Lf; mass-conservative by construction."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    lu, system, rhs_mat = _kinetic_lu(dt, scheme, ops)
    q = f.values.ravel() / ops._sqrt_f
    rhs = q if rhs_mat is None else rhs_mat @ q
    q_new = solve_with_refinement(lu, system, rhs, "kinetic step")
    return Field((q_new * ops._sqrt_f).reshape(f.grid.shape), f.grid)


def step_macro(rho, dt, eq, ops, scheme="implicit_euler"):
    """One implicit step of the macroscopic Fokker-Planck equation."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if scheme != "implicit_euler":
        raise ValidationError("macro stepping supports implicit_euler only")
    lu, system, _ = _macro_lu(dt, ops)
    rho_new = solve_with_refinement(lu, system, rho.values, "macro step")
    return DensityField(rho_new, eq.grid.x_grid)


# ---------------------------------------------------------------------------
# initial data library (all clipped to 0 <= f <= C f_star)
# ---------------------------------------------------------------------------

def initial_bump(eq, epsilon=0.5):
    """f_star (1 + eps sin(pi x/X) sin(pi v/V)): sign-structured, mass-neutral."""
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("epsilon must lie in (0,1) to keep f nonnegative")
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    bump = np.outer(np.sin(np.pi * xg.nodes / xg.half_width),
                    np.sin(np.pi * vg.nodes / vg.half_width))
    return Field(eq.f_star.values * (1.0 + epsilon * bump), eq.grid)


def initial_odd_v(eq, epsilon=0.5):
    """f_star (1 + eps cos(pi x/(2X)) sin(pi v/V)): microscopic-heavy, mass-neutral."""
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("epsilon must lie in (0,1) to keep f nonnegative")
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    bump = np.outer(np.cos(0.5 * np.pi * xg.nodes / xg.half_width),
                    np.sin(np.pi * vg.nodes / vg.half_width))
    return Field(eq.f_star.values * (1.0 + epsilon * bump), eq.grid)


def initial_shifted_gaussian(eq, center=(0.5, 0.5), width=1.0, clip_factor=4.0):
    """Product Gaussian at `center`, clipped to clip_factor * f_star and
    rescaled to the equilibrium mass on integrable branches."""
    if width <= 0 or clip_factor <= 0:
        raise ValidationError("width and clip_factor must be positive")
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    gx = np.exp(-((xg.nodes - center[0]) ** 2) / (2.0 * width ** 2))
    gv = np.exp(-((vg.nodes - center[1]) ** 2) / (2.0 * width ** 2))
    raw = np.outer(gx, gv)
    raw = np.minimum(raw, clip_factor * eq.f_star.values)
    if eq.integrable:
        mass_star = float(np.sum(eq.grid.weight_matrix * eq.f_star.values))
        mass_raw = float(np.sum(eq.grid.weight_matrix * raw))
        raw = raw * (mass_star / mass_raw)
        raw = np.minimum(raw, 2.0 * clip_factor * eq.f_star.values)
    return Field(raw, eq.grid)


def initial_macro_gaussian(x_grid, s0=2.0):
    """Unit-mass Gaussian density of variance s0 (the heat-decay initial state)."""
    if s0 <= 0:
        raise ValidationError("s0 must be positive")
    vals = np.exp(-x_grid.nodes ** 2 / (2.0 * s0)) / np.sqrt(2.0 * np.pi * s0)
    return DensityField(vals, x_grid)


def initial_macro_bump(eq, epsilon=0.5):
    """rho_star (1 + eps sin(pi x/X)): mass-neutral macro perturbation."""
    xg = eq.grid.x_grid
    vals = eq.rho_star.values * (1.0 + epsilon * np.sin(np.pi * xg.nodes
                                                        / xg.half_width))
    return DensityField(vals, xg)


# ---------------------------------------------------------------------------
# full trajectories
# ---------------------------------------------------------------------------

def _validate_schedule(schedule):
    dt, t_final, stride = schedule
    dt = float(dt)
    t_final = float(t_final)
    stride = int(stride)
    if dt <= 0 or t_final < dt or stride < 1:
        raise ValidationError("schedule must satisfy dt > 0, t_final >= dt, "
                              "sample_stride >= 1")
    return dt, t_final, stride


def run_trajectory(f0, schedule, mode, eq, ops, delta=0.0,
                   moment_powers=((2,), (2,)), scheme="implicit_euler",
                   envelope_fn=None, monitor_max_principle=True,
                   track_difference=None):
    """Evolve f0 and sample the diagnostics every sample_stride steps.

    mode='kinetic' expects a Field, mode='macro' a DensityField. The tracked
    state is f - f_star (resp. rho - rho_star) when the equilibrium is
    integrable, else the raw state; moments and the maximum principle always
    refer to the physical, untracked solution. NaN or mass drift aborts with
    a NumericalError carrying .last_good_time.
    """
    dt, t_final, stride = _validate_schedule(schedule)
    if mode not in ("kinetic", "macro"):
        raise ValidationError("mode must be 'kinetic' or 'macro'")
    if track_difference is None:
        track_difference = eq.integrable
    n_steps = int(round(t_final / dt))

    if mode == "kinetic":
        return _run_kinetic(f0, dt, n_steps, stride, eq, ops, delta,
                            moment_powers, scheme, envelope_fn,
                            monitor_max_principle, track_difference)
    return _run_macro(f0, dt, n_steps, stride, eq, ops, moment_powers,
                      envelope_fn, monitor_max_principle, track_difference)


def _abort(t_good, what, partial=None):
    err = NumericalError("%s; last good time %.6g" % (what, t_good))
    err.last_good_time = t_good
    err.partial_samples = partial or {}
    return err


def _finish_record(times, norms, hs, ds, mj, mk, okay, envelope_fn):
    times = np.asarray(times)
    if envelope_fn is None:
        envelope = np.full(times.size, norms[0] if norms else 0.0)
    else:
        envelope = np.asarray(envelope_fn(times), dtype=float)
    rec = TrajectoryRecord(times, norms, hs, ds,
                           {k: np.asarray(v) for k, v in mj.items()},
                           {k: np.asarray(v) for k, v in mk.items()},
                           okay, envelope)
    rec.dissipation_from_H = _difference_quotient_of_H(times, hs)
    return rec


def _run_kinetic(f0, dt, n_steps, stride, eq, ops, delta, moment_powers,
                 scheme, envelope_fn, monitor_max_principle, track_difference):
    fstar = eq.f_star.values
    ratio0 = f0.values / fstar
    if monitor_max_principle and np.min(ratio0) < -1e-12:
        raise ValidationError("initial state violates 0 <= f0 <= C f_star")
    c_bound = float(np.max(ratio0))
    j_powers, k_powers = moment_powers

    sqrt_f = ops._sqrt_f
    shape = eq.grid.shape
    base = fstar if track_difference else 0.0
    q = ((f0.values - base) / fstar).ravel() * sqrt_f  # q = y / sqrt(f_star)
    mass_w = (eq.grid.weight_matrix.ravel() * sqrt_f)   # mass(y) = mass_w . q
    mass0 = float(mass_w @ q)
    mass_scale = abs(mass0) + float(np.sum(eq.grid.weight_matrix * f0.values))

    times, norms, hs, ds, okay = [], [], [], [], []
    mj = {k: [] for k in j_powers}
    mk = {k: [] for k in k_powers}

    def sample(t, q_now):
        y = Field((q_now * sqrt_f).reshape(shape), eq.grid)
        f_phys = Field(y.values + base, eq.grid) if track_difference else y
        times.append(t)
        norms.append(max(float((eq.grid.weight_matrix.ravel() * q_now) @ q_now), 0.0))
        hs.append(entropy_H(y, delta, eq, ops))
        ds.append(dissipation_components(y, delta, eq, ops)["D"])
        for k in j_powers:
            mj[k].append(weighted_moment(f_phys, "x", k, eq))
        for k in k_powers:
            mk[k].append(weighted_moment(f_phys, "v", k, eq))
        if monitor_max_principle:
            # absolute-slack form: f <= C f_star + tol and f >= -tol pointwise
            over = float(np.max(f_phys.values - c_bound * fstar))
            under = float(np.min(f_phys.values))
            okay.append(bool(over <= _MAXP_TOL and under >= -_MAXP_TOL))
        else:
            okay.append(True)

    sample(0.0, q)
    t = 0.0
    partial = {"times": times, "norm_sq_mu": norms, "entropy_H": hs,
               "dissipation_D": ds}
    lu, system, rhs_mat = _kinetic_lu(dt, scheme, ops)
    for n in range(1, n_steps + 1):
        rhs = q if rhs_mat is None else rhs_mat @ q
        try:
            q = solve_with_refinement(lu, system, rhs, "kinetic step")
        except NumericalError as exc:
            raise _abort(t, str(exc), partial)
        if not np.all(np.isfinite(q)):
            raise _abort(t, "non-finite state detected", partial)
        t = n * dt
        if abs(float(mass_w @ q) - mass0) > _MASS_TOL * max(mass_scale, 1e-300):
            raise _abort(t, "mass drift beyond tolerance", partial)
        if n % stride == 0 or n == n_steps:
            sample(t, q)

    return _finish_record(times, norms, hs, ds, mj, mk, okay, envelope_fn)


def _run_macro(rho0, dt, n_steps, stride, eq, ops, moment_powers,
               envelope_fn, monitor_max_principle, track_difference):
    rho_star = eq.rho_star.values
    wx = eq.grid.x_grid.weights
    bracket = np.sqrt(1.0 + eq.grid.x_grid.nodes ** 2)
    ratio0 = rho0.values / rho_star
    if monitor_max_principle and np.min(ratio0) < -1e-12:
        raise ValidationError("initial density must be nonnegative")
    c_bound = float(np.max(ratio0))
    j_powers = moment_powers[0]

    base = rho_star if track_difference else 0.0
    y = rho0.values - base
    mass0 = float(np.sum(wx * y))
    mass_scale = abs(mass0) + float(np.sum(wx * rho0.values))

    times, norms, hs, ds, okay = [], [], [], [], []
    mj = {k: [] for k in j_powers}

    def sample(t, y_now):
        f_phys = y_now + base
        times.append(t)
        nsq = float(np.sum(wx * y_now ** 2 / rho_star))
        norms.append(max(nsq, 0.0))
        hs.append(0.5 * nsq)
        u = y_now / rho_star
        ds.append(float(eq.sigma_normalized * (u @ (ops._Sx_macro @ u))))
        for k in j_powers:
            mj[k].append(float(np.sum(wx * f_phys ** 2 * bracket ** k
                                      / rho_star)))
        if monitor_max_principle:
            over = float(np.max(f_phys - c_bound * rho_star))
            under = float(np.min(f_phys))
            okay.append(bool(over <= _MAXP_TOL and under >= -_MAXP_TOL))
        else:
            okay.append(True)

    sample(0.0, y)
    t = 0.0
    partial = {"times": times, "norm_sq_mu": norms, "entropy_H": hs,
               "dissipation_D": ds}
    lu, system, _ = _macro_lu(dt, ops)
    for n in range(1, n_steps + 1):
        try:
            y = solve_with_refinement(lu, system, y, "macro step")
        except NumericalError as exc:
            raise _abort(t, str(exc), partial)
        if not np.all(np.isfinite(y)):
            raise _abort(t, "non-finite state detected", partial)
        t = n * dt
        if abs(float(np.sum(wx * y)) - mass0) > _MASS_TOL * max(mass_scale, 1e-300):
            raise _abort(t, "mass drift beyond tolerance", partial)
        if n % stride == 0 or n == n_steps:
            sample(t, y)

    return _finish_record(times, norms, hs, ds, mj, {}, okay, envelope_fn)
