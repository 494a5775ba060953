"""Implicit time integration of the kinetic and macroscopic equations.

Kinetic steps solve (I - dt (L - T)) f_{n+1} = f_n in q = f/sqrt(f_star)
coordinates, where the system matrix is I - dt (L_hat - T_hat); because
L_hat is weighted-symmetric nonpositive and T_hat weighted-skew, the step is
unconditionally nonexpansive in the mu-norm and conserves the discrete mass
to solver precision. Macroscopic steps do the same with the sigma-scaled
Fokker-Planck generator on densities.

Every step system commutes with the reflection (x, v) -> (-x, -v), exactly
and not just to roundoff: Grid1D mirrors its nodes and every potential is
even, so the assembled entries repeat bit for bit under the reflection. On
the row-major flattened state y (n = 2m + 1 entries) the reflection is the
reversal y[::-1], so a step splits into an even and an odd sector. A state
is carried in orthonormal sector coordinates: the even part as
(y_i + y_{n-1-i}) / sqrt(2) for i < m followed by y_m, the odd part as
(y_i - y_{n-1-i}) / sqrt(2) for i < m. The map is orthogonal, so each part's
2-norm is the full-grid norm of the vector it stands for, and a residual
check per sector certifies the same relative residual on the full grid.
Each sector matrix is folded and factored on its own, and only for a part
that is nonzero; a part that is exactly zero stays zero and is never
solved. Data with one parity (the kinetic bump is even, the odd_v and
macro bump deviations are odd) therefore factor and solve half the
problem. Each call that steps factors its state's sectors up front
(SectorLU) and drops the full-grid system; the operator set keeps no step
factors. Between samples run_trajectory keeps only the parts; the full
vector is rebuilt at sample times.

Long kinetic implicit-Euler runs are sampled from a Krylov space instead of
stepped. With A = (I - gamma G)^-1 the step is (I - dt G)^-1 = f(A) with
f(z) = z / ((1 - r) z + r), r = dt / gamma, so the state after k steps is
f(A)^k q0: a rational function of G with one repeated pole, analytic on the
field of values of A. Because G is dissipative in the mu-inner product,
that field lies in the disc |z - 1/2| <= 1/2 and the pole of f^k sits
outside it at z = -r / (1 - r), so polynomials in A approximate f^k there
and the Krylov space of A and q0 (the RD-rational space of Moret-Novati,
BIT 2004, and van den Eshof-Hochbruck, SISC 2006) holds the iterates. The
run factors I - gamma G once per occupied sector, gamma = 4 dt: the pole
then sits at -1/3; with gamma = t_final / 100 (20 dt for acceptance
criterion 8) it sat at -1/19 and the first basis of that run agreed on no
sample. Arnoldi in the mu-inner product (the sector's head of w_flat) gives
a mu-orthonormal basis V_m and H_m = V_m^T W A V_m, one solve per vector;
G_m = (I - H_m^-1) / gamma is dissipative as well, and every sample is read
as beta V_m (I - dt G_m)^-k e_1, k its step count.

Error control: a basis grows until the approximation of every sample still
to come agrees, in the mu-norm, with the one from a vector fewer to 1e-10
relative. It is capped at nnz(L + U) / n_sector vectors (at most 100), so
it never holds more numbers than its factor, in one buffer per sector that
every window reuses. At the cap the run keeps the leading samples that
agree and restarts from the last of them; a window that agrees on none
steps the rest of the run on a factor of I - dt G. A guard sends a run down
this path only when its step count is large for its sector size (see
_krylov_pays), before anything is factored, so every run factors once
unless a window falls back; macro and Crank-Nicolson runs always step.

Checks: every solve, stepped or Krylov, passes solve_with_refinement's
1e-10 relative residual check, and every Krylov vector a finiteness check.
Every state the run checks (each step when stepping, each sample on the
Krylov path) must be finite and keep its mass to 1e-9, and every sample's
diagnostics must be finite; a sample read in a basis (below) is checked on
its coefficients c, which must be finite, and its mass (V m) . c. On the
Krylov path the last good time of an aborted run is therefore its last
accepted sample.

Trajectories sample the squared mu-norm of the tracked state (f - f_star on
integrable branches, f itself when no stationary state exists), the twisted
entropy H, its dissipation D (directly and as a difference quotient of H),
x- and v-moments, and a maximum-principle indicator. A kinetic sample is
read one of two ways, and hypo.entropy_and_dissipation_from takes H and D
from its pieces either way:

* per state, from q = y / sqrt(f_star) and its nx x nv view in one pass,
  without building a Field: H and D from one entropy_and_dissipation call,
  that is one profile product and one elliptic solve with four right-hand
  sides (none at delta = 0);
* in a basis, when a Krylov window of m vectors agrees on S >= m samples
  (_window_pays): every sample is q = c V, V the window's mu-orthonormal
  rows in sector coordinates, and none is formed. Once per window come the
  m x m forms -V M_L V^T (M_L = W L_hat folded onto the sector) and
  V diag(d) V^T for each moment weight d, the moments' linear terms, the
  four profiles of each row with one elliptic solve of 4m right-hand sides
  and its residuals, the mass functional V m and the max-principle weights
  a_j = max_i |V_ji| s_i. Per sample come ||q||_mu^2 = ||c||^2,
  -<Lf, f>_mu and the moments as quadratic forms in c, and the profiles
  and elliptic solutions as c-combinations; each combined residual is
  checked against 1e-10 of its right-hand side, and a sample that fails is
  solved again on its own.

The two are associations of the same products: the basis pays a few
m x m Gram products over the sector per window, forming pays a dozen
full-grid scans per sample, so the basis is the cheaper one once S >= m. A
window with S < m forms its samples, and so does a sample one of whose
sectors comes from such a window. Every weight is reversal-symmetric and
every operator commutes with the reflection, so each diagnostic is a
reflection-invariant quadratic form plus linear terms that live in the even
sector: the cross terms between sectors vanish, and a sample's diagnostics
are the sums of its sectors' shares.

The max principle of a sample read in a basis: with f = f_star +
q sqrt(f_star), |q_i| sqrt(f_star_i) <= a f_star_i + 1e-6 for
a = min(C - 1, 1) gives -1e-6 <= f_i <= C f_star_i + 1e-6. An entry of q is
at most (|even part| + |odd part|) / sqrt(2) of its sector coordinates, so
with s = sqrt(f_star) / (a f_star + 1e-6) (over sqrt(2), but at the middle
node) the sum over sectors of |c| . a proves it at every node when it is at
most 1 - 1e-9. Otherwise the sample is formed and checked pointwise, as it
always is without an integrable equilibrium or for C < 1. A delta outside
[0, 2) is refused before anything is factored.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalError, ValidationError
from .grids import DensityField, Field
# hypo.entropy_and_dissipation_from and operators.solve_elliptic are looked
# up on their modules at each call, so that a wrapper installed there
# (instrumentation, tests) sees every sample and every elliptic solve
from . import hypo, operators
# The per-state sampler calls entropy_and_dissipation only. entropy_H and
# dissipation_components stay importable here because bench/tracing.py wraps
# them by these names in every benchmark run and refuses to run without them.
from .hypo import (check_entropy_delta, dissipation_components,  # noqa: F401
                   elliptic_rhs, entropy_H, entropy_and_dissipation)
from .operators import (SPLU_OPTIONS, q_profiles, residual_stalls,
                        solve_with_refinement)

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

    @property
    def dissipation_from_H(self):
        """-dH/dt by central differences (one-sided at the ends)."""
        if self.times.size < 2:
            return np.zeros_like(self.entropy_H)
        return -np.gradient(self.entropy_H, self.times)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


def fold(y):
    """{sign: part} of y in orthonormal sector coordinates (+1 even, -1 odd),
    leaving out a part that is exactly zero."""
    m = y.size // 2
    head, tail = y[:m], y[:m:-1]          # tail[i] = y[n-1-i]
    even = np.empty(m + 1)
    even[:m] = (head + tail) / _SQRT2
    even[m] = y[m]
    odd = (head - tail) / _SQRT2
    return {sign: part for sign, part in ((1, even), (-1, odd)) if part.any()}


def unfold(parts, n):
    """The length-n vector whose sector parts are `parts` (the inverse of fold)."""
    m = n // 2
    even = parts[1][:m] if 1 in parts else 0.0
    odd = parts[-1] if -1 in parts else 0.0
    y = np.zeros(n)
    y[:m] = (even + odd) / _SQRT2
    y[:m:-1] = (even - odd) / _SQRT2
    if 1 in parts:
        y[m] = parts[1][m]
    return y


def fold_sector(system, sign):
    """S (odd order n = 2m + 1, reversal-symmetric, canonical CSR) on its
    even (sign +1) or odd (sign -1) sector in fold's coordinates, as
    canonical CSR: entry (i, j < m) is S[i, j] + sign S[i, n-1-j], and the
    even sector's column m (i < m) is sqrt(2) S[i, m], its row m that sum
    over sqrt(2). scipy's duplicate merge adds each direct and mirrored
    pair: two terms, whose sum commutes, so the merge order changes no bit."""
    n = system.shape[0]
    m = n // 2
    half = m + 1 if sign > 0 else m
    end = system.indptr[half]
    # the kept arrays are copied before any temporary: system[:half], or
    # indptr copied after the masks, raised tail_257's peak RSS by 2 MB
    indptr = system.indptr[:half + 1].copy()
    data, cols = system.data[:end].copy(), system.indices[:end].copy()
    mirrored = cols > m
    cols[mirrored] = n - 1 - cols[mirrored]
    data[mirrored] *= sign
    if sign < 0:
        data[cols == m] = 0.0           # the odd sector has no column m
    top = sp.csr_matrix((data, cols, indptr), shape=(half, n))
    top.sum_duplicates()
    top.eliminate_zeros()               # exact cancellations included
    top.resize(half, half)              # every entry is in a column < half
    if sign > 0:                        # S[m, m] stays as it is
        row_m = top.indptr[m]
        top.data[row_m:][top.indices[row_m:] < m] /= _SQRT2
        top.data[:row_m][top.indices[:row_m] == m] *= _SQRT2
    return top


def _reversal_symmetric(matrix):
    """matrix[::-1, ::-1] == matrix for canonical CSR, whose reversal has
    data[::-1], indices n - 1 - indices[::-1] and indptr nnz - indptr[::-1]."""
    n = matrix.shape[0]
    return (np.array_equal(matrix.indptr, matrix.nnz - matrix.indptr[::-1])
            and np.array_equal(matrix.indices, n - 1 - matrix.indices[::-1])
            and np.array_equal(matrix.data, matrix.data[::-1]))


class SectorLU:
    """The step system of (mode, dt, scheme) on ops, factored per sector.

    _step_matrices gives S, canonical CSR of odd order n = 2m + 1 with
    S[::-1, ::-1] == S (else NumericalError, from _reversal_symmetric's
    comparison of the CSR arrays), and Crank-Nicolson's rhs_mat with the
    same symmetry. Each sign in signs (+1 even, -1 odd) is folded by
    fold_sector from a copy of S's first half rows, kept as canonical CSR
    for the residual checks and factored as CSC with SPLU_OPTIONS here, one
    at a time; the full-grid system is then dropped. sector(sign) is that
    sector's (factor, matrix, folded rhs_mat or None), lus maps each sign
    to its LU.
    """

    def __init__(self, ops, mode, dt, scheme, signs):
        system, rhs_mat = _step_matrices(ops, mode, dt, scheme)
        if not _reversal_symmetric(system):
            raise NumericalError("step system does not commute with the "
                                 "reflection (x, v) -> (-x, -v)")
        self._sectors = {}
        self.lus = {}
        for sign in signs:
            matrix = fold_sector(system, sign)
            folded_rhs = (None if rhs_mat is None
                          else fold_sector(rhs_mat, sign))
            self.lus[sign] = splu(matrix.tocsc(), **SPLU_OPTIONS)
            self._sectors[sign] = (self.lus[sign], matrix, folded_rhs)

    def sector(self, sign):
        return self._sectors[sign]


def check_scheme(scheme):
    """ValidationError unless scheme names a time-stepping scheme."""
    if scheme not in ("implicit_euler", "crank_nicolson"):
        raise ValidationError("scheme must be 'implicit_euler' or "
                              "'crank_nicolson'")


def _step_matrices(ops, mode, dt, scheme):
    """(system, rhs_mat) of one implicit step, as canonical CSR matrices
    (sorted indices, no stored zeros).

    The generator G is L_hat - T_hat on q for mode 'kinetic' and the macro
    generator on densities for 'macro'. Implicit Euler solves
    (I - dt G) y_new = y (rhs_mat None); Crank-Nicolson, kinetic only, solves
    (I - dt/2 G) y_new = (I + dt/2 G) y. Each matrix is the sparse sum
    I -+ h G of the stored generator, formed in place on a copy of G.
    """
    if dt <= 0:
        raise ValidationError("dt must be positive")
    check_scheme(scheme)
    if mode == "macro" and scheme != "implicit_euler":
        raise ValidationError("macro stepping supports implicit_euler only")
    system = (ops.L_hat - ops.T_hat if mode == "kinetic"
              else ops.macro_generator.copy())
    h = dt if scheme == "implicit_euler" else 0.5 * dt
    rhs_mat = None
    if scheme == "crank_nicolson":
        rhs_mat = _shifted(system.copy(), h)
    return _shifted(system, -h), rhs_mat


def _shifted(gen, h):
    """I + h gen in place in the canonical CSR matrix gen, bit for bit the
    sparse sum. setdiag only overwrites: assemble refuses a nonpositive
    rho_star or g_star, and each node's inner face weight is at least its
    own, so no diagonal entry of a generator is zero."""
    gen.data *= h
    gen.setdiag(gen.diagonal() + 1.0)
    gen.eliminate_zeros()
    # a sparse difference such as L_hat - T_hat leaves data and indices as
    # views of a buffer sized for nnz(L_hat) + nnz(T_hat)
    gen.data, gen.indices = gen.data.copy(), gen.indices.copy()
    return gen


def _advance(parts, lu, what):
    """The sector parts one step later, one solve per part."""
    out = {}
    for sign, part in parts.items():
        factor, matrix, rhs_mat = lu.sector(sign)
        rhs = part if rhs_mat is None else rhs_mat @ part
        out[sign] = solve_with_refinement(factor, matrix, rhs, what)
    return out


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


def _perturbed(base, deviation):
    """base + deviation (|deviation| < base), rounded so that subtracting
    base gives back deviation with each |deviation_i| rounded once onto the
    floating-point spacing of base_i and its sign kept.

    fl(base + |d|) - base is exact (Sterbenz), and so is base plus or minus
    it. So the tracked state f - base keeps the reflection parity of the
    deviation exactly: an odd perturbation of an even base leaves no even
    part of roundoff size for the stepper to factor and solve.
    """
    step = (base + np.abs(deviation)) - base
    return base + np.copysign(step, deviation)


def initial_odd_v(eq, epsilon=0.5):
    """f_star (1 + eps cos(pi x/(2X)) sin(pi v/V)): microscopic-heavy,
    mass-neutral, and f - f_star exactly odd under (x, v) -> (-x, -v)."""
    if not 0.0 < epsilon < 1.0:
        raise ValidationError("epsilon must lie in (0,1) to keep f nonnegative")
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    bump = np.outer(np.cos(0.5 * np.pi * xg.nodes / xg.half_width),
                    np.sin(np.pi * vg.nodes / vg.half_width))
    fstar = eq.f_star.values
    return Field(_perturbed(fstar, epsilon * fstar * bump), eq.grid)


def initial_shifted_gaussian(eq, center=(0.5, 0.5), width=1.0, clip_factor=4.0):
    """Product Gaussian at `center`, clipped to clip_factor * f_star and
    rescaled to the equilibrium mass on integrable branches.

    A rescaled datum above 2 * clip_factor * f_star is a ValidationError:
    clipping it again would lose mass, and f - f_star would then carry mass
    that no decay removes."""
    if width <= 0 or clip_factor <= 0:
        raise ValidationError("width and clip_factor must be positive")
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    # a far center or a vanishing width gives exp(-inf) = 0 off the center
    # (NaN at a node on it when width^2 underflows); the mass test catches both
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gx = np.exp(-((xg.nodes - center[0]) ** 2) / (2.0 * width ** 2))
        gv = np.exp(-((vg.nodes - center[1]) ** 2) / (2.0 * width ** 2))
    raw = np.outer(gx, gv)
    raw = np.minimum(raw, clip_factor * eq.f_star.values)
    mass_raw = float(np.sum(eq.grid.weight_matrix * raw))
    if not mass_raw > 0.0:
        raise ValidationError("shifted Gaussian at center %r, width %r has "
                              "no mass on the grid" % (tuple(center), width))
    if eq.integrable:
        mass_star = float(np.sum(eq.grid.weight_matrix * eq.f_star.values))
        raw = raw * (mass_star / mass_raw)
        if np.any(raw > 2.0 * clip_factor * eq.f_star.values):
            raise ValidationError(
                "shifted Gaussian at center %r, width %r exceeds "
                "2 * clip_factor * f_star once rescaled to the equilibrium "
                "mass; widen it or raise clip_factor"
                % (tuple(center), width))
    return Field(raw, eq.grid)


def initial_macro_gaussian(x_grid, s0=2.0):
    """Unit-mass Gaussian density of variance s0 (the heat-decay initial state)."""
    if s0 <= 0:
        raise ValidationError("s0 must be positive")
    # a tiny s0 overflows x^2 / (2 s0) to inf off the centre: exp(-inf) = 0
    with np.errstate(over="ignore"):
        vals = (np.exp(-x_grid.nodes ** 2 / (2.0 * s0))
                / np.sqrt(2.0 * np.pi * s0))
    return DensityField(vals, x_grid)


def initial_macro_bump(eq, epsilon=0.5):
    """rho_star (1 + eps sin(pi x/X)): mass-neutral macro perturbation, with
    rho - rho_star exactly odd under x -> -x."""
    xg = eq.grid.x_grid
    rho_star = eq.rho_star.values
    return DensityField(
        _perturbed(rho_star, epsilon * rho_star
                   * np.sin(np.pi * xg.nodes / xg.half_width)), xg)


# ---------------------------------------------------------------------------
# full trajectories
# ---------------------------------------------------------------------------

def step_count(dt, t_final):
    """t_final / dt as an int; ValidationError unless it is a whole number."""
    steps = t_final / dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValidationError("t_final = %r is not a whole number of steps "
                              "of dt = %r" % (t_final, dt))
    return int(round(steps))


def _validate_schedule(schedule):
    """(dt, number of steps, sample_stride) of a (dt, t_final, stride)."""
    dt, t_final, stride = schedule
    dt = float(dt)
    t_final = float(t_final)
    stride = int(stride)
    if dt <= 0 or t_final < dt or stride < 1:
        raise ValidationError("schedule must satisfy dt > 0, t_final >= dt, "
                              "sample_stride >= 1")
    return dt, step_count(dt, t_final), stride


def run_trajectory(f0, schedule, mode, eq, ops, delta=0.0,
                   moment_powers=((2,), (2,)), scheme="implicit_euler"):
    """Evolve f0 and sample the diagnostics every sample_stride steps.

    mode='kinetic' expects a Field, mode='macro' a DensityField (implicit
    Euler only). The tracked state is f - f_star (resp. rho - rho_star) when
    the equilibrium is integrable, else the raw state; moments and the
    maximum principle always refer to the physical, untracked solution. The
    record's envelope column is NaN until the caller sets it. A negative
    moment power is refused before anything else is built. A failed solve,
    NaN or mass drift, or a sample that is not finite, aborts with a
    NumericalError carrying .last_good_time and the .partial_record of the
    samples taken so far (none if the initial sample fails).

    A kinetic implicit-Euler run with many steps for its size samples its
    states from shift-invert Krylov spaces (see the module docstring); every
    other run steps. Either way the run factors its own system and leaves
    ops as it found it, so runs can share one ops.
    """
    dt, n_steps, stride = _validate_schedule(schedule)
    j_powers, k_powers = moment_powers
    if min(tuple(j_powers) + tuple(k_powers), default=0.0) < 0:
        raise ValidationError("moment power must be >= 0")
    windows = None
    if mode == "kinetic":
        y, mass_w, mass_f0, sample, windows = _kinetic_sampler(
            f0, eq, ops, delta, j_powers, k_powers)
    elif mode == "macro":
        k_powers = ()       # densities carry no velocity moments
        y, mass_w, mass_f0, sample = _macro_sampler(f0, eq, ops, j_powers)
    else:
        raise ValidationError("mode must be 'kinetic' or 'macro'")
    parts = fold(y)
    if (mode == "kinetic" and scheme == "implicit_euler"
            and _krylov_pays(n_steps, y.size // 2 + 1)):
        states = _krylov_states(parts, ops, dt, n_steps, stride, windows)
    else:
        # a bad scheme fails here
        lu = SectorLU(ops, mode, dt, scheme, parts)
        states = _stepped_states(parts, lu, n_steps, mode + " step")
    mass_parts = fold(mass_w)       # mass(y) = sum of part . folded weights

    def mass(parts):
        return sum(float(mass_parts[sign] @ part)
                   for sign, part in parts.items() if sign in mass_parts)

    mass0 = mass(parts)
    mass_tol = _MASS_TOL * max(abs(mass0) + mass_f0, 1e-300)

    def row(t, evaluate, state):
        # a finite state can still overflow its diagnostics
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = evaluate(state)
        if not np.all(np.isfinite(np.hstack(values[:5]))):
            raise NumericalError("non-finite sample at t = %.6g" % t)
        return (t,) + values

    def formed(parts):
        return sample(unfold(parts, y.size))

    rows = [row(0.0, sample, y)]
    t = 0.0
    try:
        for n, parts in states:
            if parts and all(isinstance(p, tuple) for p in parts.values()):
                # every sector's part is a sample of a window read in its
                # basis: (window, index)
                finite = all(w.finite[k] for w, k in parts.values())
                drift = abs(sum(w.mass[k] for w, k in parts.values()) - mass0)
                evaluate = windows.values
            else:
                parts = {sign: _formed(part) for sign, part in parts.items()}
                finite = all(np.all(np.isfinite(p)) for p in parts.values())
                drift = abs(mass(parts) - mass0)
                evaluate = formed
            if not finite:
                raise NumericalError("non-finite state detected")
            if drift > mass_tol:
                raise NumericalError("mass drift beyond tolerance")
            if n % stride == 0 or n == n_steps:
                rows.append(row(n * dt, evaluate, parts))
            t = n * dt
    except NumericalError as exc:
        err = NumericalError("%s; last good time %.6g" % (exc, t))
        err.last_good_time = t
        err.partial_record = _record(rows, j_powers, k_powers)
        raise err
    return _record(rows, j_powers, k_powers)


def _formed(part):
    """A sector part as an array; a window sample (window, k) is formed."""
    return part if isinstance(part, np.ndarray) else part[0].part(part[1])


def _stepped_states(parts, lu, n_steps, what):
    """(n, parts after step n) for every step n of the run."""
    for n in range(1, n_steps + 1):
        parts = _advance(parts, lu, what)
        yield n, parts


# ---------------------------------------------------------------------------
# implicit-Euler samples from one shift-invert Krylov space
# ---------------------------------------------------------------------------

_KRYLOV_TOL = 1e-10     # successive approximations agree, relative mu-norm
_MAX_BASIS = 100        # vectors per basis at most, whatever nnz(LU)/n allows
_SHIFT_STEPS = 4        # gamma = 4 dt
_BLOCK = 8              # samples formed, or basis rows read, per product
_WINDOW_SAMPLES = 32    # samples read in a basis per product


def _krylov_pays(n_steps, n_sector):
    """Whether a run of n_steps kinetic implicit-Euler steps on sectors of
    up to n_sector unknowns samples from Krylov spaces.

    A basis is capped at nnz(LU)/n_sector vectors, about 4 n_sector^(1/4)
    with SPLU_OPTIONS on these grids (32 at 65^2, 40 at 129^2, 47 at 193^2,
    53 at 257^2), and a run takes up to two caps of solves, each dearer than
    a step's by its orthogonalization. Below six caps' worth of steps that
    saves little or nothing: 100 steps on 33^2 took 75 solves, 100 steps on
    193^2 took 77.
    """
    return n_steps >= 24.0 * n_sector ** 0.25


def _window_pays(m, samples):
    """Whether a window of m basis vectors reads its samples in its basis
    (_WindowSampler) rather than forming each one for the per-state sampler.

    Both are associations of the same products. The basis costs about
    three m x m Gram products over the sector, 2 m^2 n_sector flops each;
    forming costs m n_sector flops and a dozen full-grid scans per sample.
    So the basis is the cheaper one once a window has as many samples as
    vectors.
    """
    return samples >= m


def _krylov_states(parts, ops, dt, n_steps, stride, windows):
    """(n, parts after n implicit-Euler steps of dt) for every sampled step
    n (the multiples of stride, and n_steps), each sector sampled by
    _krylov_part from one factor of I - gamma G, gamma = _SHIFT_STEPS dt; a
    part is an array, or (window, k) for sample k of a window that windows
    read in its basis."""
    sample_steps = np.arange(stride, n_steps + 1, stride)
    if n_steps % stride:
        sample_steps = np.append(sample_steps, n_steps)
    lu = SectorLU(ops, "kinetic", _SHIFT_STEPS * dt, "implicit_euler", parts)
    sectors = [_krylov_part(sign, part, lu, ops, dt, sample_steps, windows)
               for sign, part in parts.items()]
    for n, *new in zip(sample_steps, *sectors):
        yield int(n), dict(zip(parts, new))


def _krylov_part(sign, part, lu, ops, dt, steps, windows):
    """The sector part after each of the increasing step counts `steps` of
    implicit Euler, sampled window by window from lu's factor of the sector.

    Each window grows a basis from the last sample the previous one agreed
    on and yields the samples its approximations agree on: as (window, k)
    when _window_pays, windows reading them all in the basis before the
    first is yielded (the next window overwrites the basis), else formed. A
    window that agrees on none leaves the rest of the run to the stepping
    loop, on a factor of I - dt G.
    """
    factor, matrix, _ = lu.sector(sign)
    # w_flat is reversal-symmetric: its head weighs the folded coordinates
    weights = ops.w_flat[:part.size]
    # factor.nnz counts the stored L and U entries; factor.L would copy them
    cap = min(_MAX_BASIS, factor.nnz // part.size)
    basis = np.empty((cap, part.size))
    hess = np.zeros((cap + 1, cap))
    done = 0
    while steps.size:
        beta = np.sqrt(part @ (weights * part))
        m, coeffs, agreed = _arnoldi_window(factor, matrix, weights,
                                            part / beta, basis, hess,
                                            steps - done)
        if not agreed:
            del basis, hess
            stepping = SectorLU(ops, "kinetic", dt, "implicit_euler", [sign])
            for n, parts in _stepped_states({sign: part}, stepping,
                                            steps[-1] - done, "kinetic step"):
                if done + n in steps:
                    yield parts[sign]
            return
        if _window_pays(m, agreed):
            window = windows.window(sign, basis[:m], beta * coeffs[:, :agreed])
            for k in range(agreed):
                yield window, k
            # the restart part, formed as the last block of the loop below
            first = (agreed - 1) // _BLOCK * _BLOCK
            part = ((beta * coeffs[:, first:agreed]).T @ basis[:m])[-1]
        else:
            for first in range(0, agreed, _BLOCK):
                block = coeffs[:, first:min(first + _BLOCK, agreed)]
                for part in (beta * block).T @ basis[:m]:
                    yield part
        done, steps = steps[agreed - 1], steps[agreed:]


def _arnoldi_window(factor, matrix, weights, start, basis, hess, offsets):
    """(m, coefficients, agreed) of one basis grown from the unit vector
    start.

    basis holds mu-orthonormal rows of the Krylov space of (I - gamma G)^-1
    and hess its Hessenberg matrix, one solve per vector. After m vectors,
    column i of coefficients holds the approximation of
    (I - dt G)^-offsets[i] start in the first m rows of basis. The basis
    grows until every offset's approximation agrees with the one from a
    vector fewer to _KRYLOV_TOL relative, or until basis is full; agreed
    counts the leading offsets that agree.
    """
    cap = basis.shape[0]
    basis[0] = start
    previous, agreed = None, 0
    for j in range(cap):
        x = solve_with_refinement(factor, matrix, basis[j], "kinetic krylov")
        if not np.all(np.isfinite(x)):
            raise NumericalError("non-finite state detected")
        # classical Gram-Schmidt, repeated when it cancels 9/10 of x
        v = basis[:j + 1]
        before = np.sqrt(x @ (weights * x))
        h = v @ (weights * x)
        x -= h @ v
        hess[j + 1, j] = np.sqrt(x @ (weights * x))
        if hess[j + 1, j] < 0.1 * before:
            again = v @ (weights * x)
            x -= again @ v
            h += again
            hess[j + 1, j] = np.sqrt(x @ (weights * x))
        hess[:j + 1, j] = h
        coeffs = _coefficients(hess[:j + 1, :j + 1], offsets)
        if not hess[j + 1, j] > 0.0:
            # an invariant subspace: the approximations are exact
            return j + 1, coeffs, offsets.size
        if previous is not None:
            change = np.sqrt(np.sum((coeffs[:j] - previous) ** 2, axis=0)
                             + coeffs[j] ** 2)
            agree = change <= _KRYLOV_TOL * np.linalg.norm(coeffs, axis=0)
            agreed = agree.size if agree.all() else int(np.argmin(agree))
            if agreed == offsets.size:
                return j + 1, coeffs, agreed
        if j + 1 < cap:
            basis[j + 1] = x / hess[j + 1, j]
        previous = coeffs
    return cap, coeffs, agreed


def _coefficients(hess, offsets):
    """Columns (I - dt G_m)^-k e_1 for k in offsets, with
    G_m = (I - hess^-1) / gamma.

    With r = dt / gamma = 1 / _SHIFT_STEPS, I - dt G_m is
    hess^-1 ((1 - r) hess + r I), so one step is the product with
    prop = ((1 - r) hess + r I)^-1 hess. The offsets are the multiples of
    offsets[0] but for perhaps the last; their powers come by doubling from
    prop^offsets[0].
    """
    m = hess.shape[0]
    ratio = 1.0 / _SHIFT_STEPS
    prop = np.linalg.solve((1.0 - ratio) * hess + ratio * np.eye(m), hess)
    jump = np.linalg.matrix_power(prop, int(offsets[0]))
    regular = offsets.size - int(offsets[-1] % offsets[0] != 0)
    out = np.empty((m, offsets.size))
    out[:, 0] = jump[:, 0]
    filled = 1
    while filled < regular:
        take = min(filled, regular - filled)
        out[:, filled:filled + take] = jump @ out[:, :take]
        jump = jump @ jump
        filled += take
    if regular < offsets.size:
        out[:, -1] = np.linalg.matrix_power(
            prop, int(offsets[-1] - offsets[-2])) @ out[:, -2]
    return out


def _record(rows, j_powers, k_powers):
    """The TrajectoryRecord of sample rows (t, norm, H, D, J, K, max_ok)."""
    times, norms, hs, ds, mj, mk, okay = zip(*rows)
    return TrajectoryRecord(
        times, norms, hs, ds,
        {k: [m[i] for m in mj] for i, k in enumerate(j_powers)},
        {k: [m[i] for m in mk] for i, k in enumerate(k_powers)},
        okay, np.full(len(times), np.nan))


def _max_principle_ratio(values, star, what):
    """C = max(f0 / f_star), formed once per run (the cap is C f_star); a
    negative initial state is a ValidationError."""
    ratio0 = values / star
    if np.min(ratio0) < -1e-12:
        raise ValidationError(what)
    return float(np.max(ratio0))


def _max_principle_ok(f_phys, cap):
    # absolute-slack form: f <= C f_star + tol and f >= -tol pointwise
    over = float(np.max(f_phys - cap))
    under = float(np.min(f_phys))
    return bool(over <= _MAXP_TOL and under >= -_MAXP_TOL)


def _kinetic_sampler(f0, eq, ops, delta, j_powers, k_powers):
    """(q0, mass weights, mass of f0, sample, windows) for
    q = y / sqrt(f_star).

    sample(q) returns (norm_sq_mu, H, D, x-moments, v-moments, max
    principle) in one pass over q, and windows (a _WindowSampler) the same
    for the samples of a Krylov window, read in its basis (module notes). A
    delta outside [0, 2) is refused here, before run_trajectory factors
    anything.
    """
    check_entropy_delta(delta)
    fstar = eq.f_star.values
    ratio = _max_principle_ratio(f0.values, fstar,
                                 "initial state violates 0 <= f0 <= C f_star")
    cap = ratio * fstar
    sqrt_f = ops.sqrt_f
    shape = eq.grid.shape
    base = fstar if eq.integrable else 0.0
    q0 = ((f0.values - base) / fstar).ravel() * sqrt_f  # q = y / sqrt(f_star)
    # J_k = sum_i wx_i <x_i>^k sum_j wv_j p_ij^2 with p = f / sqrt(f_star),
    # K_l likewise with the sums swapped
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    j_weights = [xg.weights * np.sqrt(1.0 + xg.nodes ** 2) ** float(k)
                 for k in j_powers]
    k_weights = [vg.weights * np.sqrt(1.0 + vg.nodes ** 2) ** float(k)
                 for k in k_powers]
    base_q = sqrt_f.reshape(shape) if eq.integrable else 0.0

    def max_ok(q):
        return _max_principle_ok((q * sqrt_f).reshape(shape) + base, cap)

    def sample(q):
        # p^2 in place, dropped before H and D: one full-grid array less
        p_sq = q.reshape(shape) + base_q
        p_sq *= p_sq
        x_marginal, v_marginal = p_sq @ vg.weights, xg.weights @ p_sq
        del p_sq
        norm_sq = max(float((ops.w_flat * q) @ q), 0.0)
        h, d = entropy_and_dissipation(q, delta, eq, ops, norm_sq)
        return (norm_sq, h, d,
                [float(w @ x_marginal) for w in j_weights],
                [float(v_marginal @ w) for w in k_weights],
                max_ok(q))

    # J and K weigh p^2 by the outer products below, on the flattened grid
    moment_weights = ([(w, vg.weights) for w in j_weights]
                      + [(xg.weights, w) for w in k_weights])
    windows = _WindowSampler(eq, ops, delta, moment_weights, len(j_weights),
                             max_ok, ratio)
    # mass(y) = (w_flat sqrt_f) . q
    return (q0, ops.w_flat * sqrt_f,
            float(np.sum(eq.grid.weight_matrix * f0.values)), sample, windows)


class _Window:
    """One sector's samples of one Krylov window, read in its basis.

    Column k of coeffs holds sample k's coefficients in the rows of basis.
    finite[k] and mass[k] are the sector's share of the state checks, and
    column k of shares its share of the norm, H, D, the moments (less their
    constant terms) and the max-principle bound, in that order.
    """

    def __init__(self, basis, coeffs, finite, mass, shares):
        self.basis, self.coeffs = basis, coeffs
        self.finite, self.mass, self.shares = finite, mass, shares

    def part(self, k):
        """Sample k's sector part, formed."""
        return self.coeffs[:, k] @ self.basis


class _WindowSampler:
    """The kinetic diagnostics of samples read in a sector's Krylov basis.

    A sample of a window is q = c V in sector coordinates, V the window's m
    mu-orthonormal basis rows and c its coefficients. Every diagnostic is
    read from c (module notes): ||q||_mu^2 = ||c||^2, -<Lf, f>_mu and the
    moments' quadratic parts are m x m Gram forms, and the profiles and
    elliptic solutions of hypo's H and D are the c-combinations of those of
    the rows. The forms of a sector (W L_hat folded, the moment weights,
    the folded mass weights and the max-principle weights) are built at its
    first window, so a run that reads no window in its basis builds none.
    """

    def __init__(self, eq, ops, delta, moment_weights, n_j, max_ok, ratio):
        self._eq, self._ops, self._delta = eq, ops, delta
        self._moment_weights, self._n_j = moment_weights, n_j
        self._max_ok = max_ok
        # |q| sqrt(f_star) <= a f_star + tol, a = min(C - 1, 1), gives
        # f = f_star + q sqrt(f_star) in [-tol, C f_star + tol]; without an
        # integrable f_star, or for C < 1, every sample is checked pointwise
        self._amplitude = (min(ratio - 1.0, 1.0)
                           if eq.integrable and ratio >= 1.0 else None)
        self._sectors = {}
        self._constants = None

    def _sector(self, sign):
        """(-W L_hat folded, moment weights, 2 x their linear terms, mass
        weights, bound weights or None) on one sector, in fold's
        coordinates; every full-grid weight here is reversal-symmetric, so
        its head weighs a sector's coordinates."""
        if sign not in self._sectors:
            ops = self._ops
            n = ops.sqrt_f.size
            size = n // 2 + (sign > 0)
            w_l = ops.L_hat.copy()
            w_l.data *= np.repeat(ops.w_flat, np.diff(w_l.indptr))
            weights = [np.outer(a, b).ravel() for a, b in self._moment_weights]
            # p^2 = q^2 + 2 q sqrt(f_star) + f_star: the linear terms are
            # even, so an odd sector has none
            base = ops.sqrt_f if self._eq.integrable else np.zeros(n)
            linear = np.array([2.0 * fold(d * base).get(sign, np.zeros(size))
                               for d in weights]).reshape(-1, size)
            bound = None
            if self._amplitude is not None:
                fstar = self._eq.f_star.values.ravel()
                s = ops.sqrt_f / (self._amplitude * fstar + _MAXP_TOL)
                # |y_i|, |y_(n-1-i)| <= (|even_i| + |odd_i|) / sqrt(2)
                bound = s[:size] / _SQRT2
                if sign > 0:
                    bound[-1] = s[n // 2]
            mass = fold(ops.w_flat * ops.sqrt_f).get(sign, np.zeros(size))
            self._sectors[sign] = (
                -fold_sector(w_l, sign), np.array([d[:size] for d in weights]),
                linear, mass, bound)
            if self._constants is None:
                p_sq = (base * base).reshape(self._eq.grid.shape)
                self._constants = np.array(
                    [0.0, 0.0, 0.0] + [a @ p_sq @ b
                                       for a, b in self._moment_weights]
                    + [0.0])
        return self._sectors[sign]

    def window(self, sign, basis, coeffs):
        """The _Window of the samples whose coefficients in the sector
        basis rows `basis` (m x n_sector) are the columns of coeffs.

        Per window: the Gram forms of the rows (a few rows at a time),
        their profiles (one row unfolded at a time), and one elliptic solve
        with 4m right-hand sides and its residuals; per block of samples,
        the c-combinations, each combined residual checked against 1e-10 of
        its right-hand side and re-solved if it fails.
        """
        ops, delta = self._ops, self._delta
        minus_l, weights, linear, mass, bound = self._sector(sign)
        m, count = coeffs.shape
        n_forms = 1 + len(weights)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            grams = np.empty((n_forms, m, m))
            reach = np.full(m, np.inf)
            for first in range(0, m, _BLOCK):
                rows = basis[first:first + _BLOCK]
                cols = slice(first, first + rows.shape[0])
                grams[0, :, cols] = basis @ (minus_l @ rows.T)
                for i, d in enumerate(weights):
                    grams[1 + i, :, cols] = basis @ (d * rows).T
                if bound is not None:
                    reach[cols] = np.max(np.abs(rows) * bound, axis=1)
            linear = linear @ basis.T
            if delta != 0.0:
                pieces = self._row_pieces(sign, basis)
            shares = np.empty((n_forms + 3, count))
            for first in range(0, count, _WINDOW_SAMPLES):
                c = coeffs[:, first:first + _WINDOW_SAMPLES]
                block = slice(first, first + c.shape[1])
                norm_sq = np.sum(c * c, axis=0)
                forms = np.sum(c * (grams @ c), axis=1)
                forms[1:] += linear @ c
                profiles = solutions = [None] * c.shape[1]
                if delta != 0.0:
                    profiles, solutions = self._combined(pieces, c)
                for j in range(c.shape[1]):
                    shares[1:3, first + j] = hypo.entropy_and_dissipation_from(
                        norm_sq[j], forms[0, j], profiles[j], solutions[j],
                        delta, ops)
                shares[0, block] = norm_sq
                shares[3:-1, block] = forms[1:]
                shares[-1, block] = reach @ np.abs(c)
            return _Window(basis, coeffs, np.all(np.isfinite(coeffs), axis=0),
                           (basis @ mass) @ coeffs, shares)

    def _row_pieces(self, sign, basis):
        """(profiles, right-hand sides, solutions, residuals) of hypo's four
        elliptic solves for each basis row, from one solve with 4m
        right-hand sides: m x 4 nx arrays, row j holding basis row j's four
        (u_f, B q, B T(1-Pi) q, B L q) pieces."""
        ops = self._ops
        n, m, nx = ops.sqrt_f.size, basis.shape[0], ops.mrho.size
        profiles = np.array([q_profiles(unfold({sign: row}, n), ops)
                             for row in basis])
        # nx x 4m: one m-column block per profile
        rhs = elliptic_rhs(profiles.transpose(1, 2, 0), ops)
        solutions = operators.solve_elliptic(rhs, ops)
        residuals = rhs - ops.elliptic_matrix @ solutions
        return (profiles.reshape(m, -1),) + tuple(
            block.reshape(nx, 4, m).transpose(2, 1, 0).reshape(m, -1)
            for block in (rhs, solutions, residuals))

    def _combined(self, pieces, c):
        """The profiles and elliptic solutions (b x 4 x nx each) of the
        samples whose coefficients are the b columns of c. A sample whose
        combined residual fails the solve's 1e-10 relative check in any
        column is solved again on its own."""
        ops = self._ops
        profiles, rhs, solutions, residuals = (
            (c.T @ piece).reshape(c.shape[1], 4, -1) for piece in pieces)
        stalled = residual_stalls(residuals, np.linalg.norm(rhs, axis=2), 2)
        for k in np.flatnonzero(stalled.any(axis=1)):
            solutions[k] = operators.solve_elliptic(rhs[k].T, ops).T
        return profiles, solutions

    def values(self, items):
        """(norm_sq_mu, H, D, x-moments, v-moments, max principle) of a
        sample whose every sector part is (window, k): the sectors' shares
        added, plus the moments' constant terms. Each diagnostic is a
        reflection-invariant quadratic form plus linear terms that live in
        the even sector, so it has no cross terms between sectors. The
        bound certifies the max principle when it stays below 1 - 1e-9;
        otherwise the sample is formed and checked pointwise."""
        total = self._constants + sum(w.shares[:, k]
                                      for w, k in items.values())
        moments = [float(v) for v in total[3:-1]]
        ok = bool(total[-1] <= 1.0 - 1e-9) or self._max_ok(unfold(
            {sign: w.part(k) for sign, (w, k) in items.items()},
            self._ops.sqrt_f.size))
        return (float(total[0]), float(total[1]), float(total[2]),
                moments[:self._n_j], moments[self._n_j:], ok)


def _macro_sampler(rho0, eq, ops, j_powers):
    """(y0, mass weights, mass of rho0, sample) for the density y = rho - base.

    H = ||y||^2 / 2 and D = sigma <Sx u, u> with u = y / rho_star.
    """
    rho_star = eq.rho_star.values
    wx = eq.grid.x_grid.weights
    bracket = np.sqrt(1.0 + eq.grid.x_grid.nodes ** 2)
    cap = rho_star * _max_principle_ratio(
        rho0.values, rho_star, "initial density must be nonnegative")
    base = rho_star if eq.integrable else 0.0

    def sample(y):
        f_phys = y + base
        nsq = float(np.sum(wx * y ** 2 / rho_star))
        u = y / rho_star
        return (max(nsq, 0.0), 0.5 * nsq,
                float(eq.sigma_normalized * (u @ (ops.Sx_macro @ u))),
                [float(np.sum(wx * f_phys ** 2 * bracket ** k / rho_star))
                 for k in j_powers],
                [],
                _max_principle_ok(f_phys, cap))

    return rho0.values - base, wx, float(np.sum(wx * rho0.values)), sample
