"""Implicit time integration of the kinetic and macroscopic equations.

Kinetic steps solve (I - dt (L - T)) f_{n+1} = f_n in q = f/sqrt(f_star)
coordinates, where the system matrix is I - dt (L_hat - T_hat); because
L_hat is weighted-symmetric nonpositive and T_hat weighted-skew, the step is
unconditionally nonexpansive in the mu-norm and conserves the discrete mass
to solver precision. Macroscopic runs make no solve: each implicit-Euler
sample of the sigma-scaled Fokker-Planck generator on densities comes in
closed form from one eigendecomposition per run (_macro_states).

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
A run forms the generator G = L_hat - T_hat once, checks its reflection
symmetry and folds it onto the sectors its datum meets (sector_generators);
every step system of the run, I - h G and Crank-Nicolson's I + h G, is a
shifted copy of a sector generator, factored on its own (sector_lu). No
full-grid step system is built, and the operator set keeps no step
factors. A part that is exactly zero stays zero and is never folded or
solved, so data with one parity (the bump is even, the odd_v deviation is
odd) factor and solve half the problem. Between samples run_trajectory
keeps only the parts; the full vector is rebuilt at sample times.

Kinetic implicit-Euler runs longer than one basis cap are sampled from a
Krylov space instead of stepped. With A = (I - gamma G)^-1 the step is
(I - dt G)^-1 = f(A) with f(z) = z / ((1 - r) z + r), r = dt / gamma, so
the state after k steps is f(A)^k q0: a rational function of G with one
repeated pole, analytic on the field of values of A. Because G is
dissipative in the mu-inner product, that field lies in the disc
|z - 1/2| <= 1/2 and the pole of f^k sits outside it at z = -r / (1 - r),
so polynomials in A approximate f^k there and the Krylov space of A and q0
(the RD-rational space of Moret-Novati, BIT 2004, and van den
Eshof-Hochbruck, SISC 2006) holds the iterates. The run factors
I - gamma G once per occupied sector. Arnoldi in the mu-inner
product (the sector's head of w_flat) gives a mu-orthonormal basis V_m and
H_m = V_m^T W A V_m, one solve per vector; G_m = (I - H_m^-1) / gamma is
dissipative as well, and every sample is read as
beta V_m (I - dt G_m)^-k e_1, k its step count.

The shift follows the time the samples span and the datum's roughness:
gamma = max(floor, min(1/4, ||G q0||_mu / ||G^2 q0||_mu)), q0 the tracked
datum and floor = min(4 dt, max(2 dt, 1)) (_krylov_shift, _shift_floor;
the floor when G q0 or G^2 q0 is zero). A larger gamma reaches a sample k
steps on with fewer vectors, but r = dt / gamma shrinks and the pole moves
toward the disc, so each bound holds off a cliff:

* The floor is 4 dt up to dt = 1/4, which puts the pole at -1/3 or
  further out. With gamma = t_final / 100 (20 dt for acceptance criterion
  8) it sat at -1/19, and the first basis of that run agreed on no sample.
  At large dt, gamma wants one or two time units: at dt = 1 the floor is
  2 dt (pole at -1), and the 100-step run of the bump on the 65 x 193,
  alpha = 2, beta = 0.5 box takes 68 solves, against 217 at 4 dt and 86
  at 1 dt.
* 1/4, a quarter of L's unit relaxation time, keeps the pole away from
  weakly damped modes: at gamma = 1/2 criterion 7's problem at dt = 0.025
  agreed on no sample and stepped, and so did criterion 8's at dt = 0.05
  with gamma = 1.
* The ratio is the datum's own time scale, and keeps rough data at 4 dt. It
  is about 0.4 for the bump and 0.01 for the clipped shifted Gaussian on
  the 129^2, alpha = beta = 2 box at dt = 0.02, whose run takes 236, 255
  and 324 solves at gamma = 4, 6 and 7 dt and steps from 8 dt on (2080
  solves).

On that box the bump's run takes 46 solves at gamma = 1/4 instead of 75 at
4 dt with dt = 0.02; criterion 8's takes 205 at dt = 0.05 and at
dt = 0.025, instead of 244 and 416. A run whose floor is 1/4 or more (the
400-step run of criterion 8's problem, dt = 0.25, or any run at dt = 1)
takes the floor.

Error control: a basis grows until the approximation of every sample still
to come agrees, in the mu-norm, with the one from a vector fewer to 1e-10
relative. It is capped at nnz(L + U) / n_sector vectors (at most 100), so
it never holds more numbers than its factor, in one buffer per sector that
every window reuses. At the cap the run keeps the leading samples that
agree and restarts from the last of them. A window that agrees on none
above the floor factors its sector again at the floor and is grown again
there, and every later window of the sector keeps that factor. A sector
steps the rest of its run on a factor of I - dt G when a window agrees on
none at the floor, or once the solves on its current factor reach the
steps its windows covered plus one cap: a solve budget, checked between
windows, which a retry's factor starts afresh. So against stepping a
sector loses fewer than two caps of solves per factor of I - gamma G, and
it factors at most three times. Only a run with fewer steps than one cap (about
4 n_sector^(1/4), _krylov_path) steps from the start, before anything is
factored; Crank-Nicolson runs always step.

Checks: every solve, stepped or Krylov, passes solve_with_refinement's
1e-10 relative residual check, and every Krylov vector a finiteness check.
Every state the run checks (each step's sector arrays when stepping, each
sample on the Krylov path or of a macro run) must be finite and keep its
mass to 1e-9, and every sample's diagnostics must be finite. A Krylov
sample is checked through its window (below): its coefficients c must be
finite, and its mass is (V m) . c. On the Krylov path and in a macro run
the last good time of an aborted run is therefore its last accepted
sample.

Trajectories sample the squared mu-norm of the tracked state (f - f_star on
integrable branches, f itself when no stationary state exists), the twisted
entropy H, its dissipation D (directly and as a difference quotient of H),
x- and v-moments, and a maximum-principle indicator. Every kinetic sample
is read in a basis by one sampler (_WindowSampler), from its coefficients c
in mu-orthonormal sector rows V, q = c V, without forming q. A Krylov
window of m vectors that agrees on S >= m samples (_window_pays) is read in
its m rows: its Gram products cost less than forming and reading S samples.
Every other sample (the initial one, each stepped one, each of a window
with S < m) arrives as formed sector parts, and each part p is the one-row
window of the row p / ||p||_mu with the coefficient ||p||_mu. Once per
window come the m x m forms Y Y^T and V diag(d) V^T for each moment weight
d, the moments' linear terms, the four profiles of each row with one
elliptic solve of 4m right-hand sides, the mass functional V m and the
max-principle weights a_j = max_i |V_ji| s_i. Row j of Y holds the v-flux
images of row j of V, whose squares sum to -<Lf, f>_mu (hypo.minus_lf_f):
sqrt(wx_i) v_gradient p_i for each x-row p_i, i < nx // 2, and its mirror,
then the middle x-row's on the full grid (_flux_gram).
Per block of up to 32 samples come, as arrays, ||q||_mu^2 = ||c||^2,
-<Lf, f>_mu and the moments as quadratic forms in c, the profiles and
elliptic solutions as c-combinations, and H and D from one
hypo.entropy_and_dissipation_from call. With more than one row each
combined residual is checked against 1e-10 of its right-hand side, and a
sample that fails is solved again on its own; a one-row window's samples
are multiples of its row, whose solve passed that check. The window keeps,
per sample, whether c is finite and its mass (V m) . c as Python numbers.
numpy's error state is set once per window around this work; a sample's
row adds its sectors' shares in Python floats and needs none, and the
steps and Krylov solves run outside it and keep their warnings. Every
weight is reversal-symmetric and every operator commutes with the
reflection, so each diagnostic is a reflection-invariant quadratic form
plus linear terms that live in the even sector: the cross terms between
sectors vanish, and a sample's diagnostics are the sums of its sectors'
shares.

The max principle of a sample: with f = f_star + q sqrt(f_star),
|q_i| sqrt(f_star_i) <= a f_star_i + 1e-6 for a = min(C - 1, 1) gives
-1e-6 <= f_i <= C f_star_i + 1e-6. An entry of q is at most
(|even part| + |odd part|) / sqrt(2) of its sector coordinates, so with
s = sqrt(f_star) / (a f_star + 1e-6) (over sqrt(2), but at the middle node)
the sum over sectors of |c| . a proves it at every node when it is at most
1 - 1e-9. Otherwise the sample is formed and checked pointwise, as it
always is without an integrable equilibrium or for C < 1. A delta outside
[0, 2) is refused before anything is factored.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import splu

from .errors import NumericalError, ValidationError
from .grids import DensityField, Field
# hypo.entropy_and_dissipation_from and operators.solve_elliptic are looked
# up on their modules at each call, so that a wrapper installed there
# (instrumentation, tests) sees every sample and every elliptic solve
from . import hypo, operators
# No run calls entropy_H or dissipation_components. They stay importable
# here because bench/tracing.py wraps them by these names in every benchmark
# run and refuses to run without them.
from .hypo import (check_entropy_delta, dissipation_components,  # noqa: F401
                   elliptic_rhs, entropy_H)
from .operators import (SPLU_OPTIONS, q_profiles, residual_stalls,
                        solve_with_refinement)

_MASS_TOL = 1e-9
_MAXP_TOL = 1e-6
_BOUND_MAX = 1.0 - 1e-9    # the largest max-principle bound that certifies
_MAX_SAMPLES = 10 ** 6     # samples per run at most
_LOG_MAX = math.log(np.finfo(float).max)


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
            "max_principle_ok": np.asarray(max_principle_ok, dtype=bool),
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
        self.max_principle_ok = arrays["max_principle_ok"]
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
    pair: two terms, whose sum commutes, so the merge order changes no bit.
    system may be S's first m + 1 (even) or m (odd) rows, all it reads."""
    n = system.shape[1]
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


def check_scheme(scheme, mode="kinetic"):
    """ValidationError unless scheme names a time-stepping scheme that runs
    of mode take: macro runs take implicit_euler only."""
    if scheme not in ("implicit_euler", "crank_nicolson"):
        raise ValidationError("scheme must be 'implicit_euler' or "
                              "'crank_nicolson'")
    if mode == "macro" and scheme != "implicit_euler":
        raise ValidationError("scheme = %s is kinetic-only; macro runs "
                              "use implicit_euler" % scheme)


def sector_generators(ops, signs):
    """{sign: fold_sector(G, sign)} for each sign in signs (+1 even, -1
    odd), G = L_hat - T_hat as canonical CSR; NumericalError unless
    G[::-1, ::-1] == G (_reversal_symmetric). G is dropped once folded."""
    gen = ops.L_hat - ops.T_hat
    if not _reversal_symmetric(gen):
        raise NumericalError("kinetic generator does not commute with the "
                             "reflection (x, v) -> (-x, -v)")
    return {sign: fold_sector(gen, sign) for sign in signs}


def sector_lu(gen, dt, scheme):
    """(factor, matrix, rhs) of one kinetic step of (dt, scheme) on a
    sector generator gen, left as it is: implicit Euler solves
    (I - dt G) y_new = y (rhs None), Crank-Nicolson
    (I - dt/2 G) y_new = (I + dt/2 G) y. matrix and rhs are shifted copies
    of gen, canonical CSR, and factor is matrix's LU. Scaling by a power of
    two h commutes with rounding, and no node is coupled to its mirror, so
    there each is bit for bit the fold of the full-grid I -+ h G."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    check_scheme(scheme)
    h = dt if scheme == "implicit_euler" else 0.5 * dt
    rhs = None if scheme == "implicit_euler" else _shifted(gen.copy(), h)
    matrix = _shifted(gen.copy(), -h)
    return splu(matrix.tocsc(), **SPLU_OPTIONS), matrix, rhs


def _shifted(gen, h):
    """I + h gen in place in the canonical CSR matrix gen. setdiag only
    overwrites: assemble refuses a nonpositive rho_star or g_star, and each
    node's inner face weight is at least its own, so no diagonal entry of a
    generator, or of its folds, is zero."""
    gen.data *= h
    gen.setdiag(gen.diagonal() + 1.0)
    gen.eliminate_zeros()
    return gen


def advance(parts, sectors, what):
    """The sector parts one step later, one solve per part, sectors mapping
    each part's sign to its sector_lu (factor, matrix, rhs)."""
    out = {}
    for sign, part in parts.items():
        factor, matrix, rhs_mat = sectors[sign]
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
    that no decay removes. So is a datum clipped at every node: rescaled,
    it is f_star, and f - f_star is roundoff."""
    if width <= 0 or clip_factor <= 0:
        raise ValidationError("width and clip_factor must be positive")
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    # -((z - c) / width)^2 / 2 in numpy: a far center or a vanishing width
    # gives exp(-inf) = 0 off the center, which the mass test catches, and a
    # huge width a flat datum, where width^2 in Python floats would raise
    with np.errstate(over="ignore"):
        gx = np.exp(-0.5 * ((xg.nodes - center[0]) / width) ** 2)
        gv = np.exp(-0.5 * ((vg.nodes - center[1]) / width) ** 2)
    clip = clip_factor * eq.f_star.values
    raw = np.minimum(np.outer(gx, gv), clip)
    mass_raw = float(np.sum(eq.grid.weight_matrix * raw))
    if not mass_raw > 0.0:
        raise ValidationError("shifted Gaussian at center %r, width %r has "
                              "no mass on the grid" % (tuple(center), width))
    if eq.integrable:
        if np.array_equal(raw, clip):
            raise ValidationError(
                "shifted Gaussian at center %r, width %r is clipped at every "
                "node: rescaled to the equilibrium mass it is f_star, with no "
                "deviation to track; narrow it" % (tuple(center), width))
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


def check_sample_count(n_steps, stride):
    """ValidationError when n_steps / stride samples exceed _MAX_SAMPLES:
    a run holds every sample's step count and row."""
    if n_steps > _MAX_SAMPLES * stride:
        raise ValidationError(
            "schedule asks for %.6g samples (t_final / (dt * sample_stride)); "
            "at most %d are allowed" % (n_steps / stride, _MAX_SAMPLES))


def _validate_schedule(schedule):
    """(dt, number of steps, sample_stride) of a (dt, t_final, stride)."""
    dt, t_final, stride = schedule
    dt = float(dt)
    t_final = float(t_final)
    stride = int(stride)
    # NaN fails every comparison, so a non-finite dt or t_final fails here
    if not 0.0 < dt <= t_final < math.inf or stride < 1:
        raise ValidationError("schedule must satisfy 0 < dt <= t_final < "
                              "inf and sample_stride >= 1")
    n_steps = step_count(dt, t_final)
    check_sample_count(n_steps, stride)
    return dt, n_steps, stride


def run_trajectory(f0, schedule, mode, eq, ops, delta=0.0,
                   moment_powers=((2,), (2,)), scheme="implicit_euler"):
    """Evolve f0 and sample the diagnostics every sample_stride steps.

    mode='kinetic' expects a Field, mode='macro' a DensityField (implicit
    Euler only). The tracked state is f - f_star (resp. rho - rho_star) when
    the equilibrium is integrable, else the raw state; moments and the
    maximum principle always refer to the physical, untracked solution. The
    record's envelope column is NaN until the caller sets it. A negative
    moment power, or one whose weight <x>^k or <v>^l is not finite at the
    box edge, is refused before anything else is built. A failed solve,
    NaN or mass drift, or a sample that is not finite, aborts with a
    NumericalError carrying .last_good_time and the .partial_record of the
    samples taken so far (none if the initial sample fails).

    A kinetic implicit-Euler run with at least a basis cap's worth of steps
    (_krylov_path) samples its states from shift-invert Krylov spaces, each
    sector under a solve budget (see the module docstring); every other
    kinetic run steps, and a macro run reads its samples in closed form
    (_macro_states). Either way the run builds its own factors or modes and
    leaves ops as it found it, so runs can share one ops.
    """
    dt, n_steps, stride = _validate_schedule(schedule)
    check_scheme(scheme, mode)
    j_powers, k_powers = moment_powers
    if min(tuple(j_powers) + tuple(k_powers), default=0.0) < 0:
        raise ValidationError("moment power must be >= 0")
    for name, powers, grid in (("x", j_powers, eq.grid.x_grid),
                               ("v", k_powers, eq.grid.v_grid)):
        # log <z>^k at the box edge, formed without squaring the edge
        edge = math.log(math.hypot(1.0, grid.half_width))
        for k in powers:
            if not k * edge <= _LOG_MAX:
                raise ValidationError(
                    "%s-moment power %r: its weight <%s>^k overflows at the "
                    "box edge |%s| = %g" % (name, k, name, name,
                                            grid.half_width))
    # check(state): (finite, mass) of a state the loop meets; evaluate(state):
    # (values, finite) of a sample; first: the sample at t = 0
    if mode == "kinetic":
        y, mass_f0, sampler = _kinetic_sampler(f0, eq, ops, delta, j_powers,
                                               k_powers)
        parts = fold(y)

        def array_checks(parts):    # the odd sector has no mass
            return (all(np.all(np.isfinite(p)) for p in parts.values()),
                    sum(float(sampler._sector(sign)[2] @ part)
                        for sign, part in parts.items() if sign > 0))

        first = sampler.read(parts)
        mass0 = array_checks(parts)[1]
        if (scheme == "implicit_euler"
                and _krylov_path(n_steps, y.size // 2 + 1)):
            # each sample's sector parts are (window, k), checked and read
            # with their windows
            states = _krylov_states(parts, ops, dt, n_steps, stride, sampler)
            check, evaluate = _window_checks, sampler.values
        else:
            states = _stepped_states(parts, {
                sign: sector_lu(gen, dt, scheme)
                for sign, gen in sector_generators(ops, parts).items()},
                n_steps)
            check, evaluate = array_checks, sampler.read
    elif mode == "macro":
        k_powers = ()       # densities carry no velocity moments
        y, mass_w, mass_f0, sample = _macro_sampler(f0, eq, ops, j_powers)

        def evaluate(density):
            # a finite state can still overflow its diagnostics
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                values = sample(density)
            return values, bool(np.all(np.isfinite(np.hstack(values[:5]))))

        def check(density):
            return bool(np.all(np.isfinite(density))), float(mass_w @ density)

        first = evaluate(y)
        mass0 = check(y)[1]
        states = _macro_states(y, eq, ops, dt, n_steps, stride)
    else:
        raise ValidationError("mode must be 'kinetic' or 'macro'")
    mass_tol = _MASS_TOL * max(abs(mass0) + mass_f0, 1e-300)

    def row(t, values, finite):
        if not finite:
            raise NumericalError("non-finite sample at t = %.6g" % t)
        return (t,) + values

    rows = [row(0.0, *first)]
    t = 0.0
    try:
        for n, parts in states:
            finite, mass = check(parts)
            if not finite:
                raise NumericalError("non-finite state detected")
            if abs(mass - mass0) > mass_tol:
                raise NumericalError("mass drift beyond tolerance")
            if n % stride == 0 or n == n_steps:
                rows.append(row(n * dt, *evaluate(parts)))
            t = n * dt
    except NumericalError as exc:
        err = NumericalError("%s; last good time %.6g" % (exc, t))
        err.last_good_time = t
        err.partial_record = _record(rows, j_powers, k_powers)
        raise err
    return _record(rows, j_powers, k_powers)


def _window_checks(items):
    """(finite, mass) of a sample whose every sector part is (window, k),
    from its windows' state checks."""
    return (all(w.finite[k] for w, k in items.values()),
            sum(w.mass[k] for w, k in items.values()))


def _stepped_states(parts, sectors, n_steps):
    """(n, parts after step n) for every kinetic step n of the run, sectors
    mapping each part's sign to its sector_lu."""
    for n in range(1, n_steps + 1):
        parts = advance(parts, sectors, "kinetic step")
        yield n, parts


def _sample_steps(n_steps, stride):
    """The sampled step counts of a run: the multiples of stride, and
    n_steps."""
    steps = np.arange(stride, n_steps + 1, stride)
    return steps if n_steps % stride == 0 else np.append(steps, n_steps)


# ---------------------------------------------------------------------------
# implicit-Euler samples from one shift-invert Krylov space
# ---------------------------------------------------------------------------

_KRYLOV_TOL = 1e-10     # successive approximations agree, relative mu-norm
_MAX_BASIS = 100        # vectors per basis at most, whatever nnz(LU)/n allows
_SHIFT_STEPS = 4        # gamma >= 4 dt up to dt = 1/4 (_shift_floor)
_MAX_SHIFT = 0.25       # gamma <= 1/4 unless the floor is larger
_BLOCK = 8              # basis rows per Gram product, or S < m samples formed
_WINDOW_SAMPLES = 32    # samples read in a basis per product


def _krylov_path(n_steps, n_sector):
    """Whether a run of n_steps kinetic implicit-Euler steps on sectors of
    up to n_sector unknowns samples from Krylov spaces: unless it has fewer
    steps than one basis cap, nnz(LU)/n_sector vectors, which is about
    4 n_sector^(1/4) with SPLU_OPTIONS (32 at 65^2, 53 at 257^2). Its one
    window would take about as many solves as its steps, and a factor."""
    return n_steps >= 4.0 * n_sector ** 0.25


def _window_pays(m, samples):
    """Whether a window of m basis vectors is read in its basis rather than
    forming each sample and reading it as a one-row window: once it has as
    many samples as vectors (module notes)."""
    return samples >= m


def _shift_floor(dt):
    """The least shift of a Krylov run of step dt, min(4 dt, max(2 dt, 1)):
    4 dt up to dt = 1/4, 2 dt at dt = 1 (module notes)."""
    return min(_SHIFT_STEPS * dt, max(2.0 * dt, 1.0))


def _krylov_shift(parts, gens, ops, dt):
    """The shift gamma of a Krylov run from the datum with sector parts
    `parts`: max(floor, min(1/4, ||G q0||_mu / ||G^2 q0||_mu)), G = L_hat -
    T_hat, floor = _shift_floor(dt), and the floor when G q0 or G^2 q0 is
    zero (module notes), formed on the sector generators gens."""
    norms = np.zeros(2)
    for sign, part in parts.items():
        for k in range(2):
            part = gens[sign] @ part
            norms[k] += part @ (ops.w_flat[:part.size] * part)
    norms = np.sqrt(norms)
    scale = min(_MAX_SHIFT, norms[0] / norms[1]) if norms[1] > 0.0 else 0.0
    return float(max(_shift_floor(dt), scale))


def _krylov_states(parts, ops, dt, n_steps, stride, windows):
    """(n, parts after n implicit-Euler steps of dt) for every sampled step
    n (the multiples of stride, and n_steps), each sector sampled by
    _krylov_part from one factor of I - gamma G, gamma from _krylov_shift;
    each part is (window, k), sample k of a window of windows (a
    _WindowSampler)."""
    sample_steps = _sample_steps(n_steps, stride)
    gens = sector_generators(ops, parts)
    gamma = _krylov_shift(parts, gens, ops, dt)
    sectors = [_krylov_part(sign, part, gens.pop(sign), ops, dt, gamma,
                            sample_steps, windows)
               for sign, part in parts.items()]
    for n, *new in zip(sample_steps, *sectors):
        yield int(n), dict(zip(parts, new))


def _krylov_part(sign, part, gen, ops, dt, gamma, steps, windows):
    """The sector part after each of the increasing step counts `steps` of
    implicit Euler, sampled window by window from the LU of I - gamma G,
    G the sector's generator gen (each sector holds its own).

    Each window grows a basis from the last sample the previous one agreed
    on and yields the samples its approximations agree on as (window, k):
    when _window_pays, windows reads them all in the basis before the first
    is yielded (the next window overwrites the basis), else each is formed
    and read as a one-row window, as is each stepped sample. A
    window that agrees on none above the shift's floor is grown again on a
    factor of I - floor G, which every later window keeps. The rest of the
    run goes to the stepping loop, on a factor of I - dt G, when a window
    agrees on none at the floor, or once the solves on the current factor
    reach the steps its windows covered plus one cap (the solve budget).
    The last window drops gen and the factor before it is read, so that
    its forms do not add to the factor's memory.
    """
    # w_flat is reversal-symmetric: its head weighs the folded coordinates
    weights = ops.w_flat[:part.size]
    floor = _shift_floor(dt)
    factor, matrix, _ = sector_lu(gen, gamma, "implicit_euler")
    basis = None
    done = 0
    while steps.size:
        if basis is None:
            # factor.nnz counts the stored L and U entries; factor.L would
            # copy them
            cap = min(_MAX_BASIS, factor.nnz // part.size)
            basis = np.empty((cap, part.size))
            hess = np.zeros((cap + 1, cap))
            budget = cap        # solves left on this factor, less its steps
        if budget <= 0:
            break
        beta = np.sqrt(part @ (weights * part))
        m, coeffs, agreed = _arnoldi_window(factor, matrix, weights,
                                            part / beta, basis, hess,
                                            steps - done, dt / gamma)
        if agreed == steps.size:
            del gen, factor, matrix     # no solve is left
        if not agreed and gamma > floor:
            basis, gamma = None, floor
            factor, matrix, _ = sector_lu(gen, floor, "implicit_euler")
            continue
        if not agreed:
            break
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
                    yield windows.one_row(sign, part), 0
        budget += steps[agreed - 1] - done - m
        done, steps = steps[agreed - 1], steps[agreed:]
    if steps.size:
        del basis, hess, factor, matrix
        stepping = {sign: sector_lu(gen, dt, "implicit_euler")}
        for n, parts in _stepped_states({sign: part}, stepping,
                                        steps[-1] - done):
            if done + n in steps:
                yield windows.one_row(sign, parts[sign]), 0


def _arnoldi_window(factor, matrix, weights, start, basis, hess, offsets,
                    ratio):
    """(m, coefficients, agreed) of one basis grown from the unit vector
    start.

    basis holds mu-orthonormal rows of the Krylov space of (I - gamma G)^-1
    and hess its Hessenberg matrix, one solve per vector. After m vectors,
    column i of coefficients holds the approximation of
    (I - dt G)^-offsets[i] start in the first m rows of basis, ratio being
    dt / gamma. The basis grows until every offset's approximation agrees
    with the one from a vector fewer to _KRYLOV_TOL relative, or until
    basis is full; agreed counts the leading offsets that agree.

    A basis that has lost mu-orthogonality can have Ritz values far outside
    the disc of the module notes, and their powers overflow. The powers and
    the agreement test therefore run with numpy's overflow and invalid
    warnings off, and an approximation that is not finite never agrees.
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
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _coefficients(hess[:j + 1, :j + 1], offsets, ratio)
            if not hess[j + 1, j] > 0.0:
                # an invariant subspace: the approximations are exact
                return j + 1, coeffs, offsets.size
            if previous is not None:
                change = np.sqrt(np.sum((coeffs[:j] - previous) ** 2, axis=0)
                                 + coeffs[j] ** 2)
                agree = np.isfinite(change) & (
                    change <= _KRYLOV_TOL * np.linalg.norm(coeffs, axis=0))
                agreed = agree.size if agree.all() else int(np.argmin(agree))
                if agreed == offsets.size:
                    return j + 1, coeffs, agreed
        if j + 1 < cap:
            basis[j + 1] = x / hess[j + 1, j]
        previous = coeffs
    return cap, coeffs, agreed


def _coefficients(hess, offsets, ratio):
    """Columns (I - dt G_m)^-k e_1 for k in offsets, with
    G_m = (I - hess^-1) / gamma and ratio = dt / gamma.

    With r = ratio, I - dt G_m is hess^-1 ((1 - r) hess + r I), so one step
    is the product with prop = ((1 - r) hess + r I)^-1 hess. The offsets
    are the multiples of offsets[0] but for perhaps the last; their powers
    come by doubling from prop^offsets[0].
    """
    m = hess.shape[0]
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
    """(q0, mass of f0, sampler) for q = y / sqrt(f_star),
    sampler the _WindowSampler that reads every sample of the run (module
    notes). A delta outside [0, 2) is refused here, before run_trajectory
    factors anything.
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
    # K_l likewise with the sums swapped: p^2 weighed by the outer products
    # of these pairs, on the flattened grid
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    moment_weights = (
        [(xg.weights * np.sqrt(1.0 + xg.nodes ** 2) ** float(k), vg.weights)
         for k in j_powers]
        + [(xg.weights, vg.weights * np.sqrt(1.0 + vg.nodes ** 2) ** float(k))
           for k in k_powers])

    def max_ok(q):
        return _max_principle_ok((q * sqrt_f).reshape(shape) + base, cap)

    sampler = _WindowSampler(eq, ops, delta, moment_weights, len(j_powers),
                             max_ok, ratio)
    return q0, float(np.sum(eq.grid.weight_matrix * f0.values)), sampler


class _Window:
    """One sector's samples of one window, read in its basis.

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
    """The kinetic diagnostics of every sample, read in a sector basis as
    q = c V (module notes). A sector's weights are built at its first window.
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
        # sqrt(wx_i) times v_gradient's diagonals 0 and 1, one row per x-row
        # i <= nx // 2: the v-flux image of x-row i is two products and a sum
        root = np.sqrt(eq.grid.x_grid.weights[:eq.grid.shape[0] // 2 + 1])
        self._flux = tuple(root[:, None] * ops.v_gradient.diagonal(k)
                           for k in (0, 1))
        # the moments' constant terms: p^2 = q^2 + 2 q sqrt(f_star) + f_star
        moments = [0.0] * len(moment_weights)
        if eq.integrable:
            p_sq = (ops.sqrt_f * ops.sqrt_f).reshape(eq.grid.shape)
            moments = [float(a @ p_sq @ b) for a, b in moment_weights]
        self._constants = [0.0, 0.0, 0.0] + moments + [0.0]

    def _sector(self, sign):
        """(moment weights, 2 x their linear terms, mass weights, bound
        weights or None) on one sector, in fold's coordinates, built from
        the heads (first n_sector entries) of reversal-symmetric weights."""
        if sign not in self._sectors:
            ops, eq = self._ops, self._eq
            size = ops.sqrt_f.size // 2 + (sign > 0)
            # the heads of the moment weights, from the rows of their outer
            # products that the head meets
            rows = (size - 1) // eq.grid.shape[1] + 1
            weights = np.array([np.outer(a[:rows], b).ravel()[:size]
                                for a, b in self._moment_weights]
                               ).reshape(-1, size)
            # w . y = (w_head scale) . (y's even part), scale = sqrt(2) but 1
            # at the middle node: an odd sector has no linear terms or mass
            scale = np.full(size, _SQRT2)
            scale[-1] = 1.0 if sign > 0 else _SQRT2
            linear, mass = np.zeros_like(weights), np.zeros(size)
            if sign > 0:
                mass = ops.w_flat[:size] * ops.sqrt_f[:size] * scale
                if eq.integrable:   # p^2 = q^2 + 2 q sqrt(f_star) + f_star
                    linear = 2.0 * weights * (ops.sqrt_f[:size] * scale)
            bound = None
            if self._amplitude is not None:
                fstar = eq.f_star.values.ravel()[:size]
                s = ops.sqrt_f[:size] / (self._amplitude * fstar + _MAXP_TOL)
                # |y_i|, |y_(n-1-i)| <= (|even_i| + |odd_i|) / sqrt(2)
                bound = s / scale
            self._sectors[sign] = (weights, linear, mass, bound)
        return self._sectors[sign]

    def _flux_gram(self, sign, basis):
        """Y Y^T, the m x m Gram form of -<Lf, f>_mu in the sector rows of
        basis, row j of Y holding row j's v-flux images (module notes), from
        chunks of x-rows of at most _BLOCK rows' worth of images each."""
        nx, nv = self._eq.grid.shape
        mid, c = nx // 2, nv // 2
        m = basis.shape[0]
        step = max(1, _BLOCK * mid // m)
        rows = basis[:, :mid * nv].reshape(m, mid, nv)
        # the middle x-row on the full grid is (h, centre, sign h reversed);
        # the odd sector's centre is 0, so no flux square sees the sign
        middle = np.zeros((m, 1, nv))
        middle[:, 0, :c] = basis[:, mid * nv:mid * nv + c] / _SQRT2
        if sign > 0:
            middle[:, 0, c] = basis[:, -1]
        middle[:, 0, c + 1:] = middle[:, 0, c - 1::-1]
        gram = np.zeros((m, m))
        for first in list(range(0, mid, step)) + [mid]:
            chunk = rows[:, first:first + step] if first < mid else middle
            faces = slice(first, first + chunk.shape[1])
            image = (chunk[..., :-1] * self._flux[0][faces]
                     + chunk[..., 1:] * self._flux[1][faces]).reshape(m, -1)
            gram += image @ image.T
        return gram

    def one_row(self, sign, part):
        """The one-row _Window of a formed sector part p: the row
        p / ||p||_mu and the coefficient ||p||_mu."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            norm = np.sqrt(part @ (self._ops.w_flat[:part.size] * part))
            row = part / norm
        return self.window(sign, row[None], np.array([[norm]]))

    def read(self, parts):
        """values() of the sample whose sector parts are the arrays parts."""
        return self.values({sign: (self.one_row(sign, part), 0)
                            for sign, part in parts.items()})

    def window(self, sign, basis, coeffs):
        """The _Window of the samples whose coefficients in the sector
        basis rows `basis` (m x n_sector) are the columns of coeffs: the
        work per window and per block of samples of the module notes, the
        Gram forms a few rows at a time and the profiles one row at a time.
        """
        ops, delta = self._ops, self._delta
        weights, linear, mass, bound = self._sector(sign)
        m, count = coeffs.shape
        n_forms = 1 + len(weights)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            grams = np.empty((n_forms, m, m))
            grams[0] = self._flux_gram(sign, basis)
            reach = np.full(m, np.inf)
            for first in range(0, m, _BLOCK):
                rows = basis[first:first + _BLOCK]
                cols = slice(first, first + rows.shape[0])
                for i, d in enumerate(weights):
                    grams[1 + i, :, cols] = basis @ (d * rows).T
                if bound is not None:
                    reach[cols] = np.max(np.abs(rows) * bound, axis=1)
            linear = linear @ basis.T
            if delta != 0.0:
                pieces = self._row_pieces(unfold({sign: row}, ops.sqrt_f.size)
                                          for row in basis)
            shares = np.empty((n_forms + 3, count))
            for first in range(0, count, _WINDOW_SAMPLES):
                c = coeffs[:, first:first + _WINDOW_SAMPLES]
                block = slice(first, first + c.shape[1])
                norm_sq = np.sum(c * c, axis=0)
                forms = np.sum(c * (grams @ c), axis=1)
                forms[1:] += linear @ c
                profiles = solutions = None
                if delta != 0.0:
                    profiles, solutions = self._combined(pieces, c)
                shares[1:3, block] = hypo.entropy_and_dissipation_from(
                    norm_sq, forms[0], profiles, solutions, delta, ops)
                shares[0, block] = norm_sq
                shares[3:-1, block] = forms[1:]
                shares[-1, block] = reach @ np.abs(c)
            return _Window(basis, coeffs,
                           np.all(np.isfinite(coeffs), axis=0).tolist(),
                           ((basis @ mass) @ coeffs).tolist(), shares)

    def _row_pieces(self, unfolded):
        """(profiles, right-hand sides, solutions, residuals) of hypo's four
        elliptic solves for each of the m basis rows `unfolded` (on the
        full grid), from one solve with 4m right-hand sides: m x 4 nx
        arrays, row j holding basis row j's four (u_f, B q, B T(1-Pi) q,
        B L q) pieces."""
        ops = self._ops
        profiles = np.array([q_profiles(row, ops) for row in unfolded])
        m, nx = profiles.shape[0], ops.mrho.size
        # nx x 4m: one m-column block per profile
        rhs = elliptic_rhs(profiles.transpose(1, 2, 0), ops)
        solutions = operators.solve_elliptic(rhs, ops)
        residuals = rhs - ops.elliptic_matrix @ solutions
        return (profiles.reshape(m, -1),) + tuple(
            block.reshape(nx, 4, m).transpose(2, 1, 0).reshape(m, -1)
            for block in (rhs, solutions, residuals))

    def _combined(self, pieces, c):
        """The profiles and elliptic solutions (b x 4 x nx each) of the
        samples whose coefficients are the b columns of c. With more than
        one row, a sample whose combined residual fails the solve's 1e-10
        relative check in any column is solved again on its own."""
        ops = self._ops
        profiles, rhs, solutions, residuals = (
            (c.T @ piece).reshape(c.shape[1], 4, -1) for piece in pieces)
        if c.shape[0] > 1:
            norms = np.linalg.norm(rhs, axis=2)
            stalled = residual_stalls(residuals, norms, 2)
            for k in np.flatnonzero(stalled.any(axis=1)):
                solutions[k] = operators.solve_elliptic(rhs[k].T, ops).T
        return profiles, solutions

    def values(self, items):
        """(row, finite) of values for a sample whose every sector part is
        (window, k): the row (norm_sq_mu, H, D, x-moments, v-moments, max
        principle) and whether its diagnostics are finite: the sectors'
        shares plus the moments' constant terms, added in Python floats
        (module notes). A finite sample whose bound exceeds 1 - 1e-9 is
        formed and checked pointwise."""
        total = [c + sum(shares) for c, *shares in zip(
            self._constants,
            *(w.shares[:, k].tolist() for w, k in items.values()))]
        finite = all(math.isfinite(v) for v in total[:-1])
        ok = total[-1] <= _BOUND_MAX or (finite and self._max_ok(unfold(
            {sign: w.part(k) for sign, (w, k) in items.items()},
            self._ops.sqrt_f.size)))
        n_j = 3 + self._n_j
        return (total[0], total[1], total[2], total[3:n_j], total[n_j:-1],
                ok), finite


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


_MACRO_FLOOR = 0.5 * math.log(np.finfo(float).tiny)     # about -354


def _macro_states(y0, eq, ops, dt, n_steps, stride):
    """(n, y after n implicit-Euler steps of dt) for every sampled step n
    (the multiples of stride, and n_steps), in closed form.

    The macro generator G = -sigma W^-1 Sx R^-1 (W = diag wx, R =
    diag rho_star, Sx the symmetric tridiagonal flux stiffness) is
    self-adjoint in <a, b> = sum wx a b / rho_star: with D =
    diag sqrt(wx / rho_star), D G D^-1 is symmetric tridiagonal, and one
    eigh_tridiagonal call on its diagonal and upper off-diagonal gives it
    as V diag(lam) V^T. Then
    y_n = D^-1 V diag((1 - dt lam)^-n) V^T D y0, each power taken as
    exp(max(n l, floor)) with l = -log1p(-dt lam) <= 0 and floor =
    log(sqrt(tiny)): a mode below about 1e-154 of its start would otherwise
    underflow into subnormals and slow every product, and what the floor
    keeps of it lies far below the roundoff of the kernel mode's
    coefficient. NumericalError when the scaled off-diagonals differ, or an
    eigenvalue lies above 0, by more than n eps max |lam|. A block of up to
    _WINDOW_SAMPLES samples is formed at a time; no state between samples
    is formed.
    """
    gen = ops.macro_generator
    d = np.sqrt(eq.grid.x_grid.weights / eq.rho_star.values)
    upper = d[:-1] * gen.diagonal(1) / d[1:]
    lower = d[1:] * gen.diagonal(-1) / d[:-1]
    lam, vecs = eigh_tridiagonal(gen.diagonal(), upper)
    tol = lam.size * np.finfo(float).eps * np.max(np.abs(lam))
    if np.max(np.abs(upper - lower), initial=0.0) > tol:
        raise NumericalError("macro generator is not self-adjoint in the "
                             "rho_star-weighted inner product")
    if lam[-1] > tol:
        raise NumericalError("macro generator has an eigenvalue %.3e above 0"
                             % lam[-1])
    log_step = -np.log1p(-dt * lam)
    coeffs = vecs.T @ (d * y0)
    steps = _sample_steps(n_steps, stride)
    for first in range(0, steps.size, _WINDOW_SAMPLES):
        block = steps[first:first + _WINDOW_SAMPLES]
        powers = np.exp(np.maximum(np.outer(log_step, block), _MACRO_FLOOR))
        for n, y in zip(block, ((powers * coeffs[:, None]).T @ vecs.T) / d):
            yield int(n), y
