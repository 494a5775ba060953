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
diagnostics must be finite. On the Krylov path the last good time of an
aborted run is therefore its last accepted sample.

Trajectories sample the squared mu-norm of the tracked state (f - f_star on
integrable branches, f itself when no stationary state exists), the twisted
entropy H, its dissipation D (directly and as a difference quotient of H),
x- and v-moments, and a maximum-principle indicator. A kinetic sample reads
all of them from q = y / sqrt(f_star) and its nx x nv view in one pass,
without building a Field: H and D come from one entropy_and_dissipation
call, that is one profile product and one elliptic solve with four
right-hand sides (none at delta = 0). A delta outside [0, 2) is refused
before anything is factored.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NumericalError, ValidationError
from .grids import DensityField, Field
# The sampler calls entropy_and_dissipation only. entropy_H and
# dissipation_components stay importable here because bench/tracing.py wraps
# them by these names in every benchmark run and refuses to run without them.
from .hypo import (check_entropy_delta, dissipation_components,  # noqa: F401
                   entropy_H, entropy_and_dissipation)
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
    """The canonical CSR matrix of an odd-order, reversal-symmetric canonical
    CSR system on its even (sign +1, m + 1 unknowns) or odd (sign -1, m
    unknowns) sector, in the orthonormal sector coordinates of fold.

    Entry (i, j) of the fold is S[i, j] + sign S[i, n-1-j] for j < m; the
    even sector keeps column m as sqrt(2) S[i, m] (i < m) and divides row m
    by sqrt(2) (j < m), so that S[m, m] stays as it is. It is read off the
    CSR arrays of the first half rows: rows with no entry in column m or
    beyond are copied, and only the rows from the first one that has such
    an entry are remapped, merged and sorted.
    """
    n = system.shape[0]
    m = n // 2
    half = m + 1 if sign > 0 else m
    indptr, indices, data = system.indptr, system.indices, system.data
    end = indptr[half]
    # the first row with an entry in column m or beyond starts the tail
    reach = np.flatnonzero(indices[:end] >= m)
    first = (np.searchsorted(indptr, reach[0], side="right") - 1
             if reach.size else half)
    start = indptr[first]
    rows = np.repeat(np.arange(first, half), np.diff(indptr[first:half + 1]))
    cols = indices[start:end].astype(np.intp)
    vals = data[start:end]
    # column n-1-j of the full system acts on entry j of the sector; the
    # odd sector has no centre column m
    mirrored = cols > m
    cols = np.where(mirrored, n - 1 - cols, cols)
    vals = np.where(mirrored, sign * vals, vals)
    keep = cols < half
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.argsort(rows * half + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    # a column reached directly and through its mirror holds two terms
    pair = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
    vals[pair] = vals[pair] + vals[pair + 1]
    keep = np.ones(vals.size, dtype=bool)
    keep[pair + 1] = False
    keep &= vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if sign > 0:
        # the centre entry is not scaled by sqrt(2): its row of the fold
        # holds 2 S[m, j], its column S[i, m]; both become sqrt(2) S
        vals[(rows == m) & (cols < m)] /= _SQRT2
        vals[(cols == m) & (rows < m)] *= _SQRT2
    tail_ptr = start + np.cumsum(np.bincount(rows - first,
                                             minlength=half - first))
    return sp.csr_matrix(
        (np.concatenate([data[:start], vals]),
         np.concatenate([indices[:start], cols.astype(indices.dtype)]),
         np.concatenate([indptr[:first + 1], tail_ptr.astype(indptr.dtype)])),
        shape=(half, half))


def _reversal_symmetric(matrix):
    """matrix[::-1, ::-1] == matrix, read from the arrays of a canonical CSR
    matrix (sorted indices, no stored zeros): the reversal reverses data,
    sends the index list to n - 1 - indices[::-1] and indptr to
    nnz - indptr[::-1], so equality is equality of the three arrays. Each
    array equals its image when its first half, middle entry included,
    does."""
    n = matrix.shape[0]
    data, indices, indptr = matrix.data, matrix.indices, matrix.indptr
    h, r = (data.size + 1) // 2, (n + 2) // 2
    return (np.array_equal(indptr[:r], indptr[-1] - indptr[:-r - 1:-1])
            and np.array_equal(indices[:h], n - 1 - indices[:-h - 1:-1])
            and np.array_equal(data[:h], data[:-h - 1:-1]))


class SectorLU:
    """The step system of (mode, dt, scheme) on ops, factored per sector.

    _step_matrices gives S, canonical CSR of odd order n = 2m + 1 with
    S[::-1, ::-1] == S (else NumericalError), and Crank-Nicolson's rhs_mat
    with the same symmetry. Each sign in signs (+1 even, -1 odd) is folded
    by fold_sector and factored with SPLU_OPTIONS here, one at a time, and
    the full-grid system is then dropped; sector(sign) is that sector's
    (factor, matrix, folded rhs_mat or None), lus maps each sign to its LU.
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


def _step(y, ops, mode, dt, scheme):
    """The state vector y one step later (q for kinetic, rho for macro)."""
    parts = fold(y)
    lu = SectorLU(ops, mode, dt, scheme, parts)
    return unfold(_advance(parts, lu, mode + " step"), y.size)


def step_kinetic(f, dt, eq, ops, scheme="implicit_euler"):
    """One implicit step of df/dt + Tf = Lf; mass-conservative by construction."""
    q = _step(f.values.ravel() / ops.sqrt_f, ops, "kinetic", dt, scheme)
    return Field((q * ops.sqrt_f).reshape(f.grid.shape), f.grid)


def step_macro(rho, dt, eq, ops, scheme="implicit_euler"):
    """One implicit step of the macroscopic Fokker-Planck equation."""
    return DensityField(_step(rho.values, ops, "macro", dt, scheme),
                        eq.grid.x_grid)


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
    record's envelope column is NaN until the caller sets it. A failed solve,
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
    if mode == "kinetic":
        y, mass_w, mass_f0, sample = _kinetic_sampler(f0, eq, ops, delta,
                                                      j_powers, k_powers)
    elif mode == "macro":
        k_powers = ()       # densities carry no velocity moments
        y, mass_w, mass_f0, sample = _macro_sampler(f0, eq, ops, j_powers)
    else:
        raise ValidationError("mode must be 'kinetic' or 'macro'")
    parts = fold(y)
    if (mode == "kinetic" and scheme == "implicit_euler"
            and _krylov_pays(n_steps, y.size // 2 + 1)):
        states = _krylov_states(parts, ops, dt, n_steps, stride)
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

    def row(t, y):
        # a finite state can still overflow its diagnostics
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = sample(y)
        if not np.all(np.isfinite(np.hstack(values[:5]))):
            raise NumericalError("non-finite sample at t = %.6g" % t)
        return (t,) + values

    rows = [row(0.0, y)]
    t = 0.0
    try:
        for n, parts in states:
            if not all(np.all(np.isfinite(p)) for p in parts.values()):
                raise NumericalError("non-finite state detected")
            if abs(mass(parts) - mass0) > mass_tol:
                raise NumericalError("mass drift beyond tolerance")
            if n % stride == 0 or n == n_steps:
                rows.append(row(n * dt, unfold(parts, y.size)))
            t = n * dt
    except NumericalError as exc:
        err = NumericalError("%s; last good time %.6g" % (exc, t))
        err.last_good_time = t
        err.partial_record = _record(rows, j_powers, k_powers)
        raise err
    return _record(rows, j_powers, k_powers)


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
_BLOCK = 8              # samples formed from a basis per product


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


def _krylov_states(parts, ops, dt, n_steps, stride):
    """(n, parts after n implicit-Euler steps of dt) for every sampled step
    n (the multiples of stride, and n_steps), each sector sampled by
    _krylov_part from one factor of I - gamma G, gamma = _SHIFT_STEPS dt."""
    sample_steps = np.arange(stride, n_steps + 1, stride)
    if n_steps % stride:
        sample_steps = np.append(sample_steps, n_steps)
    lu = SectorLU(ops, "kinetic", _SHIFT_STEPS * dt, "implicit_euler", parts)
    sectors = [_krylov_part(sign, part, lu, ops, dt, sample_steps)
               for sign, part in parts.items()]
    for n, *new in zip(sample_steps, *sectors):
        yield int(n), dict(zip(parts, new))


def _krylov_part(sign, part, lu, ops, dt, steps):
    """The sector part after each of the increasing step counts `steps` of
    implicit Euler, sampled window by window from lu's factor of the sector.

    Each window grows a basis from the last sample the previous one agreed
    on and yields the samples its approximations agree on. A window that
    agrees on none leaves the rest of the run to the stepping loop, on a
    factor of I - dt G.
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


def _max_principle_bound(values, star, what):
    """C = max(f0 / f_star); a negative initial state is a ValidationError."""
    ratio0 = values / star
    if np.min(ratio0) < -1e-12:
        raise ValidationError(what)
    return float(np.max(ratio0))


def _max_principle_ok(f_phys, c_bound, star):
    # absolute-slack form: f <= C f_star + tol and f >= -tol pointwise
    over = float(np.max(f_phys - c_bound * star))
    under = float(np.min(f_phys))
    return bool(over <= _MAXP_TOL and under >= -_MAXP_TOL)


def _kinetic_sampler(f0, eq, ops, delta, j_powers, k_powers):
    """(q0, mass weights, mass of f0, sample) for q = y / sqrt(f_star).

    sample(q) returns (norm_sq_mu, H, D, x-moments, v-moments, max principle)
    in one pass over q (module notes). A delta outside [0, 2) is refused
    here, before run_trajectory factors anything.
    """
    check_entropy_delta(delta)
    fstar = eq.f_star.values
    c_bound = _max_principle_bound(f0.values, fstar,
                                   "initial state violates 0 <= f0 <= C f_star")
    sqrt_f = ops.sqrt_f
    shape = eq.grid.shape
    base = fstar if eq.integrable else 0.0
    q0 = ((f0.values - base) / fstar).ravel() * sqrt_f  # q = y / sqrt(f_star)
    # J_k = sum_i wx_i <x_i>^k sum_j wv_j p_ij^2 with p = f / sqrt(f_star),
    # K_l likewise with the sums swapped
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    if min(tuple(j_powers) + tuple(k_powers), default=0.0) < 0:
        raise ValidationError("moment power must be >= 0")
    j_weights = [xg.weights * np.sqrt(1.0 + xg.nodes ** 2) ** float(k)
                 for k in j_powers]
    k_weights = [vg.weights * np.sqrt(1.0 + vg.nodes ** 2) ** float(k)
                 for k in k_powers]
    base_q = sqrt_f.reshape(shape) if eq.integrable else 0.0

    def sample(q):
        p = q.reshape(shape) + base_q
        p_sq = p * p
        x_marginal, v_marginal = p_sq @ vg.weights, xg.weights @ p_sq
        h, d = entropy_and_dissipation(q, delta, eq, ops)
        return (max(float((ops.w_flat * q) @ q), 0.0), h, d,
                [float(w @ x_marginal) for w in j_weights],
                [float(v_marginal @ w) for w in k_weights],
                _max_principle_ok((q * sqrt_f).reshape(shape) + base, c_bound,
                                  fstar))

    # mass(y) = (w_flat sqrt_f) . q
    return (q0, ops.w_flat * sqrt_f,
            float(np.sum(eq.grid.weight_matrix * f0.values)), sample)


def _macro_sampler(rho0, eq, ops, j_powers):
    """(y0, mass weights, mass of rho0, sample) for the density y = rho - base.

    H = ||y||^2 / 2 and D = sigma <Sx u, u> with u = y / rho_star.
    """
    rho_star = eq.rho_star.values
    wx = eq.grid.x_grid.weights
    bracket = np.sqrt(1.0 + eq.grid.x_grid.nodes ** 2)
    c_bound = _max_principle_bound(rho0.values, rho_star,
                                   "initial density must be nonnegative")
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
                _max_principle_ok(f_phys, c_bound, rho_star))

    return rho0.values - base, wx, float(np.sum(wx * rho0.values)), sample
