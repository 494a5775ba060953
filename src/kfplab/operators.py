"""Discrete L, T, Pi, the auxiliary elliptic solve, and the twist operator A.

Construction notes (the structural identities everything rests on):

* Work in q = f/sqrt(f_star) coordinates, where <f,g>_mu becomes the plain
  weighted product sum(w_ij q_f q_g) with trapezoid weights w_ij = wx_i wv_j.

* Transport: T_hat = psi_t(v) * Dx - phi_t(x) * Dv with Dx = Wx^-1 Kx, where
  Kx is the antisymmetric centered-difference core (zero extension at the
  boundary rows). Because Wx cancels against the quadrature weights, T_hat is
  exactly skew in the weighted product. The coefficients are the DISCRETE
  logarithmic derivatives psi_t = -2 (Dv sqrt(g_star))/sqrt(g_star) (and the
  analogue in x), so T_hat sqrt(f_star) = 0 holds with floating-point-exact
  cancellation: mass is conserved to solver precision, not to O(spacing^2).
  psi_t = psi' + O(spacing^2), so consistency is unaffected.

* Collision: per x-slice, in h = f/f_star coordinates, the flux form
  -Mv^-1 Gv^T E Gv with midpoint weights E ~ e^{-psi(v_{j+1/2})}. Exactly
  symmetric, nonpositive, annihilates constants (so L f_star = 0 exactly),
  conserves mass per slice exactly.

* The macroscopic operator (T Pi)*(T Pi) restricted to local equilibria
  u f_star is assembled as the exact sparse composition N = Mrho^-1 C^T W C
  with C = T_hat P_hat. B = Mrho^-1 C^T W is (TPi)* from q-forms to
  profiles, so N = B C. elliptic_matrix = I + N, so apply_A realizes
  (1 + (TPi)*(TPi))^-1 (TPi)* exactly in the discrete Hilbert space and the
  abstract operator estimates hold to roundoff.
"""

import dataclasses

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .equilibria import eval_potential
from .errors import InvalidEquilibriumError, NumericalError
from .grids import DensityField, Field

# Options for every sparse LU in the package: the kinetic and macro steps, the
# elliptic solve behind A and the bordered pencil. Every stencil here is
# structurally symmetric, so a minimum-degree ordering of A^T + A applied to
# rows and columns alike (SymmetricMode) fits them; on the kinetic systems it
# gives about half the fill of COLAMD. The step matrices
# I - dt (L_hat - T_hat) have a positive definite W-weighted symmetric part,
# so their diagonal pivots exist for any symmetric ordering. The small
# DiagPivotThresh keeps SuperLU on them: with the default threshold of 1,
# partial pivoting swaps rows on the beta = 0.5 boxes, undoes the ordering and
# multiplies the fill. A diagonal entry below the threshold (the zero border
# of the pencil) still falls back to a row swap, and solve_with_refinement
# checks the residual of every step and elliptic solve.
SPLU_OPTIONS = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.1,
    "options": {"SymmetricMode": True},
}
_RESIDUAL_TOL = 1e-10


def _antisym_core(n):
    # (K q)_i = (q_{i+1} - q_{i-1}) / 2 with zero extension outside
    off = 0.5 * np.ones(n - 1)
    return sp.diags([off, -off], [1, -1], format="csr")


def flux_stiffness(grid, face_weight):
    """S = G^T diag(face_weight/h) G on a Grid1D, G the forward difference.

    u^T S u = sum_faces face_weight * ((u_{j+1} - u_j)/h)^2 * h: the flux-form
    Dirichlet form behind the collision slice, the macro generator and the
    spectral pencils.
    """
    n = grid.count
    G = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1],
                 shape=(n - 1, n), format="csr")
    return (G.T @ sp.diags(face_weight / grid.spacing) @ G).tocsr()


def collision_v_forms(eq):
    """(stiffness S_v, mass vector wv*g) of the v-direction Dirichlet form.

    S_v is the exact quadratic form behind -<Lf, f>_mu per x-slice:
    -<Lf,f> = sum_i wx_i rho_i * h_i^T S_v h_i with h = f/f_star. Shared with
    the spectral module so the microscopic coercivity constant is an exact
    lower bound for the very same discrete form.
    """
    vg = eq.grid.v_grid
    mid = 0.5 * (vg.nodes[:-1] + vg.nodes[1:])
    # face weights share the scale of the stored g_star_v factor
    face = eq.g_scale * np.exp(-eval_potential(eq.spec, "v", mid))
    S = flux_stiffness(vg, face)
    mass = vg.weights * eq.g_star_v
    return S, mass


@dataclasses.dataclass(eq=False)
class OperatorSet:
    """Assembled discrete operators for one equilibrium, in q = f/sqrt(f_star).

    T_hat and L_hat are the transport and collision matrices on q (n = nx nv
    unknowns); sqrt_f and w_flat the flattened sqrt(f_star) and trapezoid
    weights W. P_hat maps a profile u to the q-form of u f_star, C = T_hat
    P_hat, mrho the profile weights Mrho, N_sym = C^T W C = Mrho N and
    B = Mrho^-1 C^T W = (TPi)*. elliptic_matrix = I + N with its LU
    elliptic_lu; macro_generator is the sigma-scaled Fokker-Planck generator
    on densities and Sx_macro its flux stiffness. step_cache holds the
    factored time-step systems of this set; dataclasses.replace starts a new,
    empty one.
    """

    T_hat: sp.csr_matrix
    L_hat: sp.csr_matrix
    sqrt_f: np.ndarray
    w_flat: np.ndarray
    P_hat: sp.csr_matrix
    C: sp.csr_matrix
    mrho: np.ndarray
    N_sym: sp.csr_matrix
    B: sp.csr_matrix
    elliptic_matrix: sp.csr_matrix
    elliptic_lu: object
    macro_generator: sp.csr_matrix
    Sx_macro: sp.csr_matrix
    step_cache: dict = dataclasses.field(init=False, default_factory=dict,
                                         repr=False)

    # -- convenience applications on Fields ---------------------------------
    def apply_collision(self, f):
        return Field((self.L_hat @ (f.values.ravel() / self.sqrt_f)
                      * self.sqrt_f).reshape(f.grid.shape), f.grid)

    def apply_transport(self, f):
        return Field((self.T_hat @ (f.values.ravel() / self.sqrt_f)
                      * self.sqrt_f).reshape(f.grid.shape), f.grid)


def assemble(eq, spec, grid):
    """Build the OperatorSet; raises InvalidEquilibriumError on nonpositive weights."""
    xg, vg = grid.x_grid, grid.v_grid
    nx, nv = xg.count, vg.count
    rho = eq.rho_star.values
    gv = eq.g_star_v
    if rho.min() <= 0 or gv.min() <= 0:
        raise InvalidEquilibriumError("equilibrium weights must be positive")

    r = np.sqrt(rho)
    s = np.sqrt(gv)
    sqrt_f = np.outer(r, s).ravel()
    w_flat = grid.weight_matrix.ravel()

    # --- transport in q coordinates ---------------------------------------
    Dx = sp.diags(1.0 / xg.weights) @ _antisym_core(nx)
    Dv = sp.diags(1.0 / vg.weights) @ _antisym_core(nv)
    psi_t = -2.0 * (Dv @ s) / s
    phi_t = -2.0 * (Dx @ r) / r
    T_hat = (sp.diags(np.tile(psi_t, nx)) @ sp.kron(Dx, sp.identity(nv), format="csr")
             - sp.diags(np.repeat(phi_t, nv)) @ sp.kron(sp.identity(nx), Dv, format="csr"))
    T_hat = T_hat.tocsr()

    # --- collision in q coordinates (x-independent slice operator) --------
    Sv, _ = collision_v_forms(eq)
    Lv_hat = -sp.diags(1.0 / (vg.weights * s)) @ Sv @ sp.diags(1.0 / s)
    L_hat = sp.kron(sp.identity(nx), Lv_hat, format="csr")

    # --- macroscopic pieces -------------------------------------------------
    # exact composition N = Mrho^-1 C^T W C, C = T_hat P_hat
    P_hat = sp.kron(sp.diags(r), sp.csr_matrix(s.reshape(nv, 1)), format="csr")
    C = (T_hat @ P_hat).tocsr()
    mrho = eq.g_mass * xg.weights * rho
    N_sym = (C.T @ sp.diags(w_flat) @ C).tocsr()     # = Mrho N, symmetric PSD
    N = (sp.diags(1.0 / mrho) @ N_sym).tocsr()
    B = (sp.diags(1.0 / mrho) @ C.T @ sp.diags(w_flat)).tocsr()  # (TPi)*
    elliptic_matrix = (sp.identity(nx, format="csr") + N).tocsr()

    # sigma-scaled Fokker-Planck generator on densities, flux form
    xmid = 0.5 * (xg.nodes[:-1] + xg.nodes[1:])
    face_x = eq.rho_scale * np.exp(-eval_potential(eq.spec, "x", xmid))
    Sx = flux_stiffness(xg, face_x)
    macro_generator = (-eq.sigma_normalized
                       * sp.diags(1.0 / xg.weights) @ Sx @ sp.diags(1.0 / rho)).tocsr()

    return OperatorSet(
        T_hat=T_hat, L_hat=L_hat, sqrt_f=sqrt_f, w_flat=w_flat, P_hat=P_hat,
        C=C, mrho=mrho, N_sym=N_sym, B=B,
        elliptic_matrix=elliptic_matrix,
        elliptic_lu=splu(elliptic_matrix.tocsc(), **SPLU_OPTIONS),
        macro_generator=macro_generator, Sx_macro=Sx)


# ---------------------------------------------------------------------------
# projection, elliptic solve, twist operator
# ---------------------------------------------------------------------------

def apply_Pi(f, eq):
    """Pi f = rho_f(x) g_star(v)/int(g_star): idempotent, self-adjoint in dmu."""
    rho_f = f.values @ eq.grid.v_grid.weights
    return Field(np.outer(rho_f, eq.g_hat), f.grid)


def macro_profile(f, eq):
    """u with Pi f = u f_star (the local-equilibrium coefficient of f)."""
    rho_f = f.values @ eq.grid.v_grid.weights
    return DensityField(rho_f / (eq.g_mass * eq.rho_star.values), eq.grid.x_grid)


def solve_with_refinement(lu, system, rhs, what):
    """Solve system @ x = rhs with the factorization lu of system.

    Up to three rounds of iterative refinement bring the relative residual
    ||rhs - system @ x|| below 1e-10 ||rhs||; a solve that stalls above it
    raises NumericalError naming `what`.
    """
    sol = lu.solve(rhs)
    scale = np.linalg.norm(rhs)
    if scale == 0.0:
        return sol
    for _ in range(3):
        res = rhs - system @ sol
        if np.linalg.norm(res) < _RESIDUAL_TOL * scale:
            return sol
        sol = sol + lu.solve(res)
    res = np.linalg.norm(rhs - system @ sol) / scale
    raise NumericalError("%s solve stalled at relative residual %.2e"
                         % (what, res))


def solve_elliptic(rhs, eq, ops):
    """Solve (I + N) u = rhs on densities to relative residual < 1e-10.

    N is the exact discrete (TPi)*(TPi) on local-equilibrium profiles; the
    system I + N is factored directly and solved by solve_with_refinement.
    """
    u = solve_with_refinement(ops.elliptic_lu, ops.elliptic_matrix,
                              rhs.values, "elliptic")
    return DensityField(u, eq.grid.x_grid)


def twist_profile(g_q, eq, ops):
    """The profile u_g with A g = u_g f_star, for g given by its q-form g_q.

    u_g = (I + N)^-1 B g_q with B = Mrho^-1 C^T W, the adjoint (TPi)* in q
    coordinates: one sparse product with an nx x n matrix and one nx-sized
    elliptic solve, without building a full-grid Field.
    """
    rhs = DensityField(ops.B @ g_q, eq.grid.x_grid)
    return solve_elliptic(rhs, eq, ops).values


def apply_A(f, eq, ops):
    """A f = (1 + (TPi)*(TPi))^-1 (TPi)* f, returned as the field u f_star."""
    u = twist_profile(f.values.ravel() / ops.sqrt_f, eq, ops)
    return Field(u[:, np.newaxis] * eq.f_star.values, f.grid)


def atpi_quadratic_form(f, eq, ops):
    """<A T Pi f, Pi f>_mu through its exact two-term expression.

    With u solving (I + N) u = u_f this equals ||T Pi (u f_star)||_mu^2 +
    ||(TPi)*(TPi)(u f_star)||_mu^2 — the discrete counterpart of
    sigma int |grad u|^2 rho_star + sigma^2 int |div(rho_star grad u)|^2 / rho_star.
    """
    u_f = macro_profile(f, eq)
    u = solve_elliptic(u_f, eq, ops)
    cu = ops.C @ u.values
    term1 = float(np.sum(ops.w_flat * cu * cu))
    nu = (ops.N_sym @ u.values) / ops.mrho   # N u = Mrho^-1 C^T W C u
    term2 = float(np.sum(ops.mrho * nu * nu))
    return term1 + term2
