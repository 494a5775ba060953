"""Discrete L, T, Pi, the auxiliary elliptic solve, and the twist operator A.

Construction notes (the structural identities everything rests on):

* Work in q = f/sqrt(f_star) coordinates, where <f,g>_mu becomes the plain
  weighted product sum(w_ij q_f q_g) with trapezoid weights w_ij = wx_i wv_j.
  With sqrt(f_star) = r (x) s, r = sqrt(rho_star) and s = sqrt(g_star), a
  q-form is also read as the nx x nv matrix Q (rows x, columns v).

* Transport: T_hat = psi_t(v) * Dx - phi_t(x) * Dv with Dx = Wx^-1 Kx, where
  Kx is the antisymmetric centered-difference core (zero extension at the
  boundary rows). Because Wx cancels against the quadrature weights, T_hat is
  exactly skew in the weighted product. The coefficients are the DISCRETE
  logarithmic derivatives psi_t = -2 (Dv sqrt(g_star))/sqrt(g_star) (and the
  analogue in x), so T_hat sqrt(f_star) = 0 holds with floating-point-exact
  cancellation: mass is conserved to solver precision, not to O(spacing^2).
  psi_t = psi' + O(spacing^2), so consistency is unaffected. T_hat is
  assembled from its four diagonals, psi_t(v) Dx (x) I on offsets +-nv and
  -phi_t(x) I (x) Dv on offsets +-1, as canonical CSR (sorted indices, no
  stored zeros); the entries equal the Kronecker-product build bit for bit.

* Collision: per x-slice, in h = f/f_star coordinates, the flux form
  -Mv^-1 Gv^T E Gv with midpoint weights E ~ e^{-psi(v_{j+1/2})}. Exactly
  symmetric, nonpositive, annihilates constants (so L f_star = 0 exactly),
  conserves mass per slice exactly. L_hat = I (x) Lv_hat acts on Q as
  Q Lv_hat^T; it is assembled from the three diagonals of Lv_hat, with no
  entry across an x-slice boundary, as canonical CSR.

* The macroscopic operator (T Pi)*(T Pi) restricted to local equilibria
  u f_star is N = Mrho^-1 C^T W C with C = T_hat P_hat, where
  P_hat u = (r u) (x) s is the q-form of u f_star. C factors through two
  fixed velocity profiles: C = X1 (x) c1 - X2 (x) c2 with X1 = Dx diag(r),
  c1 = psi_t s, X2 = diag(phi_t r) and c2 = Dv s. With W = Wx (x) Wv and
  the 2 x 2 Gram matrix g_kl = c_k^T Wv c_l,

      N_sym = C^T W C = g11 X1^T Wx X1 - g12 (X1^T Wx X2 + X2^T Wx X1)
                        + g22 X2^T Wx X2,

  so neither P_hat nor C is formed. Assembling it as H + H^T, with H the
  half of each term, makes it exactly symmetric. elliptic_matrix = I + N,
  so apply_A realizes (1 + (TPi)*(TPi))^-1 (TPi)* in the discrete Hilbert
  space and the abstract operator estimates hold to roundoff.

* By the same factorization, the adjoint B = Mrho^-1 C^T W = (TPi)* of
  any q-form built from Q by T_hat or L_hat needs only Q against the nine
  columns of v_profiles, V = [s wv, a_k, psi_t a_k, Dv^T a_k, Lv_hat^T a_k]
  with a_k = wv c_k (k = 1, 2, interleaved), followed by nx-sized sparse
  maps (profile_map). q_profiles returns m u_f (Pi f = u_f f_star), B q,
  B T_hat (1-Pi) q = B T_hat q - N u_f and B L_hat q that way, without a
  full-grid sparse product.
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


def _banded_csr(diagonals):
    """The canonical CSR matrix (sorted indices, no stored zeros) with entry
    diagonals[k][p] in row p and column p + k, each array read in row-major
    order; entries whose column p + k leaves the matrix are ignored."""
    n = next(iter(diagonals.values())).size
    offsets = sorted(diagonals)
    return sp.diags([diagonals[k].ravel()[max(-k, 0):n - max(k, 0)]
                     for k in offsets], offsets, shape=(n, n), format="csr")


def _forward_difference(n):
    return sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1],
                    shape=(n - 1, n), format="csr")


def flux_stiffness(grid, face_weight):
    """S = G^T diag(face_weight/h) G on a Grid1D, G the forward difference.

    u^T S u = sum_faces face_weight * ((u_{j+1} - u_j)/h)^2 * h: the flux-form
    Dirichlet form behind the collision slice, the macro generator and the
    spectral pencils.
    """
    G = _forward_difference(grid.count)
    return (G.T @ sp.diags(face_weight / grid.spacing) @ G).tocsr()


def _collision_faces(eq):
    # midpoint face weights e^{-psi}, on the scale of the stored g_star_v
    vg = eq.grid.v_grid
    mid = 0.5 * (vg.nodes[:-1] + vg.nodes[1:])
    return eq.g_scale * np.exp(-eval_potential(eq.spec, "v", mid))


def collision_v_forms(eq):
    """(stiffness S_v, mass vector wv*g) of the v-direction Dirichlet form.

    S_v is the exact quadratic form behind -<Lf, f>_mu per x-slice:
    -<Lf,f> = sum_i wx_i rho_i * h_i^T S_v h_i with h = f/f_star. Shared with
    the spectral module so the microscopic coercivity constant is an exact
    lower bound for the very same discrete form.
    """
    vg = eq.grid.v_grid
    return flux_stiffness(vg, _collision_faces(eq)), vg.weights * eq.g_star_v


@dataclasses.dataclass(eq=False)
class OperatorSet:
    """Assembled discrete operators for one equilibrium, in q = f/sqrt(f_star).

    T_hat and L_hat are the transport and collision matrices on q (n = nx nv
    unknowns); sqrt_f and w_flat the flattened sqrt(f_star) and trapezoid
    weights W. v_profiles (nv x 9) and profile_map (4 nx x 9 nx) give
    q_profiles; v_gradient is the (nv-1) x nv flux gradient with
    -<L_hat q, q>_W = sum_i wx_i |v_gradient Q_i|^2. mrho holds the profile
    weights Mrho and N_sym = C^T W C = Mrho N, formed from the nx-sized
    pieces of C = X1 (x) c1 - X2 (x) c2 (module notes), exactly symmetric.
    T_hat, L_hat and the step systems built from them are canonical CSR
    (sorted indices, no stored zeros). elliptic_matrix = I + N with
    its LU elliptic_lu; macro_generator is the sigma-scaled Fokker-Planck
    generator on densities and Sx_macro its flux stiffness. step_cache holds
    the factored time-step systems of step_kinetic and step_macro;
    dataclasses.replace starts a new, empty one.
    """

    T_hat: sp.csr_matrix
    L_hat: sp.csr_matrix
    sqrt_f: np.ndarray
    w_flat: np.ndarray
    v_profiles: np.ndarray
    profile_map: sp.csr_matrix
    v_gradient: sp.csr_matrix
    mrho: np.ndarray
    N_sym: sp.csr_matrix
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


def assemble(eq):
    """Build the OperatorSet of eq on its own grid; raises
    InvalidEquilibriumError on nonpositive weights."""
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    nx, nv = xg.count, vg.count
    rho = eq.rho_star.values
    gv = eq.g_star_v
    if rho.min() <= 0 or gv.min() <= 0:
        raise InvalidEquilibriumError("equilibrium weights must be positive")

    r = np.sqrt(rho)
    s = np.sqrt(gv)
    sqrt_f = np.outer(r, s).ravel()
    wx, wv = xg.weights, vg.weights
    w_flat = eq.grid.weight_matrix.ravel()

    # --- transport in q coordinates ---------------------------------------
    Dx = sp.diags(1.0 / wx) @ _antisym_core(nx)
    Dv = sp.diags(1.0 / wv) @ _antisym_core(nv)
    psi_t = -2.0 * (Dv @ s) / s
    phi_t = -2.0 * (Dx @ r) / r
    # psi_t(v) Dx (x) I on offsets +-nv, -phi_t(x) I (x) Dv on offsets +-1
    # (each block is padded to nx x nv where the neighbour leaves the grid)
    T_hat = _banded_csr({
        -nv: np.pad(np.outer(Dx.diagonal(-1), psi_t), ((1, 0), (0, 0))),
        -1: np.pad(-np.outer(phi_t, Dv.diagonal(-1)), ((0, 0), (1, 0))),
        1: np.pad(-np.outer(phi_t, Dv.diagonal(1)), ((0, 0), (0, 1))),
        nv: np.pad(np.outer(Dx.diagonal(1), psi_t), ((0, 1), (0, 0))),
    })

    # --- collision in q coordinates (x-independent slice operator) --------
    faces = _collision_faces(eq)
    Sv = flux_stiffness(vg, faces)
    Lv_hat = -sp.diags(1.0 / (wv * s)) @ Sv @ sp.diags(1.0 / s)
    # I (x) Lv_hat: the tridiagonal slice operator in every x-row, with no
    # entry across a slice boundary
    L_hat = _banded_csr({
        -1: np.tile(np.pad(Lv_hat.diagonal(-1), (1, 0)), (nx, 1)),
        0: np.tile(Lv_hat.diagonal(0), (nx, 1)),
        1: np.tile(np.pad(Lv_hat.diagonal(1), (0, 1)), (nx, 1)),
    })
    v_gradient = (sp.diags(np.sqrt(faces / vg.spacing))
                  @ _forward_difference(nv) @ sp.diags(1.0 / s)).tocsr()

    # --- macroscopic pieces -------------------------------------------------
    # N_sym = C^T W C from X1 = Dx diag(r), X2 = diag(phi_t r) and the Gram
    # matrix g = c^T Wv c of c1 = psi_t s, c2 = Dv s (module notes)
    X1 = Dx @ sp.diags(r)
    x2 = phi_t * r
    c = np.column_stack([psi_t * s, Dv @ s])
    a = np.column_stack([wv * psi_t * s, wv * c[:, 1]])      # a_k = wv c_k
    g = c.T @ a
    H = (X1.T @ sp.diags(wx) @ (0.5 * g[0, 0] * X1 - g[0, 1] * sp.diags(x2))
         + sp.diags(0.5 * g[1, 1] * wx * x2 * x2))
    N_sym = (H + H.T).tocsr()                        # = Mrho N, symmetric PSD
    mrho = eq.g_mass * wx * rho
    N = (sp.diags(1.0 / mrho) @ N_sym).tocsr()
    elliptic_matrix = (sp.identity(nx, format="csr") + N).tocsr()

    # --- C = X1 (x) c1 - X2 (x) c2 and the profiles of q_profiles ----------
    # B = K1 (Q a1) - K2 (Q a2) with K1 = Mrho^-1 X1^T Wx, K2 = Mrho^-1 X2 Wx;
    # (T_hat Q) a_k = Dx Q (psi_t a_k) - phi_t Q (Dv^T a_k),
    # (L_hat Q) a_k = Q (Lv_hat^T a_k), and B T_hat Pi q = N u_f with
    # u_f = Mrho^-1 wx r (Q s wv)
    K1 = sp.diags(1.0 / mrho) @ X1.T @ sp.diags(wx)
    K2 = sp.diags(phi_t * r * wx / mrho)
    v_profiles = np.column_stack([s * wv, a, psi_t[:, None] * a, Dv.T @ a,
                                  Lv_hat.T @ a])
    phi = sp.diags(phi_t)
    profile_map = sp.bmat([
        [sp.diags(wx * r)] + [None] * 8,
        [None, K1, -K2] + [None] * 6,
        [-N @ sp.diags(wx * r / mrho), None, None, K1 @ Dx, -K2 @ Dx,
         -K1 @ phi, K2 @ phi, None, None],
        [None] * 7 + [K1, -K2],
    ], format="csr")

    # sigma-scaled Fokker-Planck generator on densities, flux form
    xmid = 0.5 * (xg.nodes[:-1] + xg.nodes[1:])
    face_x = eq.rho_scale * np.exp(-eval_potential(eq.spec, "x", xmid))
    Sx = flux_stiffness(xg, face_x)
    macro_generator = (-eq.sigma_normalized
                       * sp.diags(1.0 / wx) @ Sx @ sp.diags(1.0 / rho)).tocsr()

    return OperatorSet(
        T_hat=T_hat, L_hat=L_hat, sqrt_f=sqrt_f, w_flat=w_flat,
        v_profiles=v_profiles, profile_map=profile_map, v_gradient=v_gradient,
        mrho=mrho, N_sym=N_sym, elliptic_matrix=elliptic_matrix,
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

    rhs is a vector or an (n, k) block of k right-hand sides. Up to three
    rounds of iterative refinement bring each column's relative residual
    ||rhs - system @ x|| below 1e-10 ||rhs|| of that column; a column that
    stalls above it raises NumericalError naming `what`.
    """
    axis = None if rhs.ndim == 1 else 0        # column norms of a block
    sol = lu.solve(rhs)
    scale = np.linalg.norm(rhs, axis=axis)
    for _ in range(3):
        res = rhs - system @ sol
        # a zero column has the zero solution; NaN never passes
        stalled = ((~(np.linalg.norm(res, axis=axis) < _RESIDUAL_TOL * scale))
                   & (scale > 0.0))
        if not stalled.any():
            return sol
        sol = sol + np.where(stalled, lu.solve(res), 0.0)
    err = np.linalg.norm(rhs - system @ sol, axis=axis) / np.where(
        scale > 0.0, scale, 1.0)
    raise NumericalError("%s solve stalled at relative residual %.2e"
                         % (what, np.max(err)))


def solve_elliptic(rhs, ops):
    """Solve (I + N) u = rhs on profiles to relative residual < 1e-10.

    N is the exact discrete (TPi)*(TPi) on local-equilibrium profiles; the
    system I + N is factored directly and solved by solve_with_refinement.
    rhs is an (nx,) array or an (nx, k) block, solved column by column in
    one call.
    """
    return solve_with_refinement(ops.elliptic_lu, ops.elliptic_matrix, rhs,
                                 "elliptic")


def q_profiles(q, ops):
    """(m u_f, B q, B T_hat (1-Pi) q, B L_hat q) of a q-form q, each of
    length nx.

    m u_f = wx rho_f is the weighted profile of Pi f = u_f f_star and
    B = Mrho^-1 C^T W = (TPi)*; B T_hat (1-Pi) q = B T_hat q - N u_f since
    B C = N. All four come from the nx x 9 product Q @ v_profiles and one
    sparse product with profile_map (see the module notes); no full-grid
    operator is applied.
    """
    moments = q.reshape(ops.mrho.size, -1) @ ops.v_profiles
    return (ops.profile_map @ moments.ravel(order="F")).reshape(4, -1)


def atpi_form(u, ops):
    """<A T Pi f, Pi f>_mu from u = (I + N)^-1 u_f, Pi f = u_f f_star.

    It equals ||T Pi (u f_star)||_mu^2 + ||(TPi)*(TPi)(u f_star)||_mu^2 =
    u . N_sym u + ||N u||_Mrho^2 — the discrete counterpart of
    sigma int |grad u|^2 rho_star + sigma^2 int |div(rho_star grad u)|^2 / rho_star.
    """
    n_sym_u = ops.N_sym @ u
    return float(u @ n_sym_u) + float(np.sum(n_sym_u * n_sym_u / ops.mrho))


def apply_A(f, eq, ops):
    """A f = (1 + (TPi)*(TPi))^-1 (TPi)* f, returned as the field u f_star."""
    b_q = q_profiles(f.values.ravel() / ops.sqrt_f, ops)[1]
    u = solve_elliptic(b_q, ops)
    return Field(u[:, np.newaxis] * eq.f_star.values, f.grid)
