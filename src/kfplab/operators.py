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
  psi_t = psi' + O(spacing^2), so consistency is unaffected. T_hat has
  four diagonals, psi_t(v) Dx (x) I on offsets +-nv and -phi_t(x) I (x) Dv
  on offsets +-1.

* Collision: per x-slice, in h = f/f_star coordinates, the flux form
  -Mv^-1 Gv^T E Gv with midpoint weights E ~ e^{-psi(v_{j+1/2})}. Exactly
  symmetric, nonpositive, annihilates constants (so L f_star = 0 exactly),
  conserves mass per slice exactly. L_hat = I (x) Lv_hat acts on Q as
  Q Lv_hat^T: the three diagonals of Lv_hat in every x-row, with no entry
  across an x-slice boundary.

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
  so A f = u f_star, u = (I + N)^-1 B q (B below), realizes
  (1 + (TPi)*(TPi))^-1 (TPi)* in the discrete Hilbert space and the
  abstract operator estimates hold to roundoff.

* By the same factorization, the adjoint B = Mrho^-1 C^T W = (TPi)* of
  any q-form built from Q by T_hat or L_hat needs only Q against the nine
  columns of v_profiles, V = [s wv, a_k, psi_t a_k, Dv^T a_k, Lv_hat^T a_k]
  with a_k = wv c_k (k = 1, 2, interleaved), followed by nx-sized sparse
  maps (profile_map). q_profiles returns m u_f (Pi f = u_f f_star), B q,
  B T_hat (1-Pi) q = B T_hat q - N u_f and B L_hat q that way, without a
  full-grid sparse product.

* Every operator here is banded, so assemble computes each one as numpy
  arrays of diagonals (T_hat and L_hat straight into scipy's DIA layout,
  where their nx x nv grids are outer products and tiled slices) and turns
  it into a canonical CSR matrix (sorted indices, no stored zeros) once,
  through dia_csr. Products of banded factors are formed diagonal by
  diagonal, each entry with the same factors, grouping and summation order
  (from zero, lowest column first) as the scipy.sparse product, sum or
  Kronecker build they replace, so every stored matrix equals that build
  bit for bit (tests/test_operators.py keeps it as the reference). The step
  systems of evolution are the sparse sums I -+ h G of the stored G.
"""

import dataclasses

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .equilibria import eval_potential
from .errors import InvalidEquilibriumError, NumericalError

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


def dia_csr(stage, offsets, shape):
    """The canonical CSR matrix (sorted indices, no stored zeros) of the
    given shape whose diagonal offsets[s] holds stage[s, j] in column j
    (scipy's DIA layout, so row j - offsets[s]). Entries that fall outside
    the matrix are never read; zero entries are left out. Every operator
    of assemble becomes CSR here, once, by scipy's one-pass DIA to CSR
    conversion."""
    return sp.dia_matrix((stage, offsets), shape=shape).tocsr()


def banded_csr(diagonals, shape):
    """dia_csr of a matrix given by its diagonals: diagonals[k] holds
    diagonal k as csr_matrix.diagonal(k) returns it, entry i in row
    max(-k, 0) + i and column max(k, 0) + i, spanning the whole diagonal."""
    n_rows, n_cols = shape
    offsets = sorted(diagonals)
    stage = np.empty((len(offsets), n_cols))
    for row, k in zip(stage, offsets):
        row[max(k, 0):min(n_rows + k, n_cols)] = diagonals[k]
    return dia_csr(stage, offsets, shape)


def _banded_apply(diagonals, u):
    """M @ u for a square M given by its diagonals (as banded_csr takes
    them) and u a vector or an (n, k) block. Each row sums its terms from
    zero, lowest column first, as scipy's CSR product does; with the
    diagonals of _transposed(M) it is M^T @ u summed as scipy's product of
    the CSC transpose does it."""
    out = np.zeros(u.shape)
    for k in sorted(diagonals):
        d = diagonals[k]
        i, j = max(-k, 0), max(k, 0)
        out[i:i + d.size] += (d.reshape((-1,) + (1,) * (u.ndim - 1))
                              * u[j:j + d.size])
    return out


def _banded_product(a, b):
    """The diagonals of A @ B for square A and B given by their diagonals
    (as banded_csr takes them). Each entry sums its terms from zero, inner
    index ascending, as scipy's sparse product does."""
    k, d = next(iter(a.items()))
    n = d.size + abs(k)

    def padded(k, d):
        # M[i, i + k] at position n + i, zero off the matrix
        out = np.zeros(3 * n)
        out[n + max(-k, 0):n + max(-k, 0) + d.size] = d
        return out

    sums = {}
    for ka in sorted(a):
        left = padded(ka, a[ka])[n:2 * n]
        for kb in sorted(b):
            right = padded(kb, b[kb])[n + ka:2 * n + ka]   # B[i+ka, i+ka+kb]
            sums[ka + kb] = sums.get(ka + kb, 0.0) + left * right
    return {k: d[max(-k, 0):n - max(k, 0)] for k, d in sums.items()}


def _scaled(diagonals, left, right):
    """The diagonals of diag(left) M diag(right), each entry formed as
    (left_i M_ij) right_j."""
    out = {}
    for k, d in diagonals.items():
        i, j = max(-k, 0), max(k, 0)
        out[k] = left[i:i + d.size] * d * right[j:j + d.size]
    return out


def _transposed(diagonals):
    return {-k: d for k, d in diagonals.items()}


def _centered_difference(weights):
    """Diagonals {-1, 1} of W^-1 K, with K the antisymmetric centered
    difference core (K q)_i = (q_{i+1} - q_{i-1}) / 2 (zero extension)."""
    inverse = 1.0 / weights
    return {-1: inverse[1:] * -0.5, 1: inverse[:-1] * 0.5}


def _stiffness_diagonals(grid, face_weight):
    """Diagonals {-1, 0, 1} of S = G^T diag(face_weight/h) G, G the forward
    difference: -w_j off the diagonal, w_{j-1} + w_j on it."""
    w = face_weight / grid.spacing
    return {-1: -w, 0: np.append(w, 0.0) + np.insert(w, 0, 0.0), 1: -w}


def flux_stiffness(grid, face_weight):
    """S = G^T diag(face_weight/h) G on a Grid1D, G the forward difference.

    u^T S u = sum_faces face_weight * ((u_{j+1} - u_j)/h)^2 * h: the flux-form
    Dirichlet form behind the collision slice, the macro generator and the
    spectral pencils.
    """
    return banded_csr(_stiffness_diagonals(grid, face_weight),
                      (grid.count, grid.count))


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


@dataclasses.dataclass(eq=False, frozen=True)
class OperatorSet:
    """Assembled discrete operators for one equilibrium, in q = f/sqrt(f_star).

    T_hat and L_hat are the transport and collision matrices on q (n = nx nv
    unknowns); sqrt_f and w_flat the flattened sqrt(f_star) and trapezoid
    weights W. v_profiles (nv x 9) and profile_map (4 nx x 9 nx) give
    q_profiles; v_gradient is the (nv-1) x nv flux gradient with
    -<L_hat q, q>_W = sum_i wx_i |v_gradient Q_i|^2. mrho holds the profile
    weights Mrho and N_sym = C^T W C = Mrho N, formed from the nx-sized
    pieces of C = X1 (x) c1 - X2 (x) c2 (module notes), exactly symmetric.
    Every stored matrix, and every step system built from them, is
    canonical CSR (sorted indices, no stored zeros). elliptic_matrix =
    I + N with its LU elliptic_lu; macro_generator is the sigma-scaled
    Fokker-Planck generator on densities and Sx_macro its flux stiffness.
    The set is frozen and holds no step factors: every call that steps
    factors its own, so runs can share one set.
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


def _block_banded_csr(blocks, size, shape):
    """banded_csr of a matrix of size x size blocks, blocks[(r, c)] holding
    the diagonals of block (r, c); each block's diagonals must be zero
    where they would leave the block."""
    diagonals = {}
    for (br, bc), block in blocks.items():
        for k, d in block.items():
            offset = (bc - br) * size + k
            if offset not in diagonals:
                diagonals[offset] = np.zeros(min(shape[0] + min(offset, 0),
                                                 shape[1] - max(offset, 0)))
            start = br * size + max(-k, 0) - max(-offset, 0)
            diagonals[offset][start:start + d.size] = d
    return banded_csr(diagonals, shape)


def assemble(eq):
    """Build the OperatorSet of eq on its own grid; raises
    InvalidEquilibriumError on nonpositive weights."""
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    nx, nv = xg.count, vg.count
    n = nx * nv
    rho = eq.rho_star.values
    gv = eq.g_star_v
    if rho.min() <= 0 or gv.min() <= 0:
        raise InvalidEquilibriumError("equilibrium weights must be positive")

    r = np.sqrt(rho)
    s = np.sqrt(gv)
    sqrt_f = np.outer(r, s).ravel()
    wx, wv = xg.weights, vg.weights
    w_flat = eq.grid.weight_matrix.ravel()
    ones = np.ones(nx)

    # --- transport in q coordinates ---------------------------------------
    dx = _centered_difference(wx)
    dv = _centered_difference(wv)
    dv_s = _banded_apply(dv, s)
    psi_t = -2.0 * dv_s / s
    phi_t = -2.0 * _banded_apply(dx, r) / r
    # psi_t(v) Dx (x) I on offsets +-nv, -phi_t(x) I (x) Dv on offsets +-1.
    # In DIA layout, read as nx x nv grids, diagonal +-nv is the outer
    # product shifted by one x-row and diagonal +-1 the outer product
    # shifted by one v-column, zero where the neighbour leaves the slice.
    stage = np.empty((4, nx, nv))
    np.multiply.outer(dx[-1], psi_t, out=stage[0, :-1])
    np.multiply.outer(-phi_t, dv[-1], out=stage[1, :, :-1])
    np.multiply.outer(-phi_t, dv[1], out=stage[2, :, 1:])
    np.multiply.outer(dx[1], psi_t, out=stage[3, 1:])
    stage[1, :, -1] = stage[2, :, 0] = 0.0
    T_hat = dia_csr(stage.reshape(4, n), (-nv, -1, 1, nv), (n, n))

    # --- collision in q coordinates (x-independent slice operator) --------
    faces = _collision_faces(eq)
    lv = _scaled(_stiffness_diagonals(vg, faces), -(1.0 / (wv * s)), 1.0 / s)
    # I (x) Lv_hat: the tridiagonal slice operator in every x-row, with no
    # entry across a slice boundary (same DIA grids, in T_hat's buffer)
    stage = stage[:3]
    stage[0, :, :-1], stage[1], stage[2, :, 1:] = lv[-1], lv[0], lv[1]
    stage[0, :, -1] = stage[2, :, 0] = 0.0
    L_hat = dia_csr(stage.reshape(3, n), (-1, 0, 1), (n, n))
    root = np.sqrt(faces / vg.spacing)
    v_gradient = banded_csr({0: -root * (1.0 / s)[:-1],
                              1: root * (1.0 / s)[1:]}, (nv - 1, nv))

    # --- macroscopic pieces -------------------------------------------------
    # N_sym = C^T W C from X1 = Dx diag(r), X2 = diag(phi_t r) and the Gram
    # matrix g = c^T Wv c of c1 = psi_t s, c2 = Dv s (module notes)
    x1 = {-1: dx[-1] * r[:-1], 1: dx[1] * r[1:]}
    x2 = phi_t * r
    c = np.column_stack([psi_t * s, dv_s])
    a = np.column_stack([wv * psi_t * s, wv * c[:, 1]])      # a_k = wv c_k
    g = c.T @ a
    # H = E M with E = X1^T Wx and M = g11/2 X1 - g12 X2, plus g22/2 X2 Wx X2
    m = {k: 0.5 * g[0, 0] * d for k, d in x1.items()}
    m[0] = -(g[0, 1] * x2)
    h = _banded_product(_scaled(_transposed(x1), ones, wx), m)
    h[0] = h[0] + 0.5 * g[1, 1] * wx * x2 * x2
    # N_sym = H + H^T, exactly symmetric: = Mrho N, symmetric PSD
    n_sym = {k: h[k] + h[-k] for k in (-2, -1, 1, 2)}
    n_sym[0] = h[0] + h[0]
    N_sym = banded_csr(n_sym, (nx, nx))
    mrho = eq.g_mass * wx * rho
    n_diag = _scaled(n_sym, 1.0 / mrho, ones)
    elliptic_matrix = banded_csr({**n_diag, 0: 1.0 + n_diag[0]}, (nx, nx))

    # --- C = X1 (x) c1 - X2 (x) c2 and the profiles of q_profiles ----------
    # B = K1 (Q a1) - K2 (Q a2) with K1 = Mrho^-1 X1^T Wx, K2 = Mrho^-1 X2 Wx;
    # (T_hat Q) a_k = Dx Q (psi_t a_k) - phi_t Q (Dv^T a_k),
    # (L_hat Q) a_k = Q (Lv_hat^T a_k), and B T_hat Pi q = N u_f with
    # u_f = Mrho^-1 wx r (Q s wv)
    k1 = _scaled(_transposed(x1), 1.0 / mrho, wx)
    k2 = phi_t * r * wx / mrho
    v_profiles = np.column_stack([s * wv, a, psi_t[:, None] * a,
                                  _banded_apply(_transposed(dv), a),
                                  _banded_apply(_transposed(lv), a)])
    profile_map = _block_banded_csr({
        (0, 0): {0: wx * r},
        (1, 1): k1, (1, 2): {0: -k2},
        (2, 0): _scaled({k: -d for k, d in n_diag.items()}, ones,
                        wx * r / mrho),
        (2, 3): _banded_product(k1, dx),
        (2, 4): {-1: -k2[1:] * dx[-1], 1: -k2[:-1] * dx[1]},
        (2, 5): _scaled({k: -d for k, d in k1.items()}, ones, phi_t),
        (2, 6): {0: k2 * phi_t},
        (3, 7): k1, (3, 8): {0: -k2},
    }, nx, (4 * nx, 9 * nx))

    # sigma-scaled Fokker-Planck generator on densities, flux form
    xmid = 0.5 * (xg.nodes[:-1] + xg.nodes[1:])
    face_x = eq.rho_scale * np.exp(-eval_potential(eq.spec, "x", xmid))
    sx = _stiffness_diagonals(xg, face_x)
    macro_generator = banded_csr(
        _scaled(sx, -eq.sigma_normalized * (1.0 / wx), 1.0 / rho), (nx, nx))

    return OperatorSet(
        T_hat=T_hat, L_hat=L_hat, sqrt_f=sqrt_f, w_flat=w_flat,
        v_profiles=v_profiles, profile_map=profile_map, v_gradient=v_gradient,
        mrho=mrho, N_sym=N_sym, elliptic_matrix=elliptic_matrix,
        elliptic_lu=splu(elliptic_matrix.tocsc(), **SPLU_OPTIONS),
        macro_generator=macro_generator,
        Sx_macro=banded_csr(sx, (nx, nx)))


# ---------------------------------------------------------------------------
# elliptic solve and the profiles behind Pi and A
# ---------------------------------------------------------------------------

def residual_stalls(residual, scale, axis):
    """Whether each residual (the norms along axis) fails to reach 1e-10
    of its right-hand side's norm scale. A zero right-hand side has the
    zero solution and always passes; NaN never does."""
    return ((~(np.linalg.norm(residual, axis=axis) < _RESIDUAL_TOL * scale))
            & (scale > 0.0))


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
        stalled = residual_stalls(res, scale, axis)
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

