"""Transport/collision operators: structure, kernels, consistency, limits."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from kfplab import (
    Field,
    NumericalError,
    macroscopic_gap,
    microscopic_coercivity_constant,
    solve_elliptic,
)
from kfplab.equilibria import eval_potential
from kfplab.evolution import SectorLU, _step_matrices
from kfplab.operators import (SPLU_OPTIONS, _collision_faces, atpi_form,
                              solve_with_refinement)
from conftest import make_problem
from field_oracle import (apply_A, apply_collision, apply_Pi, apply_transport,
                          inner_product_mu, macro_profile, norm_mu)


def _random_states(eq, n, seed):
    rng = np.random.default_rng(seed)
    sqrt_f = np.sqrt(eq.f_star.values)
    return [Field(rng.standard_normal(eq.grid.shape) * sqrt_f, eq.grid)
            for _ in range(n)]


# ---------------------------------------------------------------------------
# structure: adjointness, projections, kernels
# ---------------------------------------------------------------------------

def test_transport_skew_adjoint(strong_strong):
    _, _, eq, ops = strong_strong
    for f, g in zip(_random_states(eq, 6, 1), _random_states(eq, 6, 2)):
        tf, tg = apply_transport(ops, f), apply_transport(ops, g)
        scale = norm_mu(tf, eq) * norm_mu(g, eq) + norm_mu(f, eq) * norm_mu(tg, eq)
        assert abs(inner_product_mu(tf, g, eq)
                   + inner_product_mu(f, tg, eq)) <= 1e-12 * scale


def test_collision_self_adjoint_and_dissipative(strong_strong):
    _, _, eq, ops = strong_strong
    for f, g in zip(_random_states(eq, 6, 3), _random_states(eq, 6, 4)):
        lf, lg = apply_collision(ops, f), apply_collision(ops, g)
        scale = norm_mu(lf, eq) * norm_mu(g, eq)
        assert abs(inner_product_mu(lf, g, eq)
                   - inner_product_mu(f, lg, eq)) <= 1e-11 * scale
        assert inner_product_mu(lf, f, eq) <= 1e-12 * norm_mu(f, eq) ** 2


def test_pi_is_orthogonal_projection(strong_strong):
    _, grid, eq, _ = strong_strong
    for f in _random_states(eq, 6, 5):
        pf = apply_Pi(f, eq)
        ppf = apply_Pi(pf, eq)
        assert norm_mu(Field(ppf.values - pf.values, grid), eq) \
            <= 1e-13 * norm_mu(f, eq)
        g = _random_states(eq, 1, 6)[0]
        assert abs(inner_product_mu(pf, g, eq)
                   - inner_product_mu(f, apply_Pi(g, eq), eq)) \
            <= 1e-12 * norm_mu(f, eq) * norm_mu(g, eq)
        # Pythagoras for the split f = Pi f + (1 - Pi) f
        micro = Field(f.values - pf.values, grid)
        assert norm_mu(f, eq) ** 2 == pytest.approx(
            norm_mu(pf, eq) ** 2 + norm_mu(micro, eq) ** 2, rel=1e-12)


def test_parabolic_condition_pi_t_pi(strong_strong):
    # H3: Pi T Pi = 0 exactly on the symmetric grid (odd integrand in v)
    _, grid, eq, ops = strong_strong
    for f in _random_states(eq, 6, 7):
        ptp = apply_Pi(apply_transport(ops, apply_Pi(f, eq)), eq)
        assert norm_mu(ptp, eq) <= 1e-12 * norm_mu(f, eq)


def test_tpi_adjoint_is_minus_pi_t(strong_strong):
    _, _, eq, ops = strong_strong
    for f, g in zip(_random_states(eq, 6, 8), _random_states(eq, 6, 9)):
        tpf = apply_transport(ops, apply_Pi(f, eq))
        ptg = apply_Pi(apply_transport(ops, g), eq)
        scale = norm_mu(tpf, eq) * norm_mu(g, eq) + 1e-300
        assert abs(inner_product_mu(tpf, g, eq)
                   + inner_product_mu(f, ptg, eq)) <= 1e-11 * scale


def test_kernel_exact_on_refinement_ladder():
    # the discretization is built so that T f_star = L f_star = 0 EXACTLY;
    # the residuals sit at roundoff on every grid rather than decaying at
    # some finite order
    for n in (65, 129, 257):
        _, _, eq, ops = make_problem("power", 2.0, 8.0, n, 8.0, n, alpha=2.0)
        scale = norm_mu(eq.f_star, eq)
        assert norm_mu(apply_transport(ops, eq.f_star), eq) <= 1e-12 * scale
        assert norm_mu(apply_collision(ops, eq.f_star), eq) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# consistency against analytic operator actions
# ---------------------------------------------------------------------------

def _consistency_errors():
    """Relative errors of T, L against their closed-form action on a smooth
    non-kernel state, over the {65, 129, 257} refinement ladder."""
    errs_t, errs_l = [], []
    for n in (65, 129, 257):
        _, grid, eq, ops = make_problem("power", 2.0, 8.0, n, 8.0, n,
                                        alpha=2.0)
        x = grid.x_grid.nodes[:, None]
        v = grid.v_grid.nodes[None, :]
        u = np.sin(0.8 * x) * np.exp(-0.1 * v ** 2)
        u_x = 0.8 * np.cos(0.8 * x) * np.exp(-0.1 * v ** 2)
        u_v = -0.2 * v * u
        u_vv = (-0.2 + 0.04 * v ** 2) * u
        fstar = eq.f_star.values
        f = Field(u * fstar, grid)
        # alpha = beta = 2: psi' = v and phi' = x, so
        # T(u f*) = (v u_x - x u_v) f*  and  L(u f*) = (u_vv - v u_v) f*
        t_exact = Field((v * u_x - x * u_v) * fstar, grid)
        l_exact = Field((u_vv - v * u_v) * fstar, grid)
        tf = apply_transport(ops, f)
        lf = apply_collision(ops, f)
        errs_t.append(norm_mu(Field(tf.values - t_exact.values, grid), eq)
                      / norm_mu(t_exact, eq))
        errs_l.append(norm_mu(Field(lf.values - l_exact.values, grid), eq)
                      / norm_mu(l_exact, eq))
    return errs_t, errs_l


def test_consistency_order_two():
    errs_t, errs_l = _consistency_errors()
    for errs in (errs_t, errs_l):
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8, (errs, orders)


def test_ou_collision_eigenmode():
    # beta = 2: L(v f_star) = -v f_star up to O(spacing^2)
    errs = []
    for n in (65, 129):
        _, grid, eq, ops = make_problem("power", 2.0, 8.0, n, 8.0, n,
                                        alpha=2.0)
        v = grid.v_grid.nodes[None, :]
        f = Field(v * eq.f_star.values, grid)
        lf = apply_collision(ops, f)
        errs.append(norm_mu(Field(lf.values + f.values, grid), eq)
                    / norm_mu(f, eq))
    assert np.log2(errs[0] / errs[1]) >= 1.8
    assert errs[1] < 2e-3


# ---------------------------------------------------------------------------
# macro projection, elliptic solve, twist operator
# ---------------------------------------------------------------------------

def test_macro_profile_inverts_local_equilibria(strong_strong):
    _, grid, eq, _ = strong_strong
    u = 1.0 + 0.3 * np.cos(grid.x_grid.nodes)
    f = Field(u[:, None] * eq.f_star.values, grid)
    prof = macro_profile(f, eq)
    assert np.allclose(prof.values, u, rtol=1e-12, atol=1e-13)


def test_pi_kills_odd_states(strong_strong):
    _, grid, eq, _ = strong_strong
    f = Field(grid.v_grid.nodes[None, :] * eq.f_star.values, grid)
    assert norm_mu(apply_Pi(f, eq), eq) <= 1e-13 * norm_mu(f, eq)


def test_solve_elliptic_residual(strong_strong):
    _, grid, eq, ops = strong_strong
    rng = np.random.default_rng(12)
    for _ in range(5):
        rhs = rng.standard_normal(grid.x_grid.count)
        u = solve_elliptic(rhs, ops)
        # residual of (I + N) u = rhs through the assembled I + N
        res = rhs - ops.elliptic_matrix @ u
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)


def test_apply_A_lands_in_macro_range(strong_strong):
    _, grid, eq, ops = strong_strong
    for f in _random_states(eq, 5, 13):
        af = apply_A(f, eq, ops)
        paf = apply_Pi(af, eq)
        assert norm_mu(Field(paf.values - af.values, grid), eq) \
            <= 1e-12 * (norm_mu(af, eq) + 1e-300)


def test_atpi_quadratic_form_dual_route(strong_strong):
    # composition route <A T Pi f, f> must agree with the two-term
    # elliptic-form expression atpi_form of u = (I + N)^-1 u_f
    _, _, eq, ops = strong_strong
    for f in _random_states(eq, 5, 14):
        direct = inner_product_mu(
            apply_A(apply_transport(ops, apply_Pi(f, eq)), eq, ops), f, eq)
        form = atpi_form(solve_elliptic(macro_profile(f, eq).values, ops),
                         ops)
        assert form >= 0.0
        assert direct == pytest.approx(form, rel=1e-10, abs=1e-13)


def test_coercivity_constants_positive(strong_strong):
    _, _, eq, ops = strong_strong
    lam_m = microscopic_coercivity_constant(eq)
    lam_M = macroscopic_gap(ops)
    assert lam_m > 0.0 and lam_M > 0.0
    # beta = 2 collision is the OU generator: unit gap up to O(spacing^2)
    assert lam_m == pytest.approx(1.0, abs=2e-2)


# ---------------------------------------------------------------------------
# diffusion limit consistency
# ---------------------------------------------------------------------------

def test_diffusion_form_matches_continuum():
    # <(T Pi)*(T Pi) f, f> -> sigma_norm int |u'|^2 rho_star for f = u f_star
    _, grid, eq, ops = make_problem("power", 2.0, 6.5, 1281, 6.5, 1281,
                                    alpha=2.0)
    x = grid.x_grid.nodes
    u = np.cos(0.7 * x) + 0.3 * np.sin(1.3 * x)
    du = -0.7 * np.sin(0.7 * x) + 0.39 * np.cos(1.3 * x)
    f = Field(u[:, None] * eq.f_star.values, grid)
    tpf = apply_transport(ops, apply_Pi(f, eq))
    lhs = norm_mu(tpf, eq) ** 2
    rhs = eq.sigma_normalized * float(
        np.sum(grid.x_grid.weights * du ** 2 * eq.rho_star.values))
    assert abs(lhs - rhs) / rhs < 1e-4


def test_transport_factors_through_two_velocity_profiles(quadrants):
    # C = T_hat P_hat = X1 (x) c1 - X2 (x) c2 with X1 = Dx diag(r),
    # c1 = psi_t s, X2 = diag(phi_t r), c2 = Dv s; the second and third
    # columns of v_profiles are wv c1 and wv c2, the first formed as
    # (wv psi_t) s, whose grouping shows in the last bit on the 33^2 box
    for key, (_, grid, eq, ops) in _reference_problems(quadrants).items():
        xg, vg = grid.x_grid, grid.v_grid
        r, s = np.sqrt(eq.rho_star.values), np.sqrt(eq.g_star_v)
        Dx = sp.diags(1.0 / xg.weights) @ _antisym_core(xg.count)
        Dv = sp.diags(1.0 / vg.weights) @ _antisym_core(vg.count)
        psi_t, phi_t = -2.0 * (Dv @ s) / s, -2.0 * (Dx @ r) / r
        c1, c2 = psi_t * s, Dv @ s
        p_hat = sp.kron(sp.diags(r), sp.csr_matrix(s[:, None]))
        C = (ops.T_hat @ p_hat).toarray()
        factored = (sp.kron(Dx @ sp.diags(r), sp.csr_matrix(c1[:, None]))
                    - sp.kron(sp.diags(phi_t * r),
                              sp.csr_matrix(c2[:, None]))).toarray()
        assert np.max(np.abs(C - factored)) <= 1e-14 * np.max(np.abs(C)), key
        assert np.array_equal(ops.v_profiles[:, 1],
                              (vg.weights * psi_t) * s), key
        assert np.array_equal(ops.v_profiles[:, 2], vg.weights * c2), key


def test_block_solve_checks_each_column():
    # an LU of a slightly wrong matrix: refinement converges, but a column
    # of norm 1e-8 next to one of norm 1e8 must meet its own tolerance
    system = sp.identity(5, format="csr")
    near = splu(sp.diags([1.0, 1.0, 1.0, 1.0, 1.0 + 1e-4]).tocsc())
    rhs = np.zeros((5, 3))
    rhs[0, 0] = 1e8
    rhs[4, 1] = 1e-8                     # the third column is zero
    sol = solve_with_refinement(near, system, rhs, "block")
    for k in range(3):
        res = np.linalg.norm(rhs[:, k] - system @ sol[:, k])
        assert res <= 1e-10 * np.linalg.norm(rhs[:, k]), k
    assert np.all(sol[:, 2] == 0.0)
    # a vector right-hand side still comes back as a vector
    assert solve_with_refinement(near, system, rhs[:, 1], "vector").shape \
        == (5,)


def test_block_solve_names_a_stalled_column():
    # refinement with this factor amplifies the error in the last entry
    # 99-fold per round: only the column that meets it stalls
    system = sp.identity(4, format="csr")
    wrong = splu(sp.diags([1.0, 1.0, 1.0, 0.01]).tocsc())
    rhs = np.zeros((4, 2))
    rhs[0, 0] = 1.0
    assert np.array_equal(
        solve_with_refinement(wrong, system, rhs[:, :1], "fine"), rhs[:, :1])
    rhs[3, 1] = 1.0
    with pytest.raises(NumericalError, match="probe block solve stalled"):
        solve_with_refinement(wrong, system, rhs, "probe block")


# ---------------------------------------------------------------------------
# diagonal assembly against the sparse-product and Kronecker references
# ---------------------------------------------------------------------------

def _antisym_core(n):
    # (K q)_i = (q_{i+1} - q_{i-1}) / 2 with zero extension outside
    off = 0.5 * np.ones(n - 1)
    return sp.diags([off, -off], [1, -1], format="csr")


def _forward_difference(n):
    return sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1],
                    shape=(n - 1, n), format="csr")


def _stiffness_reference(grid, face_weight):
    G = _forward_difference(grid.count)
    return (G.T @ sp.diags(face_weight / grid.spacing) @ G).tocsr()


def _sparse_reference(eq):
    """The stored matrices of assemble(eq) built by scipy.sparse products and
    sums (sp.diags, @, +, bmat), entry by entry the arithmetic that the
    diagonal build reproduces, plus v_profiles."""
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    nx, nv = xg.count, vg.count
    rho = eq.rho_star.values
    r, s = np.sqrt(rho), np.sqrt(eq.g_star_v)
    wx, wv = xg.weights, vg.weights
    Dx = sp.diags(1.0 / wx) @ _antisym_core(nx)
    Dv = sp.diags(1.0 / wv) @ _antisym_core(nv)
    psi_t = -2.0 * (Dv @ s) / s
    phi_t = -2.0 * (Dx @ r) / r
    T_hat = (sp.diags(np.tile(psi_t, nx))
             @ sp.kron(Dx, sp.identity(nv), format="csr")
             - sp.diags(np.repeat(phi_t, nv))
             @ sp.kron(sp.identity(nx), Dv, format="csr")).tocsr()
    faces = _collision_faces(eq)
    Sv = _stiffness_reference(vg, faces)
    Lv_hat = -sp.diags(1.0 / (wv * s)) @ Sv @ sp.diags(1.0 / s)
    L_hat = sp.kron(sp.identity(nx), Lv_hat, format="csr")
    v_gradient = (sp.diags(np.sqrt(faces / vg.spacing))
                  @ _forward_difference(nv) @ sp.diags(1.0 / s)).tocsr()
    X1 = Dx @ sp.diags(r)
    x2 = phi_t * r
    c = np.column_stack([psi_t * s, Dv @ s])
    a = np.column_stack([wv * psi_t * s, wv * c[:, 1]])
    g = c.T @ a
    H = (X1.T @ sp.diags(wx) @ (0.5 * g[0, 0] * X1 - g[0, 1] * sp.diags(x2))
         + sp.diags(0.5 * g[1, 1] * wx * x2 * x2))
    N_sym = (H + H.T).tocsr()
    mrho = eq.g_mass * wx * rho
    N = (sp.diags(1.0 / mrho) @ N_sym).tocsr()
    K1 = sp.diags(1.0 / mrho) @ X1.T @ sp.diags(wx)
    K2 = sp.diags(phi_t * r * wx / mrho)
    phi = sp.diags(phi_t)
    profile_map = sp.bmat([
        [sp.diags(wx * r)] + [None] * 8,
        [None, K1, -K2] + [None] * 6,
        [-N @ sp.diags(wx * r / mrho), None, None, K1 @ Dx, -K2 @ Dx,
         -K1 @ phi, K2 @ phi, None, None],
        [None] * 7 + [K1, -K2],
    ], format="csr")
    xmid = 0.5 * (xg.nodes[:-1] + xg.nodes[1:])
    Sx = _stiffness_reference(
        xg, eq.rho_scale * np.exp(-eval_potential(eq.spec, "x", xmid)))
    return {
        "T_hat": T_hat, "L_hat": L_hat, "v_gradient": v_gradient,
        "N_sym": N_sym,
        "elliptic_matrix": (sp.identity(nx, format="csr") + N).tocsr(),
        "profile_map": profile_map,
        "macro_generator": (-eq.sigma_normalized * sp.diags(1.0 / wx) @ Sx
                            @ sp.diags(1.0 / rho)).tocsr(),
        "Sx_macro": Sx,
        "v_profiles": np.column_stack([s * wv, a, psi_t[:, None] * a,
                                       Dv.T @ a, Lv_hat.T @ a]),
    }


def _step_reference(matrices, dt, scheme):
    """(system, rhs_mat) of one kinetic step by sparse sums of the reference
    generator, as _step_matrices documents them."""
    gen = matrices["L_hat"] - matrices["T_hat"]
    eye = sp.identity(gen.shape[0], format="csr")
    if scheme == "implicit_euler":
        return eye - dt * gen, None
    return eye - 0.5 * dt * gen, eye + 0.5 * dt * gen


def _fold_reference(system, sign):
    """The sector matrix of fold_sector by slicing, column reversal, hstack
    and a COO rescaling of the centre row and column, as CSC."""
    m = system.shape[0] // 2
    half = m + 1 if sign > 0 else m
    top = system[:half]
    mirrored = sp.hstack([top[:, :m:-1], sp.csr_matrix((half, half - m))])
    folded = (top[:, :half] + sign * mirrored).tocoo()
    if sign > 0:
        folded.data[(folded.row == m) & (folded.col < m)] /= np.sqrt(2.0)
        folded.data[(folded.col == m) & (folded.row < m)] *= np.sqrt(2.0)
    return folded.tocsc()


def _kron_reference(eq, T_hat):
    """C^T W C with C = T_hat P_hat and P_hat u = (r u) (x) s, from
    full-grid Kronecker and sparse products."""
    nv = eq.grid.v_grid.count
    r, s = np.sqrt(eq.rho_star.values), np.sqrt(eq.g_star_v)
    P_hat = sp.kron(sp.diags(r), sp.csr_matrix(s.reshape(nv, 1)),
                    format="csr")
    C = (T_hat @ P_hat).tocsr()
    w = eq.grid.weight_matrix.ravel()
    return (C.T @ sp.diags(w) @ C).tocsr()


def _assert_same_arrays(matrix, reference, what):
    # matrix canonical as built; reference compared in sorted form
    ref = sp.csr_matrix(reference, copy=True)
    ref.sort_indices()
    assert matrix.format == "csr", what
    assert matrix.has_sorted_indices and np.all(matrix.data != 0.0), what
    assert np.array_equal(matrix.indptr, ref.indptr), what
    assert np.array_equal(matrix.indices, ref.indices), what
    assert np.array_equal(matrix.data, ref.data), what


def _reference_problems(quadrants):
    # the four quadrant fixtures and a 33^2 box whose spacing 0.375 is not
    # dyadic, where the grouping of a product shows in the last bit
    problems = dict(quadrants)
    problems["33^2, X = V = 6"] = make_problem("power", 2.0, 6.0, 33, 6.0,
                                               33, tol=1e-5, alpha=2.0)
    return problems


def test_diagonal_assembly_matches_kron_reference(quadrants):
    # every stored matrix of the diagonal build, and v_profiles, equals the
    # scipy.sparse build (T_hat and L_hat by Kronecker products) in indptr,
    # indices and data; N_sym, from the 2 x 2 Gram identity, is exactly
    # symmetric and C^T W C to roundoff
    for key, (_, _, eq, ops) in _reference_problems(quadrants).items():
        ref = _sparse_reference(eq)
        for name in ("T_hat", "L_hat", "v_gradient", "N_sym",
                     "elliptic_matrix", "profile_map", "macro_generator",
                     "Sx_macro"):
            _assert_same_arrays(getattr(ops, name), ref[name], (key, name))
        assert np.array_equal(ops.v_profiles, ref["v_profiles"]), key
        N_ref = _kron_reference(eq, ref["T_hat"])
        assert abs(ops.N_sym - N_ref).max() <= 1e-14 * abs(N_ref).max(), key
        assert (ops.N_sym != ops.N_sym.T).nnz == 0, key


def test_step_sectors_match_fold_reference(quadrants):
    # the step systems formed in place on copies of the stored generators
    # and their index-arithmetic folds equal the sparse sums and the
    # slice-and-hstack folds: kinetic implicit Euler and Crank-Nicolson with
    # its folded right-hand side, in both sectors; the stored operators,
    # shared by every later run on the problem, are left as built
    cases = ((0.05, "implicit_euler"), (0.05, "crank_nicolson"))
    for key, (_, _, eq, ops) in _reference_problems(quadrants).items():
        ref = _sparse_reference(eq)
        for case in cases:
            system, rhs_mat = _step_matrices(ops, *case)
            ref_system, ref_rhs = _step_reference(ref, *case)
            what = (key,) + case
            _assert_same_arrays(system, ref_system, what)
            assert (rhs_mat is None) == (ref_rhs is None), what
            if rhs_mat is not None:
                _assert_same_arrays(rhs_mat, ref_rhs, what)
            lu = SectorLU(ops, *case, (1, -1))
            for sign in (1, -1):
                _, matrix, folded_rhs = lu.sector(sign)
                _assert_same_arrays(matrix, _fold_reference(ref_system, sign),
                                    what + (sign,))
                if rhs_mat is not None:
                    _assert_same_arrays(folded_rhs,
                                        _fold_reference(ref_rhs, sign),
                                        what + (sign, "rhs"))
        for name in ("T_hat", "L_hat", "macro_generator"):
            _assert_same_arrays(getattr(ops, name), ref[name], (key, name))


def test_kinetic_lu_fill_matches_kron_reference(quadrants):
    # a change of the step pattern or its index order would change the
    # fill-reducing ordering, and show only as a slower kinetic solve
    for key, (_, _, eq, ops) in quadrants.items():
        even = SectorLU(ops, 0.05, "implicit_euler", [1]).sector(1)[0]
        ref_system, _ = _step_reference(_sparse_reference(eq), 0.05,
                                        "implicit_euler")
        ref = splu(_fold_reference(ref_system, 1), **SPLU_OPTIONS)
        assert even.L.nnz + even.U.nnz == ref.L.nnz + ref.U.nnz, key
