"""Constant algebra, the modified entropy, and its dissipation."""

import decimal

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from kfplab import (
    Field,
    InfeasibleError,
    ValidationError,
    auxiliary_operator_norms,
    bounded_auxiliary_ratio,
    compute_constants,
    delta_star,
    dissipation_components,
    empirical_kappa,
    entropy_H,
    entropy_and_dissipation,
    initial_bump,
    initial_odd_v,
    initial_shifted_gaussian,
    lambda_rate,
    solve_elliptic,
    transport_coefficient_integrals,
    velocity_weight,
)
from kfplab import hypo, operators
from kfplab.operators import q_profiles

from conftest import make_problem
from field_oracle import (apply_A, apply_collision, apply_Pi, apply_transport,
                          inner_product_mu, norm_beta, norm_mu, weighted_moment)


def _random_states(eq, n, seed):
    rng = np.random.default_rng(seed)
    sqrt_f = np.sqrt(eq.f_star.values)
    return [Field(rng.standard_normal(eq.grid.shape) * sqrt_f, eq.grid)
            for _ in range(n)]


# ---------------------------------------------------------------------------
# delta_star and lambda_rate
# ---------------------------------------------------------------------------

def test_delta_star_closed_values():
    # K_M = 1/2 in both cases: 4 K lam_m / (4 K + C^2) = 2/3
    assert delta_star(1.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert delta_star(2.0, 1.0, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_delta_star_below_lambda_m():
    rng = np.random.default_rng(100)
    for _ in range(200):
        lam_m = rng.uniform(0.05, 5.0)
        lam_M = rng.uniform(0.05, 5.0)
        c_M = rng.uniform(0.05, 5.0)
        ds = delta_star(lam_m, lam_M, c_M)
        assert 0.0 < ds < lam_m
    with pytest.raises(ValidationError):
        delta_star(0.0, 1.0, 1.0)


def test_lambda_rate_quadratic_oracle():
    # delta = 0.3: 3.91 s^2 - 3.58 s + 0.33 = 0 for s = lambda / 2, and the
    # admissible root is the smaller one
    s = (3.58 - np.sqrt(3.58 ** 2 - 4.0 * 3.91 * 0.33)) / (2.0 * 3.91)
    lam = lambda_rate(1.0, 1.0, 1.0, 0.3)
    assert lam == pytest.approx(2.0 * s, rel=1e-10)
    # stays inside the window where both diagonal form coefficients are >= 0
    k_M = 0.5
    assert lam <= min(2.0 * (1.0 - 0.3), 2.0 * 0.3 * k_M) + 1e-12


def test_lambda_rate_psd_form():
    rng = np.random.default_rng(200)
    for _ in range(50):
        lam_m = rng.uniform(0.1, 4.0)
        lam_M = rng.uniform(0.1, 4.0)
        c_M = rng.uniform(0.1, 4.0)
        delta = 0.5 * delta_star(lam_m, lam_M, c_M)
        lam = lambda_rate(lam_m, lam_M, c_M, delta)
        assert lam > 0.0
        k_M = lam_M / (1.0 + lam_M)
        a = lam_m - delta - 0.5 * lam
        b = delta * k_M - 0.5 * lam
        assert a >= -1e-10 and b >= -1e-10
        # PSD of [[a, -c/2], [-c/2, b]] with c = delta (C_M + lam/2)
        cross = delta * (c_M + 0.5 * lam)
        assert 4.0 * a * b >= cross ** 2 - 1e-9 * max(1.0, cross ** 2)


def _decimal_rate(lam_m, lam_M, c_M, delta):
    """2 s, s the smaller root of the rate quadratic, in 60-digit decimal
    arithmetic from the textbook root formula."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lm, lM, c, d = (decimal.Decimal(float(x))
                        for x in (lam_m, lam_M, c_M, delta))
        k = lM / (1 + lM)
        a2 = d * d - 4
        a1 = 2 * d * d * c + 4 * (lm - d) + 4 * d * k
        a0 = d * d * c * c - 4 * (lm - d) * d * k
        return float((a1 - (a1 * a1 - 4 * a2 * a0).sqrt()) / -a2)


def test_lambda_rate_matches_a_60_digit_root():
    rng = np.random.default_rng(300)
    for _ in range(200):
        lam_m, lam_M, c_M = rng.uniform(0.05, 5.0, size=3)
        delta = rng.uniform(0.05, 0.95) * delta_star(lam_m, lam_M, c_M)
        assert lambda_rate(lam_m, lam_M, c_M, delta) == pytest.approx(
            _decimal_rate(lam_m, lam_M, c_M, delta), rel=1e-13)


def test_lambda_rate_validation():
    with pytest.raises(ValidationError):
        lambda_rate(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        lambda_rate(1.0, 1.0, 1.0, 2.0 / 3.0)  # delta = delta_star


# ---------------------------------------------------------------------------
# entropy and dissipation
# ---------------------------------------------------------------------------

def test_entropy_definition_and_sandwich(strong_strong):
    _, _, eq, ops = strong_strong
    delta = 0.3
    for f in _random_states(eq, 20, 31):
        h = entropy_H(f, delta, eq, ops)
        n2 = norm_mu(f, eq) ** 2
        af_f = inner_product_mu(apply_A(f, eq, ops), f, eq)
        assert h == pytest.approx(0.5 * n2 + delta * af_f, rel=1e-12)
        assert 0.25 * (2.0 - delta) * n2 <= h <= 0.25 * (2.0 + delta) * n2


def test_dissipation_component_identity(strong_strong):
    _, _, eq, ops = strong_strong
    delta = 0.3
    for f in _random_states(eq, 5, 37):
        comp = dissipation_components(f, delta, eq, ops)
        recomposed = (comp["minus_Lf_f"] + delta * comp["ATPi_f_f"]
                      - delta * (comp["TA_f_f"] - comp["AT_micro_f_f"]
                                 + comp["AL_f_f"]))
        assert comp["D"] == pytest.approx(recomposed, rel=1e-12)
        assert comp["delta"] == delta
        assert comp["minus_Lf_f"] >= -1e-12
        assert comp["ATPi_f_f"] >= -1e-13
        micro = Field(f.values - apply_Pi(f, eq).values, f.grid)
        denom = norm_beta(micro, eq.spec.beta, eq) ** 2 + comp["ATPi_f_f"]
        assert comp["kappa_denominator"] == pytest.approx(denom, rel=1e-12)


def _field_route(f, delta, eq, ops):
    """H, the D components, the kappa denominator and the H4 ratio composed
    from the Field-space oracle, term by term as each is defined."""
    def A(g):
        return apply_A(g, eq, ops)

    def ip(g, h):
        return inner_product_mu(g, h, eq)

    def T(g):
        return apply_transport(ops, g)

    pi_f = apply_Pi(f, eq)
    micro = Field(f.values - pi_f.values, f.grid)
    lf = apply_collision(ops, f)
    micro_beta = norm_beta(micro, eq.spec.beta, eq)
    ref = {
        "H": 0.5 * ip(f, f) + delta * ip(A(f), f),
        "minus_Lf_f": -ip(lf, f),
        "ATPi_f_f": ip(A(T(pi_f)), f),
        "TA_f_f": ip(T(A(f)), f),
        "AT_micro_f_f": ip(A(T(micro)), f),
        "AL_f_f": ip(A(lf), f),
        "kappa_denominator": micro_beta ** 2 + ip(A(T(pi_f)), pi_f),
        "ratio": (norm_mu(A(T(micro)), eq) + norm_mu(A(lf), eq)) / micro_beta,
    }
    ref["D"] = (ref["minus_Lf_f"] + delta * ref["ATPi_f_f"]
                - delta * (ref["TA_f_f"] - ref["AT_micro_f_f"]
                           + ref["AL_f_f"]))
    return ref


@pytest.mark.parametrize("key", [(2.0, 2.0), (2.0, 0.5), (0.5, 2.0),
                                 (0.5, 0.5)],
                         ids=["a2_b2", "a2_b0.5", "a0.5_b2", "a0.5_b0.5"])
def test_diagnostics_match_field_route(quadrants, key):
    # the q-space diagnostics against their Field compositions, on random
    # states and on the bump datum (its tracked difference from f_star and
    # the datum itself); on the difference ATPi, AT_micro and AL vanish by
    # parity, so those compare in absolute terms
    _, grid, eq, ops = quadrants[key]
    delta = 0.3
    bump = initial_bump(eq, 0.5)
    states = _random_states(eq, 3, 53) + [
        Field(bump.values - eq.f_star.values, grid), bump]
    for f in states:
        ref = _field_route(f, delta, eq, ops)
        got = dissipation_components(f, delta, eq, ops)
        got["H"] = entropy_H(f, delta, eq, ops)
        got["ratio"] = bounded_auxiliary_ratio(f, eq, ops)
        tol = 1e-13 * norm_mu(f, eq) ** 2
        for name, value in ref.items():
            abs_tol = 1e-13 if name == "ratio" else tol
            assert got[name] == pytest.approx(value, rel=1e-10, abs=abs_tol), \
                (name, got[name], value)


def _sparse_reference(f, delta, eq, ops):
    """H, the D entries, the H4 ratio and the profile of A f through explicit
    sparse products with B, T_hat, L_hat and P_hat on the full grid, with one
    elliptic solve per A-term."""
    grid = eq.grid
    xg, vg = grid.x_grid, grid.v_grid
    r, s = np.sqrt(eq.rho_star.values), np.sqrt(eq.g_star_v)
    p_hat = sp.kron(sp.diags(r), sp.csr_matrix(s[:, None]), format="csr")
    C = (ops.T_hat @ p_hat).tocsr()
    B = (sp.diags(1.0 / ops.mrho) @ C.T @ sp.diags(ops.w_flat)).tocsr()

    def twist(g_q):
        return solve_elliptic(B @ g_q, ops)

    def m_norm(u):
        return np.sqrt(u @ (ops.mrho * u))

    q = f.values.ravel() / ops.sqrt_f
    m_u = xg.weights * (f.values @ vg.weights)
    u_f = m_u / ops.mrho
    lq, tq = ops.L_hat @ q, ops.T_hat @ q
    micro = q - p_hat @ u_f
    weight_v = vg.weights * velocity_weight(eq.spec.beta, vg.nodes)
    micro_sq = xg.weights @ ((micro * micro).reshape(grid.shape) @ weight_v)
    u = solve_elliptic(u_f, ops)
    cu = C @ u
    atpi = np.sum(ops.w_flat * cu * cu) + m_norm(B @ cu) ** 2
    u_af = twist(q)
    ref = {
        "H": 0.5 * np.sum(ops.w_flat * q * q) + delta * (u_af @ m_u),
        "minus_Lf_f": -(ops.w_flat * lq) @ q,
        "ATPi_f_f": atpi,
        "TA_f_f": u_af @ (ops.mrho * (B @ q)),
        "AT_micro_f_f": twist(tq - C @ u_f) @ m_u,
        "AL_f_f": twist(lq) @ m_u,
        "kappa_denominator": micro_sq + atpi,
        "ratio": (m_norm(twist(ops.T_hat @ micro)) + m_norm(twist(lq)))
        / np.sqrt(micro_sq),
    }
    ref["D"] = (ref["minus_Lf_f"] + delta * ref["ATPi_f_f"]
                - delta * (ref["TA_f_f"] - ref["AT_micro_f_f"]
                           + ref["AL_f_f"]))
    return ref, u_af


@pytest.mark.parametrize("key", [(2.0, 2.0), (2.0, 0.5), (0.5, 2.0),
                                 (0.5, 0.5)],
                         ids=["a2_b2", "a2_b0.5", "a0.5_b2", "a0.5_b0.5"])
def test_profile_path_matches_sparse_reference(quadrants, key):
    # the Q @ V sampling path against the full-grid sparse path, on states
    # that are even, odd and of mixed parity under (x, v) -> (-x, -v)
    _, grid, eq, ops = quadrants[key]
    delta = 0.3
    g = _random_states(eq, 1, 61)[0].values
    for name, vals in (("even", g + g[::-1, ::-1]), ("odd", g - g[::-1, ::-1]),
                       ("mixed", g)):
        f = Field(vals, grid)
        ref, u_af = _sparse_reference(f, delta, eq, ops)
        got = dissipation_components(f, delta, eq, ops)
        got["H"] = entropy_H(f, delta, eq, ops)
        got["ratio"] = bounded_auxiliary_ratio(f, eq, ops)
        assert sorted(got) == sorted(list(ref) + ["delta"])
        for term, value in ref.items():
            assert got[term] == pytest.approx(value, rel=1e-12), \
                (name, term, got[term], value)
        af = apply_A(f, eq, ops).values
        expected = u_af[:, None] * eq.f_star.values
        assert np.max(np.abs(af - expected)) \
            <= 1e-12 * np.max(np.abs(expected)), name


_DATA = {"bump": lambda eq: initial_bump(eq, 0.5),
         "odd_v": lambda eq: initial_odd_v(eq, 0.5),
         "shifted_gaussian": initial_shifted_gaussian}


def _sampler_state(f, eq, ops):
    """The Field a run tracks (f - f_star when integrable) and its q-form."""
    y = f.values - eq.f_star.values if eq.integrable else f.values
    return Field(y, f.grid), y.ravel() / ops.sqrt_f


def _check_entropy_and_dissipation(f, eq, ops, monkeypatch):
    y, q = _sampler_state(f, eq, ops)
    real_solve = operators.solve_elliptic
    solves = []

    def counting(rhs, ops):
        solves.append(rhs.shape)
        return real_solve(rhs, ops)

    monkeypatch.setattr(operators, "solve_elliptic", counting)
    for delta in (0.0, 0.3):
        del solves[:]
        h, d = entropy_and_dissipation(q, delta, eq, ops)
        # one solve with four right-hand sides, none without the twist
        assert solves == ([] if delta == 0.0 else [(ops.mrho.size, 4)])
        assert h == pytest.approx(entropy_H(y, delta, eq, ops), rel=1e-14,
                                  abs=0.0)
        assert d == pytest.approx(dissipation_components(y, delta, eq, ops)
                                  ["D"], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("kind", sorted(_DATA))
@pytest.mark.parametrize("key", [(2.0, 2.0), (2.0, 0.5), (0.5, 2.0),
                                 (0.5, 0.5)],
                         ids=["a2_b2", "a2_b0.5", "a0.5_b2", "a0.5_b0.5"])
def test_entropy_and_dissipation_match_the_field_functions(quadrants, key,
                                                           kind, monkeypatch):
    _, _, eq, ops = quadrants[key]
    _check_entropy_and_dissipation(_DATA[kind](eq), eq, ops, monkeypatch)


def test_entropy_and_dissipation_without_an_equilibrium(monkeypatch):
    # x_mode = zero has no integrable equilibrium: a run tracks f itself
    _, _, eq, ops = make_problem("zero", 2.0, 24.0, 97, 8.0, 33)
    assert not eq.integrable
    _check_entropy_and_dissipation(initial_shifted_gaussian(eq), eq, ops,
                                   monkeypatch)


@pytest.mark.parametrize("delta", [0.0, 0.3])
@pytest.mark.parametrize("rows", [1, 32])
def test_a_block_gives_each_row_its_own_entropy_and_dissipation(delta,
                                                                rows):
    # entropy_and_dissipation_from on a block of states (their norms and
    # -<Lf, f> stacked, their profiles and elliptic solutions b x 4 x nx),
    # as a Krylov window calls it, against each row on its own (b = 1)
    _, _, eq, ops = make_problem("power", 2.0, 8.0, 33, 8.0, 33, alpha=2.0)
    qs = [f.values.ravel() / ops.sqrt_f
          for f in hypo._random_suite(eq, rows, 5)]
    norm_sq = np.array([q @ (ops.w_flat * q) for q in qs])
    minus_lff = np.array([hypo._minus_lf_f(q, eq, ops) for q in qs])
    profiles = solutions = None
    if delta != 0.0:
        pieces = [hypo._profiles_and_solutions(q, ops) for q in qs]
        profiles = np.concatenate([p for p, _ in pieces])
        solutions = np.concatenate([u for _, u in pieces])
        assert profiles.shape == solutions.shape == (rows, 4, 33)
    h, d = hypo.entropy_and_dissipation_from(norm_sq, minus_lff, profiles,
                                             solutions, delta, ops)
    assert h.shape == d.shape == (rows,)
    for j, q in enumerate(qs):
        h_j, d_j = entropy_and_dissipation(q, delta, eq, ops)
        assert h[j] == pytest.approx(h_j, rel=1e-14, abs=0.0)
        assert d[j] == pytest.approx(d_j, rel=1e-14, abs=0.0)


def test_a_blocks_rows_take_the_single_rows_products_bit_for_bit():
    # row_dot and atpi_form on a block take each row's products as one row
    # alone does, so a window's H and D are those of one call per sample
    _, _, eq, ops = make_problem("power", 2.0, 8.0, 33, 8.0, 33, alpha=2.0)
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal((2, 32, 33))
    dots = operators.row_dot(a, b)
    assert dots.shape == (32,)
    for j in range(32):
        assert dots[j] == a[j] @ b[j]
    qs = [f.values.ravel() / ops.sqrt_f
          for f in hypo._random_suite(eq, 32, 5)]
    # u_Pi of each state, as a window's b x 4 x nx solutions hold it
    solutions = np.concatenate([hypo._profiles_and_solutions(q, ops)[1]
                                for q in qs])
    for block in (solutions[:, 0], np.ascontiguousarray(solutions[:, 0])):
        forms = operators.atpi_form(block, ops)
        assert forms.shape == (32,)
        for j, u in enumerate(block):
            n_sym_u = ops.N_sym @ u
            assert forms[j] == operators.atpi_form(u, ops)
            assert forms[j] == (float(u @ n_sym_u) + float(
                np.sum(n_sym_u * n_sym_u / ops.mrho)))


def test_entropy_and_dissipation_refuse_a_delta_outside_the_window(
        strong_strong):
    _, _, eq, ops = strong_strong
    q = _sampler_state(initial_bump(eq, 0.5), eq, ops)[1]
    for delta in (2.0, -0.1):
        with pytest.raises(ValidationError,
                           match="entropy needs 0 <= delta < 2"):
            entropy_and_dissipation(q, delta, eq, ops)


def test_auxiliary_estimates_random_suite(strong_strong):
    # ||Af|| <= 1/2 ||(1-Pi)f||, ||TAf|| <= ||(1-Pi)f||,
    # |<Af,f>| <= 1/4 ||f||^2, <TAf,f> <= ||(1-Pi)f||^2 (beta = 2)
    _, grid, eq, ops = strong_strong
    tol = 1.0 + 1e-8
    for f in _random_states(eq, 20, 41):
        micro = Field(f.values - apply_Pi(f, eq).values, grid)
        m = norm_mu(micro, eq)
        af = apply_A(f, eq, ops)
        taf = apply_transport(ops, af)
        assert norm_mu(af, eq) <= 0.5 * m * tol
        assert norm_mu(taf, eq) <= m * tol
        assert abs(inner_product_mu(af, f, eq)) \
            <= 0.25 * norm_mu(f, eq) ** 2 * tol
        assert abs(inner_product_mu(taf, f, eq)) <= m ** 2 * tol


def test_auxiliary_estimate_weak_beta(strong_weak):
    # beta = 0.5 replaces the last bound by sigma^{-1} ||(1-Pi)f||_beta^2
    _, grid, eq, ops = strong_weak
    tol = 1.0 + 1e-8
    for f in _random_states(eq, 20, 43):
        micro = Field(f.values - apply_Pi(f, eq).values, grid)
        taf = apply_transport(ops, apply_A(f, eq, ops))
        bound = norm_beta(micro, 0.5, eq) ** 2 / eq.sigma
        assert abs(inner_product_mu(taf, f, eq)) <= bound * tol


# ---------------------------------------------------------------------------
# assembled constants
# ---------------------------------------------------------------------------

def test_compute_constants_structure(strong_strong):
    _, _, eq, ops = strong_strong
    consts = compute_constants(eq, ops, seed=0)
    d = consts.to_dict()
    assert sorted(d) == ["c_M", "delta", "delta_star", "lambda_M",
                         "lambda_m", "lambda_rate"]
    assert all(v > 0.0 for v in d.values())
    assert consts.delta == pytest.approx(0.5 * consts.delta_star)
    assert consts.delta_star < consts.lambda_m
    # c_M is the sum of the two exact operator norms of H4
    parts = consts.c_M_parts
    assert sorted(parts) == ["AL", "AT_micro"]
    assert consts.c_M == parts["AT_micro"] + parts["AL"]
    assert (parts["AT_micro"], parts["AL"]) == auxiliary_operator_norms(eq,
                                                                        ops)
    with pytest.raises(ValidationError):
        # the recomputed delta_star matches exactly, and the open-interval
        # check delta < delta_star must reject its endpoint
        compute_constants(eq, ops, delta=consts.delta_star, seed=1)


def _micro_basis_map(eq, ops, row):
    """The profile map of one row of q_profiles (2: B T_hat (1-Pi), 3:
    B L_hat), followed by (I + N)^-1 and scaled to the mu-norm, assembled
    column by column on a beta-orthonormal basis of the micro states: per
    x-row, a (wv <v>^{-2(1-beta)+})-orthonormal basis of the wv-orthogonal
    complement of sqrt(g_star)."""
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    weight_v = vg.weights * velocity_weight(eq.spec.beta, vg.nodes)
    constraint = vg.weights * np.sqrt(eq.g_star_v) / np.sqrt(weight_v)
    basis_v = scipy.linalg.null_space(constraint[None, :]) \
        / np.sqrt(weight_v)[:, None]
    columns = []
    for i in range(xg.count):
        for k in range(basis_v.shape[1]):
            q = np.zeros(eq.grid.shape)
            q[i] = basis_v[:, k] / np.sqrt(xg.weights[i])
            columns.append(q_profiles(q.ravel(), ops)[row])
    u = solve_elliptic(np.column_stack(columns), ops)
    return np.sqrt(ops.mrho)[:, None] * u


@pytest.mark.parametrize("beta,v_half,tol", [(2.0, 8.0, 1e-8),
                                             (0.5, 48.0, 1e-5)],
                         ids=["a2_b2", "a2_b0.5"])
def test_auxiliary_norms_match_dense_reference(beta, v_half, tol):
    # on 33^2, the two exact norms are the top singular values of the
    # micro-restricted maps assembled column by column
    _, _, eq, ops = make_problem("power", beta, 8.0, 33, v_half, 33, tol=tol,
                                 alpha=2.0)
    norms = auxiliary_operator_norms(eq, ops)
    for row, norm in zip((2, 3), norms):
        top = np.linalg.svd(_micro_basis_map(eq, ops, row),
                            compute_uv=False)[0]
        assert norm == pytest.approx(top, rel=1e-10), (row, norm, top)


def _at_micro_maximizer(eq, ops):
    """The top right singular vector of AT(1-Pi) as a Field: the top
    eigenvector y of the row-2 Gram matrix mapped back through
    z = K^T E^-T Mrho^1/2 y, K Z = sum_c P_c Wx^-1/2 Z Vp_c, and
    q = Wx^-1/2 Z diag(wv omega)^-1/2 (E^-T = Mrho E^-1 Mrho^-1)."""
    vg = eq.grid.v_grid
    root_v = np.sqrt(vg.weights * velocity_weight(eq.spec.beta, vg.nodes))
    v_perp = hypo._micro_profiles(eq, ops)
    y = np.linalg.eigh(hypo._profile_grams(eq, ops)[0])[1][:, -1]
    nx = ops.mrho.size
    w = ops.mrho * solve_elliptic(y / np.sqrt(ops.mrho), ops)
    block = ops.profile_map[2 * nx:3 * nx]
    u = (block.T @ w).reshape(-1, nx).T              # column c: P_c^T w
    wx = eq.grid.x_grid.weights
    q = (u @ v_perp.T) / wx[:, None] / root_v[None, :]
    return Field(q * ops.sqrt_f.reshape(eq.grid.shape), eq.grid)


@pytest.mark.parametrize("key", [(2.0, 2.0), (2.0, 0.5), (0.5, 2.0),
                                 (0.5, 0.5)],
                         ids=["a2_b2", "a2_b0.5", "a0.5_b2", "a0.5_b0.5"])
def test_c_M_bounds_ratio_at_maximizer(quadrants, key):
    # at the maximizing micro state the AT(1-Pi) part of the H4 ratio is
    # the exact norm and the whole ratio stays below c_M; so does every
    # state of the seeded probe suite
    _, _, eq, ops = quadrants[key]
    at_norm, al_norm = auxiliary_operator_norms(eq, ops)
    c_M = at_norm + al_norm
    f = _at_micro_maximizer(eq, ops)
    q = f.values.ravel() / ops.sqrt_f
    m_u, _, bt_micro_q, _ = q_profiles(q, ops)
    u = solve_elliptic(bt_micro_q, ops)
    micro_sq = hypo._micro_beta_sq(q, m_u / ops.mrho, eq, ops)
    assert np.sqrt(u @ (ops.mrho * u) / micro_sq) == pytest.approx(
        at_norm, rel=1e-10)
    assert bounded_auxiliary_ratio(f, eq, ops) <= c_M * (1.0 + 1e-12)
    for probe in hypo._random_suite(eq, 16, seed=0):
        assert bounded_auxiliary_ratio(probe, eq, ops) <= c_M


def test_bounded_ratio_needs_micro_part(strong_strong):
    # only an identically zero micro part (here: the zero field) divides by
    # zero; projections of generic fields keep a roundoff-level remainder
    _, grid, eq, ops = strong_strong
    zero = Field(np.zeros(grid.shape), grid)
    with pytest.raises(ValidationError):
        bounded_auxiliary_ratio(zero, eq, ops)
    f = _random_states(eq, 1, 47)[0]
    assert bounded_auxiliary_ratio(f, eq, ops) > 0.0


def test_empirical_kappa_positive(strong_strong):
    _, _, eq, ops = strong_strong
    kappa = empirical_kappa(eq, ops, sample_count=32, seed=1)
    assert kappa > 0.0


def test_transport_coefficient_integrals(strong_strong, strong_weak):
    for problem in (strong_strong, strong_weak):
        _, _, eq, _ = problem
        ints = transport_coefficient_integrals(eq)
        # v^2 <v>^{-2} < 1 pointwise, so kappa_sq < 1 on any grid
        assert 0.0 < ints["kappa_sq"] < 1.0
        assert ints["sigma_hat"] == pytest.approx(eq.sigma_normalized,
                                                  rel=1e-2)


def test_moment_bound_from_max_principle(strong_strong):
    # f <= C f_star pointwise forces J_k(f) <= C^2 J_k(f_star)
    _, grid, eq, _ = strong_strong
    bump = 1.0 + 0.8 * np.exp(-((grid.x_grid.nodes[:, None] - 0.5) ** 2
                                + (grid.v_grid.nodes[None, :]) ** 2))
    f = Field(np.minimum(bump, 1.5) * eq.f_star.values, grid)
    c = float(np.max(f.values / eq.f_star.values))
    for power in (1.0, 2.0):
        assert weighted_moment(f, "x", power, eq) \
            <= c ** 2 * weighted_moment(eq.f_star, "x", power, eq) * (1 + 1e-12)
