"""Implicit stepping, trajectory sampling, and the diffusion limit."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from kfplab import (
    DensityField,
    Field,
    NumericalError,
    ValidationError,
    dissipation_components,
    entropy_H,
    initial_bump,
    initial_macro_bump,
    initial_macro_gaussian,
    initial_odd_v,
    initial_shifted_gaussian,
    run_trajectory,
)
from kfplab import evolution, hypo, operators, spectral
from kfplab.evolution import (SectorLU, _advance, _reversal_symmetric,
                              _step_matrices, fold, fold_sector, unfold)
from kfplab.operators import SPLU_OPTIONS

from conftest import make_problem
from field_oracle import (macro_profile, macro_step_lu, norm_mu,
                          step_kinetic, step_macro, total_mass,
                          weighted_moment)


# ---------------------------------------------------------------------------
# initial data library
# ---------------------------------------------------------------------------

def test_initial_data_mass_and_positivity(strong_strong):
    _, grid, eq, _ = strong_strong
    mass_star = total_mass(eq.f_star, eq)
    for f0 in (initial_bump(eq, 0.5), initial_odd_v(eq, 0.5)):
        assert np.all(f0.values >= 0.0)
        # the perturbations are odd in v (or x): mass-neutral by symmetry
        assert total_mass(f0, eq) == pytest.approx(mass_star, rel=1e-12)
    f0 = initial_shifted_gaussian(eq, center=(0.5, 0.5), width=1.0,
                                  clip_factor=4.0)
    assert np.all(f0.values >= 0.0)
    assert np.all(f0.values <= 8.0 * eq.f_star.values * (1.0 + 1e-12))
    assert total_mass(f0, eq) == pytest.approx(mass_star, rel=1e-12)
    with pytest.raises(ValidationError):
        initial_bump(eq, 1.5)
    with pytest.raises(ValidationError):
        initial_shifted_gaussian(eq, width=0.0)
    # rescaled to the equilibrium mass, a narrow datum exceeds the 2x clip;
    # clipping it again would lose mass, so it is refused
    with pytest.raises(ValidationError):
        initial_shifted_gaussian(eq, width=0.2)


def test_initial_macro_data(strong_strong):
    _, grid, eq, _ = strong_strong
    xg = grid.x_grid
    rho0 = initial_macro_gaussian(xg, s0=2.0)
    assert np.sum(xg.weights * rho0.values) == pytest.approx(1.0, rel=1e-6)
    bump = initial_macro_bump(eq, 0.5)
    assert np.sum(xg.weights * bump.values) == pytest.approx(
        np.sum(xg.weights * eq.rho_star.values), rel=1e-12)
    with pytest.raises(ValidationError):
        initial_macro_gaussian(xg, s0=-1.0)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_step_kinetic_conserves_mass(strong_strong):
    _, _, eq, ops = strong_strong
    f = initial_bump(eq, 0.5)
    m0 = total_mass(f, eq)
    for scheme in ("implicit_euler", "crank_nicolson"):
        g = step_kinetic(f, 0.05, eq, ops, scheme=scheme)
        assert total_mass(g, eq) == pytest.approx(m0, rel=1e-12)
    with pytest.raises(ValidationError):
        step_kinetic(f, -0.1, eq, ops)
    with pytest.raises(ValidationError):
        step_kinetic(f, 0.05, eq, ops, scheme="explicit_euler")


def test_step_kinetic_decays_distance(strong_strong):
    _, grid, eq, ops = strong_strong
    f = initial_bump(eq, 0.5)
    d0 = norm_mu(Field(f.values - eq.f_star.values, grid), eq)
    g = f
    for _ in range(10):
        g = step_kinetic(g, 0.05, eq, ops)
    d1 = norm_mu(Field(g.values - eq.f_star.values, grid), eq)
    assert d1 < d0


def test_step_macro_mass_and_positivity(strong_strong):
    _, grid, eq, ops = strong_strong
    xg = grid.x_grid
    rho = initial_macro_bump(eq, 0.5)
    m0 = np.sum(xg.weights * rho.values)
    for _ in range(20):
        rho = step_macro(rho, 0.05, eq, ops)
    assert np.sum(xg.weights * rho.values) == pytest.approx(m0, rel=1e-12)
    # the flux discretization is an M-matrix: positivity is preserved
    assert np.min(rho.values) >= -1e-12 * np.max(rho.values)
    with pytest.raises(ValidationError):
        step_macro(rho, 0.05, eq, ops, scheme="crank_nicolson")


def test_kinetic_lu_fill_below_colamd(quadrants):
    # the shared LU options (minimum degree on A^T + A, diagonal pivots) keep
    # the kinetic factors well below COLAMD's fill; without the small pivot
    # threshold, row swaps on the beta = 0.5 boxes multiply the fill instead.
    # A mixed right-hand side factors both parity sectors, and each sector
    # holds about half the fill of the full system under the same options.
    rng = np.random.default_rng(7)
    for key, (_, _, _, ops) in quadrants.items():
        for dt in (1.0, 0.05):
            system, _ = _step_matrices(ops, dt, "implicit_euler")
            lu = SectorLU(ops, dt, "implicit_euler",
                          fold(rng.standard_normal(system.shape[0])))
            assert sorted(lu.lus) == [-1, 1]
            fills = [f.L.nnz + f.U.nnz for f in lu.lus.values()]
            ref = splu(system.tocsc(), permc_spec="COLAMD")
            ratio = sum(fills) / (ref.L.nnz + ref.U.nnz)
            assert ratio <= 0.7, (key, dt, ratio)
            full = splu(system.tocsc(), **SPLU_OPTIONS)
            for fill in fills:
                share = fill / (full.L.nnz + full.U.nnz)
                assert share <= 0.55, (key, dt, share)


def test_sector_lu_matches_full_solve(quadrants):
    # implicit Euler and Crank-Nicolson on every quadrant: the folded
    # sector solves against the full system
    steps = [(ops, 0.05, scheme)
             for _, _, _, ops in quadrants.values()
             for scheme in ("implicit_euler", "crank_nicolson")]
    for i, step in enumerate(steps):
        system, rhs_mat = _step_matrices(*step)
        lu = SectorLU(*step, (1, -1))
        full = splu(system.tocsc(), **SPLU_OPTIONS)
        n = system.shape[0]
        r = np.random.default_rng(i).standard_normal(n)
        for name, y in (("even", r + r[::-1]), ("odd", r - r[::-1]),
                        ("mixed", r)):
            ref = full.solve(y if rhs_mat is None else rhs_mat @ y)
            got = unfold(_advance(fold(y), lu, "step"), n)
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            assert err <= 1e-12, (i, name, err)


def test_fold_is_orthogonal_and_keeps_mass(strong_strong):
    # a part's 2-norm is the full-grid norm of the vector it stands for, the
    # round trip is exact to roundoff, and the folded mass weights (all in
    # the even sector) give the full mass
    _, grid, _, ops = strong_strong
    n = ops.sqrt_f.size
    mass_w = ops.w_flat * ops.sqrt_f
    folded_w = fold(mass_w)
    assert sorted(folded_w) == [1]
    xg, vg = grid.x_grid, grid.v_grid
    odd = np.outer(np.cos(0.5 * np.pi * xg.nodes / xg.half_width),
                   np.sin(np.pi * vg.nodes / vg.half_width)).ravel()
    rng = np.random.default_rng(3)
    for y, sectors in ((rng.standard_normal(n), [-1, 1]), (mass_w, [1]),
                       (odd * ops.sqrt_f, [-1])):
        parts = fold(y)
        assert sorted(parts) == sectors
        norm = np.sqrt(sum(float(p @ p) for p in parts.values()))
        assert norm == pytest.approx(np.linalg.norm(y), rel=1e-14)
        assert np.linalg.norm(unfold(parts, n) - y) \
            <= 1e-15 * np.linalg.norm(y)
        mass = sum(float(folded_w[s] @ p) for s, p in parts.items()
                   if s in folded_w)
        assert mass == pytest.approx(float(mass_w @ y), rel=1e-13,
                                     abs=1e-15 * np.linalg.norm(y))


def test_sector_lu_factors_only_the_sectors_a_state_meets(strong_strong,
                                                          monkeypatch):
    # under (x, v) -> (-x, -v) the bump datum is exactly even, the odd_v
    # perturbation f_star cos(pi x/2X) sin(pi v/V) exactly odd, and the
    # shifted Gaussian has both parts; a sector whose part is exactly zero
    # is never factored
    _, grid, eq, ops = strong_strong
    xg, vg = grid.x_grid, grid.v_grid
    odd = Field(eq.f_star.values
                * np.outer(np.cos(0.5 * np.pi * xg.nodes / xg.half_width),
                           np.sin(np.pi * vg.nodes / vg.half_width)), grid)
    real_splu = evolution.splu
    calls, made = [], []

    def counting(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real_splu(*args, **kwargs)

    class Recording(SectorLU):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(evolution, "splu", counting)
    monkeypatch.setattr(evolution, "SectorLU", Recording)
    n = grid.shape[0] * grid.shape[1]
    for f, sectors in ((initial_bump(eq, 0.5), [1]), (odd, [-1]),
                       (initial_shifted_gaussian(eq), [-1, 1])):
        calls.clear()
        step_kinetic(f, 0.05, eq, ops)
        assert sorted(made[-1].lus) == sectors
        assert sorted(calls) == sorted((n + s) // 2 for s in sectors)


def test_sector_lu_rejects_a_system_without_reflection_symmetry(
        strong_strong):
    _, _, _, ops = strong_strong
    lopsided = ops.L_hat.tolil()
    lopsided[0, 0] *= 1.5
    bent = dataclasses.replace(ops, L_hat=lopsided.tocsr())
    with pytest.raises(NumericalError, match="reflection"):
        SectorLU(bent, 0.05, "implicit_euler", [1])


def _mirrored_9x9():
    """A 9 x 9 canonical CSR matrix S with S[::-1, ::-1] == S (m = 4).

    Row 1 holds one value in columns 2 and 6, which cancel exactly in the
    odd sector; row 2 holds a value and its negative in columns 3 and 5,
    which cancel in the even one. Rows 2 and 3 reach the centre column,
    their mirrors 6 and 5 hold it below row m, and the centre row holds
    three mirrored pairs and the centre entry. Row 3 reaches column 7 with
    no direct partner."""
    n = 9
    entries = {(0, 0): 2.0, (0, 1): -0.4, (0, 8): 0.2, (1, 1): 1.7,
               (1, 2): 0.3, (1, 6): 0.3, (2, 2): 1.9, (2, 3): 0.1,
               (2, 4): 0.45, (2, 5): -0.1, (3, 3): 2.2, (3, 4): -0.9,
               (3, 7): 0.35, (4, 1): 1.1, (4, 3): -0.7, (4, 4): 3.0}
    dense = np.zeros((n, n))
    for (i, j), value in entries.items():
        dense[i, j] = dense[n - 1 - i, n - 1 - j] = value / 3.0
    return dense, sp.csr_matrix(dense)


def _fold_formula(dense, sign):
    # entry (i, j) of the fold written out: S[i, j] + sign S[i, n-1-j] for
    # j < m; the even sector's column m times sqrt(2) above the centre, its
    # row m over sqrt(2) left of it, and S[m, m] as it is
    n = dense.shape[0]
    m = n // 2
    half = m + 1 if sign > 0 else m
    out = np.empty((half, half))
    for i in range(half):
        for j in range(half):
            if j < m:
                out[i, j] = dense[i, j] + sign * dense[i, n - 1 - j]
                if i == m:
                    out[i, j] /= np.sqrt(2.0)
            elif i < m:
                out[i, j] = dense[i, j] * np.sqrt(2.0)
            else:
                out[i, j] = dense[i, j]
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_fold_sector_matches_its_entrywise_formula(sign):
    dense, system = _mirrored_9x9()
    formula = _fold_formula(dense, sign)
    # the fixture cancels exactly: (1, 2) in the odd sector, (2, 3) in the
    # even one
    assert formula[(1, 2) if sign < 0 else (2, 3)] == 0.0
    folded = fold_sector(system, sign)
    assert folded.format == "csr"
    assert folded.shape == ((5, 5) if sign > 0 else (4, 4))
    assert np.array_equal(folded.toarray(), formula)
    assert np.all(folded.data != 0.0)
    assert folded.nnz == np.count_nonzero(formula)
    assert all(np.all(np.diff(folded.indices[a:b]) > 0)
               for a, b in zip(folded.indptr[:-1], folded.indptr[1:]))
    # the system itself is left as it was
    assert np.array_equal(system.toarray(), dense)


def test_reversal_check_reads_the_structure():
    _, system = _mirrored_9x9()
    assert _reversal_symmetric(system)
    diag = sp.csr_matrix((np.array([0.5, 2.0, 0.5]), np.array([0, 1, 2]),
                          np.array([0, 1, 2, 3])), shape=(3, 3))
    assert _reversal_symmetric(diag)
    # the same values and row pointers, one value moved to another column:
    # diag(a, b, a) becomes [[a, 0, 0], [b, 0, 0], [0, 0, a]]
    moved = sp.csr_matrix((diag.data, np.array([0, 0, 2]), diag.indptr),
                          shape=(3, 3))
    # the same values and column indices, one row boundary moved:
    # [[a, b, 0], [0, 0, 0], [0, 0, a]]
    shifted = sp.csr_matrix((diag.data, diag.indices, np.array([0, 2, 2, 3])),
                            shape=(3, 3))
    # in the 9 x 9 matrix, -0.4/3 moved from (0, 1) to the empty (0, 2)
    indices = system.indices.copy()
    indices[1] = 2
    moved_9 = sp.csr_matrix((system.data, indices, system.indptr),
                            shape=(9, 9))
    for matrix in (moved, shifted, moved_9):
        assert matrix.has_canonical_format
        assert not np.array_equal(matrix.toarray(),
                                  matrix.toarray()[::-1, ::-1])
        assert not _reversal_symmetric(matrix)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_run_trajectory_kinetic_sampling(strong_strong):
    _, _, eq, ops = strong_strong
    f0 = initial_bump(eq, 0.5)
    rec = run_trajectory(f0, (0.05, 2.0, 4), "kinetic", eq, ops, delta=0.3)
    assert rec.times[0] == 0.0 and rec.times[-1] == pytest.approx(2.0)
    assert rec.times.size == 11          # t = 0, 0.2, ..., 2.0
    assert np.all(np.diff(rec.times) > 0)
    # H is monotone nonincreasing up to a tiny roundoff allowance
    h0 = rec.entropy_H[0]
    assert np.all(np.diff(rec.entropy_H) <= 1e-8 * h0)
    assert np.all(rec.dissipation_D >= -1e-12 * h0)
    assert rec.norm_sq_mu[-1] < rec.norm_sq_mu[0]
    assert np.all(rec.max_principle_ok)
    assert np.all(np.isnan(rec.envelope))   # the runner attaches the bound
    # moments stay below the max-principle bound C^2 J_k(f_star)
    c0 = float(np.max(f0.values / eq.f_star.values))
    for k, series in rec.moments_J.items():
        bound = c0 ** 2 * weighted_moment(eq.f_star, "x", k, eq)
        assert np.max(series) <= bound * (1.0 + 1e-8)


def test_dissipation_matches_entropy_slope(strong_strong):
    # -dH/dt from the sampled series and the assembled D agree up to
    # O(dt) splitting and O(sample^2) differencing errors
    _, _, eq, ops = strong_strong
    f0 = initial_bump(eq, 0.5)
    rec = run_trajectory(f0, (0.01, 1.0, 5), "kinetic", eq, ops, delta=0.3)
    slope = rec.dissipation_from_H
    for i in range(2, rec.times.size - 2):
        assert slope[i] == pytest.approx(rec.dissipation_D[i], rel=0.2)


def test_run_trajectory_macro(strong_strong):
    _, grid, eq, ops = strong_strong
    rho0 = initial_macro_bump(eq, 0.5)
    rec = run_trajectory(rho0, (0.05, 2.0, 4), "macro", eq, ops)
    assert rec.norm_sq_mu[-1] < rec.norm_sq_mu[0]
    assert np.all(rec.max_principle_ok)
    assert np.all(rec.dissipation_D >= -1e-12 * rec.entropy_H[0])


def _operator_arrays(ops):
    """{field: copies of its arrays} for every matrix and array field of ops
    (elliptic_lu is a SuperLU object, neither)."""
    out = {}
    for field in dataclasses.fields(ops):
        value = getattr(ops, field.name)
        if sp.issparse(value):
            out[field.name] = [a.copy() for a in (value.data, value.indices,
                                                  value.indptr)]
        elif isinstance(value, np.ndarray):
            out[field.name] = [value.copy()]
    return out


def test_run_trajectory_leaves_shared_operators_untouched(strong_strong,
                                                          monkeypatch):
    # every call that steps factors its own step system from copies of the
    # stored generators, so runs on one shared ops leave each of its arrays
    # bit for bit as built: a Krylov run, a stepped run, a Crank-Nicolson
    # run, a macro run and single steps; and no field can be reassigned
    _, _, eq, ops = strong_strong
    before = _operator_arrays(ops)
    assert sorted(before) == sorted(f.name for f in dataclasses.fields(ops)
                                    if f.name != "elliptic_lu")
    real_krylov = evolution._krylov_states
    krylov_runs = []

    def krylov(*args):
        krylov_runs.append(args)
        return real_krylov(*args)

    monkeypatch.setattr(evolution, "_krylov_states", krylov)
    bump, rho0 = initial_bump(eq, 0.5), initial_macro_bump(eq, 0.5)
    # 200 steps on 65^2 are more than a basis cap (32); 20 are fewer
    run_trajectory(bump, (0.05, 10.0, 10), "kinetic", eq, ops, delta=0.3)
    assert len(krylov_runs) == 1
    run_trajectory(bump, (0.05, 1.0, 4), "kinetic", eq, ops, delta=0.3)
    run_trajectory(initial_shifted_gaussian(eq), (0.05, 1.0, 4), "kinetic",
                   eq, ops, delta=0.3, scheme="crank_nicolson")
    run_trajectory(rho0, (0.05, 1.0, 4), "macro", eq, ops)
    step_kinetic(bump, 0.05, eq, ops)
    step_macro(rho0, 0.05, eq, ops)
    after = _operator_arrays(ops)
    for name, arrays in before.items():
        for old, new in zip(arrays, after[name]):
            assert old.dtype == new.dtype and old.shape == new.shape, name
            assert old.tobytes() == new.tobytes(), name
    with pytest.raises(dataclasses.FrozenInstanceError):
        ops.T_hat = ops.L_hat


def test_run_trajectory_validation(strong_strong):
    _, _, eq, ops = strong_strong
    f0 = initial_bump(eq, 0.5)
    with pytest.raises(ValidationError):
        run_trajectory(f0, (0.0, 1.0, 1), "kinetic", eq, ops)
    with pytest.raises(ValidationError):
        run_trajectory(f0, (0.05, 1.0, 0), "kinetic", eq, ops)
    with pytest.raises(ValidationError):
        run_trajectory(f0, (0.05, 1.0, 1), "stationary", eq, ops)
    neg = Field(-f0.values, f0.grid)
    with pytest.raises(ValidationError):
        run_trajectory(neg, (0.05, 1.0, 1), "kinetic", eq, ops)
    # t_final must be a whole number of steps, not rounded to one
    with pytest.raises(ValidationError, match="whole number of steps"):
        run_trajectory(f0, (0.2, 1.1, 1), "kinetic", eq, ops)
    # a non-finite dt or t_final is refused before the step count is formed
    for schedule in [(np.nan, 1.0, 1), (0.1, np.inf, 1), (0.1, np.nan, 1)]:
        with pytest.raises(ValidationError, match="t_final < inf"):
            run_trajectory(f0, schedule, "kinetic", eq, ops)
    # Crank-Nicolson is kinetic-only; a macro run must not fall back silently
    with pytest.raises(ValidationError, match="implicit_euler"):
        run_trajectory(initial_macro_bump(eq, 0.5), (0.05, 1.0, 1), "macro",
                       eq, ops, scheme="crank_nicolson")


def test_trajectory_record_refuses_a_column_of_another_length():
    # every column, the max-principle flags included, must have one entry
    # per time: a short one would misalign or overrun the report's rows
    columns = {"norm_sq_mu": [1.0, 0.5], "entropy_h": [0.5, 0.25],
               "dissipation_d": [1.0, 0.5], "moments_j": {2: [1.0, 1.0]},
               "moments_k": {2: [1.0, 1.0]}, "max_principle_ok": [True, True],
               "envelope": [np.nan, np.nan]}
    evolution.TrajectoryRecord([0.0, 1.0], **columns)
    for name, value in columns.items():
        short = ({2: value[2][:1]} if isinstance(value, dict)
                 else value[:1])
        with pytest.raises(ValidationError):
            evolution.TrajectoryRecord([0.0, 1.0],
                                       **dict(columns, **{name: short}))


@pytest.mark.parametrize("mode, powers", [("macro", ((-1,), ())),
                                           ("kinetic", ((2,), (-1,)))])
def test_negative_moment_power_is_refused_in_both_modes(strong_strong, mode,
                                                        powers, monkeypatch):
    _, _, eq, ops = strong_strong
    f0 = (initial_macro_bump(eq, 0.5) if mode == "macro"
          else initial_bump(eq, 0.5))
    monkeypatch.setattr(evolution, "splu", None)    # nothing is factored
    with pytest.raises(ValidationError, match="moment power must be >= 0"):
        run_trajectory(f0, (0.05, 1.0, 4), mode, eq, ops,
                       moment_powers=powers)


@pytest.mark.parametrize("delta", [2.0, -0.1])
def test_entropy_delta_is_refused_before_anything_is_factored(delta,
                                                              monkeypatch):
    _, _, eq, ops = make_problem("power", 2.0, 8.0, 33, 8.0, 33, alpha=2.0)
    real_splu = evolution.splu
    factored = []

    def counting(*args, **kwargs):
        factored.append(args[0].shape)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(evolution, "splu", counting)
    with pytest.raises(ValidationError, match="entropy needs 0 <= delta < 2"):
        run_trajectory(initial_bump(eq, 0.5), (0.05, 1.0, 4), "kinetic", eq,
                       ops, delta=delta)
    assert factored == []


def _field_reference_record(f0, schedule, eq, ops, delta, moment_powers):
    """(times, norm, H, D, J, K, max principle) of a stepped kinetic run,
    each sample read through a Field, entropy_H and dissipation_components
    on the same states as run_trajectory's stepping loop."""
    dt, t_final, stride = schedule
    n_steps = evolution.step_count(dt, t_final)
    grid, fstar, sqrt_f = eq.grid, eq.f_star.values, ops.sqrt_f
    c_bound = float(np.max(f0.values / fstar))
    q = ((f0.values - fstar) / fstar).ravel() * sqrt_f
    xg, vg = grid.x_grid, grid.v_grid
    x_weights = {k: xg.weights * np.sqrt(1.0 + xg.nodes ** 2) ** float(k)
                 for k in moment_powers[0]}
    v_weights = {k: vg.weights * np.sqrt(1.0 + vg.nodes ** 2) ** float(k)
                 for k in moment_powers[1]}
    rows = []

    def sample(t, q):
        y = Field((q * sqrt_f).reshape(grid.shape), grid)
        p = q.reshape(grid.shape) + sqrt_f.reshape(grid.shape)
        p_sq = p * p
        f = y.values + fstar
        rows.append((t, max(float((ops.w_flat * q) @ q), 0.0),
                     entropy_H(y, delta, eq, ops),
                     dissipation_components(y, delta, eq, ops)["D"],
                     {k: float(w @ (p_sq @ vg.weights))
                      for k, w in x_weights.items()},
                     {k: float((xg.weights @ p_sq) @ w)
                      for k, w in v_weights.items()},
                     bool(np.max(f - c_bound * fstar) <= 1e-6
                          and np.min(f) >= -1e-6)))

    sample(0.0, q)
    parts = fold(q)
    lu = SectorLU(ops, dt, "implicit_euler", parts)
    for n in range(1, n_steps + 1):
        parts = _advance(parts, lu, "kinetic step")
        if n % stride == 0 or n == n_steps:
            sample(n * dt, unfold(parts, q.size))
    return rows


def _clipped_bump(eq):
    """Acceptance criterion 9's datum, min(f_star (1 + 1.5 bump), 2 f_star)
    with the bump centred at (1, 1): C = 2, both sectors, and a
    max-principle bound at its limit."""
    grid = eq.grid
    x, v = grid.x_grid.nodes[:, None], grid.v_grid.nodes[None, :]
    bump = np.exp(-((x - 1.0) ** 2 + (v - 1.0) ** 2) / 2.0)
    return Field(np.minimum(eq.f_star.values * (1.0 + 1.5 * bump),
                            2.0 * eq.f_star.values), grid)


@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_one_pass_sampler_matches_the_field_reference_loop(delta,
                                                           monkeypatch):
    # every input stays on the stepping loop, with fewer steps than a basis
    # cap: shifted_gaussian data (both sectors, 15 steps on 33^2), the bump
    # on the 65 x 193 box (one sector, 20 steps) and criterion 9's clipped
    # datum (two sectors, 15 steps on 33^2), whose max-principle bound is at
    # its limit: it certifies some samples, and the others are checked
    # pointwise. A sample is the sum of its sectors' shares, so the norms
    # and moments agree to roundoff, not bit for bit
    pointwise = _spy(monkeypatch, evolution, "_max_principle_ok")
    box = make_problem("power", 2.0, 8.0, 33, 8.0, 33, alpha=2.0)
    weak_v = make_problem("power", 0.5, 8.0, 65, 48.0, 193, tol=1e-5,
                          alpha=2.0)
    inputs = [(box, initial_shifted_gaussian, (0.1, 1.5, 2), 9, 2),
              (weak_v, initial_bump, (0.1, 2.0, 4), 6, 1),
              (box, _clipped_bump, (0.1, 1.5, 2), 9, 2)]
    powers = ((2, 4), (2, 3))
    for (_, _, eq, ops), datum, schedule, samples, sectors in inputs:
        f0 = datum(eq)
        n_steps = evolution.step_count(*schedule[:2])
        assert not evolution._krylov_path(n_steps, ops.sqrt_f.size // 2 + 1)
        assert len(fold(f0.values.ravel() - eq.f_star.values.ravel())
                   ) == sectors
        del pointwise[:]
        rec = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=delta,
                             moment_powers=powers)
        if datum is _clipped_bump:
            assert 0 < len(pointwise) < samples
        ref = _field_reference_record(f0, schedule, eq, ops, delta, powers)
        times, norms, hs, ds, js, ks, okay = zip(*ref)
        assert rec.times.size == samples
        assert np.array_equal(rec.times, times)
        assert np.allclose(rec.norm_sq_mu, norms, rtol=1e-13, atol=0.0)
        for k in powers[0]:
            assert np.allclose(rec.moments_J[k], [j[k] for j in js],
                               rtol=1e-13, atol=0.0)
        for k in powers[1]:
            assert np.allclose(rec.moments_K[k], [m[k] for m in ks],
                               rtol=1e-13, atol=0.0)
        assert np.array_equal(rec.max_principle_ok, okay)
        assert np.allclose(rec.entropy_H, hs, rtol=1e-14, atol=0.0)
        assert np.allclose(rec.dissipation_D, ds, rtol=1e-14, atol=0.0)


def test_odd_data_factor_only_the_odd_sector(strong_strong, monkeypatch):
    # f - f_star of odd_v and rho - rho_star of macro_bump are exactly odd
    # under the reflection, so the kinetic run factors and solves only the
    # odd sector; the macro run, read in closed form, factors nothing
    _, _, eq, ops = strong_strong
    made = []

    class Recording(SectorLU):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(evolution, "SectorLU", Recording)
    f0 = initial_odd_v(eq, 0.5)
    rho0 = initial_macro_bump(eq, 0.5)
    for dev in (f0.values - eq.f_star.values,
                rho0.values - eq.rho_star.values):
        assert np.array_equal(dev.ravel()[::-1], -dev.ravel())
    # within a few roundings of the product form f_star (1 + eps bump)
    xg, vg = eq.grid.x_grid, eq.grid.v_grid
    bump = np.outer(np.cos(0.5 * np.pi * xg.nodes / xg.half_width),
                    np.sin(np.pi * vg.nodes / vg.half_width))
    assert np.allclose(f0.values, eq.f_star.values * (1.0 + 0.5 * bump),
                       rtol=1e-15, atol=0.0)
    run_trajectory(f0, (0.05, 0.5, 5), "kinetic", eq, ops, delta=0.3)
    run_trajectory(rho0, (0.05, 0.5, 5), "macro", eq, ops)
    assert [sorted(lu.lus) for lu in made] == [[-1]]


def test_non_finite_sample_aborts_the_run(strong_strong, monkeypatch):
    # a state can stay finite while a diagnostic overflows; the run stops at
    # that sample and keeps the ones before it. Each sample of this stepped
    # run is a one-row window, one entropy_and_dissipation_from call
    _, _, eq, ops = strong_strong
    real_sample = hypo.entropy_and_dissipation_from
    calls = {"n": 0}

    def overflowing(*args):
        calls["n"] += 1
        h, d = real_sample(*args)
        return (h, d) if calls["n"] < 3 else (np.full_like(h, np.inf), d)

    monkeypatch.setattr(hypo, "entropy_and_dissipation_from", overflowing)
    with pytest.raises(NumericalError, match="non-finite sample at t = 0.2"
                       ) as err:
        run_trajectory(initial_bump(eq, 0.5), (0.05, 1.0, 2), "kinetic", eq,
                       ops, delta=0.3)
    assert err.value.last_good_time == pytest.approx(0.15)
    assert list(err.value.partial_record.times) == pytest.approx([0.0, 0.1])


def test_abort_carries_partial_record(strong_strong, monkeypatch):
    # corrupt the state after three good steps, once with NaN and once with
    # a mass drift, and check the payload; 20 steps on 65^2 step
    import kfplab.evolution as evo

    _, _, eq, ops = strong_strong
    real_solve = evo.solve_with_refinement
    f0 = initial_bump(eq, 0.5)
    for corrupt in (lambda sol: sol * np.nan, lambda sol: sol + 1e-3):
        calls = {"n": 0}

        def flaky(lu, system, rhs, what):
            calls["n"] += 1
            sol = real_solve(lu, system, rhs, what)
            return corrupt(sol) if calls["n"] >= 4 else sol

        monkeypatch.setattr(evo, "solve_with_refinement", flaky)
        with pytest.raises(NumericalError) as err:
            run_trajectory(f0, (0.05, 1.0, 1), "kinetic", eq, ops, delta=0.3,
                           moment_powers=((2, 4), (2,)))
        # the fourth state is bad, so the last good one is the third
        assert err.value.last_good_time == pytest.approx(0.15)
        partial = err.value.partial_record
        # t = 0, 0.05, 0.10, 0.15, with every column a finished record has
        assert list(partial.times) == pytest.approx([0.0, 0.05, 0.10, 0.15])
        assert partial.norm_sq_mu.size == 4
        assert sorted(partial.moments_J) == [2, 4]
        assert sorted(partial.moments_K) == [2]
        assert np.all(np.isfinite(partial.moments_J[4]))
        assert np.all(partial.max_principle_ok)
        assert np.all(np.isnan(partial.envelope))


# ---------------------------------------------------------------------------
# diffusion limit
# ---------------------------------------------------------------------------

def test_kinetic_tracks_macro_in_diffusion_scaling(strong_strong):
    # well-prepared data under parabolic scaling follow the macroscopic
    # Fokker-Planck flow within O(eps) once the initial layer has relaxed
    _, grid, eq, ops = strong_strong
    eps = 0.2
    # transport at 1/eps, collision at 1/eps^2
    scaled = dataclasses.replace(ops, T_hat=(ops.T_hat / eps).tocsr(),
                                 L_hat=(ops.L_hat / eps ** 2).tocsr())
    xg = grid.x_grid
    u0 = 1.0 + 0.3 * np.cos(np.pi * xg.nodes / (2.0 * xg.half_width))
    f = Field(u0[:, None] * eq.f_star.values, grid)
    f = Field(f.values / total_mass(f, eq), grid)
    rho = DensityField(macro_profile(f, eq).values * eq.rho_star.values,
                       xg)

    dt = 0.005
    errs = []
    wrho = xg.weights * eq.rho_star.values
    # both flows step through one factored system each, built once: the
    # sector parts of q = f / sqrt(f_star), as step_kinetic advances them,
    # and rho through the oracle's LU of I - dt G, as step_macro solves it
    q_parts, rho = fold(f.values.ravel() / ops.sqrt_f), rho.values
    kinetic = SectorLU(scaled, dt, "implicit_euler", q_parts)
    macro = macro_step_lu(ops, dt)
    for n in range(1, 401):
        q_parts = _advance(q_parts, kinetic, "kinetic step")
        rho = operators.solve_with_refinement(*macro, rho, "macro step")
        if n % 80 == 0:  # t = 0.4, 0.8, ..., 2.0
            q = unfold(q_parts, ops.sqrt_f.size)
            f = Field((q * ops.sqrt_f).reshape(grid.shape), grid)
            u_kin = macro_profile(f, eq).values
            u_mac = rho / eq.rho_star.values
            dev_kin = u_kin - np.sum(wrho * u_kin) / np.sum(wrho)
            dev_mac = u_mac - np.sum(wrho * u_mac) / np.sum(wrho)
            num = np.sqrt(np.sum(wrho * (dev_kin - dev_mac) ** 2))
            den = np.sqrt(np.sum(wrho * dev_mac ** 2))
            errs.append(num / den)
    assert max(errs) <= 0.10, errs


# ---------------------------------------------------------------------------
# macro samples in closed form
# ---------------------------------------------------------------------------

def _oracle_macro_samples(y0, ops, schedule):
    """{n: y after n steps} at the sampled steps of schedule, stepped on the
    oracle's own LU of I - dt G."""
    dt, t_final, stride = schedule
    n_steps = evolution.step_count(dt, t_final)
    factor, system = macro_step_lu(ops, dt)
    y, out = y0, {}
    for n in range(1, n_steps + 1):
        y = operators.solve_with_refinement(factor, system, y, "macro step")
        if n % stride == 0 or n == n_steps:
            out[n] = y
    return out


def _closed_form_samples(y0, eq, ops, schedule):
    dt, t_final, stride = schedule
    n_steps = evolution.step_count(dt, t_final)
    return dict(evolution._macro_states(y0, eq, ops, dt, n_steps, stride))


def test_macro_closed_form_matches_oracle_stepping(weak_weak, monkeypatch):
    # criterion 5's heat decay on the zero-potential box (481 nodes, 1200
    # steps, a kernel mode that carries the mass) and q_a0.5_b0.5_macro's
    # run (193 nodes, 400 steps of dt = 1), whose fastest modes fall below
    # the floor: every sample agrees with the oracle's stepping
    zero = make_problem("zero", 2.0, 12.0, 481, 8.0, 65)[2:]
    rho0 = initial_macro_gaussian(zero[0].grid.x_grid, s0=2.0).values
    eq, ops = weak_weak[2:]
    bump = initial_macro_bump(eq, 0.5).values - eq.rho_star.values
    modes = _spy(monkeypatch, evolution, "eigh_tridiagonal")
    for (eq, ops), y0, schedule in [(zero, rho0, (0.0025, 3.0, 40)),
                                    ((eq, ops), bump, (1.0, 400.0, 8))]:
        got = _closed_form_samples(y0, eq, ops, schedule)
        ref = _oracle_macro_samples(y0, ops, schedule)
        assert sorted(got) == sorted(ref)
        for n, y in ref.items():
            err = np.linalg.norm(got[n] - y) / np.linalg.norm(y)
            assert err <= 1e-12, (schedule, n, err)
    lam = modes[-1][1][0]
    assert -np.log1p(-lam[0]) * 400 < evolution._MACRO_FLOOR


def test_a_macro_run_factors_and_solves_nothing(strong_strong, monkeypatch):
    _, _, eq, ops = strong_strong

    def refuse(*args, **kwargs):
        raise AssertionError("a macro run factored or solved")

    for owner, name in ((evolution, "SectorLU"), (evolution, "splu"),
                        (evolution, "solve_with_refinement"),
                        (operators, "solve_with_refinement")):
        monkeypatch.setattr(owner, name, refuse)
    rec = run_trajectory(initial_macro_bump(eq, 0.5), (0.05, 2.0, 4),
                         "macro", eq, ops)
    assert rec.times.size == 11


def test_macro_slowest_mode_is_the_predicted_rate(quadrants, monkeypatch):
    # -2 x the slowest nonzero eigenvalue of the closed form is 2 sigma
    # lambda, lambda the pencil behind run_scenario's predicted macro rate
    modes = _spy(monkeypatch, evolution, "eigh_tridiagonal")
    for key, (_, grid, eq, ops) in quadrants.items():
        y0 = initial_macro_bump(eq, 0.5).values - eq.rho_star.values
        _closed_form_samples(y0, eq, ops, (0.05, 0.05, 1))
        lam = modes[-1][1][0]
        m = grid.x_grid.weights * eq.rho_star.values
        rate = (2.0 * eq.sigma_normalized
                * spectral.pencil_min_eig(ops.Sx_macro, m, m))
        assert -2.0 * lam[-2] == pytest.approx(rate, rel=1e-10), key


def test_macro_closed_form_refuses_a_generator_it_cannot_read(strong_strong):
    # D G D^-1 not symmetric, or an eigenvalue above 0: the run aborts at
    # its first state with the initial sample as its partial record
    _, _, eq, ops = strong_strong
    gen = ops.macro_generator
    skewed = gen.tolil()
    skewed[10, 11] *= 1.01
    growing = gen + 1e-3 * abs(gen).max() * sp.identity(gen.shape[0])
    for bad, match in ((skewed, "self-adjoint"), (growing, "above 0")):
        broken = dataclasses.replace(ops, macro_generator=bad.tocsr())
        with pytest.raises(NumericalError, match=match) as err:
            run_trajectory(initial_macro_bump(eq, 0.5), (0.05, 1.0, 4),
                           "macro", eq, broken)
        assert err.value.last_good_time == 0.0
        assert list(err.value.partial_record.times) == [0.0]


# ---------------------------------------------------------------------------
# implicit-Euler samples from one shift-invert Krylov space
# ---------------------------------------------------------------------------

_COLUMNS = ("times", "norm_sq_mu", "entropy_H", "dissipation_D")


def _worst_relative_gap(got, ref):
    """The largest relative difference over every column of two records."""
    pairs = [(getattr(got, c), getattr(ref, c)) for c in _COLUMNS]
    pairs += [(got.moments_J[k], ref.moments_J[k]) for k in ref.moments_J]
    pairs += [(got.moments_K[k], ref.moments_K[k]) for k in ref.moments_K]
    assert np.array_equal(got.max_principle_ok, ref.max_principle_ok)
    assert [a.size for a, _ in pairs] == [b.size for _, b in pairs]
    return max(float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))
               for a, b in pairs)


def _krylov_and_stepped(f0, schedule, eq, ops, monkeypatch):
    """The records of one run on the Krylov path and on the stepping loop,
    the solves the Krylov path took and the (m, agreed) of its windows."""
    real_solve, real_window = (evolution.solve_with_refinement,
                               evolution._arnoldi_window)
    calls, windows = {"n": 0}, []

    def counting(*args):
        calls["n"] += 1
        return real_solve(*args)

    def recording(*args):
        m, coeffs, agreed = real_window(*args)
        windows.append((m, agreed))
        return m, coeffs, agreed

    monkeypatch.setattr(evolution, "solve_with_refinement", counting)
    monkeypatch.setattr(evolution, "_arnoldi_window", recording)
    monkeypatch.setattr(evolution, "_krylov_path", lambda *args: True)
    got = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=0.3)
    solves = calls["n"]
    monkeypatch.setattr(evolution, "_krylov_path", lambda *args: False)
    ref = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=0.3)
    return got, ref, solves, windows


_DATA = {"bump": lambda eq: initial_bump(eq, 0.5),           # even
         "odd_v": lambda eq: initial_odd_v(eq, 0.5),         # odd
         "shifted_gaussian": initial_shifted_gaussian}       # both sectors


@pytest.mark.parametrize("kind", sorted(_DATA))
@pytest.mark.parametrize("quadrant", [None, (2.0, 2.0), (2.0, 0.5),
                                      (0.5, 2.0), (0.5, 0.5)])
def test_krylov_samples_match_stepping(quadrants, kind, quadrant,
                                       monkeypatch):
    # None is the 33^2 box; each run takes 100 steps on the Krylov path
    if quadrant is None:
        _, _, eq, ops = make_problem("power", 2.0, 8.0, 33, 8.0, 33,
                                     alpha=2.0)
        schedule = (0.05, 5.0, 10)
    else:
        _, _, eq, ops = quadrants[quadrant]
        schedule = (0.1, 10.0, 10)
    f0 = _DATA[kind](eq)
    sectors = len(fold(f0.values.ravel() - eq.f_star.values.ravel()))
    assert sectors == (2 if kind == "shifted_gaussian" else 1)
    got, ref, _, windows = _krylov_and_stepped(f0, schedule, eq, ops,
                                               monkeypatch)
    # every sample came from a basis: no window fell back to stepping
    assert all(agreed > 0 for _, agreed in windows)
    assert sum(agreed for _, agreed in windows) == 10 * sectors
    assert _worst_relative_gap(got, ref) <= 1e-10


def test_krylov_restarts_from_its_last_agreed_sample(strong_strong,
                                                     shift_at_four_dt,
                                                     monkeypatch):
    # a basis of 20 vectors cannot reach t = 10 in one window: each window
    # restarts from the last sample its approximations agreed on, and each
    # covers more steps than it takes solves, so the solve budget holds
    _, _, eq, ops = strong_strong
    cap = 20
    monkeypatch.setattr(evolution, "_MAX_BASIS", cap)
    got, ref, _, windows = _krylov_and_stepped(
        initial_bump(eq, 0.5), (0.05, 10.0, 5), eq, ops, monkeypatch)
    assert len(windows) >= 3
    assert all(m <= cap and agreed > 0 for m, agreed in windows)
    assert sum(agreed for _, agreed in windows) == 40
    assert _worst_relative_gap(got, ref) <= 1e-10


def test_krylov_window_that_cannot_agree_falls_back_to_stepping(
        strong_strong, shift_at_four_dt, monkeypatch):
    # one vector never has a predecessor to agree with, so the first window
    # agrees on no sample and the run steps instead, factoring I - dt G
    _, _, eq, ops = strong_strong
    real_splu = evolution.splu
    factored = []

    def counting(*args, **kwargs):
        factored.append(args[0].shape[0])
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(evolution, "_MAX_BASIS", 1)
    monkeypatch.setattr(evolution, "splu", counting)
    got, ref, solves, windows = _krylov_and_stepped(
        initial_bump(eq, 0.5), (0.05, 10.0, 5), eq, ops, monkeypatch)
    assert windows == [(1, 0)]
    assert solves == 1 + 200
    assert len(factored) == 2 + 1     # I - gamma G, I - dt G; the reference
    assert _worst_relative_gap(got, ref) == 0.0


def test_a_sector_over_its_solve_budget_steps_the_rest(strong_strong,
                                                       shift_at_four_dt,
                                                       monkeypatch):
    # windows of 16 vectors agree on one sample (5 steps) each: after two,
    # the 32 solves on the factor reach the 10 steps covered plus one cap,
    # and the sector steps its last 190 steps on a factor of I - dt G
    _, _, eq, ops = strong_strong
    monkeypatch.setattr(evolution, "_MAX_BASIS", 16)
    lus = _spy(monkeypatch, evolution, "SectorLU")
    got, ref, solves, windows = _krylov_and_stepped(
        initial_bump(eq, 0.5), (0.05, 10.0, 5), eq, ops, monkeypatch)
    assert windows == [(16, 1), (16, 1)]
    assert solves == 2 * 16 + 190
    # I - 4 dt G, I - dt G; the last one is the reference's
    assert [args[1] for args, _ in lus] == [0.2, 0.05, 0.05]
    assert _worst_relative_gap(got, ref) <= 1e-10


def test_a_rough_datum_loses_at_most_a_cap_per_sector(strong_strong,
                                                      monkeypatch):
    # the clipped shifted Gaussian at (1, 1) on 65^2, 200 steps of dt = 0.05
    # sampled every 5th, takes the Krylov path at gamma = 4 dt, the floor.
    # Each sector's first window agrees on no sample there, so it spends
    # one cap and steps: no sector takes more than its steps plus one cap
    _, _, eq, ops = strong_strong
    f0, dt = initial_shifted_gaussian(eq, center=(1, 1)), 0.05
    parts = _tracked_parts(f0, eq, ops)
    gamma = evolution._krylov_shift(parts, ops, dt)
    assert gamma == 4 * dt
    factors = SectorLU(ops, gamma, "implicit_euler", parts).lus
    caps = [min(evolution._MAX_BASIS, factors[sign].nnz // part.size)
            for sign, part in parts.items()]
    assert len(caps) == 2
    solves = _spy(monkeypatch, evolution, "solve_with_refinement")
    run_trajectory(f0, (dt, 10.0, 5), "kinetic", eq, ops, delta=0.3)
    assert len(solves) <= sum(200 + cap for cap in caps)


@pytest.mark.parametrize("quadrant", [(2.0, 0.5), (0.5, 2.0), (0.5, 0.5)])
def test_algebraic_sweep_runs_sample_from_krylov(quadrants, quadrant,
                                                 monkeypatch):
    # the bump at dt = 1, 100 steps sampled every 2nd (the algebraic kinetic
    # runs of the benchmark's quadrant sweep): 100 steps are more than a
    # basis cap, so the run takes the Krylov path on its own, at gamma = 2,
    # with fewer solves than steps, and matches the stepping loop
    _, _, eq, ops = quadrants[quadrant]
    f0, schedule = initial_bump(eq, 0.5), (1.0, 100.0, 2)
    solves = _spy(monkeypatch, evolution, "solve_with_refinement")
    got = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=0.3)
    assert 0 < len(solves) < 100
    monkeypatch.setattr(evolution, "_krylov_path", lambda *args: False)
    ref = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=0.3)
    assert _worst_relative_gap(got, ref) <= 1e-10


def _tracked_parts(f0, eq, ops):
    """The sector parts of the tracked datum
    q0 = (f0 - f_star) / sqrt(f_star)."""
    fstar = eq.f_star.values
    return fold(((f0.values - fstar) / fstar).ravel() * ops.sqrt_f)


@pytest.mark.parametrize("quadrant", [(2.0, 2.0), (2.0, 0.5), (0.5, 2.0),
                                      (0.5, 0.5)])
def test_krylov_shift_follows_the_datums_time_scale(quadrants, quadrant):
    # gamma = max(4 dt, min(1/4, ||G q0||_mu / ||G^2 q0||_mu)): the smooth
    # bump takes the cap of 1/4 unless 4 dt is larger, the clipped shifted
    # Gaussian (a ratio of 0.04 to 0.12 here) stays at 4 dt for dt = 0.05
    _, _, eq, ops = quadrants[quadrant]
    shift = evolution._krylov_shift
    bump = _tracked_parts(initial_bump(eq, 0.5), eq, ops)
    assert shift(bump, ops, 0.02) == shift(bump, ops, 0.05) == 0.25
    assert shift(bump, ops, 0.25) == 1.0
    gaussian = _tracked_parts(initial_shifted_gaussian(eq), eq, ops)
    assert shift(gaussian, ops, 0.05) == 0.2
    assert 0.08 <= shift(gaussian, ops, 0.02) < 0.25
    if quadrant == (2.0, 2.0):          # the 65^2, alpha = beta = 2 box
        assert shift(gaussian, ops, 0.02) == 0.08


@pytest.mark.parametrize("dt, floor", [(0.02, 0.08), (0.05, 0.2),
                                       (0.25, 1.0), (1.0, 2.0)])
def test_the_shift_floor_is_four_dt_up_to_a_quarter(strong_strong, dt,
                                                     floor):
    # min(4 dt, max(2 dt, 1)): a datum in the kernel takes the floor, and so
    # does the clipped shifted Gaussian, whose ratio lies below it
    _, grid, eq, ops = strong_strong
    assert evolution._shift_floor(dt) == floor
    for f0 in (Field(1.5 * eq.f_star.values, grid),
               initial_shifted_gaussian(eq)):
        parts = _tracked_parts(f0, eq, ops)
        assert evolution._krylov_shift(parts, ops, dt) == floor


def test_krylov_shift_of_a_datum_in_the_kernel_is_four_dt(strong_strong):
    # f0 = 1.5 f_star tracks q0 = sqrt(f_star) / 2, whose G q0 is roundoff
    # as rough as the grid; f0 = f_star has no part at all, so G q0 = 0
    # exactly and the ratio is never formed (a 0 / 0 would warn, and the
    # suite turns warnings into errors)
    _, grid, eq, ops = strong_strong
    for scale, sectors in ((1.5, 1), (1.0, 0)):
        parts = _tracked_parts(Field(scale * eq.f_star.values, grid), eq, ops)
        assert len(parts) == sectors
        assert evolution._krylov_shift(parts, ops, 0.02) == 0.08


def test_a_window_that_cannot_agree_above_four_dt_retries_at_four_dt(
        monkeypatch):
    # at gamma = 10 dt neither sector of the clipped shifted Gaussian on
    # exp_dense's box agrees on a sample; each is factored again at 4 dt
    # and sampled from there, and nothing factors I - dt G
    _, _, eq, ops = make_problem("power", 2.0, 8.0, 129, 8.0, 129,
                                 alpha=2.0)
    f0, dt = initial_shifted_gaussian(eq), 0.02
    monkeypatch.setattr(evolution, "_krylov_shift",
                        lambda parts, ops, dt: 10 * dt)
    factored = []
    real_lu = evolution.SectorLU

    def recording(ops, shift, scheme, signs):
        factored.append((shift, list(signs)))
        return real_lu(ops, shift, scheme, signs)

    monkeypatch.setattr(evolution, "SectorLU", recording)
    got, ref, _, windows = _krylov_and_stepped(f0, (dt, 8.0, 4), eq, ops,
                                               monkeypatch)
    assert factored == [(10 * dt, [1, -1]), (4 * dt, [1]), (4 * dt, [-1]),
                        (dt, [1, -1])]     # the last one is the reference's
    assert [agreed for _, agreed in windows][:1] == [0]
    assert sum(agreed for _, agreed in windows) == 2 * 100
    assert _worst_relative_gap(got, ref) <= 1e-10


def test_krylov_powers_past_a_lost_orthogonality_do_not_overflow(
        shift_at_four_dt, monkeypatch):
    # alpha = 0.5, beta = 1 on 97 x 49, 2000 steps: the first window's 31
    # rows lose mu-orthogonality and some Ritz values of its Hessenberg
    # matrix lie far outside the disc |z - 1/2| <= 1/2, so the powers of
    # the step overflow. That column never agrees, the suite's warnings are
    # errors, and the samples still match the stepping loop's
    _, _, eq, ops = make_problem("power", 1.0, 48.0, 97, 24.0, 49, tol=1e-5,
                                 alpha=0.5)
    got, ref, _, windows = _krylov_and_stepped(
        initial_bump(eq, 0.5), (0.02, 40.0, 25), eq, ops, monkeypatch)
    assert all(agreed > 0 for _, agreed in windows)
    assert got.times.size == 81
    assert _worst_relative_gap(got, ref) <= 1e-10


def _krylov_failure(eq, ops, monkeypatch, corrupt_from, corrupt,
                    max_basis=16):
    """The NumericalError of a Krylov run of windows of up to max_basis
    vectors whose solves are corrupted from call corrupt_from on, and the
    clean record."""
    schedule = (0.05, 10.0, 5)
    monkeypatch.setattr(evolution, "_MAX_BASIS", max_basis)
    clean = run_trajectory(initial_bump(eq, 0.5), schedule, "kinetic", eq,
                           ops, delta=0.3)
    real_solve = evolution.solve_with_refinement
    calls = {"n": 0}

    def flaky(lu, system, rhs, what):
        calls["n"] += 1
        sol = real_solve(lu, system, rhs, what)
        return corrupt(sol) if calls["n"] >= corrupt_from else sol

    monkeypatch.setattr(evolution, "solve_with_refinement", flaky)
    with pytest.raises(NumericalError) as err:
        run_trajectory(initial_bump(eq, 0.5), schedule, "kinetic", eq, ops,
                       delta=0.3)
    return err.value, clean


@pytest.mark.parametrize("corrupt, message", [
    (lambda sol: sol * np.nan, "non-finite state"),
    (lambda sol: sol + 1e-3, "mass drift"),
])
def test_krylov_abort_keeps_the_accepted_samples(strong_strong,
                                                 shift_at_four_dt,
                                                 monkeypatch, corrupt,
                                                 message):
    # the first window (16 solves) is clean; the second one goes bad
    _, _, eq, ops = strong_strong
    err, clean = _krylov_failure(eq, ops, monkeypatch, 17, corrupt)
    _check_abort(err, clean, message)


@pytest.mark.parametrize("corrupt, message", [
    (lambda sol: sol * np.nan, "non-finite state"),
    (lambda sol: sol + 1e-3, "mass drift"),
])
def test_krylov_abort_after_a_basis_window_keeps_its_samples(
        strong_strong, shift_at_four_dt, monkeypatch, corrupt, message):
    # the first window (32 solves) agrees on 32 samples and reads them in
    # its basis; the second one goes bad, so the run keeps those 32
    _, _, eq, ops = strong_strong
    windows = _spy(monkeypatch, evolution._WindowSampler, "window")
    err, clean = _krylov_failure(eq, ops, monkeypatch, 33, corrupt,
                                 max_basis=100)
    assert _basis_windows(windows)[:2] == [(32, 32)] * 2
    _check_abort(err, clean, message)
    assert err.partial_record.times.size == 33


def _check_abort(err, clean, message):
    """err's partial record is a leading part of the clean record, bit for
    bit, ending at its last good time."""
    assert message in str(err)
    partial = err.partial_record
    accepted = partial.times.size
    assert 2 <= accepted < clean.times.size
    assert err.last_good_time == partial.times[-1]
    assert np.array_equal(partial.times, clean.times[:accepted])
    for name in ("norm_sq_mu", "entropy_H", "dissipation_D"):
        assert np.array_equal(getattr(partial, name),
                              getattr(clean, name)[:accepted])
    assert np.all(np.isnan(partial.envelope))


def test_krylov_overflowing_diagnostic_aborts_at_its_sample(strong_strong,
                                                            monkeypatch):
    # the first window reads its samples in its basis; H and D come from
    # hypo.entropy_and_dissipation_from, for the initial sample (a one-row
    # window) as a block of one and for the window's 40 samples as blocks
    # of 32 and 8; row 3 of the first (t = 1) overflows
    _, _, eq, ops = strong_strong
    real_sample = hypo.entropy_and_dissipation_from
    sizes = []

    def overflowing(*args):
        h, d = real_sample(*args)
        sizes.append(h.size)
        if len(sizes) == 2:
            h[3] = np.inf
        return h, d

    monkeypatch.setattr(hypo, "entropy_and_dissipation_from", overflowing)
    with pytest.raises(NumericalError, match="non-finite sample at t = 1"
                       ) as err:
        run_trajectory(initial_bump(eq, 0.5), (0.05, 10.0, 5), "kinetic",
                       eq, ops, delta=0.3)
    assert sizes == [1, 32, 8]
    assert err.value.last_good_time == pytest.approx(0.75)
    assert list(err.value.partial_record.times) == pytest.approx(
        [0.0, 0.25, 0.5, 0.75])


# ---------------------------------------------------------------------------
# Krylov samples read in their window's basis
# ---------------------------------------------------------------------------

def _spy(monkeypatch, owner, name):
    """The (arguments, result) of every call of owner.name while the test
    runs (owner a module or a class)."""
    real = getattr(owner, name)
    calls = []

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, spy)
    return calls


def _basis_windows(windows):
    """The (m, samples) of the windows of more than one row among the calls
    of a spy on _WindowSampler.window: the Krylov windows read in their
    basis, leaving out the one-row windows of formed samples."""
    return [w.coeffs.shape for _, w in windows if w.coeffs.shape[0] > 1]


@pytest.mark.parametrize("kind, delta, windows_read", [
    ("bump", 0.3, [(32, 32)]),
    ("bump", 0.0, [(32, 32)]),
    # each sector's first window agrees on 10 samples with 32 vectors and
    # is formed; each second window is read in its basis
    ("shifted_gaussian", 0.3, [(29, 30), (24, 30)]),
    # at delta = 0, D is -<Lf, f> alone, small against ||L|| ||q||^2 late
    # in the run: its gap is 1.4e-13 (7.0e-13 with -W L_hat folded onto
    # the sector as the Gram form)
    ("shifted_gaussian", 0.0, [(29, 30), (24, 30)]),
])
def test_basis_windows_match_the_per_state_sampler(strong_strong,
                                                   shift_at_four_dt, kind,
                                                   delta, windows_read,
                                                   monkeypatch):
    # 200 steps on 65^2, 40 samples; the reference forms every window's
    # samples and reads each one on its own, as a one-row window; every
    # column agrees to 1e-12, and D to 3e-13
    _, _, eq, ops = strong_strong
    f0 = _DATA[kind](eq)
    schedule, powers = (0.05, 10.0, 5), ((2, 4), (2, 3))
    windows = _spy(monkeypatch, evolution._WindowSampler, "window")
    got = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=delta,
                         moment_powers=powers)
    monkeypatch.setattr(evolution, "_window_pays", lambda m, samples: False)
    ref = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=delta,
                         moment_powers=powers)
    assert _basis_windows(windows) == windows_read
    assert got.times.size == 41
    assert _worst_relative_gap(got, ref) <= 1e-12
    assert np.max(np.abs(got.dissipation_D - ref.dissipation_D)
                  / np.abs(ref.dissipation_D)) <= 3e-13


def test_flux_gram_matches_the_folded_collision_form(monkeypatch):
    # the shifted Gaussian's run on 33^2 reads one window of each sector in
    # its Krylov basis; the flux Gram form of the rows equals V (-W L_hat) V^T
    # with -W L_hat folded onto the sector, and a single row's equals the
    # v-flux sum of squares of the row on the full grid
    _, _, eq, ops = make_problem("power", 2.0, 8.0, 33, 8.0, 33, alpha=2.0)
    real = evolution._WindowSampler.window
    bases = []

    def recording(sampler, sign, basis, coeffs):
        bases.append((sampler, sign, basis.copy()))
        return real(sampler, sign, basis, coeffs)

    monkeypatch.setattr(evolution._WindowSampler, "window", recording)
    run_trajectory(initial_shifted_gaussian(eq), (0.05, 10.0, 5), "kinetic",
                   eq, ops)
    bases = [b for b in bases if b[2].shape[0] > 1]
    assert sorted(sign for _, sign, _ in bases) == [-1, 1]
    n = ops.sqrt_f.size
    minus_wl = sp.diags(-ops.w_flat) @ ops.L_hat
    for sampler, sign, basis in bases:
        ref = basis @ (fold_sector(minus_wl, sign) @ basis.T)
        gram = sampler._flux_gram(sign, basis)
        assert np.max(np.abs(gram - ref)) <= 1e-12 * np.max(np.abs(ref))
        for row in basis:
            flux = hypo.minus_lf_f(unfold({sign: row}, n), eq, ops)
            one = sampler._flux_gram(sign, row[None])
            assert one.shape == (1, 1)
            assert abs(one[0, 0] - flux) <= 1e-15 * flux


def test_exp_dense_takes_h_and_d_once_per_block(monkeypatch):
    # the exp_dense run (129^2, 1000 steps sampled every 2nd) reads its
    # 500 samples in two windows of 457 and 43: H and D come from one
    # entropy_and_dissipation_from call for the initial sample and one per
    # block of at most 32 samples, 18 calls instead of 501
    _, _, eq, ops = make_problem("power", 2.0, 8.0, 129, 8.0, 129,
                                 alpha=2.0)
    calls = _spy(monkeypatch, hypo, "entropy_and_dissipation_from")
    rec = run_trajectory(initial_bump(eq, 0.5), (0.02, 20.0, 2), "kinetic",
                         eq, ops, delta=0.3)
    assert rec.times.size == 501
    assert [h.size for _, (h, _) in calls] == (
        [1] + [32] * 14 + [9] + [32, 11])
    assert len(calls) == 18


def test_a_window_with_fewer_samples_than_vectors_is_formed(
        strong_strong, shift_at_four_dt, monkeypatch):
    # the bump's first window agrees on 32 samples with 32 vectors, its
    # restart window on 8 samples with 9 vectors: each of those 8 is formed
    # and read as a one-row window, as the initial sample is
    _, _, eq, ops = strong_strong
    rule = _spy(monkeypatch, evolution, "_window_pays")
    windows = _spy(monkeypatch, evolution._WindowSampler, "window")
    run_trajectory(initial_bump(eq, 0.5), (0.05, 10.0, 5), "kinetic", eq,
                   ops, delta=0.3)
    assert rule == [((32, 32), True), ((9, 8), False)]
    assert [w.coeffs.shape for _, w in windows] == (
        [(1, 1), (32, 32)] + [(1, 1)] * 8)


@pytest.mark.parametrize("ratio", [1.5, 3.0])
def test_max_principle_bound_never_certifies_a_violating_state(ratio,
                                                               monkeypatch):
    # random sector windows of one to four rows, concentrated where f_star
    # is large, with coefficients scaled to just inside the bound or
    # anywhere up to twice it; whenever the bound certifies a sample (no
    # pointwise check ran), the formed state keeps f <= C f_star + 1e-6 and
    # f >= -1e-6, and the flag always matches that pointwise truth
    _, grid, eq, ops = make_problem("power", 2.0, 8.0, 33, 8.0, 33,
                                    alpha=2.0)
    fstar = eq.f_star.values
    x, v = grid.x_grid.nodes[:, None], grid.v_grid.nodes[None, :]
    f0 = Field(fstar * (1.0 + (ratio - 1.0) * np.exp(-x ** 2 - v ** 2)),
               grid)
    cap = float(np.max(f0.values / fstar)) * fstar.ravel()
    assert cap[fstar.size // 2] / fstar.ravel()[fstar.size // 2] == ratio
    windows = evolution._kinetic_sampler(f0, eq, ops, 0.0, (), ())[3]
    pointwise = _spy(monkeypatch, evolution, "_max_principle_ok")
    n = fstar.size
    rng = np.random.default_rng(7)
    certified = 0
    for trial in range(300):
        signs = [[1], [-1], [1, -1]][trial % 3]
        rows = {sign: rng.standard_normal((1 + trial % 4, n // 2 + (sign > 0)))
                * ops.sqrt_f[:n // 2 + (sign > 0)] for sign in signs}
        coeffs = {sign: rng.standard_normal((r.shape[0], 1))
                  for sign, r in rows.items()}
        bound = sum(windows.window(sign, rows[sign],
                                   coeffs[sign]).shares[-1, 0]
                    for sign in signs)
        scale = (1.0 - 1e-9) / bound * (1.0 if trial % 2 else
                                        rng.uniform(0.5, 2.0))
        items = {sign: (windows.window(sign, rows[sign],
                                       scale * coeffs[sign]), 0)
                 for sign in signs}
        del pointwise[:]
        flag = windows.values(items)[0][5]
        q = unfold({sign: (scale * coeffs[sign][:, 0]) @ rows[sign]
                    for sign in signs}, n)
        f = fstar.ravel() + q * ops.sqrt_f
        truth = bool(np.max(f - cap) <= 1e-6 and np.min(f) >= -1e-6)
        if not pointwise:
            certified += 1
            assert truth, trial
        assert flag == truth, trial
    assert certified >= 150


def test_a_bound_that_fails_near_the_start_falls_back_to_pointwise(
        strong_strong, monkeypatch):
    # criterion 9's datum (C = 2) on 65^2, every sample read in a basis:
    # the even window (32 vectors, 100 samples) and the odd ones (32, 47
    # and 18, 53). Its f - f_star keeps mass, and the bound's sum over 32
    # rows stays above 1 from t = 0 on, so every sample is formed (one part
    # per sector) and checked pointwise; every flag matches the run that
    # reads each sample as a one-row window
    _, grid, eq, ops = strong_strong
    x, v = grid.x_grid.nodes[:, None], grid.v_grid.nodes[None, :]
    bump = np.exp(-((x - 1.0) ** 2 + (v - 1.0) ** 2) / 2.0)
    f0 = Field(np.minimum(eq.f_star.values * (1.0 + 1.5 * bump),
                          2.0 * eq.f_star.values), grid)
    schedule = (0.05, 10.0, 2)
    windows = _spy(monkeypatch, evolution._WindowSampler, "window")
    formed = _spy(monkeypatch, evolution._Window, "part")
    got = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=0.3)
    monkeypatch.setattr(evolution, "_window_pays", lambda m, samples: False)
    ref = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=0.3)
    assert _basis_windows(windows) == [(32, 100), (32, 47), (18, 53)]
    even, odd = [w for _, w in windows if w.coeffs.shape[0] > 1][:2]
    assert even.shares[-1, 0] + odd.shares[-1, 0] > 1.0
    assert len([w for (w, _), _ in formed if w.coeffs.shape[0] > 1]
               ) == 2 * 100
    assert np.array_equal(got.max_principle_ok, ref.max_principle_ok)
    assert np.all(got.max_principle_ok)


def test_a_sample_whose_combined_residual_fails_is_solved_again(
        strong_strong, shift_at_four_dt, monkeypatch):
    # no sample of these runs fails the combined 1e-10 residual check, so
    # every 7th sample of each block of 32 is marked as failing: the bump's
    # windows (32 vectors, 80 samples; 9, 20) mark 5 + 5 + 3 and 3. Each is
    # solved again on its own, and the record matches the run that reads
    # each sample as a one-row window
    _, _, eq, ops = strong_strong
    real_stalls = evolution.residual_stalls

    def stalling(residual, scale, axis):
        stalled = real_stalls(residual, scale, axis)
        assert not stalled.any()
        stalled[::7] = True
        return stalled

    monkeypatch.setattr(evolution, "residual_stalls", stalling)
    solves = _spy(monkeypatch, operators, "solve_elliptic")
    f0, schedule = initial_bump(eq, 0.5), (0.05, 10.0, 2)
    got = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=0.3)
    assert [rhs.shape[1] for (rhs, _), _ in solves] == (
        [4, 4 * 32] + [4] * 13 + [4 * 9] + [4] * 3)
    monkeypatch.setattr(evolution, "_window_pays", lambda m, samples: False)
    ref = run_trajectory(f0, schedule, "kinetic", eq, ops, delta=0.3)
    assert _worst_relative_gap(got, ref) <= 1e-12
