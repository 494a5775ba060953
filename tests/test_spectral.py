"""Functional-inequality constants: pencil oracles, ladders, feasibility."""

import numpy as np
import pytest
import scipy.linalg as sla

import kfplab.spectral
from kfplab import (
    DensityField,
    Grid1D,
    NumericalError,
    PotentialSpec,
    ValidationError,
    ckn_constant_estimate,
    ckn_exponent,
    eval_potential,
    hardy_poincare_constant,
    inequality_ratio,
    nash_constant_estimate,
    pencil_min_eig,
    poincare_constant,
    weighted_poincare_constant,
)
from kfplab.operators import flux_stiffness
from kfplab.spectral import _stiffness_1d, macroscopic_gap


# ---------------------------------------------------------------------------
# pencil eigensolver oracles
# ---------------------------------------------------------------------------

def test_pencil_against_dense_reduction():
    # project onto the constraint's null space and call a dense solver
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = 12
        a = rng.standard_normal((n, n))
        stiff = a.T @ a + 0.1 * np.eye(n)
        mass = rng.uniform(0.5, 1.5, n)
        c = rng.uniform(0.1, 1.0, n)
        lam = pencil_min_eig(stiff, mass, c)
        z = sla.null_space(c.reshape(1, n))
        w = sla.eigh(z.T @ stiff @ z, z.T @ np.diag(mass) @ z,
                     eigvals_only=True)
        assert lam == pytest.approx(w[0], rel=1e-12)


def test_pencil_neumann_closed_form():
    # uniform weights: the pencil is the vertex-centered Neumann Laplacian,
    # whose smallest nonzero eigenvalue is (4/dx^2) sin^2(pi / (2 (n-1)))
    g = Grid1D(3.0, 33)
    stiff = _stiffness_1d(g, np.ones(g.count - 1))
    lam = pencil_min_eig(stiff, g.weights, g.weights)
    n_faces = g.count - 1
    exact = (4.0 / g.spacing ** 2) * np.sin(np.pi / (2 * n_faces)) ** 2
    assert lam == pytest.approx(exact, rel=1e-12)


def test_pencil_measure_scaling_invariance():
    # scaling the measure scales both forms and the deflation weight
    g = Grid1D(4.0, 65)
    w = np.exp(-0.5 * (0.5 * (g.nodes[:-1] + g.nodes[1:])) ** 2)
    stiff = _stiffness_1d(g, w)
    mass = g.weights * np.exp(-0.5 * g.nodes ** 2)
    lam = pencil_min_eig(stiff, mass, mass)
    c = 3.7
    lam_scaled = pencil_min_eig(stiff.multiply(c), c * mass, c * mass)
    assert lam_scaled == pytest.approx(lam, rel=1e-10)


def test_pencil_rejects_zero_sum_constraint():
    g = Grid1D(2.0, 9)
    stiff = _stiffness_1d(g, np.ones(g.count - 1))
    with pytest.raises(ValidationError):
        pencil_min_eig(stiff, g.weights, np.linspace(-1.0, 1.0, g.count))


def test_pencil_rejects_indefinite_mass_deflated_stiffness():
    # one negative face weight keeps S symmetric with S 1 = 0 but gives it
    # a negative eigenvalue below the constant mode's zero
    g = Grid1D(2.0, 9)
    weights = np.ones(g.count - 1)
    weights[3] = -2.0
    with pytest.raises(NumericalError, match="constant mode"):
        pencil_min_eig(flux_stiffness(g, weights), g.weights, g.weights)


def test_pencil_rejects_indefinite_bordered_stiffness():
    # the same negative face weight under a constraint other than the mass:
    # the smallest eigenvalue on the hyperplane is negative, and no nearer
    # positive one may stand in for it
    g = Grid1D(2.0, 9)
    weights = np.ones(g.count - 1)
    weights[3] = -2.0
    c = g.weights * np.linspace(1.0, 2.0, g.count)
    with pytest.raises(NumericalError, match="not positive"):
        pencil_min_eig(flux_stiffness(g, weights), g.weights, c)


def test_bordered_pencil_solves_through_the_checked_path(monkeypatch):
    # the bordered solve goes through solve_with_refinement, so a residual
    # that stalls raises; the mass-deflated path solves nothing
    g = Grid1D(2.0, 9)
    stiff = flux_stiffness(g, np.ones(g.count - 1))

    def stalled(lu, system, rhs, what):
        raise NumericalError("%s solve stalled" % what)

    monkeypatch.setattr(kfplab.spectral, "solve_with_refinement", stalled)
    with pytest.raises(NumericalError, match="bordered pencil"):
        pencil_min_eig(stiff, g.weights,
                       g.weights * np.linspace(1.0, 2.0, g.count))
    assert pencil_min_eig(stiff, g.weights, g.weights) > 0.0


def test_pencil_rejects_nonsymmetric_stiffness_and_nonpositive_mass():
    # on either path: the mass itself as the constraint, or another weight
    g = Grid1D(2.0, 9)
    stiff = flux_stiffness(g, np.ones(g.count - 1))
    skewed = stiff.tolil()
    skewed[2, 3] += 0.5
    mass = g.weights
    for c in (mass, mass * np.linspace(1.0, 2.0, g.count)):
        with pytest.raises(ValidationError, match="symmetric"):
            pencil_min_eig(skewed.tocsr(), mass, c)
        with pytest.raises(ValidationError, match="positive mass"):
            pencil_min_eig(stiff, np.where(np.arange(g.count) == 4, 0.0, mass),
                           c)


def test_macroscopic_gap_matches_dense_reference(quadrants):
    # lambda_M is the second eigenvalue of Mrho^-1/2 N_sym Mrho^-1/2; that
    # spectrum comes in pairs, and on the alpha = 0.5 boxes the next pair is
    # only 0.4 % higher, so the banded solve must resolve a close pair
    for key, (_, _, _, ops) in quadrants.items():
        scale = 1.0 / np.sqrt(ops.mrho)
        dense = ops.N_sym.toarray() * np.outer(scale, scale)
        reference = np.linalg.eigvalsh(0.5 * (dense + dense.T))[1]
        assert macroscopic_gap(ops) == pytest.approx(reference, rel=1e-12), key


# ---------------------------------------------------------------------------
# eigenvalue-type constants
# ---------------------------------------------------------------------------

def test_gaussian_poincare_constant():
    spec = PotentialSpec("power", 2.0, alpha=2.0)
    est = poincare_constant(spec, Grid1D(8.0, 129))
    assert est.kind == "poincare"
    assert est.converged
    assert est.constant == pytest.approx(1.0, abs=0.02)


def test_poincare_velocity_variable():
    spec = PotentialSpec("power", 2.0, alpha=2.0)
    est = poincare_constant(spec, Grid1D(8.0, 129), variable="v")
    # beta = 2 is the same Gaussian measure: unit gap again
    assert est.constant == pytest.approx(1.0, abs=0.02)


def test_weighted_poincare_constant():
    est = weighted_poincare_constant(0.5, Grid1D(48.0, 193))
    assert est.kind == "weighted_poincare"
    assert est.constant > 0.0
    assert est.converged
    # regression anchor for the frozen configuration
    assert est.constant == pytest.approx(0.36674760, rel=1e-3)


def test_weighted_poincare_continuity_at_alpha_one():
    # alpha -> 1 should approach the plain Poincare constant of e^{-phi}
    wp = weighted_poincare_constant(0.95, Grid1D(24.0, 129))
    spec = PotentialSpec("power", 2.0, alpha=1.0)
    p = poincare_constant(spec, Grid1D(24.0, 129))
    assert abs(wp.constant - p.constant) / p.constant < 0.2


def test_hardy_poincare_constant():
    est = hardy_poincare_constant(3.0, 1.0, Grid1D(48.0, 193))
    assert est.kind == "hardy_poincare"
    assert est.constant > 0.0
    assert est.converged
    assert est.constant == pytest.approx(2.01454865, rel=1e-3)
    # the alternative average is a different, also positive constant
    alt = hardy_poincare_constant(3.0, 1.0, Grid1D(48.0, 193), average="lhs")
    assert alt.constant > 0.0


def test_hardy_poincare_validation():
    g = Grid1D(8.0, 65)
    with pytest.raises(ValidationError):
        hardy_poincare_constant(0.5, 1.0, g)       # gamma <= d
    with pytest.raises(ValidationError):
        hardy_poincare_constant(3.0, 0.0, g)       # k <= 0
    with pytest.raises(ValidationError):
        hardy_poincare_constant(3.0, 4.0, g)       # k >= gamma + 2 - d
    with pytest.raises(ValidationError):
        hardy_poincare_constant(3.0, 1.0, g, average="median")


def test_domain_monotonicity_of_eigen_constants():
    # infima over larger function classes can only shrink; compare boxes
    # with the same spacing
    spec = PotentialSpec("power", 2.0, alpha=2.0)
    p6 = poincare_constant(spec, Grid1D(6.0, 97)).constant
    p8 = poincare_constant(spec, Grid1D(8.0, 129)).constant
    assert p8 <= p6 + 1e-8
    w6 = weighted_poincare_constant(0.5, Grid1D(36.0, 145)).constant
    w8 = weighted_poincare_constant(0.5, Grid1D(48.0, 193)).constant
    assert w8 <= w6 + 1e-8
    h6 = hardy_poincare_constant(3.0, 1.0, Grid1D(36.0, 145)).constant
    h8 = hardy_poincare_constant(3.0, 1.0, Grid1D(48.0, 193)).constant
    assert h8 <= h6 + 1e-8


def _poincare_forms(spec, grid):
    """The estimator's own discrete forms: midpoint faces, trapezoid mass."""
    mid = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    face = np.exp(-np.array([eval_potential(spec, "x", m) for m in mid]))
    mass = grid.weights * np.exp(
        -np.array([eval_potential(spec, "x", p) for p in grid.nodes]))
    return face, mass


def test_poincare_feasibility_on_random_functions():
    # 20 random test functions cannot beat the pencil minimum
    spec = PotentialSpec("power", 2.0, alpha=2.0)
    grid = Grid1D(8.0, 129)
    est = poincare_constant(spec, grid)
    fine = grid.refine().refine()  # the ladder's finest grid
    face, mass = _poincare_forms(spec, fine)
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = rng.standard_normal(fine.count)
        ubar = np.sum(mass * u) / np.sum(mass)
        num = np.sum(face * np.diff(u) ** 2 / fine.spacing)
        den = np.sum(mass * (u - ubar) ** 2)
        assert num >= est.constant * den * (1.0 - 1e-8)


def test_weighted_and_hardy_feasibility():
    grid = Grid1D(48.0, 193)
    fine = grid.refine().refine()
    mid = 0.5 * (fine.nodes[:-1] + fine.nodes[1:])
    bracket_mid = np.sqrt(1.0 + mid ** 2)
    bracket = np.sqrt(1.0 + fine.nodes ** 2)
    rng = np.random.default_rng(23)

    # weighted Poincare, alpha = 0.5: weights e^{-phi} and <x>^{2(alpha-1)} e^{-phi}
    est_w = weighted_poincare_constant(0.5, grid)
    spec = PotentialSpec("power", 2.0, alpha=0.5)
    phi_mid = np.array([eval_potential(spec, "x", m) for m in mid])
    phi = np.array([eval_potential(spec, "x", p) for p in fine.nodes])
    face_w = np.exp(-phi_mid)
    mass_w = fine.weights * bracket ** (-1.0) * np.exp(-phi)
    for _ in range(20):
        u = rng.standard_normal(fine.count)
        ubar = np.sum(mass_w * u) / np.sum(mass_w)
        num = np.sum(face_w * np.diff(u) ** 2 / fine.spacing)
        den = np.sum(mass_w * (u - ubar) ** 2)
        assert num >= est_w.constant * den * (1.0 - 1e-8)

    # Hardy-Poincare, gamma = 3, k = 1: weights <x>^{k-gamma}, <x>^{k-2-gamma}
    est_h = hardy_poincare_constant(3.0, 1.0, grid)
    face_h = bracket_mid ** (-2.0)
    mass_h = fine.weights * bracket ** (-4.0)
    for _ in range(20):
        u = rng.standard_normal(fine.count)
        ubar = np.sum(mass_h * u) / np.sum(mass_h)
        num = np.sum(face_h * np.diff(u) ** 2 / fine.spacing)
        den = np.sum(mass_h * (u - ubar) ** 2)
        assert num >= est_h.constant * den * (1.0 - 1e-8)


# ---------------------------------------------------------------------------
# nash / ckn ratio estimates
# ---------------------------------------------------------------------------

def test_nash_ratio_dilation_invariance():
    # exponent bookkeeping makes the ratio scale-free; a wide box keeps the
    # truncation error below the 1e-6 target
    g = Grid1D(16.0, 8193)
    base = inequality_ratio("nash", DensityField(np.exp(-g.nodes ** 2 / 2), g))
    dil = inequality_ratio(
        "nash", DensityField(np.exp(-(1.7 * g.nodes) ** 2 / 2), g))
    assert abs(base - dil) / base < 1e-6


def test_nash_family_max_dominates_gaussian():
    g = Grid1D(8.0, 257)
    est = nash_constant_estimate(g)
    fine = g.refine().refine()
    gauss = inequality_ratio(
        "nash", DensityField(np.exp(-fine.nodes ** 2 / 2), fine))
    assert est.constant >= gauss
    assert est.converged
    assert est.constant == pytest.approx(0.938769, rel=1e-3)


def test_nash_ckn_feasibility_on_random_mixtures():
    # random box-localized bump mixtures stay below the family maximum
    # (near-constant profiles are excluded: on a truncated box they send
    # the gradient to zero at fixed mass and the box ratio degenerates)
    g = Grid1D(8.0, 257)
    fine = g.refine().refine()
    est_n = nash_constant_estimate(g)
    est_c = ckn_constant_estimate(2.0, 0.5, g)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = np.zeros(fine.count)
        for _ in range(3):
            c0 = rng.uniform(-8.0, 8.0)
            s = rng.uniform(0.3, 3.0)
            a = rng.uniform(0.2, 1.0)
            u += a * np.exp(-(fine.nodes - c0) ** 2 / (2.0 * s * s))
        d = DensityField(u, fine)
        assert inequality_ratio("nash", d) <= est_n.constant * (1.0 + 1e-8)
        assert inequality_ratio("ckn", d, params=(2.0, 0.5)) \
            <= est_c.constant * (1.0 + 1e-8)


def test_ckn_exponent_arithmetic():
    # a = (d + 2k - gamma) / (d + 2 + 2k - gamma); gamma = 0 reduces to the
    # nash bookkeeping
    assert ckn_exponent(2.0, 0.0, d=1) == pytest.approx(5.0 / 7.0, rel=1e-15)
    a = ckn_exponent(2.0, 0.5, d=1)
    assert 0.0 < a < 1.0
    with pytest.raises(ValidationError):
        ckn_exponent(0.0, 6.0, d=1)


def test_inequality_ratio_validation():
    g = Grid1D(4.0, 33)
    with pytest.raises(ValidationError):
        inequality_ratio("poincare", DensityField(np.ones(g.count), g))
    with pytest.raises(ValidationError):
        inequality_ratio("nash", DensityField(np.zeros(g.count), g))
    with pytest.raises(ValidationError):
        neg = DensityField(np.linspace(-1.0, 1.0, g.count), g)
        inequality_ratio("nash", neg)
