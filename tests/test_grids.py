"""Grids, fields, and the weighted inner products of the Field oracle."""

import numpy as np
import pytest

from kfplab import (
    DensityField,
    Field,
    Grid1D,
    GridMismatchError,
    PhaseGrid,
    ValidationError,
    velocity_weight,
)
from field_oracle import (inner_product_mu, norm_beta, norm_mu, total_mass,
                          weighted_moment)


def test_grid1d_nodes_and_weights():
    g = Grid1D(4.0, 9)
    assert g.count == 9
    assert g.spacing == pytest.approx(1.0)
    assert g.nodes[0] == -4.0 and g.nodes[-1] == 4.0
    assert g.nodes[4] == 0.0
    # exact mirror symmetry, not just approximate
    assert np.all(g.nodes == -g.nodes[::-1])
    # trapezoid: half weights at the ends, total = box length
    assert g.weights[0] == pytest.approx(0.5)
    assert g.weights[3] == pytest.approx(1.0)
    assert g.weights.sum() == pytest.approx(8.0)


def test_grid1d_validation():
    with pytest.raises(ValidationError):
        Grid1D(4.0, 8)  # even count: 0 would not be a node
    with pytest.raises(ValidationError):
        Grid1D(4.0, 1)
    with pytest.raises(ValidationError):
        Grid1D(0.0, 9)


def test_grid1d_refine_nests():
    g = Grid1D(3.0, 17)
    r = g.refine()
    assert r.count == 33
    assert r.half_width == g.half_width
    assert r.spacing == pytest.approx(0.5 * g.spacing)
    assert np.allclose(r.nodes[::2], g.nodes)


def test_grid1d_immutable():
    g = Grid1D(2.0, 5)
    with pytest.raises(ValueError):
        g.nodes[0] = 7.0


def test_phase_grid_weight_matrix():
    pg = PhaseGrid(Grid1D(2.0, 5), Grid1D(3.0, 7))
    assert pg.shape == (5, 7)
    assert np.allclose(pg.weight_matrix,
                       np.outer(pg.x_grid.weights, pg.v_grid.weights))
    assert pg.weight_matrix.sum() == pytest.approx(4.0 * 6.0)


def test_field_shape_checks():
    pg = PhaseGrid(Grid1D(2.0, 5), Grid1D(3.0, 7))
    with pytest.raises(GridMismatchError):
        Field(np.zeros((7, 5)), pg)
    with pytest.raises(ValidationError):
        Field(np.full(pg.shape, np.nan), pg)
    with pytest.raises(GridMismatchError):
        DensityField(np.zeros(6), pg.x_grid)


def test_inner_product_bilinear_and_symmetric(strong_strong):
    _, grid, eq, _ = strong_strong
    rng = np.random.default_rng(42)
    sqrt_f = np.sqrt(eq.f_star.values)
    for _ in range(10):
        a = Field(rng.standard_normal(grid.shape) * sqrt_f, grid)
        b = Field(rng.standard_normal(grid.shape) * sqrt_f, grid)
        c = Field(rng.standard_normal(grid.shape) * sqrt_f, grid)
        ab = inner_product_mu(a, b, eq)
        assert ab == pytest.approx(inner_product_mu(b, a, eq), rel=1e-12)
        lin = inner_product_mu(Field(2.0 * a.values + c.values, grid), b, eq)
        assert lin == pytest.approx(2.0 * ab + inner_product_mu(c, b, eq),
                                    rel=1e-10)
        assert inner_product_mu(a, a, eq) >= 0.0
        assert norm_mu(a, eq) == pytest.approx(np.sqrt(inner_product_mu(a, a, eq)))


def test_velocity_weight_branches():
    v = np.linspace(-3.0, 3.0, 13)
    assert np.all(velocity_weight(2.0, v) == 1.0)
    assert np.all(velocity_weight(1.0, v) == 1.0)
    w = velocity_weight(0.5, v)
    assert np.allclose(w, (1.0 + v ** 2) ** (-0.5))
    assert np.all(w <= 1.0)


def test_norm_beta_branches(strong_strong, strong_weak):
    _, grid, eq, _ = strong_strong
    rng = np.random.default_rng(7)
    f = Field(rng.standard_normal(grid.shape) * np.sqrt(eq.f_star.values), grid)
    # beta >= 1: the beta-norm IS the mu-norm
    assert norm_beta(f, 2.0, eq) == pytest.approx(norm_mu(f, eq), rel=1e-14)

    _, grid_w, eq_w, _ = strong_weak
    g = Field(rng.standard_normal(grid_w.shape) * np.sqrt(eq_w.f_star.values),
              grid_w)
    wv = velocity_weight(0.5, grid_w.v_grid.nodes)
    mu_weight = eq_w.grid.weight_matrix / eq_w.f_star.values
    manual = np.sqrt(np.sum(mu_weight * g.values ** 2 * wv[None, :]))
    assert norm_beta(g, 0.5, eq_w) == pytest.approx(manual, rel=1e-12)
    assert norm_beta(g, 0.5, eq_w) <= norm_mu(g, eq_w)
    with pytest.raises(ValidationError):
        norm_beta(g, 0.0, eq_w)


def test_weighted_moment_power_zero_is_norm(strong_strong):
    _, grid, eq, _ = strong_strong
    rng = np.random.default_rng(3)
    f = Field(rng.standard_normal(grid.shape) * np.sqrt(eq.f_star.values), grid)
    n2 = norm_mu(f, eq) ** 2
    assert weighted_moment(f, "x", 0.0, eq) == pytest.approx(n2, rel=1e-12)
    assert weighted_moment(f, "v", 0.0, eq) == pytest.approx(n2, rel=1e-12)
    # <.> >= 1, so any positive power can only grow the integral
    assert weighted_moment(f, "x", 2.0, eq) >= n2
    with pytest.raises(ValidationError):
        weighted_moment(f, "x", -1.0, eq)
    with pytest.raises(ValidationError):
        weighted_moment(f, "y", 2.0, eq)


def test_total_mass_of_equilibrium(strong_strong):
    # f_star is normalized against the same discrete quadrature
    _, _, eq, _ = strong_strong
    assert total_mass(eq.f_star, eq) == pytest.approx(1.0, abs=1e-12)
