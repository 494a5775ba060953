"""Field-space reference for the q-space operators of kfplab.

kfplab computes in q = f/sqrt(f_star) coordinates only: OperatorSet's
T_hat and L_hat, operators.q_profiles and operators.solve_elliptic, and
the sector-folded step systems of evolution. This module writes the same
L2(dmu) algebra, dmu = dx dv / f_star, directly on Field and DensityField
objects: the weighted inner product, norms and moments, T and L applied to
a field, the projection Pi, the twist operator A and single implicit steps.
The tests and the acceptance criteria state the paper's invariants through
these functions, so they check the q-space code against an independent
reading of every operator.

The mu-weights w_ij / f_star_ij are formed on each call (mu_weight), and
operators and evolution are looked up through their modules at each call,
so that a wrapper a test installs there sees every elliptic solve and
every factored kinetic step. A macro step factors I - dt G itself, with
G the stored macro generator, and solves through
operators.solve_with_refinement: no code of evolution takes part, so it
is an independent reference for the closed-form macro samples.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from kfplab import evolution, operators
from kfplab.errors import (GridMismatchError, InvalidEquilibriumError,
                           ValidationError)
from kfplab.grids import DensityField, Field, velocity_weight


def mu_weight(eq):
    """The trapezoid-corrected weights w_ij / f_star_ij of dmu."""
    return eq.grid.weight_matrix / eq.f_star.values


# ---------------------------------------------------------------------------
# weighted inner products and moments
# ---------------------------------------------------------------------------

def _check_compatible(f, eq):
    if f.grid is not eq.grid and f.grid.shape != eq.grid.shape:
        raise GridMismatchError("field and equilibrium live on different grids")
    if eq.min_f_star <= 0.0:
        raise InvalidEquilibriumError("f_star must be positive at every node")


def inner_product_mu(f, g, eq):
    """<f, g>_mu = sum_ij w_ij f_ij g_ij / f_star_ij (trapezoid-corrected)."""
    _check_compatible(f, eq)
    _check_compatible(g, eq)
    return float(np.sum(mu_weight(eq) * f.values * g.values))


def norm_mu(f, eq):
    return np.sqrt(max(inner_product_mu(f, f, eq), 0.0))


def norm_beta(f, beta, eq):
    """|| f ||_beta, the L2(<v>^{-2(1-beta)_+} dmu) norm; equals ||f||_mu for beta >= 1."""
    if beta <= 0:
        raise ValidationError("beta must be positive")
    _check_compatible(f, eq)
    if beta >= 1.0:
        return norm_mu(f, eq)
    wv = velocity_weight(beta, eq.grid.v_grid.nodes)
    val = np.sum(mu_weight(eq) * f.values ** 2 * wv[np.newaxis, :])
    return float(np.sqrt(max(val, 0.0)))


def weighted_moment(f, variable, power, eq):
    """J_k (variable='x') or K_l (variable='v'): integral of |f|^2 <.>^power dmu.

    power = 0 returns ||f||_mu^2 for either variable.
    """
    power = float(power)
    if power < 0:
        raise ValidationError("moment power must be >= 0")
    _check_compatible(f, eq)
    if variable == "x":
        nodes = eq.grid.x_grid.nodes
        bracket = np.sqrt(1.0 + nodes ** 2) ** power
        return float(np.sum(mu_weight(eq) * f.values ** 2 * bracket[:, np.newaxis]))
    if variable == "v":
        nodes = eq.grid.v_grid.nodes
        bracket = np.sqrt(1.0 + nodes ** 2) ** power
        return float(np.sum(mu_weight(eq) * f.values ** 2 * bracket[np.newaxis, :]))
    raise ValidationError("variable must be 'x' or 'v'")


def total_mass(f, eq):
    """Plain quadrature of f over the box (no mu weight)."""
    _check_compatible(f, eq)
    return float(np.sum(f.grid.weight_matrix * f.values))


# ---------------------------------------------------------------------------
# transport, collision, projection, twist operator
# ---------------------------------------------------------------------------

def apply_collision(ops, f):
    return Field((ops.L_hat @ (f.values.ravel() / ops.sqrt_f)
                  * ops.sqrt_f).reshape(f.grid.shape), f.grid)


def apply_transport(ops, f):
    return Field((ops.T_hat @ (f.values.ravel() / ops.sqrt_f)
                  * ops.sqrt_f).reshape(f.grid.shape), f.grid)


def apply_Pi(f, eq):
    """Pi f = rho_f(x) g_star(v)/int(g_star): idempotent, self-adjoint in dmu."""
    rho_f = f.values @ eq.grid.v_grid.weights
    return Field(np.outer(rho_f, eq.g_hat), f.grid)


def macro_profile(f, eq):
    """u with Pi f = u f_star (the local-equilibrium coefficient of f)."""
    rho_f = f.values @ eq.grid.v_grid.weights
    return DensityField(rho_f / (eq.g_mass * eq.rho_star.values), eq.grid.x_grid)


def apply_A(f, eq, ops):
    """A f = (1 + (TPi)*(TPi))^-1 (TPi)* f, returned as the field u f_star."""
    b_q = operators.q_profiles(f.values.ravel() / ops.sqrt_f, ops)[1]
    u = operators.solve_elliptic(b_q, ops)
    return Field(u[:, np.newaxis] * eq.f_star.values, f.grid)


# ---------------------------------------------------------------------------
# single implicit steps
# ---------------------------------------------------------------------------

def full_step_matrices(gen, dt, scheme):
    """(system, rhs_mat) of one kinetic step of the generator gen on the
    full grid, by sparse sums: I - h gen and, for Crank-Nicolson
    (h = dt / 2), I + h gen; rhs_mat is None for implicit Euler."""
    eye = sp.identity(gen.shape[0], format="csr")
    if scheme == "implicit_euler":
        return eye - dt * gen, None
    return eye - 0.5 * dt * gen, eye + 0.5 * dt * gen


def step_factors(ops, dt, scheme, signs):
    """{sign: evolution.sector_lu} of one kinetic step of (dt, scheme) for
    each sign in signs, each a shift of its sector generator."""
    return {sign: evolution.sector_lu(gen, dt, scheme)
            for sign, gen in evolution.sector_generators(ops, signs).items()}


def step_kinetic(f, dt, eq, ops, scheme="implicit_euler"):
    """One implicit step of df/dt + Tf = Lf; mass-conservative by construction."""
    parts = evolution.fold(f.values.ravel() / ops.sqrt_f)
    q = evolution.unfold(evolution.advance(
        parts, step_factors(ops, dt, scheme, parts), "kinetic step"),
        ops.sqrt_f.size)
    return Field((q * ops.sqrt_f).reshape(f.grid.shape), f.grid)


def macro_step_lu(ops, dt):
    """(factor, system) of one implicit-Euler step of the macroscopic
    Fokker-Planck equation, system = I - dt G as CSR with G the stored
    macro generator."""
    gen = ops.macro_generator
    system = (sp.identity(gen.shape[0], format="csr") - dt * gen).tocsr()
    return splu(system.tocsc()), system


def step_macro(rho, dt, eq, ops, scheme="implicit_euler"):
    """One implicit-Euler step of the macroscopic Fokker-Planck equation;
    ValidationError for another scheme."""
    if scheme != "implicit_euler":
        raise ValidationError("macro stepping supports implicit_euler only")
    factor, system = macro_step_lu(ops, dt)
    return DensityField(operators.solve_with_refinement(
        factor, system, rho.values, "macro step"), eq.grid.x_grid)
