"""Shared fixtures: one representative problem per (alpha, beta) quadrant,
and the Krylov shift pinned at its floor.

The boxes are the smallest ones that pass the truncation check in each
regime (beta = 0.5 tails need V = 48, alpha = 0.5 tails need X = 48);
session scope keeps the sparse assembly out of the per-test cost.
"""

import pytest

from kfplab import (Grid1D, PhaseGrid, PotentialSpec, assemble,
                    build_equilibrium, evolution)


def make_problem(x_mode, beta, x_half, nx, v_half, nv, tol=1e-8, **kwargs):
    spec = PotentialSpec(x_mode, beta, **kwargs)
    grid = PhaseGrid(Grid1D(x_half, nx), Grid1D(v_half, nv))
    eq = build_equilibrium(spec, grid, truncation_tol=tol)
    ops = assemble(eq)
    return spec, grid, eq, ops


@pytest.fixture(scope="session")
def strong_strong():
    # alpha = 2, beta = 2: exponential regime, Gaussian-type tails
    return make_problem("power", 2.0, 8.0, 65, 8.0, 65, alpha=2.0)


@pytest.fixture(scope="session")
def strong_weak():
    # alpha = 2, beta = 0.5: subexponential velocity tails
    return make_problem("power", 0.5, 8.0, 65, 48.0, 193, tol=1e-5, alpha=2.0)


@pytest.fixture(scope="session")
def weak_strong():
    # alpha = 0.5, beta = 2: weak confinement in x
    return make_problem("power", 2.0, 48.0, 193, 8.0, 65, tol=1e-5, alpha=0.5)


@pytest.fixture(scope="session")
def weak_weak():
    # alpha = 0.5, beta = 0.5: both tails heavy
    return make_problem("power", 0.5, 48.0, 193, 48.0, 193, tol=1e-5,
                        alpha=0.5)


@pytest.fixture(scope="session")
def quadrants(strong_strong, strong_weak, weak_strong, weak_weak):
    return {
        (2.0, 2.0): strong_strong,
        (2.0, 0.5): strong_weak,
        (0.5, 2.0): weak_strong,
        (0.5, 0.5): weak_weak,
    }


@pytest.fixture
def shift_at_four_dt(monkeypatch):
    # every Krylov run factors I - 4 dt G, the floor of the shift rule: the
    # window structure a test builds (basis sizes, sample counts, solve
    # counts) then does not follow the datum's time scale
    monkeypatch.setattr(evolution, "_krylov_shift",
                        lambda parts, ops, dt: evolution._SHIFT_STEPS * dt)
