"""Discrete phase space, trapezoid quadrature, and the velocity norm weight.

Everything downstream lives in L2(dmu) with dmu = dx dv / f_star(x,v) on the
truncated box [-X, X] x [-V, V]. Grids are uniform with an odd node count so
that 0 is a node and the v-grid is exactly symmetric; odd-in-v quadratures
then vanish to roundoff, which is what makes the discrete parabolic condition
Pi T Pi = 0 hold. Products in L2(dmu) are trapezoid sums in q = f/sqrt(f_star)
coordinates (operators.py).
"""

import numpy as np

from .errors import GridMismatchError, ValidationError


class Grid1D:
    """Uniform symmetric grid on [-half_width, half_width] with trapezoid weights."""

    def __init__(self, half_width, count):
        half_width = float(half_width)
        count = int(count)
        if half_width <= 0:
            raise ValidationError("half_width must be positive")
        if count < 3 or count % 2 == 0:
            raise ValidationError("count must be odd and >= 3 so that 0 is a node")
        self.half_width = half_width
        self.count = count
        self.spacing = 2.0 * half_width / (count - 1)
        # build the right half and mirror it so node(i) == -node(count-1-i) exactly
        m = (count - 1) // 2
        right = self.spacing * np.arange(m + 1)
        nodes = np.concatenate([-right[:0:-1], right])
        weights = np.full(count, self.spacing)
        weights[0] = weights[-1] = 0.5 * self.spacing
        nodes.setflags(write=False)
        weights.setflags(write=False)
        self.nodes = nodes
        self.weights = weights

    def refine(self):
        # same box, halved spacing (count 2n-1 keeps the nodes nested)
        return Grid1D(self.half_width, 2 * self.count - 1)

    def __repr__(self):
        return "Grid1D(half_width=%g, count=%d)" % (self.half_width, self.count)


class PhaseGrid:
    """Tensor grid in (x, v); the v-grid symmetry carries all parity arguments."""

    def __init__(self, x_grid, v_grid):
        self.x_grid = x_grid
        self.v_grid = v_grid
        w = np.outer(x_grid.weights, v_grid.weights)
        w.setflags(write=False)
        self.weight_matrix = w
        self.shape = (x_grid.count, v_grid.count)

    def __repr__(self):
        return "PhaseGrid(%r, %r)" % (self.x_grid, self.v_grid)


class Field:
    """Real state f(x_i, v_j) on a PhaseGrid; immutable after construction."""

    def __init__(self, values, grid):
        values = np.array(values, dtype=float)
        if values.shape != grid.shape:
            raise GridMismatchError(
                "field shape %s does not match grid %s" % (values.shape, grid.shape))
        if not np.all(np.isfinite(values)):
            raise ValidationError("field contains non-finite entries")
        values.setflags(write=False)
        self.values = values
        self.grid = grid


class DensityField:
    """Real density rho(x_i) on the x-grid of a PhaseGrid (or a bare Grid1D)."""

    def __init__(self, values, x_grid):
        values = np.array(values, dtype=float)
        if values.shape != (x_grid.count,):
            raise GridMismatchError(
                "density shape %s does not match x-grid count %d"
                % (values.shape, x_grid.count))
        if not np.all(np.isfinite(values)):
            raise ValidationError("density contains non-finite entries")
        values.setflags(write=False)
        self.values = values
        self.x_grid = x_grid


def velocity_weight(beta, v_nodes):
    """The norm weight <v>^{-2(1-beta)_+}; identically 1 for beta >= 1."""
    if beta >= 1.0:
        return np.ones_like(v_nodes)
    bracket = np.sqrt(1.0 + v_nodes ** 2)
    return bracket ** (-2.0 * (1.0 - beta))
