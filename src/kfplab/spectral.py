"""Functional-inequality constants estimated on the truncated domain.

Eigenvalue-type constants (Poincare in x or v, the weighted Poincare
inequality behind the slow alpha < 1 regimes, the Hardy-Poincare inequality
behind the logarithmic regimes, and the exact discrete microscopic and
macroscopic coercivity constants) are the smallest eigenvalues of
generalized pencils (stiffness S, diagonal mass M) on the hyperplane
{u : c . u = 0}. pencil_min_eig takes one of two direct paths, and either
raises NumericalError when S is not positive on the hyperplane:

* Mass deflation, c = M 1 with S 1 = 0 (checked to roundoff): the constant
  mode is the pencil's zero eigenvector and the hyperplane is its
  M-orthogonal complement, so the wanted eigenvalue is the second smallest
  of the banded matrix M^-1/2 S M^-1/2, found by one banded symmetric
  eigen-solve (LAPACK bisection). This serves lambda_M, lambda_m for
  beta >= 1 and the Poincare, weighted Poincare and Hardy-Poincare
  ladders.
* Any other weight c (lambda_m for beta < 1): the bordered matrix
  K = [[S, c], [c^T, 0]], factored once with SPLU_OPTIONS and solved
  through the residual-checked solve_with_refinement. The leading n x n
  block of K^-1 inverts the pencil on the hyperplane, so
  M^1/2 (K^-1)_nn M^1/2 has the eigenvalues 1/lam and one zero, and
  lam = 1 / its largest eigenvalue (one dense eigen-solve).

The Nash and Caffarelli-Kohn-Nirenberg columns of the classification take
closed-form exponents (rates.classify_regime) and no constant.

All constants live on the truncated box: they converge to the whole-line
constants only as the half-width grows. The `converged` flag refers to grid
refinement at fixed half-width.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .equilibria import eval_potential
from .errors import NumericalError, ValidationError
from .grids import velocity_weight
from .operators import (SPLU_OPTIONS, collision_v_forms, flux_stiffness,
                        solve_with_refinement)

_KINDS = ("poincare", "weighted_poincare", "hardy_poincare")


class InequalityEstimate:
    """A numerically estimated inequality constant with its provenance grid."""

    def __init__(self, kind, constant, grid_spacing, converged):
        if kind not in _KINDS:
            raise ValidationError("unknown inequality kind %r" % (kind,))
        constant = float(constant)
        if not np.isfinite(constant) or constant <= 0.0:
            raise ValidationError("inequality constant must be positive")
        self.kind = kind
        self.constant = constant
        self.grid_spacing = float(grid_spacing)
        self.converged = bool(converged)

    def __repr__(self):
        return ("InequalityEstimate(kind=%r, constant=%.6g, spacing=%.3g, "
                "converged=%s)" % (self.kind, self.constant,
                                   self.grid_spacing, self.converged))


# ---------------------------------------------------------------------------
# pencil eigensolver
# ---------------------------------------------------------------------------

_ROUNDOFF = 1e-12     # relative size of a roundoff-level asymmetry or zero


def pencil_min_eig(stiffness, mass, constraint):
    """Smallest eigenvalue of S u = lam M u on {u : constraint . u = 0}.

    When c = M 1 and S 1 = 0, this is the smallest NONZERO eigenvalue of the
    free pencil; for any other weight vector c it is the best constant of the
    Rayleigh quotient with the c-weighted average subtracted. Both come from
    direct eigen-solves (see the module docstring). A stiffness that is not
    symmetric to roundoff, or a mass that is not positive, raises
    ValidationError; a pencil that is not positive on the hyperplane raises
    NumericalError.

    mass is the diagonal of the mass matrix, a vector.
    """
    n = stiffness.shape[0]
    c = np.asarray(constraint, dtype=float)
    if abs(np.sum(c)) <= 0.0:
        raise ValidationError("deflation weight must not annihilate constants")
    sym = sp.csr_matrix(stiffness)
    scale = abs(sym).max()
    if not (abs(sym - sym.T).max() <= _ROUNDOFF * scale and np.all(mass > 0.0)):
        raise ValidationError("pencil needs a symmetric stiffness and a "
                              "positive mass")
    if (np.array_equal(c, mass)
            and np.max(np.abs(sym @ np.ones(n))) <= _ROUNDOFF * scale):
        return _mass_deflated_eig(sym, mass)
    bordered = sp.bmat([[sym, sp.csr_matrix(c.reshape(n, 1))],
                        [sp.csr_matrix(c.reshape(1, n)), None]], format="csc")
    try:
        lu = splu(bordered, **SPLU_OPTIONS)
    except RuntimeError as exc:
        raise NumericalError("bordered pencil factorization failed: %s" % exc)
    root = np.sqrt(mass)
    columns = np.vstack([np.diag(root), np.zeros(n)])     # diag(M^1/2), 0
    block = root[:, np.newaxis] * solve_with_refinement(
        lu, bordered.tocsr(), columns, "bordered pencil")[:n]
    inverse = sla.eigvalsh(0.5 * (block + block.T), check_finite=False)
    if not (inverse[-1] > 0.0 and inverse[0] >= -_ROUNDOFF * inverse[-1]):
        raise NumericalError("pencil is not positive on the hyperplane: "
                             "1/lam spans [%.3e, %.3e]"
                             % (inverse[0], inverse[-1]))
    return float(1.0 / inverse[-1])


def _mass_deflated_eig(stiffness, mass):
    """Second smallest eigenvalue of M^-1/2 S M^-1/2, S symmetric, S 1 = 0.

    The lower band of the scaled matrix goes to scipy.linalg.eig_banded,
    which returns only the two smallest eigenvalues; the smallest must be
    the constant mode's zero, to roundoff.
    """
    coo = stiffness.tocoo()
    lower = coo.row >= coo.col
    rows, cols = coo.row[lower], coo.col[lower]
    scale = 1.0 / np.sqrt(mass)
    band = np.zeros((int(np.max(rows - cols)) + 1, mass.size))
    np.add.at(band, (rows - cols, cols),
              coo.data[lower] * scale[rows] * scale[cols])
    zero, lam = sla.eig_banded(band, lower=True, eigvals_only=True,
                               select="i", select_range=(0, 1))
    if not abs(zero) <= _ROUNDOFF * np.max(np.abs(band)):
        raise NumericalError("deflated pencil has smallest eigenvalue %.3e, "
                             "not the zero of its constant mode" % zero)
    return float(lam)


def _stiffness_1d(grid, face_weight):
    """S with u^T S u = sum_faces face_weight * ((u_{j+1}-u_j)/dx)^2 * dx."""
    if np.min(face_weight) <= 0.0:
        raise NumericalError(
            "stiffness weight underflows to zero on this domain; "
            "reduce the half-width")
    return flux_stiffness(grid, face_weight)


def _eig_ladder(kind, grid, solve_on):
    """Run solve_on on grid, grid.refine(), grid.refine().refine().

    Returns the finest value; converged means both refinement steps moved
    the value by less than 1%.
    """
    grids = [grid, grid.refine()]
    grids.append(grids[1].refine())
    vals = [solve_on(g) for g in grids]
    steps = [abs(vals[i + 1] - vals[i]) / max(abs(vals[i + 1]), 1e-300)
             for i in range(2)]
    converged = steps[0] < 0.01 and steps[1] < 0.01
    return InequalityEstimate(kind, vals[2], grids[2].spacing, converged)


# ---------------------------------------------------------------------------
# the inequality constants
# ---------------------------------------------------------------------------

def poincare_constant(measure_spec, grid, variable="x"):
    """Spectral gap of the measure e^{-phi(x)} dx (or e^{-psi(v)} dv).

    Smallest nonzero eigenvalue of (stiffness w.r.t. the measure) u =
    lam (mass w.r.t. the measure) u, i.e. the best constant in
    int |u'|^2 dmeasure >= lam int |u - mean_measure(u)|^2 dmeasure
    on the truncated interval.
    """
    if variable not in ("x", "v"):
        raise ValidationError("variable must be 'x' or 'v'")

    def solve_on(g):
        mid = 0.5 * (g.nodes[:-1] + g.nodes[1:])
        S = _stiffness_1d(g, np.exp(-eval_potential(measure_spec, variable, mid)))
        mass = g.weights * np.exp(-eval_potential(measure_spec, variable, g.nodes))
        return pencil_min_eig(S, mass, mass)

    return _eig_ladder("poincare", grid, solve_on)


def weighted_poincare_constant(alpha, grid):
    """Best constant of int |u'|^2 e^{-phi} >= C int |u-ubar|^2 <x>^{-2(1-alpha)} e^{-phi}.

    phi = <x>^alpha / alpha with alpha in (0,1); ubar is the average against
    the right-hand-side (mass) measure, which the deflation realizes exactly.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValidationError("weighted Poincare requires alpha in (0, 1)")

    def phi(x):
        return np.sqrt(1.0 + x ** 2) ** alpha / alpha

    def solve_on(g):
        mid = 0.5 * (g.nodes[:-1] + g.nodes[1:])
        S = _stiffness_1d(g, np.exp(-phi(mid)))
        bracket = np.sqrt(1.0 + g.nodes ** 2)
        mass = g.weights * np.exp(-phi(g.nodes)) * bracket ** (-2.0 * (1.0 - alpha))
        return pencil_min_eig(S, mass, mass)

    return _eig_ladder("weighted_poincare", grid, solve_on)


def hardy_poincare_constant(gamma, k, grid):
    """Best constant of int |u'|^2 <x>^{k-gamma} >= C int |u-ubar|^2 <x>^{k-2-gamma}.

    The weights are <x>^k e^{-phi} with phi = gamma log<x> on the integrable
    branch gamma > 1 (d = 1). ubar is the average against the mass-side
    measure <x>^{k-2-gamma}, which the deflation realizes exactly.
    """
    gamma = float(gamma)
    k = float(k)
    if gamma <= 1.0:
        raise ValidationError("Hardy-Poincare requires gamma > 1")
    if k <= 0.0:
        raise ValidationError("Hardy-Poincare requires k > 0")
    if k >= gamma + 1.0:
        # the <x>^{k-2-gamma} measure must stay integrable on the whole line
        raise ValidationError("Hardy-Poincare requires k < gamma + 1")

    def solve_on(g):
        mid = 0.5 * (g.nodes[:-1] + g.nodes[1:])
        S = _stiffness_1d(g, np.sqrt(1.0 + mid ** 2) ** (k - gamma))
        bracket = np.sqrt(1.0 + g.nodes ** 2)
        mass = g.weights * bracket ** (k - 2.0 - gamma)
        return pencil_min_eig(S, mass, mass)

    return _eig_ladder("hardy_poincare", grid, solve_on)


# ---------------------------------------------------------------------------
# exact same-grid coercivity constants of the kinetic operators
# ---------------------------------------------------------------------------

def microscopic_coercivity_constant(eq):
    """lambda_m with -<Lf,f>_mu >= lambda_m ||(1-Pi)f||_beta^2 on the SAME grid.

    Built from the identical stiffness form the collision operator is
    assembled from, so the bound is exact (functional calculus, no
    discretization gap): the pencil is (S_v, diag(wv g <v>^{-2(1-beta)+}))
    with the plain g-mean deflated, because per-slice (1-Pi)f has exactly
    zero g-weighted mean in h = f/f_star coordinates.
    """
    S, mass = collision_v_forms(eq)
    vweight = velocity_weight(eq.spec.beta, eq.grid.v_grid.nodes)
    return pencil_min_eig(S, mass * vweight, mass)


def macroscopic_gap(ops):
    """lambda_M with ||T Pi f||_mu^2 >= lambda_M ||Pi f||_mu^2 for mass-zero f.

    Smallest nonzero eigenvalue of the exact discrete (T Pi)*(T Pi) on
    local-equilibrium profiles, i.e. of the pencil (N_sym, diag(m_rho)).
    Mass-zero f means the profile u has zero m_rho-weighted mean, which is
    the deflated mode. Continuum counterpart: sigma_normalized times the
    Poincare constant of e^{-phi}.
    """
    return pencil_min_eig(ops.N_sym, ops.mrho, ops.mrho)
