"""Functional-inequality constants estimated on the truncated domain.

Eigenvalue-type constants (Poincare in x or v, the weighted Poincare
inequality behind the slow alpha < 1 regimes, the Hardy-Poincare inequality
behind the logarithmic regimes, and the exact discrete microscopic and
macroscopic coercivity constants) are the smallest eigenvalues of
generalized pencils (stiffness S, diagonal mass M) on the hyperplane
{u : c . u = 0}. pencil_min_eig takes one of two paths:

* Mass deflation, c = M 1 with S symmetric and S 1 = 0 (both checked to
  roundoff): the constant mode is the pencil's zero eigenvector and the
  hyperplane is its M-orthogonal complement, so the wanted eigenvalue is
  the second smallest of the banded matrix M^-1/2 S M^-1/2, found by one
  banded symmetric eigen-solve (LAPACK bisection). This serves lambda_M,
  lambda_m for beta >= 1, and the Poincare, weighted Poincare and
  Hardy-Poincare ('mass' average) ladders. A smallest eigenvalue that is not
  a roundoff-level zero raises NumericalError. Inverse iteration does not
  serve these pencils: the deflated spectrum of (N_sym, m_rho) comes in
  pairs equal to about 1e-14, and on alpha = 0.5 boxes the next pair lies
  only 0.4 % higher, so the iteration contracts by 0.996 per step and
  stops at its iteration cap short of convergence.
* Any other weight c (lambda_m for beta < 1, Hardy-Poincare with the 'lhs'
  average): inverse iteration on the bordered system [[S, c], [c^T, 0]],
  factored once with SPLU_OPTIONS.

Nash and Caffarelli-Kohn-Nirenberg constants are not quadratic-form ratios;
they are lower-bounded by the maximum of the defining ratio over an explicit
family of profiles, which is all the decay envelopes need.

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
from .operators import SPLU_OPTIONS, collision_v_forms, flux_stiffness

_KINDS = ("poincare", "weighted_poincare", "hardy_poincare", "nash", "ckn")


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
_INVERSE_TOL = 1e-12  # relative change that ends the inverse iteration
_INVERSE_MAX_ITER = 1000


def pencil_min_eig(stiffness, mass, constraint):
    """Smallest eigenvalue of S u = lam M u on {u : constraint . u = 0}.

    When c = M 1 and S is symmetric with S 1 = 0, this is the smallest
    NONZERO eigenvalue of the free pencil, found by one banded eigen-solve
    (see the module docstring). For any other weight vector c it is the
    best constant of the Rayleigh quotient with the c-weighted average
    subtracted, found by inverse iteration on the bordered system
    [[S, c], [c^T, 0]] to a relative change of 1e-12 within 1000 steps.

    mass is the diagonal of the mass matrix, a vector.
    """
    n = stiffness.shape[0]
    c = np.asarray(constraint, dtype=float)
    if abs(np.sum(c)) <= 0.0:
        raise ValidationError("deflation weight must not annihilate constants")
    if np.array_equal(c, mass) and np.all(mass > 0.0):
        sym = sp.csr_matrix(stiffness)
        scale = abs(sym).max()
        if (abs(sym - sym.T).max() <= _ROUNDOFF * scale
                and np.max(np.abs(sym @ np.ones(n))) <= _ROUNDOFF * scale):
            return _mass_deflated_eig(sym, mass)
    bordered = sp.bmat([[sp.csr_matrix(stiffness), sp.csr_matrix(c.reshape(n, 1))],
                        [sp.csr_matrix(c.reshape(1, n)), None]], format="csc")
    try:
        lu = splu(bordered, **SPLU_OPTIONS)
    except RuntimeError as exc:
        raise NumericalError("bordered pencil factorization failed: %s" % exc)

    # deterministic nonconstant start vector, projected onto the constraint
    u = np.cos(np.linspace(0.0, 3.0, n)) + np.linspace(-1.0, 1.0, n)
    u -= c * (c @ u) / (c @ c)
    lam_old = np.inf
    for _ in range(_INVERSE_MAX_ITER):
        y = lu.solve(np.concatenate([mass * u, [0.0]]))[:n]
        norm = np.sqrt(y @ (mass * y))
        if not np.isfinite(norm) or norm == 0.0:
            raise NumericalError("inverse iteration produced a degenerate vector")
        u = y / norm
        lam = float((u @ (stiffness @ u)))  # u is mass-normalized
        if abs(lam - lam_old) <= _INVERSE_TOL * max(abs(lam), 1e-300):
            return lam
        lam_old = lam
    if abs(lam - lam_old) <= 1e-9 * max(abs(lam), 1e-300):
        return lam
    raise NumericalError("inverse iteration did not converge in %d steps"
                         % _INVERSE_MAX_ITER)


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


def hardy_poincare_constant(gamma, k, grid, average="mass", d=1):
    """Best constant of int |u'|^2 <x>^{k-gamma} >= C int |u-ubar|^2 <x>^{k-2-gamma}.

    The weights are <x>^k e^{-phi} with phi = gamma log<x> on the integrable
    branch gamma > d. Which average ubar makes the whole-line inequality true
    is a property of k - gamma that the truncated problem does not see; by
    default ubar is taken against the mass-side measure <x>^{k-2-gamma}, and
    average='lhs' switches to the stiffness-side weight <x>^{k-gamma}.
    """
    gamma = float(gamma)
    k = float(k)
    if gamma <= d:
        raise ValidationError("Hardy-Poincare requires gamma > d")
    if k <= 0.0:
        raise ValidationError("Hardy-Poincare requires k > 0")
    if k >= gamma + 2.0 - d:
        # the <x>^{k-2-gamma} measure must stay integrable on the whole line
        raise ValidationError("Hardy-Poincare requires k < gamma + 2 - d")
    if average not in ("mass", "lhs"):
        raise ValidationError("average must be 'mass' or 'lhs'")

    def solve_on(g):
        mid = 0.5 * (g.nodes[:-1] + g.nodes[1:])
        S = _stiffness_1d(g, np.sqrt(1.0 + mid ** 2) ** (k - gamma))
        bracket = np.sqrt(1.0 + g.nodes ** 2)
        mass = g.weights * bracket ** (k - 2.0 - gamma)
        if average == "mass":
            c = mass
        else:
            c = g.weights * bracket ** (k - gamma)
        return pencil_min_eig(S, mass, c)

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


# ---------------------------------------------------------------------------
# Nash / Caffarelli-Kohn-Nirenberg ratios (not eigenvalues)
# ---------------------------------------------------------------------------

def ckn_exponent(k, gamma, d=1):
    """a = (d + 2k - gamma) / (d + 2 + 2k - gamma); must land in (0, 1)."""
    a = (d + 2.0 * k - gamma) / (d + 2.0 + 2.0 * k - gamma)
    if not 0.0 < a < 1.0:
        raise ValidationError("inadmissible (k, gamma): exponent a = %g" % a)
    return a


def inequality_ratio(kind, u, params=None):
    """Defining ratio LHS/RHS-product of the Nash or CKN inequality at u.

    kind='nash':  ||u||_2 / (||u'||_2^{d/(d+2)} ||u||_1^{2/(d+2)}), d = 1.
    kind='ckn' with params=(k, gamma):
        int u^2 <x>^{-gamma} / [ (int |u'|^2 <x>^{-gamma})^a
                                 (int u <x>^{k-gamma})^{2(1-a)} ].

    The maximum of the ratio over any family of admissible profiles is a
    lower bound on the best constant.
    """
    vals = u.values
    g = u.x_grid
    if not np.any(vals):
        raise ValidationError("test function must be nonzero")
    if np.min(vals) < 0.0:
        raise ValidationError("test function must be nonnegative")
    du = np.diff(vals) / g.spacing
    if not np.any(du):
        raise ValidationError("test function must be nonconstant")
    if kind == "nash":
        l2_sq = float(np.sum(g.weights * vals ** 2))
        l1 = float(np.sum(g.weights * vals))
        grad_sq = float(np.sum(du ** 2) * g.spacing)
        return np.sqrt(l2_sq) / (grad_sq ** (1.0 / 6.0) * l1 ** (2.0 / 3.0))
    if kind == "ckn":
        if params is None:
            raise ValidationError("ckn needs params=(k, gamma)")
        k, gamma = float(params[0]), float(params[1])
        a = ckn_exponent(k, gamma)
        bracket = np.sqrt(1.0 + g.nodes ** 2)
        mid = 0.5 * (g.nodes[:-1] + g.nodes[1:])
        bracket_mid = np.sqrt(1.0 + mid ** 2)
        lhs = float(np.sum(g.weights * vals ** 2 * bracket ** (-gamma)))
        grad = float(np.sum(bracket_mid ** (-gamma) * du ** 2) * g.spacing)
        mom = float(np.sum(g.weights * vals * bracket ** (k - gamma)))
        return lhs / (grad ** a * mom ** (2.0 * (1.0 - a)))
    raise ValidationError("kind must be 'nash' or 'ckn'")


def _profile_family(grid):
    """Nonnegative test profiles: bump shapes swept over centers and widths.

    Wall-centered half-profiles matter because on the truncated box the nash
    ratio peaks AT the wall (losing half a bump shrinks every norm but the
    exponent bookkeeping nets a gain), and box-scale widths matter because
    the weighted ckn ratios peak on wide central lumps.
    """
    from .grids import DensityField

    x = grid.nodes
    X = grid.half_width
    shapes = (
        lambda t: np.exp(-0.5 * t ** 2),
        lambda t: np.where(np.abs(t) <= 1.0, 1.0 + np.cos(np.pi * t), 0.0),
        lambda t: np.maximum(0.0, 1.0 - t ** 2),
        lambda t: np.maximum(0.0, 1.0 - t ** 2) ** 2,
        lambda t: np.maximum(0.0, 1.0 - np.abs(t)),
        lambda t: 1.0 / np.cosh(t) ** 2,
    )
    family = []
    for shape in shapes:
        for center in (0.0, 0.25 * X, 0.5 * X, 0.75 * X, X):
            for width in (0.5, 1.0, 2.0, 0.25 * X, 0.5 * X):
                vals = shape((x - center) / width)
                if np.any(vals > 0.0):
                    family.append(vals)
    return [DensityField(f, grid) for f in family]


def nash_constant_estimate(grid):
    """Family-maximum lower bound on the Nash constant (d = 1)."""
    def solve_on(g):
        return max(inequality_ratio("nash", u) for u in _profile_family(g))
    return _eig_ladder("nash", grid, solve_on)


def ckn_constant_estimate(k, gamma, grid):
    """Family-maximum lower bound on the CKN constant for weights (k, gamma)."""
    ckn_exponent(k, gamma)
    def solve_on(g):
        return max(inequality_ratio("ckn", u, (k, gamma))
                   for u in _profile_family(g))
    return _eig_ladder("ckn", grid, solve_on)
