"""Potentials, the Gibbs state, the diffusion coefficient, and moment closed forms.

The energy is E(x,v) = <v>^beta/beta + phi(x) with <z> = sqrt(1+z^2) and phi
one of: power <x>^alpha/alpha, logarithmic gamma*log<x>, or zero. The Gibbs
state f_star = Z^-1 e^{-E} factorizes as rho_star(x) * g_star(v); when e^{-phi}
is not integrable (zero mode, logarithmic with gamma <= d) the raw weights are
kept and `integrable` is False — the measure dmu stays well defined on the box.
"""

import math

import numpy as np

from .errors import NumericalError, TruncationError, ValidationError
from .grids import DensityField, Field

_X_MODES = ("power", "logarithmic", "zero")


class PotentialSpec:
    """Confinement regime: x_mode + its parameter, and the velocity exponent beta."""

    def __init__(self, x_mode, beta, alpha=None, gamma=None):
        if x_mode not in _X_MODES:
            raise ValidationError("x_mode must be one of %s" % (_X_MODES,))
        beta = float(beta)
        if beta <= 0:
            raise ValidationError("beta must be positive")
        if x_mode == "power":
            if alpha is None or float(alpha) <= 0:
                raise ValidationError("power mode needs alpha > 0")
            alpha = float(alpha)
        elif alpha is not None:
            raise ValidationError("alpha is only meaningful in power mode")
        if x_mode == "logarithmic":
            if gamma is None or float(gamma) <= 0:
                raise ValidationError("logarithmic mode needs gamma > 0")
            gamma = float(gamma)
        elif gamma is not None:
            raise ValidationError("gamma is only meaningful in logarithmic mode")
        self.x_mode = x_mode
        self.beta = beta
        self.alpha = alpha
        self.gamma = gamma

    def is_integrable(self, d=1):
        # logarithmic confinement only beats the volume growth for gamma > d
        if self.x_mode == "power":
            return True
        if self.x_mode == "logarithmic":
            return self.gamma > d
        return False

    def __repr__(self):
        if self.x_mode == "power":
            return "PotentialSpec(power alpha=%g, beta=%g)" % (self.alpha, self.beta)
        if self.x_mode == "logarithmic":
            return "PotentialSpec(log gamma=%g, beta=%g)" % (self.gamma, self.beta)
        return "PotentialSpec(zero, beta=%g)" % self.beta


def eval_potential(spec, variable, point):
    """phi(point) for variable='x', psi(point) = <point>^beta/beta for variable='v'."""
    z = np.asarray(point, dtype=float)
    bracket = np.sqrt(1.0 + z ** 2)
    if variable == "v":
        out = bracket ** spec.beta / spec.beta
    elif variable == "x":
        if spec.x_mode == "power":
            out = bracket ** spec.alpha / spec.alpha
        elif spec.x_mode == "logarithmic":
            out = spec.gamma * np.log(bracket)
        else:
            out = np.zeros_like(z)
    else:
        raise ValidationError("variable must be 'x' or 'v'")
    if np.isscalar(point):
        return float(out)
    return out


class Equilibrium:
    """Nodal Gibbs state plus everything the weighted measure needs.

    Beyond the contract fields (f_star, rho_star, z_constant, sigma, integrable)
    it caches the normalized v-factor used by the projection Pi and the
    mu-weights w_ij / f_star_ij, and carries sigma in both conventions.
    """

    def __init__(self, spec, grid, f_star, rho_star, g_star_v, z_constant,
                 sigma, sigma_normalized, integrable, g_scale, rho_scale):
        self.spec = spec
        self.grid = grid
        self.f_star = f_star
        self.rho_star = rho_star
        self.g_star_v = g_star_v          # the v-factor as stored in f_star
        self.g_scale = g_scale            # g_star_v = g_scale * e^{-psi}
        self.rho_scale = rho_scale        # rho_star = rho_scale * e^{-phi}
        self.z_constant = z_constant
        self.sigma = sigma                # unnormalized v-measure convention
        self.sigma_normalized = sigma_normalized   # per unit v-mass
        self.integrable = integrable
        self.g_mass = float(np.sum(grid.v_grid.weights * g_star_v))
        self.g_hat = g_star_v / self.g_mass   # discretely normalized v-profile
        self.min_f_star = float(f_star.values.min())
        self.mu_weight = grid.weight_matrix / f_star.values
        self.mu_weight.setflags(write=False)


def build_equilibrium(spec, grid, truncation_tol=1e-8):
    """Assemble the Gibbs state on the box; raises TruncationError if the tails leak.

    The boundary check compares the decaying factors at the box edge against
    their maximum; fat-tailed regimes (beta < 1, alpha < 1, logarithmic) need
    wider boxes and/or an explicitly relaxed tolerance.
    """
    xg, vg = grid.x_grid, grid.v_grid
    psi = eval_potential(spec, "v", vg.nodes)
    phi = eval_potential(spec, "x", xg.nodes)
    gv_raw = np.exp(-psi)
    ex_raw = np.exp(-phi)
    if not (gv_raw.max() > 0.0 and ex_raw.max() > 0.0):
        # an all-zero factor would make every ratio below 0/0
        raise NumericalError("f_star underflowed to zero on this box")

    ratio_v = max(gv_raw[0], gv_raw[-1]) / gv_raw.max()
    if ratio_v > truncation_tol:
        raise TruncationError(
            "e^{-psi} boundary/max ratio %.3e exceeds %.1e; widen the v-box"
            % (ratio_v, truncation_tol))
    integrable = spec.is_integrable(d=1)
    if integrable:
        ratio_x = max(ex_raw[0], ex_raw[-1]) / ex_raw.max()
        if ratio_x > truncation_tol:
            raise TruncationError(
                "e^{-phi} boundary/max ratio %.3e exceeds %.1e; widen the x-box"
                % (ratio_x, truncation_tol))

    iv = float(np.sum(vg.weights * gv_raw))
    ix = float(np.sum(xg.weights * ex_raw))
    z_constant = ix * iv
    if integrable:
        g_scale, rho_scale = 1.0 / iv, 1.0 / ix
    else:
        # keep raw weights: no global equilibrium, but dmu is still defined
        g_scale, rho_scale = 1.0, 1.0
    rho = ex_raw * rho_scale
    gv = gv_raw * g_scale
    f_star = Field(np.outer(rho, gv), grid)
    if f_star.values.min() <= 0.0:
        raise NumericalError("f_star underflowed to zero on this box")

    sigma = diffusion_sigma(spec.beta, 1)
    sigma_normalized = sigma / psi_mass(spec.beta, 1)
    return Equilibrium(spec, grid, f_star, DensityField(rho, xg), gv,
                       z_constant, sigma, sigma_normalized, integrable,
                       g_scale, rho_scale)


# ---------------------------------------------------------------------------
# closed-form coefficients (general dimension, double-exponential radial rule)
#
# Every radial integral int_0^inf f(r) dr is an exp-sinh rule (Takahasi-Mori):
# r = exp(pi/2 sinh t), dr = r pi/2 cosh t dt, trapezoidal in t on the nodes
# t = k h of [-t_max, t_max]. f comes as log f at s = log r, so neither r nor
# <r> is formed where it would overflow. From h = 1/2 and t_max = 4, t_max
# widens by 1 (up to 8) until the sum is positive and both end terms are at
# most 1e-20 of it; then h halves (adding the midpoints) until two levels
# agree to 1e-15 relative. NumericalError if a node value is not finite, if
# the tail is still unresolved at t_max = 8, or if the last two levels
# differ by more than 1e-9 relative.
# ---------------------------------------------------------------------------

_HALF_PI = 0.5 * np.pi
_DE_T_MAX = 8
_DE_HALVINGS = 8


def _surface_factor(d):
    # |S^{d-1}| = 2 pi^{d/2} / Gamma(d/2)
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def _log_bracket(s):
    # log <r> = log(1 + r^2) / 2 at s = log r, without forming r^2
    return np.maximum(s, 0.0) + 0.5 * np.log1p(np.exp(-2.0 * np.abs(s)))


def _de_terms(log_integrand, t):
    s = _HALF_PI * np.sinh(t)
    # an overflowing <r>^beta gives the node e^-inf = 0; an overflowing node
    # value is refused below
    with np.errstate(over="ignore"):
        terms = np.exp(log_integrand(s) + s + np.log(_HALF_PI * np.cosh(t)))
    if not np.all(np.isfinite(terms)):
        raise NumericalError("radial quadrature did not converge: "
                             "a node value is not finite")
    return terms


def _radial_quad(log_integrand, d):
    """|S^{d-1}| * int_0^inf f(r) dr, with log_integrand(s) = log f(e^s)."""
    h, t_max = 0.5, 4
    while True:
        n = round(t_max / h)
        terms = _de_terms(log_integrand, h * np.arange(-n, n + 1))
        total = terms.sum()
        # a zero sum has not reached the integrand: widen as for a tail
        if 0.0 < total and max(terms[0], terms[-1]) <= 1e-20 * total:
            break
        if t_max == _DE_T_MAX:
            raise NumericalError("radial quadrature did not converge: the "
                                 "tail is unresolved at t_max = %d" % t_max)
        t_max += 1
    value = h * total
    for _ in range(_DE_HALVINGS):
        n = round(t_max / h)
        total += _de_terms(log_integrand, h * (np.arange(-n, n) + 0.5)).sum()
        h *= 0.5
        value, change = h * total, abs(h * total - value)
        if change <= 1e-15 * value:
            break
    else:
        if change > 1e-9 * value:
            raise NumericalError("radial quadrature did not converge: the "
                                 "last two levels differ by %.2e relative"
                                 % (change / value))
    return _surface_factor(d) * value


def diffusion_sigma(beta, d):
    """sigma = (1/d) * integral over R^d of |v|^2 <v>^{2 beta - 4} e^{-<v>^beta/beta} dv."""
    beta = float(beta)
    d = int(d)
    if beta <= 0 or d < 1:
        raise ValidationError("need beta > 0 and d >= 1")

    def log_integrand(s):
        lb = _log_bracket(s)
        return (d + 1) * s + (2.0 * beta - 4.0) * lb - np.exp(beta * lb) / beta

    return _radial_quad(log_integrand, d) / d


def psi_mass(beta, d):
    """integral over R^d of e^{-<v>^beta/beta} dv (the local-equilibrium normalization)."""
    beta = float(beta)
    d = int(d)
    if beta <= 0 or d < 1:
        raise ValidationError("need beta > 0 and d >= 1")

    def log_integrand(s):
        return (d - 1) * s - np.exp(beta * _log_bracket(s)) / beta

    return _radial_quad(log_integrand, d)


def moment_closed_form(k, eta, d):
    """(exact, upper_bound) for M = integral of <x>^k e^{-<x>^eta/eta} over R^d.

    exact is the double-exponential radial rule above (NumericalError when it
    does not converge); the bound is the Gamma-function expression
    max{1, 2^{k/2-1}} (2 pi^{d/2}/Gamma(d/2)) eta^{(d-eta)/eta}
        (Gamma(d/eta) + eta^{k/eta} Gamma((d+k)/eta)).
    """
    k = float(k)
    eta = float(eta)
    d = int(d)
    if k < 0 or eta <= 0 or d < 1:
        raise ValidationError("need k >= 0, eta > 0, d >= 1")

    def log_integrand(s):
        lb = _log_bracket(s)
        return (d - 1) * s + k * lb - np.exp(eta * lb) / eta

    exact = _radial_quad(log_integrand, d)
    try:
        head = max(1.0, 2.0 ** (0.5 * k - 1.0))
        gammas = math.gamma(d / eta) + eta ** (k / eta) * math.gamma((d + k) / eta)
        bound = head * _surface_factor(d) * eta ** ((d - eta) / eta) * gammas
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValidationError("Gamma arguments out of range for (k=%g, eta=%g)" % (k, eta))
    return exact, bound
