"""Constant algebra (delta_star, lambda), the twisted entropy H, and its dissipation.

H[f] = 1/2 ||f||_mu^2 + delta <Af, f>_mu is equivalent to the squared norm for
0 <= delta < 2 and decays at the explicit rate lambda produced here, provided
delta < delta_star. The rate comes from a quadratic feasibility condition:
lambda/2 must keep the form

    (lambda_m - delta - s) X^2 - delta (c_M + s) X Y + (delta K_M - s) Y^2

positive semidefinite, with X = ||(1-Pi)f||_beta and Y = <ATPi f, Pi f>^(1/2)
and K_M = lambda_M / (1 + lambda_M).

H, D and the H4 ratio are evaluated in q = f/sqrt(f_star) coordinates (see
operators.py), with Q the q-form read as an nx x nv matrix. A only produces
local equilibria, A g = u_g f_star, with the nx-sized profile

    u_g = (I + N)^-1 B g_q,    B = Mrho^-1 C^T W = (TPi)* in q.

operators.q_profiles gives m u_f, B q, B T(1-Pi) q and B L_hat q from the
nx x 9 product of Q with nine fixed velocity profiles, so no full-grid
sparse product is formed. With W the trapezoid weights and m = Mrho the
profile weights (m u_f = wx rho_f for Pi f = u_f f_star):

    <A g, f>_mu           = u_g . (m u_f)
    <T A f, f>_mu         = u_Af . (m B q)       (T A f = T Pi A f, B = C^*)
    B T (1-Pi) f          = B T_hat q - N u_f    (B C = N)
    <A T Pi f, Pi f>_mu   = u . N_sym u + ||N u||_m^2,   u = (I + N)^-1 u_f
    -<L f, f>_mu          = sum_i wx_i |v_gradient Q_i|^2   (v-flux form)
    ||A g||_mu^2          = u_g . (m u_g)
    ||(1-Pi)f||_beta^2    = sum W <v>^{-2(1-beta)_+} (Q - (r u_f) (x) s)^2

A maps into the range of Pi, so <ATPi f, f> = <ATPi f, Pi f>: D and the
coercivity denominator share that term. entropy_H makes one elliptic solve,
dissipation_components one with four right-hand sides (u_f, B q,
B T(1-Pi) q, B L q) and bounded_auxiliary_ratio one with two. The
delta-combinations of H and D live in one place,
entropy_and_dissipation_from, which takes a block of b states as their
||f||_mu^2 and -<Lf, f>_mu (length b) and their four profiles and four
solutions (b x 4 x nx) rather than q, reads <Af, f> = u_Af . (m u_f) off
the second solution, and gives H and D as length-b arrays. A kinetic
trajectory calls it once per block of up to 32 samples read in a basis
(evolution module notes), a formed sample being a window of one row: every
piece but the two quadratic forms is linear in q. Each row's inner
products are the one-dimensional dot products a single state takes
(operators.row_dot), so the block form changes no arithmetic: a window's H
and D are bit for bit those of one call per sample.

entropy_H, dissipation_components and bounded_auxiliary_ratio take a Field
and no run calls them. They stay as the wrap points bench/tracing.py needs
and as the tests' independent reference for the samplers, and
empirical_kappa (kfplab check, acceptance criterion 4) reads D through
dissipation_components.

c_M is the H4 bound ||AT(1-Pi)f|| + ||ALf|| <= c_M ||(1-Pi)f||_beta of
Dolbeault-Mouhot-Schmeiser, with the micro part in the beta-norm, and
compute_constants takes it as the sum of the two exact operator norms. In
z = (Wx (x) wv omega)^(1/2) q, omega = <v>^{-2(1-beta)_+}, the beta-norm of
a micro state is the plain Euclidean norm of Z, and being micro says that
every row of Z is orthogonal to one unit v-vector t, the normalized first
column of Vt = diag(wv omega)^{-1/2} V. The profile B X (1-Pi) q of
q_profiles is sum_c P_c Wx^{-1/2} Z Vp_c, with P_c the nx x nx blocks of the
profile_map row of X and Vp = (I - t t^T) Vt. So, with the 9 x 9 Gram
matrix Gamma = Vp^T Vp,

    G = sum_{c,d} Gamma_cd P_c Wx^-1 P_d^T
    ||A X (1-Pi)||^2 = lambda_max(Mrho^1/2 E^-1 G E^-T Mrho^1/2),  E = I + N

and every matrix past V is nx x nx.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import (GridMismatchError, InfeasibleError, NumericalError,
                     ValidationError)
# solve_elliptic is looked up on its module at each call, so that a wrapper
# installed there (instrumentation, tests) sees every elliptic solve
from . import operators
from .grids import Field, velocity_weight
from .operators import atpi_form, q_profiles, row_dot
from .spectral import macroscopic_gap, microscopic_coercivity_constant

_WINDOW_SLACK = 1e-9


class HypoConstants:
    """The constant bundle (lambda_m, lambda_M, c_M, delta_star, delta,
    lambda_rate) and c_M_parts, the two terms that make up c_M."""

    def __init__(self, lambda_m, lambda_M, c_M, delta_star_value, delta,
                 lambda_rate_value, c_M_parts):
        vals = [lambda_m, lambda_M, c_M, delta_star_value, delta,
                lambda_rate_value]
        if any(not np.isfinite(v) for v in vals):
            raise ValidationError("constants must be finite")
        if min(lambda_m, lambda_M, c_M, delta_star_value, delta) <= 0:
            raise ValidationError("constants must be positive")
        if lambda_rate_value < 0:
            raise ValidationError("lambda_rate must be nonnegative")
        if delta_star_value >= lambda_m or delta_star_value >= 2.0:
            raise ValidationError("delta_star must be < lambda_m and < 2")
        if not delta < delta_star_value:
            raise ValidationError("delta must lie in (0, delta_star)")
        k_M = lambda_M / (1.0 + lambda_M)
        window = min(2.0 * (lambda_m - delta), 2.0 * delta * k_M)
        if lambda_rate_value > window + _WINDOW_SLACK:
            raise ValidationError("lambda_rate outside its admissible window")
        self.lambda_m = float(lambda_m)
        self.lambda_M = float(lambda_M)
        self.c_M = float(c_M)
        self.delta_star = float(delta_star_value)
        self.delta = float(delta)
        self.lambda_rate = float(lambda_rate_value)
        self.c_M_parts = c_M_parts

    def to_dict(self):
        return {
            "lambda_m": self.lambda_m,
            "lambda_M": self.lambda_M,
            "c_M": self.c_M,
            "delta_star": self.delta_star,
            "delta": self.delta,
            "lambda_rate": self.lambda_rate,
        }

    def __repr__(self):
        return ("HypoConstants(lambda_m=%.6g, lambda_M=%.6g, c_M=%.6g, "
                "delta_star=%.6g, delta=%.6g, lambda_rate=%.6g)"
                % (self.lambda_m, self.lambda_M, self.c_M, self.delta_star,
                   self.delta, self.lambda_rate))


# ---------------------------------------------------------------------------
# closed-form constant algebra
# ---------------------------------------------------------------------------

def delta_star(lambda_m, lambda_M, c_M):
    """delta_star = 4 K_M lambda_m / (4 K_M + c_M^2), always < lambda_m."""
    if min(lambda_m, lambda_M, c_M) <= 0:
        raise ValidationError("delta_star needs positive inputs")
    k_M = lambda_M / (1.0 + lambda_M)
    return 4.0 * k_M * lambda_m / (4.0 * k_M + c_M ** 2)


def _rate_quadratic_coeffs(lambda_m, lambda_M, c_M, delta):
    # delta^2 (c_M + s)^2 - 4 (lambda_m - delta - s)(delta K_M - s) = 0, s = lambda/2
    k_M = lambda_M / (1.0 + lambda_M)
    a2 = delta ** 2 - 4.0
    a1 = 2.0 * delta ** 2 * c_M + 4.0 * (lambda_m - delta) + 4.0 * delta * k_M
    a0 = delta ** 2 * c_M ** 2 - 4.0 * (lambda_m - delta) * delta * k_M
    return a2, a1, a0, k_M


def lambda_rate(lambda_m, lambda_M, c_M, delta):
    """The decay rate lambda = 2 s with s the smaller root of the quadratic.

    For 0 < delta < delta_star the coefficients have a2 = delta^2 - 4 < 0,
    a1 > 0 and a0 < 0 (a0 = 0 exactly at delta_star), and the quadratic is
    >= 0 at s_max = min(lambda_m - delta, delta K_M), where one factor of its
    product term vanishes. So the smaller root is the one root in the
    admissible window [0, s_max], and s = -2 a0 / (a1 + sqrt(a1^2 - 4 a2 a0))
    computes it without cancellation. The window is where both diagonal
    coefficients of the (X, Y) form are nonnegative, and the form's
    determinant 4 (lambda_m - delta - s)(delta K_M - s) - delta^2 (c_M + s)^2
    is minus the quadratic, so the window test and the residual check
    (< 1e-12) certify the form positive semidefinite.
    """
    if min(lambda_m, lambda_M, c_M) <= 0:
        raise ValidationError("lambda_rate needs positive constants")
    ds = delta_star(lambda_m, lambda_M, c_M)
    if not 0.0 < delta < ds:
        raise ValidationError("delta must lie in (0, delta_star=%g)" % ds)
    a2, a1, a0, k_M = _rate_quadratic_coeffs(lambda_m, lambda_M, c_M, delta)
    s_max = min(lambda_m - delta, delta * k_M)
    s = -2.0 * a0 / (a1 + math.sqrt(a1 * a1 - 4.0 * a2 * a0))
    if not -_WINDOW_SLACK <= s <= s_max + _WINDOW_SLACK:
        raise InfeasibleError(
            "root %g of the rate quadratic outside [0, %g]; constants "
            "inconsistent" % (s, s_max))
    s = min(max(s, 0.0), s_max)     # an ulp past s_max is roundoff
    scale = max(abs(a2 * s * s), abs(a1 * s), abs(a0), 1e-300)
    residual = abs(a2 * s * s + a1 * s + a0) / scale
    if residual >= 1e-12:
        raise NumericalError("rate quadratic residual %.3e too large" % residual)
    return 2.0 * s


# ---------------------------------------------------------------------------
# entropy and dissipation
# ---------------------------------------------------------------------------

def _q(f, eq, ops):
    """q = f / sqrt(f_star), flattened."""
    if f.values.shape != eq.grid.shape:
        raise GridMismatchError("field and equilibrium live on different grids")
    return f.values.ravel() / ops.sqrt_f


def _micro_beta_sq(q, u_f, eq, ops):
    """||(1-Pi)f||_beta^2 = sum W <v>^{-2(1-beta)+} (Q - (r u_f) (x) s)^2."""
    shape = eq.grid.shape
    micro = q.reshape(shape) - u_f[:, None] * ops.sqrt_f.reshape(shape)
    micro *= micro
    vg = eq.grid.v_grid
    weight_v = vg.weights * velocity_weight(eq.spec.beta, vg.nodes)
    return float(eq.grid.x_grid.weights @ (micro @ weight_v))


def check_entropy_delta(delta):
    """ValidationError unless 0 <= delta < 2, where H is a norm."""
    if not 0.0 <= delta < 2.0:
        raise ValidationError("entropy needs 0 <= delta < 2")


def entropy_H(f, delta, eq, ops):
    """H[f] = 1/2 ||f||_mu^2 + delta <Af, f>_mu (sandwiched by (2 +- delta)/4 ||f||^2)."""
    check_entropy_delta(delta)
    q = _q(f, eq, ops)
    half_sq = 0.5 * float(q @ (ops.w_flat * q))
    if delta == 0.0:
        return half_sq
    m_u, b_q = q_profiles(q, ops)[:2]
    u_af = operators.solve_elliptic(b_q, ops)
    return half_sq + delta * float(u_af @ m_u)


def minus_lf_f(q, eq, ops):
    """-<Lf, f>_mu = sum_i wx_i |v_gradient Q_i|^2 (v-flux form)."""
    grad = ops.v_gradient @ q.reshape(eq.grid.shape).T     # one row per face
    return float(np.einsum("ji,ji->i", grad, grad) @ eq.grid.x_grid.weights)


def elliptic_rhs(profiles, ops):
    """The right-hand sides (u_f, B q, B T(1-Pi) q, B L q) of the four
    elliptic solves behind D, from the q_profiles profiles (m u_f, B q,
    B T(1-Pi) q, B L q) of q: an nx x 4 block, or nx x 4k when each profile
    is an nx x k block of k states (one k-column block per profile)."""
    m_u, b_q, bt_micro_q, bl_q = profiles
    return np.column_stack([(m_u.T / ops.mrho).T, b_q, bt_micro_q, bl_q])


def _profiles_and_solutions(q, ops):
    """The four profiles of q and their four elliptic solutions (u_Pi,
    u_Af, u_AT(1-Pi), u_AL) as 1 x 4 x nx blocks: one q_profiles call and
    one solve."""
    profiles = q_profiles(q, ops)
    solutions = operators.solve_elliptic(elliptic_rhs(profiles, ops), ops).T
    return profiles[None], solutions[None]


def _dissipation_forms(profiles, solutions, minus_lff, delta, ops):
    """The five inner products of D[f] and their delta-combination D, as
    length-b arrays for a block of b states, from -<Lf, f>_mu (length b),
    the profiles (m u_f, B q, B T(1-Pi) q, B L q) and their elliptic
    solutions (u_Pi, u_Af, u_AT(1-Pi), u_AL), b x 4 x nx each."""
    m_u, b_q = profiles[:, 0], profiles[:, 1]
    u_pi, u_af, u_at_micro, u_al = solutions.transpose(1, 0, 2)
    atpi_ff = atpi_form(u_pi, ops)   # <ATPi f, f> = <ATPi f, Pi f>
    ta_ff = row_dot(u_af, ops.mrho * b_q)
    at_micro_ff = row_dot(u_at_micro, m_u)
    al_ff = row_dot(u_al, m_u)
    return {
        "minus_Lf_f": minus_lff,
        "ATPi_f_f": atpi_ff,
        "TA_f_f": ta_ff,
        "AT_micro_f_f": at_micro_ff,
        "AL_f_f": al_ff,
        "D": (minus_lff + delta * atpi_ff
              - delta * (ta_ff - at_micro_ff + al_ff)),
    }


def dissipation_components(f, delta, eq, ops):
    """All five inner products of D[f], their delta-combination, and the
    coercivity denominator ||(1-Pi)f||_beta^2 + <ATPi f, Pi f>_mu.

    D[f] = -<Lf,f> + delta <ATPi f, f>
           - delta (<TAf,f> - <AT(1-Pi)f,f> + <ALf,f>).
    """
    q = _q(f, eq, ops)
    profiles, solutions = _profiles_and_solutions(q, ops)
    forms = _dissipation_forms(profiles, solutions,
                               np.array([minus_lf_f(q, eq, ops)]), delta,
                               ops)
    forms = {name: float(value[0]) for name, value in forms.items()}
    forms["kappa_denominator"] = (
        _micro_beta_sq(q, profiles[0, 0] / ops.mrho, eq, ops)
        + forms["ATPi_f_f"])
    forms["delta"] = float(delta)
    return forms


def entropy_and_dissipation_from(norm_sq, minus_lff, profiles, solutions,
                                 delta, ops):
    """(H, D) of a block of b states as length-b arrays, from their
    ||f||_mu^2 and -<Lf, f>_mu (length b), their four profiles and their
    four elliptic solutions (b x 4 x nx each, both None at delta = 0), H
    reading <Af, f>_mu = u_Af . (m u_f) off the second solution. A delta
    outside [0, 2) is refused.

    The kinetic sampler calls it once per block of a window (evolution
    module notes). Fed one state's pieces it gives entropy_H and
    dissipation_components(...)["D"] to roundoff.
    """
    check_entropy_delta(delta)
    if delta == 0.0:
        return 0.5 * norm_sq, minus_lff
    forms = _dissipation_forms(profiles, solutions, minus_lff, delta, ops)
    return (0.5 * norm_sq
            + delta * row_dot(solutions[:, 1], profiles[:, 0]), forms["D"])


# ---------------------------------------------------------------------------
# the assembled constant bundle
# ---------------------------------------------------------------------------

def _smooth(values, rounds):
    # edge-padded five-point average
    out = values
    for _ in range(rounds):
        pad = np.pad(out, 1, mode="edge")
        out = 0.25 * (pad[:-2, 1:-1] + pad[2:, 1:-1]
                      + pad[1:-1, :-2] + pad[1:-1, 2:])
    return out


def _random_suite(eq, sample_count, seed):
    """Probe states in L^2(dmu), three flavors per cycle.

    Isotropic noise alone never exercises the smoothing operators (A is
    macro-valued, so rough fields give vanishing ratios); the suite mixes in
    smoothed relative perturbations u f_star and transport-aligned
    macro + psi'(v) modes, which is where the auxiliary-operator suprema
    actually live.
    """
    rng = np.random.default_rng(seed)
    grid = eq.grid
    shape = grid.shape
    x = grid.x_grid.nodes[:, None]
    v = grid.v_grid.nodes[None, :]
    psi_prime = v * np.sqrt(1.0 + v ** 2) ** (eq.spec.beta - 2.0)
    fstar = eq.f_star.values
    sqrt_f = np.sqrt(fstar)
    fields = []
    for i in range(sample_count):
        kind = i % 3
        if kind == 0:        # isotropic in the weighted Hilbert space
            vals = rng.standard_normal(shape) * sqrt_f
        elif kind == 1:      # smooth relative perturbation
            u = _smooth(rng.standard_normal(shape), 4 ** (1 + (i // 3) % 3))
            vals = u * fstar
        else:                # macro profile plus first-velocity-moment mode
            freq = rng.uniform(0.2, 1.5, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
            u = (np.cos(freq[0] * x + phase[0])
                 + np.cos(freq[1] * x + phase[1]) * psi_prime)
            vals = u * fstar
        fields.append(Field(vals, grid))
    return fields


def bounded_auxiliary_ratio(f, eq, ops):
    """(||AT(1-Pi)f|| + ||ALf||) / ||(1-Pi)f||_beta, the measured H4 ratio."""
    q = _q(f, eq, ops)
    m_u, _, bt_micro_q, bl_q = q_profiles(q, ops)
    micro_sq = _micro_beta_sq(q, m_u / ops.mrho, eq, ops)
    if micro_sq == 0.0:
        raise ValidationError("f must have a microscopic part")
    u = operators.solve_elliptic(np.column_stack([bt_micro_q, bl_q]), ops)
    norm_at, norm_al = np.sqrt(np.sum(u * (ops.mrho[:, None] * u), axis=0))
    return (norm_at + norm_al) / np.sqrt(micro_sq)


def _micro_profiles(eq, ops):
    """The nine velocity profiles in z coordinates, diag(wv omega)^-1/2
    v_profiles, less their component along the micro constraint t (Vp of
    the module notes)."""
    vg = eq.grid.v_grid
    vt = ops.v_profiles / np.sqrt(
        vg.weights * velocity_weight(eq.spec.beta, vg.nodes))[:, None]
    t = vt[:, 0] / np.linalg.norm(vt[:, 0])
    return vt - np.outer(t, t @ vt)


def _profile_grams(eq, ops):
    """Mrho^1/2 E^-1 G E^-T Mrho^1/2 for the B T_hat (1-Pi) and the B L_hat
    rows of profile_map (rows 2 and 3); the top eigenvalue of each is the
    squared norm of A X (1-Pi) from micro states in the beta-norm to the
    mu-norm."""
    nx = ops.mrho.size
    v_perp = _micro_profiles(eq, ops)
    gram = sp.kron(v_perp.T @ v_perp, sp.diags(1.0 / eq.grid.x_grid.weights))
    root = np.sqrt(ops.mrho)
    grams = []
    for row in (2, 3):
        block = ops.profile_map[row * nx:(row + 1) * nx]
        g = (block @ gram @ block.T).toarray()
        half = operators.solve_elliptic(g, ops)                   # E^-1 G
        h = operators.solve_elliptic(np.ascontiguousarray(half.T), ops)
        h = root[:, None] * h * root[None, :]
        grams.append(0.5 * (h + h.T))
    return grams


def auxiliary_operator_norms(eq, ops):
    """(||AT(1-Pi)||, ||AL||) as maps from micro states in the beta-norm to
    the mu-norm: the exact suprema of the two parts of
    bounded_auxiliary_ratio, from two nx x nx eigenvalue problems."""
    nx = ops.mrho.size
    norms = []
    for h in _profile_grams(eq, ops):
        top = scipy.linalg.eigvalsh(h, subset_by_index=[nx - 1, nx - 1])[0]
        norms.append(float(np.sqrt(max(top, 0.0))))
    return tuple(norms)


def compute_constants(eq, ops, delta=None, seed=0):
    """Assemble HypoConstants for an equilibrium and its operators.

    lambda_m and lambda_M are the exact same-grid coercivity constants and
    c_M = ||AT(1-Pi)|| + ||AL|| (auxiliary_operator_norms) is the exact H4
    constant of the same discrete problem; the two parts are exposed as
    .c_M_parts = {"AT_micro", "AL"}. delta defaults to the midpoint
    delta_star / 2; lambda_rate refuses one outside (0, delta_star). Nothing
    here is random: seed is accepted so that callers may pass a config's
    seed, and is not read.
    """
    lam_m = microscopic_coercivity_constant(eq)
    lam_M = macroscopic_gap(ops)
    at_micro, al = auxiliary_operator_norms(eq, ops)
    c_M = at_micro + al
    ds = delta_star(lam_m, lam_M, c_M)
    if delta is None:
        delta = 0.5 * ds
    rate = lambda_rate(lam_m, lam_M, c_M, delta)
    return HypoConstants(lam_m, lam_M, c_M, ds, delta, rate,
                         {"AT_micro": at_micro, "AL": al})


def empirical_kappa(eq, ops, delta=None, sample_count=100, seed=1):
    """min_f D[f] / (||(1-Pi)f||_beta^2 + <ATPi f, Pi f>) over a random suite.

    A strictly positive value is the numerical content of the dissipation
    coercivity lemma for the chosen delta.
    """
    if delta is None:
        delta = 0.5 * compute_constants(eq, ops).delta_star
    ratios = []
    for f in _random_suite(eq, sample_count, seed):
        rec = dissipation_components(f, delta, eq, ops)
        if rec["kappa_denominator"] > 0.0:
            ratios.append(rec["D"] / rec["kappa_denominator"])
    if not ratios:
        raise NumericalError("no admissible sample in the kappa suite")
    return min(ratios)


def transport_coefficient_integrals(eq):
    """The v-integrals behind the beta < 1 transport bound, on the grid.

    kappa_sq = sum wv psi'(v)^2 <v>^{2-2 beta} g / g_mass  (<= 1 + O(dv^2))
    sigma_hat = sum wv psi'(v)^2 g / g_mass  (the normalized diffusion sigma)
    """
    vg = eq.grid.v_grid
    v = vg.nodes
    bracket = np.sqrt(1.0 + v ** 2)
    psi_prime = v * bracket ** (eq.spec.beta - 2.0)
    ghat = vg.weights * eq.g_star_v / eq.g_mass
    kappa_sq = float(np.sum(ghat * psi_prime ** 2
                            * bracket ** (2.0 - 2.0 * eq.spec.beta)))
    sigma_hat = float(np.sum(ghat * psi_prime ** 2))
    return {"kappa_sq": kappa_sq, "sigma_hat": sigma_hat}
