"""Potentials, Gibbs states, closed-form constants, and truncation checks."""

import math

import numpy as np
import pytest

from kfplab import (
    Grid1D,
    NumericalError,
    PhaseGrid,
    PotentialSpec,
    TruncationError,
    ValidationError,
    build_equilibrium,
    diffusion_sigma,
    eval_potential,
    moment_closed_form,
    psi_mass,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# potential specs
# ---------------------------------------------------------------------------

def test_potential_spec_validation():
    with pytest.raises(ValidationError):
        PotentialSpec("harmonic", 2.0)
    with pytest.raises(ValidationError):
        PotentialSpec("power", 0.0, alpha=2.0)
    with pytest.raises(ValidationError):
        PotentialSpec("power", 2.0)            # alpha missing
    with pytest.raises(ValidationError):
        PotentialSpec("logarithmic", 2.0)      # gamma missing
    with pytest.raises(ValidationError):
        PotentialSpec("power", 2.0, alpha=2.0, gamma=3.0)
    with pytest.raises(ValidationError):
        PotentialSpec("zero", 2.0, alpha=1.0)


def test_is_integrable_branches():
    assert PotentialSpec("power", 2.0, alpha=0.5).is_integrable()
    assert PotentialSpec("logarithmic", 2.0, gamma=3.0).is_integrable(d=1)
    assert not PotentialSpec("logarithmic", 2.0, gamma=0.5).is_integrable(d=1)
    assert not PotentialSpec("zero", 2.0).is_integrable()


def test_eval_potential_closed_forms():
    spec = PotentialSpec("power", 0.5, alpha=2.0)
    # phi = <x>^2 / 2 with <x> = sqrt(1 + x^2)
    assert eval_potential(spec, "x", 0.0) == pytest.approx(0.5)
    assert eval_potential(spec, "x", np.sqrt(3.0)) == pytest.approx(2.0)
    # psi = <v>^{1/2} / (1/2)
    assert eval_potential(spec, "v", 0.0) == pytest.approx(2.0)
    log_spec = PotentialSpec("logarithmic", 2.0, gamma=3.0)
    assert eval_potential(log_spec, "x", np.sqrt(3.0)) == pytest.approx(
        3.0 * np.log(2.0))
    zero_spec = PotentialSpec("zero", 2.0)
    assert eval_potential(zero_spec, "x", 1.7) == 0.0
    with pytest.raises(ValidationError):
        eval_potential(spec, "t", 0.0)


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

def test_diffusion_sigma_gaussian_values():
    # beta = 2: sigma = int v^2 e^{-(1+v^2)/2} dv = e^{-1/2} sqrt(2 pi)
    assert diffusion_sigma(2.0, 1) == pytest.approx(
        np.exp(-0.5) * SQRT_2PI, rel=1e-9)
    # d = 3: (1/3) int |v|^2 e^{-(1+|v|^2)/2} d^3v = e^{-1/2} (2 pi)^{3/2}
    assert diffusion_sigma(2.0, 3) == pytest.approx(
        np.exp(-0.5) * (2.0 * np.pi) ** 1.5, rel=1e-9)
    assert diffusion_sigma(0.5, 1) > 0.0
    with pytest.raises(ValidationError):
        diffusion_sigma(0.0, 1)


def test_psi_mass_and_normalized_sigma():
    assert psi_mass(2.0, 1) == pytest.approx(np.exp(-0.5) * SQRT_2PI, rel=1e-9)
    # for beta = 2 the two integrals coincide, so sigma / psi_mass = 1
    assert diffusion_sigma(2.0, 1) / psi_mass(2.0, 1) == pytest.approx(
        1.0, rel=1e-9)


def test_moment_closed_form_oracle():
    # int <x>^2 e^{-<x>^2/2} dx = e^{-1/2} (sqrt(2pi) + sqrt(2pi))
    exact, bound = moment_closed_form(2.0, 2.0, 1)
    assert exact == pytest.approx(2.0 * SQRT_2PI * np.exp(-0.5), rel=1e-9)
    # Gamma arithmetic: 1 * 2 * 2^{-1/2} * (Gamma(1/2) + 2 Gamma(3/2))
    assert bound == pytest.approx(2.0 * SQRT_2PI, rel=1e-12)
    assert exact <= bound


def test_moment_bound_dominates_exact():
    for k in (0.0, 1.0, 2.0, 4.0):
        for eta in (0.5, 1.0, 2.0):
            for d in (1, 2, 3):
                exact, bound = moment_closed_form(k, eta, d)
                assert exact > 0.0
                assert exact <= bound * (1.0 + 1e-12), (k, eta, d)
    with pytest.raises(ValidationError):
        moment_closed_form(-1.0, 2.0, 1)


def _mp_radial(a, c, beta, d):
    """|S^{d-1}| int_0^inf r^a <r>^c e^{-<r>^beta/beta} dr to 20 digits.

    mpmath integrates f(e^u) e^u du over finite breakpoints (an infinite
    endpoint hangs): the peak of the integrand in u and the points where it
    has fallen by e^15, e^60 on either side, found on a float grid.
    """
    mp = pytest.importorskip("mpmath")
    u = np.linspace(-200.0, 400.0, 6001)
    lb = np.logaddexp(0.0, 2.0 * u) / 2.0     # log <e^u>
    with np.errstate(over="ignore"):
        log_g = (a + 1) * u + c * lb - np.exp(beta * lb) / beta
    pts = set()
    for drop in (0.0, 15.0, 60.0):
        inside = np.flatnonzero(log_g >= log_g.max() - drop)
        pts.update((u[inside[0]], u[inside[-1]]))
    with mp.workdps(20):
        b = mp.mpf(beta)

        def g(t):
            r = mp.exp(t)
            br = mp.sqrt(1 + r * r)
            return r ** a * br ** c * mp.exp(-br ** b / b) * r

        half_d = mp.mpf(d) / 2
        return float(2 * mp.pi ** half_d / mp.gamma(half_d)
                     * mp.quad(g, sorted(pts)))


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.5, 2.0, 10.0, 50.0])
def test_radial_integrals_match_mpmath(beta):
    # relative accuracy also where the integral is far below 1 (beta = 0.05:
    # sigma is about 1.4e-9 at d = 1) and where <r>^beta overflows (beta >= 10)
    for d in (1, 2, 3):
        for value, ref in (
                (diffusion_sigma(beta, d),
                 _mp_radial(d + 1, 2.0 * beta - 4.0, beta, d) / d),
                (psi_mass(beta, d), _mp_radial(d - 1, 0.0, beta, d)),
                (moment_closed_form(2.0, beta, d)[0],
                 _mp_radial(d - 1, 2.0, beta, d))):
            assert abs(value / ref - 1.0) <= 1e-13, (d, value, ref)


def test_radial_rule_refuses_what_it_cannot_resolve():
    # <r>^2000 e^{-<r>^2/2} peaks near e^6600: a node value overflows
    with pytest.raises(NumericalError, match="not finite"):
        moment_closed_form(2000.0, 2.0, 1)
    # with eta = 4e-4 the mass of <r>^{e-1} e^{-<r>^eta/eta} dr lies near
    # log r = 1/eta = 2500, past the last node (t = 8, log r = 2341)
    with pytest.raises(NumericalError, match="tail is unresolved"):
        moment_closed_form(math.e - 1.0, 4e-4, 1)


# ---------------------------------------------------------------------------
# equilibrium construction
# ---------------------------------------------------------------------------

def test_build_equilibrium_gaussian_box(strong_strong):
    spec, grid, eq, _ = strong_strong
    assert eq.integrable
    assert eq.min_f_star > 0.0
    # Z = (int e^{-<x>^2/2})^2 = 2 pi e^{-1}
    assert eq.z_constant == pytest.approx(2.0 * np.pi * np.exp(-1.0), rel=1e-9)
    assert eq.sigma_normalized == pytest.approx(1.0, rel=1e-9)
    # discrete normalizations: unit mass in x, v, and phase space
    assert np.sum(grid.x_grid.weights * eq.rho_star.values) == pytest.approx(
        1.0, abs=1e-12)
    assert np.sum(grid.v_grid.weights * eq.g_hat) == pytest.approx(
        1.0, abs=1e-12)
    assert np.sum(grid.weight_matrix * eq.f_star.values) == pytest.approx(
        1.0, abs=1e-12)
    # product structure f_star = rho_star(x) g_hat(v) after normalization
    assert np.allclose(eq.f_star.values,
                       np.outer(eq.rho_star.values, eq.g_hat), rtol=1e-12)


def test_truncation_check_rejects_small_boxes():
    spec = PotentialSpec("power", 0.5, alpha=2.0)
    grid = PhaseGrid(Grid1D(8.0, 65), Grid1D(8.0, 65))
    # beta = 0.5 tail ratio at V = 8 is ~2.5e-2, far above the tolerance
    with pytest.raises(TruncationError):
        build_equilibrium(spec, grid, truncation_tol=1e-8)
    spec2 = PotentialSpec("power", 2.0, alpha=2.0)
    grid2 = PhaseGrid(Grid1D(3.0, 33), Grid1D(8.0, 65))
    # alpha = 2 at X = 3: e^{-(<3>^2-1)/2} = e^{-4.5} > 1e-8
    with pytest.raises(TruncationError):
        build_equilibrium(spec2, grid2, truncation_tol=1e-8)


def test_zero_potential_skips_x_check():
    spec = PotentialSpec("zero", 2.0)
    grid = PhaseGrid(Grid1D(2.0, 17), Grid1D(8.0, 65))
    eq = build_equilibrium(spec, grid)  # tiny X is fine: no x-decay required
    assert not eq.integrable
    assert eq.rho_scale == 1.0
    assert np.all(eq.rho_star.values == 1.0)


def test_logarithmic_equilibrium_builds():
    spec = PotentialSpec("logarithmic", 2.0, gamma=3.0)
    grid = PhaseGrid(Grid1D(8.0, 65), Grid1D(8.0, 65))
    # the <x>^{-3} boundary ratio is ~1.9e-3: needs the loose tolerance
    eq = build_equilibrium(spec, grid, truncation_tol=1e-2)
    assert eq.integrable
    assert eq.min_f_star > 0.0
    with pytest.raises(TruncationError):
        build_equilibrium(spec, grid, truncation_tol=1e-5)


def test_grid_moment_matches_whole_line_moment(strong_strong):
    from kfplab import weighted_moment

    _, _, eq, _ = strong_strong
    # int <x>^2 f_star dx dv over the box vs the R-integral ratio M_2 / M_0
    exact2, _ = moment_closed_form(2.0, 2.0, 1)
    exact0, _ = moment_closed_form(0.0, 2.0, 1)
    grid_val = weighted_moment(eq.f_star, "x", 2.0, eq)
    assert grid_val == pytest.approx(exact2 / exact0, rel=5e-4)
