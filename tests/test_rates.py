"""Regime classification, rate fitting, and Bihari-LaSalle envelopes."""

import numpy as np
import pytest

from kfplab import (
    FittingError,
    PotentialSpec,
    TrajectoryRecord,
    ValidationError,
    bihari_lasalle_envelope,
    bihari_lasalle_rk4,
    classify_regime,
    default_window,
    fit_rate,
    fit_rate_with_sensitivity,
)


def _record_from(times, values):
    n = len(times)
    return TrajectoryRecord(times, values, values, np.zeros(n), {}, {},
                            np.ones(n, dtype=bool), values)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _power(alpha, beta):
    return PotentialSpec("power", beta, alpha=alpha)


def test_kinetic_case_table():
    # (alpha, beta) quadrants of the kinetic classification
    p = classify_regime(_power(2.0, 2.0), rate=0.25)
    assert (p.regime, p.source, p.rate) == ("exponential", "thm2.case1", 0.25)

    p = classify_regime(_power(2.0, 0.5), ell=2.0)
    assert (p.regime, p.source) == ("algebraic", "thm2.case2")
    assert p.exponent == pytest.approx(2.0)   # ell / (2 (1 - beta))

    p = classify_regime(_power(0.5, 2.0), k=2.0)
    assert (p.regime, p.source) == ("algebraic", "thm2.case3")
    assert p.exponent == pytest.approx(2.0)   # k / (2 (1 - alpha))

    p = classify_regime(_power(0.5, 0.5), k=2.0, ell=3.0)
    assert (p.regime, p.source) == ("algebraic", "thm2.case4")
    assert p.exponent == pytest.approx(2.0)   # min{2, 3}

    p = classify_regime(PotentialSpec("zero", 2.0))
    assert (p.regime, p.source) == ("algebraic", "thm2.case5")
    assert p.exponent == pytest.approx(0.5)   # d / 2

    p = classify_regime(PotentialSpec("zero", 0.5), ell=0.5)
    assert (p.regime, p.source) == ("algebraic", "thm2.case6")
    assert p.exponent == pytest.approx(0.5)   # min{d/2, ell/(2(1-beta))}


def test_macro_case_table():
    p = classify_regime(PotentialSpec("zero", 2.0), dynamics="macro")
    assert (p.source, p.exponent) == ("table1.nash", 0.5)

    p = classify_regime(PotentialSpec("logarithmic", 2.0, gamma=0.5),
                        dynamics="macro")
    assert (p.source, p.exponent) == ("table1.ckn", 0.25)

    p = classify_regime(PotentialSpec("logarithmic", 2.0, gamma=3.0), k=1.0,
                        dynamics="macro")
    assert (p.source, p.exponent) == ("table1.hardy_poincare", 0.5)

    p = classify_regime(_power(2.0, 2.0), dynamics="macro", rate=1.9)
    assert (p.source, p.regime, p.rate) == ("table1.poincare", "exponential",
                                            1.9)

    p = classify_regime(_power(0.5, 2.0), k=2.0, dynamics="macro")
    assert (p.source, p.exponent) == ("table1.weighted_poincare", 2.0)


def test_classification_accepts_potential_spec():
    # spec.beta decides the case: alpha = 2 is case 2 with beta = 0.5 and
    # case 1 with beta = 2
    p = classify_regime(PotentialSpec("power", 0.5, alpha=2.0), ell=2.0)
    assert p.source == "thm2.case2"
    assert p.exponent == pytest.approx(2.0)   # ell / (2 (1 - 0.5))
    p = classify_regime(PotentialSpec("power", 2.0, alpha=2.0), ell=2.0)
    assert p.source == "thm2.case1"


def test_classification_validation():
    with pytest.raises(ValidationError):            # kinetic + log
        classify_regime(PotentialSpec("logarithmic", 2.0, gamma=3.0), k=1.0)
    with pytest.raises(ValidationError):            # gamma = d
        classify_regime(PotentialSpec("logarithmic", 2.0, gamma=1.0), k=1.0,
                        dynamics="macro")
    with pytest.raises(ValidationError):
        classify_regime(_power(0.5, 2.0))           # k missing for case 3
    with pytest.raises(ValidationError):
        classify_regime(_power(2.0, 0.5))           # ell missing for case 2
    with pytest.raises(ValidationError):
        classify_regime(_power(2.0, 2.0), d=0)
    with pytest.raises(ValidationError):
        classify_regime(_power(2.0, 2.0), dynamics="stationary")


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_rate_exact_on_synthetic_series():
    t = np.linspace(0.0, 10.0, 101)
    rec = _record_from(t, 3.0 * np.exp(-0.7 * t))
    rate, r2 = fit_rate(rec, "exponential")
    assert rate == pytest.approx(0.7, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)

    rec = _record_from(t, 5.0 * (1.0 + t) ** -2.0)
    expo, r2 = fit_rate(rec, "algebraic")
    assert expo == pytest.approx(2.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_default_window_is_last_fraction():
    t = np.linspace(0.0, 8.0, 33)
    rec = _record_from(t, np.exp(-t))
    lo, hi = default_window(rec)
    assert (lo, hi) == (4.0, 8.0)
    lo, hi = default_window(rec, 0.25)
    assert lo == pytest.approx(6.0)


def test_fit_rate_window_validation():
    t = np.linspace(0.0, 10.0, 51)
    rec = _record_from(t, np.exp(-t))
    with pytest.raises(ValidationError):
        fit_rate(rec, "linear")
    with pytest.raises(FittingError):
        fit_rate(rec, "exponential", window=(8.0, 20.0))   # beyond the data
    with pytest.raises(FittingError):
        fit_rate(rec, "exponential", window=(9.5, 10.0))   # < 10 samples
    vals = np.exp(-t)
    vals[40] = 0.0
    with pytest.raises(FittingError):
        fit_rate(_record_from(t, vals), "exponential", window=(5.0, 10.0))


def test_fit_rate_sensitivity_windows():
    t = np.linspace(0.0, 10.0, 101)
    # pure power law: every window recovers the same exponent
    rec = _record_from(t, (1.0 + t) ** -1.5)
    out = fit_rate_with_sensitivity(rec, "algebraic")
    assert sorted(out) == ["r_squared", "value", "value_window_30",
                           "value_window_70", "window"]
    assert out["value"] == pytest.approx(1.5, rel=1e-12)
    assert out["value_window_30"] == pytest.approx(1.5, rel=1e-10)
    assert out["value_window_70"] == pytest.approx(1.5, rel=1e-10)


# ---------------------------------------------------------------------------
# Bihari-LaSalle envelopes
# ---------------------------------------------------------------------------

def test_bihari_lasalle_closed_form():
    t = np.linspace(0.0, 20.0, 81)
    h0, c, zeta = 1.7, 0.4, 2.0
    env = bihari_lasalle_envelope(h0, c, zeta, t)
    manual = h0 * (1.0 + (c / zeta) * h0 ** (1.0 / zeta) * t) ** -zeta
    assert np.allclose(env, manual, rtol=1e-14)
    assert env[0] == pytest.approx(h0)


def test_bihari_lasalle_matches_rk4():
    # the envelope integrates z' = -c z^{1 + 1/zeta} exactly
    t = np.linspace(0.0, 50.0, 101)
    for zeta in (0.5, 1.0, 2.0):
        env = bihari_lasalle_envelope(1.0, 0.8, zeta, t)
        rk4 = bihari_lasalle_rk4(1.0, 0.8, zeta, t)
        assert np.max(np.abs(env - rk4) / env) < 1e-6


def test_bihari_lasalle_validation():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValidationError):
        bihari_lasalle_envelope(1.0, 0.5, 0.0, t)
    with pytest.raises(ValidationError):
        bihari_lasalle_envelope(1.0, -0.5, 1.0, t)
    with pytest.raises(ValidationError):
        bihari_lasalle_envelope(-1.0, 0.5, 1.0, t)
