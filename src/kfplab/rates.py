"""Regime classification, rate fitting, and Bihari-LaSalle envelopes.

The classifier maps the confinement parameters to the predicted long-time
behaviour of the squared norm: exponential for strong confinement in both
variables, algebraic with an explicit exponent otherwise. Kinetic dynamics
follows the six-case table

    case 1: beta >= 1, alpha >= 1          exponential, rate lambda
    case 2: beta < 1,  alpha >= 1          (1+t)^{-l/(2(1-beta))}
    case 3: beta >= 1, alpha in (0,1)      (1+t)^{-k/(2(1-alpha))}
    case 4: beta < 1,  alpha in (0,1)      exponent min of cases 2 and 3
    case 5: beta >= 1, no potential        (1+t)^{-d/2}
    case 6: beta < 1,  no potential        exponent min{d/2, l/(2(1-beta))}

and macroscopic dynamics follows the five-column table (no potential,
logarithmic below/above d, power below/above 1) with tags table1.nash,
table1.ckn, table1.hardy_poincare, table1.weighted_poincare,
table1.poincare.
"""

import numpy as np

from .errors import FittingError, ValidationError

_REGIMES = ("exponential", "algebraic", "no_decay")


class RegimePrediction:
    """Predicted behaviour: regime, algebraic exponent and/or rate, source tag."""

    def __init__(self, regime, exponent, rate, source):
        if regime not in _REGIMES:
            raise ValidationError("unknown regime %r" % (regime,))
        if regime == "algebraic" and not (exponent is not None and exponent > 0):
            raise ValidationError("algebraic regime needs a positive exponent")
        if regime == "exponential" and rate is not None and rate <= 0:
            raise ValidationError("exponential regime needs a positive rate")
        self.regime = regime
        self.exponent = None if exponent is None else float(exponent)
        self.rate = None if rate is None else float(rate)
        self.source = str(source)

    def __repr__(self):
        return ("RegimePrediction(regime=%r, exponent=%s, rate=%s, source=%r)"
                % (self.regime, self.exponent, self.rate, self.source))


def classify_regime(spec, k=None, ell=None, d=1, dynamics="kinetic",
                    rate=None):
    """Predicted decay/convergence regime for the squared norm.

    spec is the PotentialSpec of the problem: its x_mode, alpha or gamma and
    beta decide the case. k and ell are the x- and v-moment parameters
    entering the algebraic exponents; rate is the (externally computed)
    exponential rate, embedded when available.
    """
    mode, beta, alpha, gamma = spec.x_mode, spec.beta, spec.alpha, spec.gamma
    d = int(d)
    if d < 1:
        raise ValidationError("d must be a positive integer")
    if dynamics not in ("kinetic", "macro"):
        raise ValidationError("dynamics must be 'kinetic' or 'macro'")

    def need(name, val):
        if val is None or val <= 0:
            raise ValidationError("%s must be positive for this regime" % name)
        return float(val)

    if dynamics == "macro":
        if mode == "zero":
            return RegimePrediction("algebraic", 0.5 * d, None, "table1.nash")
        if mode == "logarithmic":
            if gamma < d:
                return RegimePrediction("algebraic", 0.5 * (d - gamma), None,
                                        "table1.ckn")
            if gamma > d:
                return RegimePrediction("algebraic", 0.5 * need("k", k), None,
                                        "table1.hardy_poincare")
            raise ValidationError("gamma = d sits on the boundary of the "
                                  "classification")
        if alpha >= 1.0:
            return RegimePrediction("exponential", None, rate,
                                    "table1.poincare")
        return RegimePrediction("algebraic",
                                0.5 * need("k", k) / (1.0 - alpha), None,
                                "table1.weighted_poincare")

    # kinetic dynamics: power or no potential only
    if mode == "logarithmic":
        raise ValidationError("kinetic classification covers power or zero "
                              "potentials only")
    if mode == "zero":
        if beta >= 1.0:
            return RegimePrediction("algebraic", 0.5 * d, None, "thm2.case5")
        zeta = min(0.5 * d, need("ell", ell) / (2.0 * (1.0 - beta)))
        return RegimePrediction("algebraic", zeta, None, "thm2.case6")
    if beta >= 1.0 and alpha >= 1.0:
        return RegimePrediction("exponential", None, rate, "thm2.case1")
    if beta < 1.0 and alpha >= 1.0:
        return RegimePrediction("algebraic",
                                need("ell", ell) / (2.0 * (1.0 - beta)), None,
                                "thm2.case2")
    if beta >= 1.0:
        return RegimePrediction("algebraic",
                                need("k", k) / (2.0 * (1.0 - alpha)), None,
                                "thm2.case3")
    zeta = min(need("k", k) / (2.0 * (1.0 - alpha)),
               need("ell", ell) / (2.0 * (1.0 - beta)))
    return RegimePrediction("algebraic", zeta, None, "thm2.case4")


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def default_window(record, fraction=0.5):
    """The last `fraction` of the recorded time span."""
    t = record.times
    if t.size < 2:
        raise FittingError("trajectory too short to define a window")
    lo = t[-1] - fraction * (t[-1] - t[0])
    return (float(lo), float(t[-1]))


def fit_rate(record, kind, window=None):
    """Least-squares decay rate of norm_sq_mu over the window.

    kind='exponential' fits log y against t and returns the decay rate;
    kind='algebraic' fits log y against log(1+t) and returns the exponent.
    The returned value is minus the fitted slope (positive for decay) along
    with the r-squared of the fit.
    """
    if kind not in ("exponential", "algebraic"):
        raise ValidationError("kind must be 'exponential' or 'algebraic'")
    if window is None:
        window = default_window(record)
    t_lo, t_hi = float(window[0]), float(window[1])
    t = record.times
    if t_lo < t[0] - 1e-12 or t_hi > t[-1] + 1e-12 or t_lo >= t_hi:
        raise FittingError("window (%g, %g) outside recorded times" % (t_lo, t_hi))
    mask = (t >= t_lo - 1e-12) & (t <= t_hi + 1e-12)
    if int(np.count_nonzero(mask)) < 10:
        raise FittingError("need at least 10 samples in the window")
    y = record.norm_sq_mu[mask]
    if np.any(y <= 0.0):
        raise FittingError("norm series must be positive inside the window")
    x = t[mask] if kind == "exponential" else np.log1p(t[mask])
    logy = np.log(y)
    slope, intercept = np.polyfit(x, logy, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), float(r_sq)


def fit_rate_with_sensitivity(record, kind):
    """Default-window fit plus the 30% / 70% window sensitivity values."""
    value, r_sq = fit_rate(record, kind, default_window(record, 0.5))
    out = {"value": value, "r_squared": r_sq,
           "window": default_window(record, 0.5)}
    for frac in (0.3, 0.7):
        try:
            v, _ = fit_rate(record, kind, default_window(record, frac))
        except FittingError:
            v = float("nan")
        out["value_window_%d" % int(100 * frac)] = v
    return out


# ---------------------------------------------------------------------------
# Bihari-LaSalle envelopes
# ---------------------------------------------------------------------------

def bihari_lasalle_envelope(h0, c, zeta, times):
    """Closed-form solution of z' = -c z^{1 + 1/zeta}, z(0) = h0.

    Separation of variables gives z(t) = h0 (1 + (c/zeta) h0^{1/zeta} t)^{-zeta}.
    """
    if h0 <= 0 or c <= 0 or zeta <= 0:
        raise ValidationError("bihari_lasalle_envelope needs positive inputs")
    times = np.asarray(times, dtype=float)
    return h0 * (1.0 + (c / zeta) * h0 ** (1.0 / zeta) * times) ** (-zeta)


def bihari_lasalle_rk4(h0, c, zeta, times, max_substep=0.005):
    """Fixed-step RK4 integration of z' = -c z^{1 + 1/zeta} on the time grid.

    Cross-check companion for the closed form; agreement to 1e-6 is the
    sanity bar for both.
    """
    if h0 <= 0 or c <= 0 or zeta <= 0:
        raise ValidationError("bihari_lasalle_rk4 needs positive inputs")
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return np.zeros(0)
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValidationError("times must be nondecreasing and nonnegative")

    def rhs(z):
        return -c * z ** (1.0 + 1.0 / zeta)

    out = np.empty_like(times)
    z = float(h0)
    t = 0.0
    for i, target in enumerate(times):
        span = target - t
        if span > 0:
            n_sub = max(1, int(np.ceil(span / max_substep)))
            h = span / n_sub
            for _ in range(n_sub):
                k1 = rhs(z)
                k2 = rhs(z + 0.5 * h * k1)
                k3 = rhs(z + 0.5 * h * k2)
                k4 = rhs(z + h * k3)
                z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = target
        out[i] = z
    return out
