"""Weighted least-squares fitters for all experiment datasets.

All fitters return a FitResult with 1-sigma uncertainties from the
weighted covariance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitFailure


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray
    yerr: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.yerr = np.asarray(self.yerr, dtype=float)
        if not (len(self.x) == len(self.y) == len(self.yerr)):
            raise ValueError("x, y, yerr must have equal length")
        if np.any(self.yerr <= 0):
            raise ValueError("yerr must be positive")


@dataclass
class FitResult:
    model: str
    names: tuple
    values: np.ndarray
    errors: np.ndarray
    covariance: np.ndarray
    reduced_chisq: float
    converged: bool

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def error(self, name: str) -> float:
        return float(self.errors[self.names.index(name)])

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "params": {n: {"value": float(v), "stderr": float(e)}
                       for n, v, e in zip(self.names, self.values, self.errors)},
            "reduced_chisq": float(self.reduced_chisq),
            "converged": bool(self.converged),
        }


def binomial_se(successes, trials):
    """Standard error of a binomial proportion; the +0.5/+1 adjustment at
    0 and full counts avoids zero weights."""
    k = np.asarray(successes, dtype=float)
    n = np.asarray(trials, dtype=float)
    p = k / n
    extreme = (k == 0) | (k == n)
    p_adj = np.where(extreme, (k + 0.5) / (n + 1.0), p)
    return np.sqrt(p_adj * (1.0 - p_adj) / n)


def _finish(model, names, func, ds, popt, pcov) -> FitResult:
    resid = (ds.y - func(ds.x, *popt)) / ds.yerr
    dof = max(len(ds.x) - len(popt), 1)
    errors = np.sqrt(np.maximum(np.diag(pcov), 0.0))
    return FitResult(model, tuple(names), np.asarray(popt, dtype=float),
                     errors, pcov, float(np.sum(resid**2) / dof), True)


_MAX_EVALS = 20000  # model evaluations before curve_fit gives up


def _curve(model, names, func, ds, p0, bounds=(-np.inf, np.inf)):
    from scipy.optimize import OptimizeWarning, curve_fit  # loaded on first use: only fits need it
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)  # a singular covariance raises below
            popt, pcov = curve_fit(func, ds.x, ds.y, p0=p0, sigma=ds.yerr,
                                   absolute_sigma=True, bounds=bounds, maxfev=_MAX_EVALS)
    except RuntimeError as exc:
        raise FitFailure(f"{model} fit did not converge: {exc}")
    if not np.all(np.isfinite(pcov)):
        raise FitFailure(f"{model} fit covariance is singular")
    return _finish(model, names, func, ds, popt, pcov)


def fit_decay(dataset: Dataset, form: str = "exp",
              fixed_offset: float = 0.5) -> FitResult:
    """form='exp':   y = A exp(-x/T)           -> (amplitude, tau)
    form='power':    y = A p^x + fixed_offset  -> (amplitude, p)
    """
    ds = dataset
    if len(ds.x) < 4:
        raise ValueError("need >= 4 points")
    if form == "exp":
        a0 = max(float(np.max(ds.y)), 1e-6)
        span = float(ds.x[-1] - ds.x[0]) or 1.0
        ratio = max(float(ds.y[0]) / max(float(ds.y[-1]), 1e-9), 1.0 + 1e-6)
        t0 = span / math.log(ratio) if ratio > 1 + 1e-9 else 10.0 * span
        return _curve("decay_exp", ("amplitude", "tau"),
                      lambda x, a, t: a * np.exp(-x / t), ds, [a0, t0],
                      bounds=([0.0, 1e-300], [np.inf, np.inf]))
    if form == "power":
        c = fixed_offset
        a0 = max(float(ds.y[0]) - c, 1e-6)
        tail = max((float(ds.y[-1]) - c) / a0, 1e-9)
        span = float(ds.x[-1] - ds.x[0]) or 1.0
        p0 = min(max(tail ** (1.0 / span), 1e-6), 1.0)
        res = _curve("decay_power", ("amplitude", "p"),
                     lambda x, a, p: a * p**x + c, ds, [a0, p0],
                     bounds=([0.0, 0.0], [np.inf, 1.0 + 1e-12]))
        res.model += f"_offset_{c:g}"
        return res
    raise ValueError("form must be 'exp' or 'power'")


def gaussian(x, a, c, w, o):
    """The fit_gaussian model at x for parameters (amplitude, center, waist, offset)."""
    return a * np.exp(-2.0 * (x - c) ** 2 / w**2) + o


def fit_gaussian(dataset: Dataset) -> FitResult:
    """y = A exp(-2 (x-c)^2 / w^2) + offset -> (amplitude, center, waist, offset).

    The factor 2 makes w the waist of an intensity/Omega^2 profile, matching
    the addressing-scan convention.
    """
    ds = dataset
    if len(ds.x) < 5:
        raise ValueError("need >= 5 points spanning the peak")
    off0 = float(np.min(ds.y))
    a0 = float(np.max(ds.y)) - off0
    c0 = float(ds.x[np.argmax(ds.y)])
    weights = np.maximum(ds.y - off0, 0.0)
    wsum = float(np.sum(weights)) or 1.0
    var = float(np.sum(weights * (ds.x - c0) ** 2) / wsum)
    w0 = max(2.0 * math.sqrt(max(var, 1e-30)), 1e-6 * (ds.x[-1] - ds.x[0] or 1.0))
    return _curve("gaussian", ("amplitude", "center", "waist", "offset"),
                  gaussian, ds, [a0, c0, w0, off0])


def _weighted_solve(design: np.ndarray, ds: Dataset) -> tuple:
    """Weighted linear least squares of ds.y on the design columns:
    (coefficients, covariance, reduced chi^2)."""
    w = 1.0 / ds.yerr
    aw = design * w[:, None]
    coef, *_ = np.linalg.lstsq(aw, ds.y * w, rcond=None)
    cov = np.linalg.pinv(aw.T @ aw)
    resid = (ds.y - design @ coef) / ds.yerr
    dof = max(len(ds.x) - design.shape[1], 1)
    return coef, cov, float(np.sum(resid**2) / dof)


def fit_fringe(dataset: Dataset, frequency: float) -> FitResult:
    """Fixed-frequency sinusoid, linear in parameters:
    y = offset + a cos(f x) + b sin(f x) -> (amplitude, phase, offset).
    """
    if not math.isfinite(frequency):
        raise ValueError(f"frequency must be finite, got {frequency}")
    ds = dataset
    if len(ds.x) < 3:
        raise ValueError("need >= 3 points")
    design = np.column_stack([np.ones_like(ds.x),
                              np.cos(frequency * ds.x),
                              np.sin(frequency * ds.x)])
    if np.linalg.matrix_rank(design[:, :2] / ds.yerr[:, None]) < 2:
        raise ValueError(f"frequency={frequency} leaves cos(f x) constant across x: "
                         "the amplitude cannot be told from the offset")
    coef, cov, chisq = _weighted_solve(design, ds)
    off, a, b = coef
    amp = math.hypot(a, b)
    phase = math.atan2(-b, a)
    # Propagate (a, b) covariance onto the amplitude.
    if amp > 0:
        g = np.array([a / amp, b / amp])
        var_amp = float(g @ cov[1:, 1:] @ g)
        gp = np.array([b, -a]) / amp**2
        var_phase = float(gp @ cov[1:, 1:] @ gp)
    else:
        var_amp = float(np.trace(cov[1:, 1:]) / 2.0)
        var_phase = math.pi**2 / 3.0
    full_cov = np.diag([var_amp, var_phase, float(cov[0, 0])])
    return FitResult("fringe", ("amplitude", "phase", "offset"),
                     np.array([amp, phase, off]),
                     np.sqrt(np.diag(full_cov)), full_cov, chisq, True)


def fit_power_law(dataset: Dataset) -> FitResult:
    """y = A x^(-alpha) via weighted log-log regression -> (amplitude, alpha)."""
    ds = dataset
    if len(ds.x) < 3:
        raise ValueError("need >= 3 points")
    if np.any(ds.x <= 0) or np.any(ds.y <= 0):
        raise ValueError("power-law fit needs positive x and y")
    ly = np.log(ds.y)
    lx = np.log(ds.x)
    lerr = ds.yerr / ds.y
    lin = fit_linear(Dataset(lx, ly, lerr))
    slope, icept = lin["slope"], lin["intercept"]
    amp = math.exp(icept)
    # d(amp) = amp * d(intercept)
    cov = np.array([[amp**2 * lin.covariance[1, 1], -amp * lin.covariance[0, 1]],
                    [-amp * lin.covariance[1, 0], lin.covariance[0, 0]]])
    return FitResult("power_law", ("amplitude", "alpha"),
                     np.array([amp, -slope]), np.sqrt(np.diag(cov)), cov,
                     lin.reduced_chisq, True)


def fit_linear(dataset: Dataset) -> FitResult:
    """Weighted linear regression y = slope x + intercept."""
    ds = dataset
    if len(np.unique(ds.x)) < 2:
        raise ValueError("need >= 2 distinct x values")
    coef, cov, chisq = _weighted_solve(np.column_stack([ds.x, np.ones_like(ds.x)]), ds)
    return FitResult("linear", ("slope", "intercept"), coef,
                     np.sqrt(np.diag(cov)), cov, chisq, True)
