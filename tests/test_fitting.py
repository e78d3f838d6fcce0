"""Fitters: noiseless recovery, invariances, coverage, failure handling."""

import math
import warnings

import numpy as np
import pytest

from iontrap_bench.errors import FitFailure
from iontrap_bench.fitting import (Dataset, binomial_se, fit_decay, fit_fringe,
                                   fit_gaussian, fit_linear, fit_power_law)


def _ds(x, y, err=1e-3):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return Dataset(x, y, np.full_like(y, err))


# ---------------------------------------------------------------------------
# Noiseless recovery (1e-6)
# ---------------------------------------------------------------------------

def test_exp_decay_noiseless():
    x = np.linspace(0.0, 5.0, 12)
    fit = fit_decay(_ds(x, 0.8 * np.exp(-x / 1.7)), form="exp")
    assert fit["amplitude"] == pytest.approx(0.8, abs=1e-6)
    assert fit["tau"] == pytest.approx(1.7, abs=1e-6)


def test_power_decay_noiseless():
    x = np.arange(1, 60, 5, dtype=float)
    fit = fit_decay(_ds(x, 0.45 * 0.97**x + 0.5), form="power", fixed_offset=0.5)
    assert fit["amplitude"] == pytest.approx(0.45, abs=1e-6)
    assert fit["p"] == pytest.approx(0.97, abs=1e-6)


def test_gaussian_noiseless():
    x = np.linspace(-3.0, 3.0, 25)
    y = 0.9 * np.exp(-2.0 * (x - 0.4) ** 2 / 1.09**2) + 0.05
    fit = fit_gaussian(_ds(x, y))
    assert fit["amplitude"] == pytest.approx(0.9, abs=1e-6)
    assert fit["center"] == pytest.approx(0.4, abs=1e-6)
    assert fit["waist"] == pytest.approx(1.09, abs=1e-6)
    assert fit["offset"] == pytest.approx(0.05, abs=1e-6)


def test_fringe_noiseless():
    x = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    f = 4.0
    y = 0.5 + 0.47 * np.cos(f * x + 0.9)
    fit = fit_fringe(_ds(x, y), frequency=f)
    assert fit["amplitude"] == pytest.approx(0.47, abs=1e-6)
    assert fit["phase"] == pytest.approx(0.9, abs=1e-6)
    assert fit["offset"] == pytest.approx(0.5, abs=1e-6)


def test_power_law_noiseless():
    x = np.array([0.7e6, 1.05e6, 1.6e6, 2.4e6])
    y = 3.0 * x**-1.7
    fit = fit_power_law(Dataset(x, y, 1e-6 * y))
    assert fit["alpha"] == pytest.approx(1.7, abs=1e-6)
    assert fit["amplitude"] == pytest.approx(3.0, rel=1e-6)


def test_linear_noiseless():
    x = np.linspace(-40.0, 40.0, 9)
    fit = fit_linear(_ds(x, 3.1 * x - 0.2))
    assert fit["slope"] == pytest.approx(3.1, abs=1e-9)
    assert fit["intercept"] == pytest.approx(-0.2, abs=1e-9)


# ---------------------------------------------------------------------------
# Invariances and edge cases
# ---------------------------------------------------------------------------

def test_exp_decay_x_rescale_invariance():
    rng = np.random.default_rng(4)
    x = np.linspace(0.0, 0.04, 10)  # seconds
    y = np.exp(-x / 0.018) + rng.normal(0.0, 1e-3, len(x))
    f1 = fit_decay(_ds(x, y), form="exp")
    f2 = fit_decay(_ds(x * 1e3, y), form="exp")  # milliseconds
    assert f2["tau"] == pytest.approx(f1["tau"] * 1e3, rel=1e-9)
    assert f2["amplitude"] == pytest.approx(f1["amplitude"], rel=1e-9)


def test_fringe_full_contrast_and_flat():
    x = np.linspace(0.0, 2 * math.pi, 32, endpoint=False)
    full = fit_fringe(_ds(x, 0.5 + 0.5 * np.cos(3 * x)), frequency=3.0)
    assert full["amplitude"] == pytest.approx(0.5, abs=1e-9)
    flat = fit_fringe(_ds(x, np.full_like(x, 0.37)), frequency=3.0)
    assert flat["amplitude"] == pytest.approx(0.0, abs=1e-9)
    assert flat["offset"] == pytest.approx(0.37, abs=1e-9)


@pytest.mark.parametrize("frequency", [math.nan, math.inf, -math.inf])
def test_fringe_rejects_a_nonfinite_frequency(frequency):
    x = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    with pytest.raises(ValueError, match="frequency must be finite"):
        fit_fringe(_ds(x, 0.5 + 0.5 * np.cos(x)), frequency=frequency)


@pytest.mark.parametrize("frequency", [0.0, 2 * math.pi])
def test_fringe_rejects_a_frequency_that_leaves_no_fringe(frequency):
    # On integer x, cos(f x) is 1 at every point: the offset and amplitude
    # columns coincide, so their split, and any error on it, is arbitrary.
    with pytest.raises(ValueError, match="frequency=.*amplitude cannot be told from the offset"):
        fit_fringe(_ds([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.25], err=0.01),
                   frequency=frequency)


@pytest.mark.parametrize("fit, x, message", [
    (lambda d: fit_fringe(d, frequency=3.0), [0.0], "need >= 3 points"),
    (lambda d: fit_fringe(d, frequency=3.0), [0.0, 1.0], "need >= 3 points"),
    (fit_linear, [2.0], "need >= 2 distinct x values"),
    (fit_linear, [1.0, 1.0, 1.0], "need >= 2 distinct x values"),
    (fit_power_law, [1.0, 1.0, 1.0], "need >= 2 distinct x values"),
], ids=["fringe_1", "fringe_2", "linear_1", "linear_one_x", "power_law_one_x"])
def test_underdetermined_fit_is_rejected(fit, x, message):
    """A fit with fewer distinct points than its parameters raises, rather
    than report an exact fit with converged true."""
    with pytest.raises(ValueError, match=message):
        fit(_ds(x, np.linspace(0.3, 0.7, len(x)), err=0.05))


def test_binomial_se_values_and_extremes():
    assert binomial_se(50, 100) == pytest.approx(0.05)
    assert binomial_se(0, 100) > 0
    assert binomial_se(100, 100) > 0
    se = binomial_se(np.array([0, 50, 100]), np.array([100, 100, 100]))
    assert np.all(se > 0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.arange(3.0), np.arange(2.0), np.ones(3))
    with pytest.raises(ValueError):
        Dataset(np.arange(3.0), np.arange(3.0), np.zeros(3))


def test_fit_failure_and_point_count_checks():
    with pytest.raises(ValueError):
        fit_decay(_ds([0.0, 1.0], [1.0, 0.5]), form="exp")
    with pytest.raises(ValueError):
        fit_power_law(_ds([1.0, -2.0, 3.0], [1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        fit_decay(_ds(np.arange(5.0), np.ones(5)), form="nope")


# ---------------------------------------------------------------------------
# Confidence-interval coverage: 1-sigma interval covers the truth ~68%
# ---------------------------------------------------------------------------

def _coverage(make_y, fit_func, param, truth, n_trials=500, err=0.01, seed=0):
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_trials):
        ds = make_y(rng, err)
        fit = fit_func(ds)
        hits += abs(fit[param] - truth) <= fit.error(param)
    return hits / n_trials * 100.0


def test_coverage_exp_decay():
    x = np.linspace(0.0, 5.0, 15)

    def make(rng, err):
        return _ds(x, np.exp(-x / 1.5) + rng.normal(0.0, err, len(x)), err)

    cov = _coverage(make, lambda d: fit_decay(d, form="exp"), "tau", 1.5)
    assert 60.0 <= cov <= 76.0


def test_coverage_linear():
    x = np.linspace(-1.0, 1.0, 11)

    def make(rng, err):
        return _ds(x, 2.0 * x + 0.3 + rng.normal(0.0, err, len(x)), err)

    cov = _coverage(make, fit_linear, "slope", 2.0, seed=1)
    assert 60.0 <= cov <= 76.0


def test_coverage_gaussian():
    x = np.linspace(-3.0, 3.0, 21)

    def make(rng, err):
        y = 0.9 * np.exp(-2 * x**2 / 1.1**2) + 0.05 + rng.normal(0.0, err, len(x))
        return _ds(x, y, err)

    cov = _coverage(make, fit_gaussian, "waist", 1.1, seed=2)
    assert 60.0 <= cov <= 76.0


def test_coverage_fringe():
    x = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)

    def make(rng, err):
        y = 0.5 + 0.4 * np.cos(5 * x + 0.7) + rng.normal(0.0, err, len(x))
        return _ds(x, y, err)

    cov = _coverage(make, lambda d: fit_fringe(d, frequency=5.0),
                    "amplitude", 0.4, seed=3)
    assert 60.0 <= cov <= 76.0


def test_coverage_power_law():
    x = np.array([0.5, 1.0, 2.0, 4.0, 8.0])

    def make(rng, err):
        y = 2.0 * x**-1.7
        y = y * (1.0 + rng.normal(0.0, err, len(x)))
        return Dataset(x, y, err * 2.0 * x**-1.7)

    cov = _coverage(make, fit_power_law, "alpha", 1.7, seed=4)
    assert 60.0 <= cov <= 76.0


def test_a_singular_covariance_is_one_fit_failure_and_no_warning():
    """A flat zero profile leaves the Gaussian's covariance undefined:
    _curve raises FitFailure, and scipy's OptimizeWarning, which a CLI run
    would print, is not emitted."""
    x = np.linspace(-5.0, 5.0, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitFailure, match="covariance is singular"):
            fit_gaussian(Dataset(x, np.zeros(41), np.full(41, 1e-6)))
