"""Tests for the L1 logistic baseline and cross-validation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize
from scipy.special import logit

from deepcoda import (
    apply_transform,
    clr,
    cv_select_lambda,
    gen_toy,
    lasso_logistic_fit,
    lasso_objective,
    scaled_magnitudes,
    soft_threshold,
)
from deepcoda.evaluate import auc, split


def overlap_1d(n=120, seed=0):
    """1-D two-class data with overlapping Gaussians (finite MLE)."""
    rng = np.random.default_rng(seed)
    y = np.zeros(n, dtype=int)
    y[n // 2 :] = 1
    x = rng.normal(0.0, 1.0, size=n) + 1.2 * y
    return x[:, None], y


class TestSoftThreshold:
    def test_matches_closed_form(self):
        u = np.array([-3.0, -0.5, 0.0, 0.2, 4.0])
        t = 0.6
        expected = np.sign(u) * np.maximum(np.abs(u) - t, 0.0)
        assert np.array_equal(soft_threshold(u, t), expected)

    def test_exact_values(self):
        assert soft_threshold(2.0, 0.5) == 1.5
        assert soft_threshold(-2.0, 0.5) == -1.5
        assert soft_threshold(0.3, 0.5) == 0.0
        assert soft_threshold(0.0, 0.5) == 0.0


class TestLassoFit:
    def test_huge_penalty_shrinks_to_prevalence(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0.5, 2.0, size=(90, 3))
        y = np.zeros(90, dtype=int)
        y[:30] = 1  # prevalence 1/3
        model = lasso_logistic_fit(X, y, lam=1e6)
        assert np.all(model.coef == 0.0)
        assert model.intercept == pytest.approx(float(logit(30 / 90)), abs=1e-6)

    def test_unpenalized_fit_matches_generic_optimizer(self):
        X, y = overlap_1d()

        def objective(theta):
            return lasso_objective(X, y, theta[:1], theta[1], 0.0)

        oracle = minimize(objective, np.zeros(2), method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14})
        model = lasso_logistic_fit(X, y, lam=0.0)
        assert model.coef[0] == pytest.approx(oracle.x[0], abs=1e-4)

    def test_objective_not_worse_than_origin(self):
        X, y = overlap_1d(seed=3)
        for lam in (0.0, 0.01, 0.3):
            model = lasso_logistic_fit(X, y, lam)
            at_solution = lasso_objective(X, y, model.coef, model.intercept, lam)
            at_origin = lasso_objective(X, y, np.zeros(X.shape[1]), 0.0, lam)
            assert at_solution <= at_origin + 1e-12

    def test_sparsity_monotone_in_lambda(self):
        ds = gen_toy(200, seed=5)
        X = ds.relative.values
        counts = []
        for lam in np.logspace(-4, 0, 8):
            model = lasso_logistic_fit(X, ds.labels, float(lam))
            counts.append(int(np.sum(model.coef != 0.0)))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_rejects_single_class(self):
        X = np.ones((4, 2))
        with pytest.raises(ValueError):
            lasso_logistic_fit(X, np.zeros(4, dtype=int), 0.1)

    def test_rejects_negative_lambda(self):
        X, y = overlap_1d()
        with pytest.raises(ValueError):
            lasso_logistic_fit(X, y, -0.1)

    def test_fit_stopped_at_cap_is_not_converged(self):
        X, y = overlap_1d()
        model = lasso_logistic_fit(X, y, 0.01, max_iter=5)
        assert model.converged is False
        assert model.n_iter == 5

    def test_toy_fit_converges(self):
        ds = gen_toy(200, seed=5)
        model = lasso_logistic_fit(ds.relative.values, ds.labels, 0.01)
        assert model.converged is True
        assert 0 < model.n_iter < 10_000


class TestCvSelectLambda:
    def test_single_value_grid(self):
        X, y = overlap_1d(seed=7)
        assert cv_select_lambda(X, y, lambda_grid=[0.05], seed=0) == 0.05

    def test_deterministic_in_seed(self):
        ds = gen_toy(100, seed=2)
        a = cv_select_lambda(ds.relative.values, ds.labels, seed=9)
        b = cv_select_lambda(ds.relative.values, ds.labels, seed=9)
        assert a == b

    def test_selected_lambda_scores_well_on_toy(self):
        ds = gen_toy(300, seed=4)
        X = ds.relative.values
        lam = cv_select_lambda(X, ds.labels, seed=0)
        train_idx, test_idx = split(X.shape[0], 0.2, seed=1)
        model = lasso_logistic_fit(X[train_idx], ds.labels[train_idx], lam)
        held_out = auc(model.decision(X[test_idx]), ds.labels[test_idx])
        assert held_out > 0.9

    def test_stratification_error_when_class_too_small(self):
        X = np.ones((10, 2)) + np.arange(10)[:, None]
        y = np.zeros(10, dtype=int)
        y[:2] = 1  # two positives cannot fill five folds
        with pytest.raises(ValueError, match="strat"):
            cv_select_lambda(X, y, n_folds=5)

    def test_rejects_empty_grid(self):
        X, y = overlap_1d()
        with pytest.raises(ValueError):
            cv_select_lambda(X, y, lambda_grid=[])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_rejects_bad_grid_value_before_fitting(self, bad):
        X, y = overlap_1d()
        with pytest.raises(ValueError, match="^lambda_grid must"):
            cv_select_lambda(X, y, lambda_grid=[0.01, bad])


class TestApplyTransform:
    def test_none_is_identity(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(apply_transform(X, "none"), X)

    def test_clr_matches_library_transform(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.1, 5.0, size=(6, 4))
        assert_allclose(apply_transform(X, "clr"), clr(X), rtol=0, atol=0)

    def test_rejects_unknown_transform(self):
        with pytest.raises(ValueError):
            apply_transform(np.ones((2, 2)), "ilr")


class TestScaledMagnitudes:
    def test_min_max_scaling(self):
        out = scaled_magnitudes([-4.0, 0.0, 2.0])
        assert_allclose(out, [1.0, 0.0, 0.5], rtol=0, atol=1e-15)

    def test_constant_coefficients_scale_to_zero(self):
        assert np.array_equal(scaled_magnitudes([2.0, -2.0, 2.0]), np.zeros(3))
