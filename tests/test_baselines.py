"""Tests for the L1 logistic baseline and cross-validation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize
from scipy.special import expit, log_expit, logit

from deepcoda import (
    DEFAULT_LAMBDA_GRID,
    LassoModel,
    apply_transform,
    clr,
    cv_select_lambda,
    gen_cmyc,
    gen_toy,
    lasso_logistic_fit,
    lasso_objective,
    scaled_magnitudes,
    soft_threshold,
)
from deepcoda.baselines import _soft_threshold
from deepcoda.evaluate import auc, split


def reference_objective(X, y, lam):
    """The L1 logistic minimum by L-BFGS-B on the split form coef = plus - minus, plus, minus >= 0.

    It runs on centered and scaled columns, an exact reparametrization.
    """
    n, d = X.shape
    mean, std = X.mean(axis=0), X.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    xs = (X - mean) / scale
    weights = lam / scale
    signs = 2.0 * y - 1.0

    def objective(v):
        b = v[:d] - v[d : 2 * d]
        margins = signs * (xs @ b + v[-1])
        resid = -signs * expit(-margins) / n
        g = xs.T @ resid
        value = -log_expit(margins).mean() + weights @ v[: 2 * d].reshape(2, d).sum(axis=0)
        return value, np.concatenate([g + weights, weights - g, [resid.sum()]])

    result = minimize(
        objective,
        np.zeros(2 * d + 1),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * d) + [(None, None)],
        options={"ftol": 0.0, "gtol": 1e-13, "maxiter": 100_000, "maxcor": 30},
    )
    b = result.x[:d] - result.x[d : 2 * d]
    return lasso_objective(X, y, b / scale, result.x[-1] - (mean / scale) @ b, lam)


def duality_gap(X, y, model):
    """Objective minus the dual objective at a feasible point built from the model's residuals.

    The dual variable of sample i is s_i * a_i, where s_i is +1 for a case and
    -1 for a control and a_i, in [0, 1], is the fitted probability of sample
    i's other class. The point must sum to zero and keep every
    |x_j . theta| / n within lam, and the dual objective is minus the mean
    of a log a + (1 - a) log(1 - a).
    """
    n = X.shape[0]
    margins = (2.0 * y - 1.0) * model.decision(X)
    a = expit(-margins)
    cases, controls = a[y == 1].sum(), a[y == 0].sum()
    a = np.where(y == 1, min(1.0, controls / cases), min(1.0, cases / controls)) * a
    corr = np.abs((X - X.mean(axis=0)).T @ ((2.0 * y - 1.0) * a)).max() / n
    a = a * min(1.0, model.lam / corr)
    dual = -np.mean(a * np.log(a) + (1.0 - a) * np.log1p(-a))
    return lasso_objective(X, y, model.coef, model.intercept, model.lam) - dual


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

    def test_takes_one_threshold_per_entry(self):
        got = soft_threshold([2.0, -2.0, 0.1], np.array([0.5, 1.5, 0.0]))
        assert np.array_equal(got, [1.5, -0.5, 0.1])

    def test_the_solver_prox_is_the_checked_one_bit_for_bit(self):
        rng = np.random.default_rng(11)
        u = rng.normal(0.0, 3.0, 2000) * 10.0 ** rng.integers(-8, 8, 2000)
        u[:3] = [0.0, -0.0, 1e-300]
        per_entry = np.abs(rng.normal(0.0, 1.0, 2000)) * 10.0 ** rng.integers(-8, 8, 2000)
        for threshold in (per_entry, 0.7, 0.0, np.float64(2.5)):
            checked = soft_threshold(u, threshold)
            cuts = np.broadcast_to(threshold, u.shape)
            solver = np.array([_soft_threshold(v, c) for v, c in zip(u.tolist(), cuts.tolist())])
            assert checked.tobytes() == solver.tobytes()

    @pytest.mark.parametrize(
        "threshold,message",
        [
            (-1.0, "a finite number in"),
            (np.nan, "a finite number in"),
            (np.array([-1.0, 0.5]), "nonnegative"),
            (np.array([np.nan, 0.5]), "finite"),
        ],
        ids=["negative", "nan", "negative-entry", "nan-entry"],
    )
    def test_rejects_a_negative_or_nan_threshold(self, threshold, message):
        # A negative threshold would push values away from zero: [1, -1] -> [2, -2].
        with pytest.raises(ValueError, match=f"^threshold must be {message}"):
            soft_threshold(np.array([1.0, -1.0]), threshold)


class TestLassoObjective:
    X = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0]])
    Y = np.array([0, 1, 1])

    @pytest.mark.parametrize(
        "argument,call",
        [
            ("X", lambda X, y: lasso_objective(X + [np.nan, 0.0], y, np.zeros(2), 0.0, 0.1)),
            ("labels", lambda X, y: lasso_objective(X, np.array([0, 2, 1]), np.zeros(2), 0.0, 0.1)),
            ("labels", lambda X, y: lasso_objective(X, y[:2], np.zeros(2), 0.0, 0.1)),
            ("coef", lambda X, y: lasso_objective(X, y, np.array([np.inf, 0.0]), 0.0, 0.1)),
            ("coef", lambda X, y: lasso_objective(X, y, np.zeros(3), 0.0, 0.1)),
            ("intercept", lambda X, y: lasso_objective(X, y, np.zeros(2), np.nan, 0.1)),
        ],
        ids=["nan-in-X", "label-2", "short-labels", "inf-coef", "long-coef", "nan-intercept"],
    )
    def test_rejects_malformed_arguments(self, argument, call):
        with pytest.raises(ValueError, match=f"^{argument} must"):
            call(self.X, self.Y)


class TestLassoModel:
    @pytest.mark.parametrize(
        "coef,intercept,message",
        [
            (np.array([np.nan, 1.0]), 0.0, "coef must be finite"),
            (np.zeros((2, 1)), 0.0, "coef must have 1 dimensions"),
            (np.zeros(2), np.inf, "intercept must be a finite number"),
            (np.zeros(2), "0", "intercept must be a real number"),
        ],
        ids=["nan-coef", "2-d-coef", "inf-intercept", "string-intercept"],
    )
    def test_rejects_a_bad_coef_or_intercept(self, coef, intercept, message):
        # A NaN coefficient once gave NaN decisions without an error.
        with pytest.raises(ValueError, match=f"^{message}"):
            LassoModel(coef, intercept, 0.1)

    @pytest.mark.parametrize(
        "X,message",
        [
            ([[np.nan, 1.0]], "X must be finite"),
            ([np.inf, 1.0], "X must be finite"),
            ([[1.0]], "X must have 2 entries along its last axis"),
            ([[[1.0, 2.0]]], "X must have 1 or 2 dimensions"),
        ],
        ids=["nan-row", "inf-sample", "too-few-columns", "3-d"],
    )
    def test_decision_and_predict_proba_reject_a_bad_X(self, X, message):
        # A NaN row once gave a NaN decision without an error.
        model = LassoModel(np.array([0.5, -1.0]), 0.25, 0.1)
        for method in (model.decision, model.predict_proba):
            with pytest.raises(ValueError, match=f"^{message}"):
                method(X)

    def test_decision_of_one_sample_and_of_a_batch(self):
        model = LassoModel(np.array([0.5, -1.0]), 0.25, 0.1)
        assert model.decision([2.0, 1.0]) == 0.25
        assert np.array_equal(model.decision([[2.0, 1.0], [0.0, 1.0]]), [0.25, -0.75])


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
        # Four Newton steps close this fit's gap; two do not.
        model = lasso_logistic_fit(X, y, 0.01, max_iter=2)
        assert model.converged is False
        assert model.n_iter == 2

    def test_converged_fit_is_within_its_tolerance_of_the_optimum(self):
        # Separable absolute abundances, where a stop on the objective's
        # relative change once said converged 6e-8 above the optimum.
        ds = gen_toy(200, seed=1)
        X, y, lam = ds.absolute.values, ds.labels, DEFAULT_LAMBDA_GRID[2]
        rel_tol = 1e-10
        model = lasso_logistic_fit(X, y, lam, rel_tol=rel_tol)
        assert model.converged is True
        objective = lasso_objective(X, y, model.coef, model.intercept, lam)
        assert objective <= reference_objective(X, y, lam) * (1.0 + rel_tol)
        assert duality_gap(X, y, model) <= rel_tol * max(objective, 1e-12)

    def test_toy_fit_converges(self):
        ds = gen_toy(200, seed=5)
        model = lasso_logistic_fit(ds.relative.values, ds.labels, 0.01)
        assert model.converged is True
        assert 0 < model.n_iter < 100


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

    @pytest.mark.parametrize(
        "generate,view,index",
        [
            (gen_toy, "relative", 4),
            (gen_toy, "clr", 5),
            (gen_toy, "absolute", 7),
            (gen_cmyc, "relative", 3),
            (gen_cmyc, "clr", 5),
            (gen_cmyc, "absolute", 7),
        ],
        ids=["toy-relative", "toy-clr", "toy-absolute", "cmyc-relative", "cmyc-clr", "cmyc-absolute"],
    )
    def test_selected_lambda_is_pinned(self, generate, view, index):
        # The picks of the earlier proximal-gradient solver, which a faster
        # solver must keep.
        ds = generate(1000, 42)
        X = clr(ds.relative.values) if view == "clr" else getattr(ds, view).values
        assert cv_select_lambda(X, ds.labels, seed=42) == DEFAULT_LAMBDA_GRID[index]

    def test_stratification_error_when_class_too_small(self):
        X = np.ones((10, 2)) + np.arange(10)[:, None]
        y = np.zeros(10, dtype=int)
        y[:2] = 1  # two positives cannot fill five folds
        with pytest.raises(ValueError, match="strat"):
            cv_select_lambda(X, y, n_folds=5)

    def test_rejects_fewer_rows_than_folds(self):
        X = np.ones((4, 2)) + np.arange(4)[:, None]
        with pytest.raises(ValueError, match="^need at least as many samples as folds$"):
            cv_select_lambda(X, np.array([0, 1, 0, 1]), n_folds=5)

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

    @pytest.mark.parametrize(
        "coef,message",
        [
            ([], "coef must not be empty"),
            ([np.nan, 1.0], "coef must be finite"),
            ([np.inf, 1.0], "coef must be finite"),
            ([[1.0, 2.0]], "coef must have 1 dimensions"),
        ],
        ids=["empty", "nan", "inf", "2-d"],
    )
    def test_rejects_coefficients_outside_the_contract(self, coef, message):
        # Once: numpy's zero-size reduction error, a silent [nan nan], and a divide warning.
        with pytest.raises(ValueError, match=f"^{message}"):
            scaled_magnitudes(coef)
