"""L1-regularized logistic regression via proximal gradient descent.

The comparator fits for the coefficient-swap study: the same LASSO model is
trained on raw (relative or absolute) abundances and on CLR-transformed
data, with the penalty weight chosen by stratified cross-validation on
held-out AUC.

The solver runs on internally centered and scaled features. That is an
exact reparametrization of the stated objective (the per-coordinate
soft-threshold is scaled to match and the coefficients are mapped back),
chosen so the step size does not collapse on raw abundance scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._expit import expit
from .checks import check_array, check_choice, check_count, check_labels, check_real, check_seed
from .coda import CompositionMatrix, clr
from .metrics import auc

__all__ = [
    "DEFAULT_LAMBDA_GRID",
    "TRANSFORMS",
    "LassoModel",
    "apply_transform",
    "cv_select_lambda",
    "lasso_logistic_fit",
    "lasso_objective",
    "scaled_magnitudes",
    "soft_threshold",
]

TRANSFORMS = ("none", "clr")

# 8 logarithmically spaced penalty weights in [1e-4, 1].
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-4.0, 0.0, 8))

_MAX_ITER = 10_000
# Objective-change stop. 1e-10 keeps the fully shrunk intercept within 1e-6
# of the logit of the class prevalence; 1e-8 leaves it a few 1e-6 short.
_REL_TOL = 1e-10


def soft_threshold(u, threshold):
    """Closed-form prox of the absolute value: sign(u) * max(|u| - threshold, 0)."""
    arr = np.asarray(u, dtype=float)
    return np.sign(arr) * np.maximum(np.abs(arr) - threshold, 0.0)


@dataclass(frozen=True)
class LassoModel:
    """Fitted coefficients on the original feature scale.

    ``n_iter`` counts the solver's soft-threshold steps; ``converged`` is
    False when it stopped at its iteration cap instead of its tolerance.
    """

    coef: np.ndarray
    intercept: float
    lam: float
    transform: str = "none"
    n_iter: int = 0
    converged: bool = True

    def __post_init__(self) -> None:
        check_real(self.lam, "lam")
        check_choice(self.transform, "transform", TRANSFORMS)
        check_count(self.n_iter, "n_iter", 0)

    def decision(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.coef + self.intercept

    def predict_proba(self, X) -> np.ndarray:
        return expit(self.decision(X))


def lasso_objective(X, y, coef, intercept, lam) -> float:
    """(1/N) * sum of logistic losses + lam * ||coef||_1 (intercept unpenalized)."""
    check_real(lam, "lam")
    xv = np.asarray(X, dtype=float)
    yv = np.asarray(y, dtype=float)
    margins = xv @ np.asarray(coef, dtype=float) + intercept
    signs = 2.0 * yv - 1.0
    return float(np.logaddexp(0.0, -signs * margins).mean() + lam * np.abs(coef).sum())


def lasso_logistic_fit(
    X,
    y,
    lam: float,
    transform: str = "none",
    max_iter: int = _MAX_ITER,
    rel_tol: float = _REL_TOL,
) -> LassoModel:
    """Proximal gradient (backtracking ISTA) on the L1 logistic objective.

    Iterates until the relative objective change drops below ``rel_tol`` or
    ``max_iter`` soft-threshold steps have run; the model records which.
    Descent is monotone, so the returned objective never exceeds the
    all-zero starting point.
    """
    check_real(lam, "lam")
    check_choice(transform, "transform", TRANSFORMS)
    check_count(max_iter, "max_iter")
    check_real(rel_tol, "rel_tol")
    xv = check_array(X, "X", 2)
    yv = check_labels(y, xv.shape[0], both_classes=True)
    n, d = xv.shape

    mean = xv.mean(axis=0)
    std = xv.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    xs = (xv - mean) / scale
    # L1 weight for the scaled coordinate j is lam / scale_j, so the problem
    # solved here is the raw-scale objective expressed in new variables.
    weights = lam / scale
    signs = 2.0 * yv - 1.0

    def smooth(margins):
        return float(np.logaddexp(0.0, -signs * margins).mean())

    coef = np.zeros(d)
    intercept = 0.0
    margins = np.zeros(n)
    f_val = smooth(margins)
    objective = f_val  # penalty is zero at the origin
    step = 1.0
    n_iter, done = 0, False
    while n_iter < max_iter and not done:
        n_iter += 1
        prob = expit(margins)
        resid = prob - yv
        g_coef = xs.T @ resid / n
        g_int = float(resid.mean())

        step = min(step * 2.0, 1e6)
        while True:
            new_coef = soft_threshold(coef - step * g_coef, step * weights)
            new_int = intercept - step * g_int
            new_margins = xs @ new_coef + new_int
            f_new = smooth(new_margins)
            d_coef = new_coef - coef
            d_int = new_int - intercept
            quad = (
                f_val
                + g_coef @ d_coef
                + g_int * d_int
                + (d_coef @ d_coef + d_int * d_int) / (2.0 * step)
            )
            if f_new <= quad + 1e-12 * max(1.0, abs(quad)) or step < 1e-20:
                break
            step *= 0.5

        new_objective = f_new + weights @ np.abs(new_coef)
        done = abs(objective - new_objective) <= rel_tol * max(objective, 1e-12)
        coef, intercept = new_coef, new_int
        margins, f_val, objective = new_margins, f_new, new_objective

    raw_coef = coef / scale
    raw_intercept = float(intercept - (mean / scale) @ coef)
    return LassoModel(
        coef=raw_coef,
        intercept=raw_intercept,
        lam=float(lam),
        transform=transform,
        n_iter=n_iter,
        converged=bool(done),
    )


def _stratified_folds(y: np.ndarray, n_folds: int, seed: int) -> list[np.ndarray]:
    check_count(n_folds, "n_folds", 2)
    if y.shape[0] < n_folds:
        raise ValueError("need at least as many samples as folds")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if idx.size < n_folds:
            raise ValueError(
                f"class {cls} has {idx.size} members, fewer than {n_folds} folds; "
                "stratification impossible"
            )
        for k, j in enumerate(rng.permutation(idx)):
            folds[k % n_folds].append(int(j))
    return [np.sort(np.asarray(f, dtype=int)) for f in folds]


def _lambda_grid(lambda_grid) -> np.ndarray:
    """The sorted penalty grid (None: ``DEFAULT_LAMBDA_GRID``): nonempty, each element >= 0."""
    grid = DEFAULT_LAMBDA_GRID if lambda_grid is None else lambda_grid
    if np.ndim(grid) != 1 or len(grid) == 0:
        raise ValueError("lambda_grid must be a nonempty sequence of penalty weights")
    for lam in grid:
        check_real(lam, "lambda_grid")
    return np.sort(np.asarray(grid, dtype=float))


def cv_select_lambda(
    X,
    y,
    n_folds: int = 5,
    lambda_grid=None,
    seed: int = 0,
) -> float:
    """Grid value with the best mean held-out AUC over stratified folds.

    Ties are broken toward the larger penalty (the sparser model).
    """
    check_seed(seed)
    xv = check_array(X, "X", 2)
    yv = check_labels(y, xv.shape[0], both_classes=True)
    grid = _lambda_grid(lambda_grid)
    folds = _stratified_folds(yv, n_folds, seed)
    all_idx = np.arange(xv.shape[0])
    best_lam = None
    best_score = -np.inf
    for lam in grid:
        fold_scores = []
        for held_out in folds:
            train_idx = np.setdiff1d(all_idx, held_out, assume_unique=True)
            model = lasso_logistic_fit(xv[train_idx], yv[train_idx], float(lam))
            fold_scores.append(auc(model.decision(xv[held_out]), yv[held_out]))
        score = float(np.mean(fold_scores))
        if score >= best_score:
            best_score = score
            best_lam = float(lam)
    return best_lam


def apply_transform(X, transform: str) -> np.ndarray:
    """Prepare features for a baseline fit: identity or row-wise CLR."""
    check_choice(transform, "transform", TRANSFORMS)
    values = X.values if isinstance(X, CompositionMatrix) else np.asarray(X, dtype=float)
    if transform == "clr":
        return clr(values)
    return np.array(values, dtype=float)


def scaled_magnitudes(coef) -> np.ndarray:
    """Min-max scaled |coef| for heatmap-style comparison; 1 marks the largest."""
    mags = np.abs(np.asarray(coef, dtype=float))
    lo, hi = mags.min(), mags.max()
    if hi == lo:
        return np.zeros_like(mags)
    return (mags - lo) / (hi - lo)
