"""L1-regularized logistic regression, fitted by proximal Newton to a duality gap.

The comparator fits for the coefficient-swap study: the same LASSO model is
trained on raw (relative or absolute) abundances and on CLR-transformed
data, with the penalty weight chosen by stratified cross-validation on
held-out AUC.

The solver runs on internally centered and scaled features. That is an
exact reparametrization of the stated objective (each coefficient's L1
weight is scaled to match and the coefficients are mapped back). Each
Newton step minimizes the loss's quadratic model plus the L1 term by
coordinate descent, then backtracks on the true objective, so descent is
monotone. A fit stops when the duality gap (the objective minus the dual
objective at a feasible point built from the residuals) is within
``rel_tol`` of the objective, so ``converged`` certifies the objective to
that relative tolerance. Cross-validation fits each fold's penalties as
one path, from the largest down, each fit starting where the last ended
(Friedman, Hastie and Tibshirani, J. Stat. Softw. 2010).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from ._expit import expit
from .checks import check_array, check_choice, check_count, check_labels, check_real, check_seed
from .coda import TRANSFORMS, CompositionMatrix, clr
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

# 8 logarithmically spaced penalty weights in [1e-4, 1].
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-4.0, 0.0, 8))

_MAX_ITER = 100  # Newton steps; fits here take about 3 to 15
_REL_TOL = 1e-10  # duality gap / objective
_MAX_SWEEPS = 100  # coordinate-descent sweeps per Newton step
_SWEEP_TOL = 1e-9  # a sweep's largest model decrease, as a fraction of the gap
_MAX_HALVINGS = 60  # backtracking halvings per Newton step


def soft_threshold(u, threshold):
    """Closed-form prox of the absolute value: sign(u) * max(|u| - threshold, 0).

    ``threshold`` is a finite nonnegative real, or an array of them.
    """
    if isinstance(threshold, np.ndarray):
        check_array(threshold, "threshold", threshold.ndim, bound=">=0")
    elif np.ndim(threshold) == 0:
        check_real(threshold, "threshold")
    else:
        threshold = check_array(threshold, "threshold", np.ndim(threshold), bound=">=0")
    u = np.asarray(u, dtype=float)
    return np.sign(u) * np.maximum(np.abs(u) - threshold, 0.0)


def _soft_threshold(value: float, cut: float) -> float:
    """``soft_threshold`` of one float, unchecked: the solver's coordinate step."""
    return ((value > 0.0) - (value < 0.0)) * max(abs(value) - cut, 0.0)


@dataclass(frozen=True)
class LassoModel:
    """Fitted coefficients on the original feature scale.

    ``n_iter`` counts the solver's Newton steps. ``converged`` is True when
    the duality gap closed: the objective is then within ``rel_tol`` of its
    minimum, relative to the objective. It is False when the fit stopped at
    its step cap, or where no step lowered the objective, first.
    """

    coef: np.ndarray
    intercept: float
    lam: float
    transform: str = "none"
    n_iter: int = 0
    converged: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "coef", check_array(self.coef, "coef", 1))
        check_real(self.intercept, "intercept", low=-math.inf, low_open=True)
        check_real(self.lam, "lam")
        check_choice(self.transform, "transform", TRANSFORMS)
        check_count(self.n_iter, "n_iter", 0)

    def decision(self, X) -> np.ndarray:
        return check_array(X, "X", (1, 2), length=self.coef.size) @ self.coef + self.intercept

    def predict_proba(self, X) -> np.ndarray:
        return expit(self.decision(X))


def lasso_objective(X, y, coef, intercept, lam) -> float:
    """(1/N) * sum of logistic losses + lam * ||coef||_1 (intercept unpenalized)."""
    xv = check_array(X, "X", 2)
    yv = check_labels(y, xv.shape[0])
    cv = check_array(coef, "coef", 1, length=xv.shape[1])
    check_real(intercept, "intercept", low=-math.inf, low_open=True)
    check_real(lam, "lam")
    margins = xv @ cv + intercept
    signs = 2.0 * yv - 1.0
    return float(np.logaddexp(0.0, -signs * margins).mean() + lam * np.abs(cv).sum())


class _Scaled:
    """One training set on centered and scaled features, each row signed against its label.

    Row i of the design is -s_i * (scaled x_i, 1), with s_i = +1 for a case
    and -1 for a control, so u = design @ z holds each sample's log-odds of
    its other class, and design.T @ p / n is the loss's gradient, where p
    holds the probabilities of the other classes. The last coordinate of z
    is the intercept. The design is stored transposed.
    """

    def __init__(self, xv: np.ndarray, yv: np.ndarray) -> None:
        self.mean = xv.mean(axis=0)
        std = xv.std(axis=0)
        self.scale = np.where(std > 0, std, 1.0)
        against = 1.0 - 2.0 * yv
        self.design_t = np.vstack([((xv - self.mean) / self.scale).T * against, against])
        self.labels = yv

    def unscaled(self, z: np.ndarray):
        """Coefficients and intercept on the original feature scale."""
        coef = z[:-1] / self.scale
        return coef, float(z[-1] - (self.mean / self.scale) @ z[:-1])

    def _dual(self, other, weights, lam) -> float:
        """Dual objective at a feasible point built from the residuals.

        Sample i's dual variable is s_i * a_i with a_i in [0, 1]; at
        a = ``other`` it is the residual y_i - p_i, the optimum's dual
        point. The point must sum to zero (the intercept is free) and keep
        each |x_j . theta| / n within w_j. Scaling the larger class's a
        down to the smaller class's sum zeroes the sum; one common factor
        then meets the bounds. Neither moves any a_i out of [0, 1], however
        close to 0 or 1 the probabilities are. With no penalty every
        coordinate is free, and a is projected instead.
        """
        n = other.shape[0]
        if lam == 0.0:
            design = self.design_t.T
            a = other - design @ np.linalg.lstsq(design, other, rcond=None)[0]
            if not (np.all(a >= 0.0) and np.all(a <= 1.0)):
                return -math.inf
        else:
            of_cases = other * self.labels
            cases = float(of_cases.sum())
            controls = float(other.sum()) - cases
            a = other
            if cases > controls:
                a = other + (controls / cases - 1.0) * of_cases
            elif controls > cases:
                a = other + (cases / controls - 1.0) * (other - of_cases)
            corr = np.abs(self.design_t[:-1] @ a) / n
            over = corr > weights[:-1]
            if over.any():
                a = a * np.min(weights[:-1][over] / corr[over])
        # An entry of exactly 0 or 1 would give 0 * log 0; nudged inside,
        # it moves the dual objective by at most about 4e-15 / n.
        a = np.minimum(np.maximum(a, 1e-300), 1.0 - 2.0**-53)
        return -float(a @ np.log(a) + (1.0 - a) @ np.log1p(-a)) / n

    def solve(self, lam: float, z: np.ndarray, max_iter: int, rel_tol: float):
        """Proximal Newton from ``z`` at penalty ``lam``.

        Returns the last point, the number of Newton steps and whether the
        duality gap closed to ``rel_tol`` relative to the objective.
        """
        design_t = self.design_t
        n = design_t.shape[1]
        weights = np.append(lam / self.scale, 0.0)  # the intercept is unpenalized
        u = z @ design_t
        small = np.exp(-np.abs(u))
        objective = (np.maximum(u, 0.0) + np.log1p(small)).sum() / n + weights @ np.abs(z)
        n_iter, far = 0, False
        while True:
            other = np.where(u >= 0.0, 1.0, small) / (1.0 + small)
            if not far or n_iter == max_iter:
                gap = objective - self._dual(other, weights, lam)
                if gap <= rel_tol * max(objective, 1e-12):
                    return z, n_iter, True
            if n_iter == max_iter:
                return z, n_iter, False
            grad = design_t @ other / n
            hessian = (design_t * (other * (1.0 - other))) @ design_t.T / n
            step = _newton_direction(hessian, grad, z, weights, _SWEEP_TOL * gap)
            # Changes are summed term by term, from each |z_j| and each
            # margin, so that steps far below the objective's rounding
            # still show their decrease.
            decrease = grad @ step + weights @ (np.abs(z + step) - np.abs(z))
            if not decrease < 0.0:  # no step can lower the objective
                return z, n_iter, False
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                trial = z + t * step
                du = (trial - z) @ design_t
                with np.errstate(all="ignore"):
                    change = np.log1p(other * np.expm1(du)).sum() / n
                change += weights @ (np.abs(trial) - np.abs(z))
                if change <= 1e-4 * t * decrease:
                    break
                t *= 0.5
            else:
                return z, n_iter, False
            z, objective = trial, objective + change
            n_iter += 1
            # After a step that lowered the objective by a fraction f of
            # it, Newton's quadratic rate leaves roughly f**2 to go, far
            # above rel_tol while f > 100 * sqrt(rel_tol): the gap waits.
            far = -change > 100.0 * math.sqrt(rel_tol) * objective
            u = u + du
            small = np.exp(-np.abs(u))


def _newton_direction(hessian, grad, z, weights, tol):
    """Step to the minimizer of the quadratic model plus the weighted L1 term.

    The minimizer is solved for directly on the signs of ``z``, and then on
    the signs each sweep of cyclic coordinate descent ends on, until a
    solution keeps its signs and leaves every zero coordinate at rest. The
    descent itself stops when no step of a sweep lowers the model by more
    than about ``tol``. A coordinate with no curvature (a constant feature)
    stays where it is.
    """
    h, g, start, w = hessian.tolist(), grad.tolist(), z.tolist(), weights.tolist()
    k = len(start)
    new = start[:]
    moved = [0.0] * k  # hessian @ (new - start)
    tried = set()
    for _ in range(_MAX_SWEEPS):
        signs = tuple((v > 0.0) - (v < 0.0) for v in new[:-1])
        if signs not in tried:
            tried.add(signs)
            exact = _on_signs(h, g, start, w, signs)
            if exact is not None:
                return np.array(exact) - z
        largest = 0.0
        for j in range(k):
            row = h[j]
            hjj = row[j]
            if hjj <= 0.0:
                continue
            old = new[j]
            value = _soft_threshold(old - (g[j] + moved[j]) / hjj, w[j] / hjj)
            step = value - old
            if step:
                new[j] = value
                for i in range(k):
                    moved[i] += row[i] * step
                largest = max(largest, hjj * step * step)
        if largest <= tol:
            break
    return np.array(new) - z


def _on_signs(h, g, z, w, signs):
    """The model's minimizer if its coefficients have ``signs`` (0: zero), else None.

    Its free coordinates (the nonzero ones and the intercept) solve
    h_ff x_f = (h z)_f - g_f - w_f signs_f, by Gaussian elimination with
    partial pivoting on the rows [h_ff | rhs].
    """
    k = len(z)
    free = [j for j in range(k - 1) if signs[j]] + [k - 1]
    signs += (0,)  # the intercept's weight is 0
    rows = [[h[i][j] for j in free] + [sum(map(mul, h[i], z)) - g[i] - w[i] * signs[i]] for i in free]
    m = len(free)
    for c in range(m):
        p = max(range(c, m), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c]
        if pivot[c] == 0.0:
            return None
        for row in rows[c + 1 :]:
            f = row[c] / pivot[c]
            for q in range(c, m + 1):
                row[q] -= f * pivot[q]
    point = [0.0] * k
    for c in range(m - 1, -1, -1):
        row = rows[c]
        point[free[c]] = (row[m] - sum(row[q] * point[free[q]] for q in range(c + 1, m))) / row[c]
    for j in range(k - 1):
        if signs[j]:
            if (point[j] > 0.0) - (point[j] < 0.0) != signs[j]:
                return None
        elif abs(g[j] + sum(map(mul, h[j], point)) - sum(map(mul, h[j], z))) > w[j]:
            return None
    return point


def lasso_logistic_fit(
    X,
    y,
    lam: float,
    transform: str = "none",
    max_iter: int = _MAX_ITER,
    rel_tol: float = _REL_TOL,
) -> LassoModel:
    """Proximal Newton on the L1 logistic objective, from the origin.

    Stops when the duality gap is within ``rel_tol`` of the objective, after
    ``max_iter`` Newton steps, or where no step lowers the objective; the
    model records whether the gap closed. Descent is monotone, so the
    returned objective never exceeds the origin's.
    """
    check_real(lam, "lam")
    check_choice(transform, "transform", TRANSFORMS)
    check_count(max_iter, "max_iter")
    check_real(rel_tol, "rel_tol")
    xv = check_array(X, "X", 2)
    yv = check_labels(y, xv.shape[0], both_classes=True)
    scaled = _Scaled(xv, yv)
    z, n_iter, converged = scaled.solve(lam, np.zeros(xv.shape[1] + 1), max_iter, rel_tol)
    coef, intercept = scaled.unscaled(z)
    return LassoModel(coef, intercept, float(lam), transform, n_iter, converged)


def _stratified_folds(y: np.ndarray, n_folds: int, seed: int) -> list[np.ndarray]:
    check_count(n_folds, "n_folds", 2)
    if y.shape[0] < n_folds:
        raise ValueError("need at least as many samples as folds")
    rng = np.random.default_rng(seed)
    dealt = []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if idx.size < n_folds:
            raise ValueError(
                f"class {cls} has {idx.size} members, fewer than {n_folds} folds; "
                "stratification impossible"
            )
        dealt.append(rng.permutation(idx))
    # Each class is dealt round the folds in its shuffled order.
    return [np.sort(np.concatenate([perm[f::n_folds] for perm in dealt])) for f in range(n_folds)]


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

    Ties are broken toward the larger penalty (the sparser model). Each
    fold's training rows are standardized once, and its fits run down the
    sorted grid from the largest penalty, each starting from the last one's
    coefficients and intercept.
    """
    check_seed(seed)
    xv = check_array(X, "X", 2)
    yv = check_labels(y, xv.shape[0], both_classes=True)
    grid = _lambda_grid(lambda_grid)
    folds = _stratified_folds(yv, n_folds, seed)
    all_idx = np.arange(xv.shape[0])
    scores = np.empty((len(folds), grid.size))
    for f, held_out in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, held_out, assume_unique=True)
        scaled = _Scaled(xv[train_idx], yv[train_idx])
        z = np.zeros(xv.shape[1] + 1)
        for k in range(grid.size - 1, -1, -1):
            z = scaled.solve(float(grid[k]), z, _MAX_ITER, _REL_TOL)[0]
            coef, intercept = scaled.unscaled(z)
            scores[f, k] = auc(xv[held_out] @ coef + intercept, yv[held_out])
    best_lam = None
    best_score = -np.inf
    for k, lam in enumerate(grid):
        score = float(np.mean(scores[:, k]))
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
    mags = np.abs(check_array(coef, "coef", 1))
    if not mags.size:
        raise ValueError("coef must not be empty")
    lo, hi = mags.min(), mags.max()
    if hi == lo:
        return np.zeros_like(mags)
    return (mags - lo) / (hi - lo)
