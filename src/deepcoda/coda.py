"""Compositional data primitives.

Abundance vectors produced by an inexhaustive sampling process carry only
relative information: once a row is closed to proportions, the value of any
one part depends on every other part. The operations here are the building
blocks of a normalization-free analysis: closure, multiplicative zero
replacement, the centered log-ratio transform, log-contrast evaluation, and
sub-composition extraction.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .checks import check_array, check_choice, check_names, check_real

__all__ = [
    "DEFAULT_DELTA_FRACTION",
    "KINDS",
    "CompositionMatrix",
    "closure",
    "replace_zeros",
    "clr",
    "log_contrast",
    "subcomposition",
]

KINDS = ("absolute", "relative")

# The transforms a LASSO baseline fits on: the abundances as they are, or their CLR.
TRANSFORMS = ("none", "clr")

# An imputed zero's size relative to its row's smallest nonzero entry.
DEFAULT_DELTA_FRACTION = 0.5

_RELATIVE_SUM_TOL = 1e-9


def _sums_to_one(values: np.ndarray) -> bool:
    """Whether every row of ``values`` sums to 1 within ``_RELATIVE_SUM_TOL``."""
    with np.errstate(over="ignore"):  # a sum that overflows is inf, which is not 1
        return bool(np.all(np.abs(values.sum(axis=1) - 1.0) <= _RELATIVE_SUM_TOL))


@dataclass(frozen=True)
class CompositionMatrix:
    """An N x D abundance matrix with sample ids and feature names.

    Parameters
    ----------
    values : ndarray of shape (n_samples, n_features)
        Finite, nonnegative abundances (strictly positive after
        ``replace_zeros``).
    sample_ids : sequence of str
        One id per row.
    feature_names : sequence of str
        One name per column.
    kind : {"absolute", "relative"}
        Whether rows are raw measurements or proportions. Relative rows
        must sum to 1 within 1e-9; ``replace_zeros`` keeps the kind, and its
        rows' sums only up to rounding.
    """

    values: np.ndarray
    sample_ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    kind: str

    def __post_init__(self) -> None:
        values = check_array(np.array(self.values, dtype=float), "abundances", 2, bound=">=0")
        n, d = values.shape
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "sample_ids", check_names(self.sample_ids, n, "sample ids"))
        object.__setattr__(
            self, "feature_names", check_names(self.feature_names, d, "feature names")
        )
        check_choice(self.kind, "kind", KINDS)
        if self.kind == "relative" and not _sums_to_one(values):
            raise ValueError("relative rows must sum to 1")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def closure(v):
    """Divide a nonnegative vector by its sum so the parts become proportions.

    Parameters
    ----------
    v : array_like
        A vector, or a matrix whose rows are treated as vectors. Entries
        must be finite and nonnegative with a positive, finite sum per row.

    Returns
    -------
    ndarray
        Same shape as the input; every row sums to 1.
    """
    arr = check_array(v, "v", (1, 2), bound=">=0")
    with np.errstate(over="ignore"):
        sums = arr.sum(axis=-1, keepdims=True)
    if np.any(sums <= 0):
        raise ValueError("each row needs at least one positive entry")
    if not np.isfinite(sums).all():
        raise ValueError("each row's sum must be finite")
    return arr / sums


def replace_zeros(
    m: CompositionMatrix, delta_fraction: float = DEFAULT_DELTA_FRACTION
) -> CompositionMatrix:
    """Impute zeros multiplicatively, preserving row sums and nonzero ratios.

    Every zero in row i becomes ``delta_fraction * min(nonzero entries of
    row i)`` and the nonzero entries are rescaled by a common factor chosen
    so the row sum is unchanged. Because all nonzero parts of a row share
    one factor, every ratio among originally nonzero parts is preserved, so
    any log-ratio that was defined before imputation keeps its value.

    Parameters
    ----------
    m : CompositionMatrix
        Input matrix; each row needs at least one positive entry.
    delta_fraction : float in (0, 1)
        Size of the imputed value relative to the row's smallest nonzero
        entry.

    Returns
    -------
    CompositionMatrix
        Strictly positive matrix of the same kind. If ``m`` contains no
        zeros it is returned unchanged. The first row that is entirely zero,
        whose imputed mass exceeds its total, or whose imputed or rescaled
        part rounds to 0 raises a ValueError instead.
    """
    check_real(delta_fraction, "delta_fraction", high=1.0, low_open=True)
    values = _replace_zeros_values(m.values, delta_fraction)
    if values is m.values:
        return m
    # Imputation keeps all that ``m`` was checked for but its row sums, kept up to a
    # rounding that can carry a relative row past _RELATIVE_SUM_TOL: so no second check.
    out = copy.copy(m)
    object.__setattr__(out, "values", values)
    return out


class _RowFault(ValueError):
    """A row that ``replace_zeros`` cannot impute: its 0-based index, and why without it."""

    def __init__(self, message: str, row: int, reason: str) -> None:
        super().__init__(message)
        self.row, self.reason = row, reason


def _replace_zeros_values(values: np.ndarray, delta_fraction: float) -> np.ndarray:
    """``replace_zeros`` on a bare N x D array; returns ``values`` itself if it holds no zeros.

    The one check is of the output: a row with an imputed part not finite and > 0 raises."""
    zero_mask = values == 0
    if not zero_mask.any():
        return values
    rows = np.flatnonzero(zero_mask.any(axis=1))
    sub, zeros = values[rows], zero_mask[rows]
    # An all-zero row imputes inf (its delta) and NaN, which the check below rejects unwarned.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        delta = delta_fraction * np.where(zeros, np.inf, sub).min(axis=1)
        row_sums = sub.sum(axis=1)
        mass = zeros.sum(axis=1) * delta
        # A row whose sum overflows to inf keeps its nonzero parts: a scale of 1,
        # also where its imputed mass overflows too (inf / inf would give NaN).
        scale = np.where(row_sums == np.inf, 1.0, 1.0 - mass / row_sums)
        imputed = np.where(zeros, delta[:, None], sub * scale[:, None])
    bad = ~(np.isfinite(imputed) & (imputed > 0)).all(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        row = int(rows[first])
        if zeros[first].all():
            raise _RowFault(f"row {row} is entirely zero", row, "row is entirely zero")
        # Under a positive scale, a part is not positive where it rounded to 0 (a subnormal's).
        reason = ("imputed value underflows to zero" if scale[first] > 0
                  else "imputed mass exceeds the row total; use a smaller delta_fraction")
        raise _RowFault(f"row {row}: {reason}", row, reason)
    out = values.copy()
    out[rows] = imputed
    return out


def clr(x):
    """Centered log-ratio transform: log of each part over its row's geometric mean.

    Parameters
    ----------
    x : array_like
        Strictly positive vector, or matrix of row vectors.

    Returns
    -------
    ndarray
        ``log(x) - mean(log(x))`` per row; every output row sums to 0.
    """
    arr = check_array(x, "x", (1, 2), bound=">0")
    logs = np.log(arr)
    return logs - logs.mean(axis=-1, keepdims=True)


def log_contrast(x, beta, beta0: float = 0.0) -> float:
    """Evaluate ``beta0 + sum_d beta[d] * ln(x[d])`` for one composition.

    When the coefficients sum to zero the value is invariant to rescaling
    of ``x``: absolute measurements and their closed proportions give the
    same answer, and so does any sub-composition containing the support of
    ``beta``.
    """
    xv = check_array(x, "x", 1, bound=">0")
    bv = check_array(beta, "beta", 1, length=xv.shape[0])
    return float(check_array(beta0, "beta0", 0) + bv @ np.log(xv))


def subcomposition(m: CompositionMatrix, keep) -> CompositionMatrix:
    """Restrict the matrix to a subset of parts.

    Relative rows are re-closed so they sum to 1 again; absolute rows are
    returned as-is.
    """
    idx = np.asarray(keep)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("keep must be a nonempty 1-D index collection")
    # Casting would truncate floats and read a boolean mask as indices 0 and 1.
    if idx.dtype.kind not in "iu":
        raise ValueError(f"keep must hold integer indices, got dtype {idx.dtype}")
    if np.unique(idx).size != idx.size:
        raise ValueError("keep contains duplicate indices")
    if idx.min() < 0 or idx.max() >= m.n_features:
        raise ValueError("keep contains out-of-range indices")
    values = m.values[:, idx]
    if m.kind == "relative":
        values = closure(values)
    names = tuple(m.feature_names[j] for j in idx)
    return CompositionMatrix(values, m.sample_ids, names, m.kind)
