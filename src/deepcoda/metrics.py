"""Rank-based AUC, shared by the benchmark and the LASSO cross-validation."""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

__all__ = ["auc"]


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties count half.

    Computed from average ranks, which equals the pairwise definition
    exactly (tied pairs contribute 0.5 each).
    """
    s = np.asarray(scores, dtype=float)
    yv = np.asarray(labels)
    if s.ndim != 1 or yv.shape != s.shape:
        raise ValueError("scores and labels must be equal-length vectors")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if not np.all((yv == 0) | (yv == 1)):
        raise ValueError("labels must be 0 or 1")
    pos = yv == 1
    n_pos = int(pos.sum())
    n_neg = s.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    ranks = rankdata(s, method="average")
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
