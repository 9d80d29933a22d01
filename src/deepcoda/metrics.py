"""Rank-based AUC, shared by the benchmark and the LASSO cross-validation."""

from __future__ import annotations

import numpy as np

from .checks import check_array, check_labels

__all__ = ["auc"]


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector, each run of equal values sharing its mean rank.

    The same as ``scipy.stats.rankdata(x, method="average")``: a run at
    sorted positions start..stop-1 gets (start + 1 + stop) / 2, an exact
    half-integer.
    """
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_x[1:] != sorted_x[:-1])))
    stops = np.append(starts[1:], x.shape[0])
    ranks = np.empty(x.shape[0])
    ranks[order] = np.repeat((starts + 1 + stops) / 2.0, stops - starts)
    return ranks


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties count half.

    Computed from average ranks, which equals the pairwise definition
    exactly (tied pairs contribute 0.5 each).
    """
    s = check_array(scores, "scores", 1)
    pos = check_labels(labels, s.shape[0], both_classes=True) == 1
    n_pos = int(pos.sum())
    n_neg = s.shape[0] - n_pos
    ranks = _average_ranks(s)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
