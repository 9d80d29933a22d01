"""Rank-based AUC, shared by the benchmark and the LASSO cross-validation."""

from __future__ import annotations

from scipy.stats import rankdata

from .checks import check_array, check_labels

__all__ = ["auc"]


def auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative; ties count half.

    Computed from average ranks, which equals the pairwise definition
    exactly (tied pairs contribute 0.5 each).
    """
    s = check_array(scores, "scores", 1)
    pos = check_labels(labels, s.shape[0], both_classes=True) == 1
    n_pos = int(pos.sum())
    n_neg = s.shape[0] - n_pos
    ranks = rankdata(s, method="average")
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
