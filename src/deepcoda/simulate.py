"""Seed-deterministic case/control generators with paired absolute and relative views.

Both generators plant one feature whose absolute abundance never changes.
Its proportion still separates the classes, because the class effect on the
other features changes every row's total; that mismatch between absolute
and relative views is exactly what the generators exist to exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_count, check_seed
from .coda import CompositionMatrix, closure

__all__ = ["SyntheticDataset", "gen_toy", "gen_cmyc"]

CONSTANT_ABUNDANCE = 100.0
LOG_MEAN = np.log(100.0)
LOG_SIGMA = 0.2
TOY_EFFECT = 4.0
CMYC_EFFECT = 3.0


@dataclass(frozen=True)
class SyntheticDataset:
    """Paired absolute/relative matrices with binary labels (1 = case)."""

    absolute: CompositionMatrix
    relative: CompositionMatrix
    labels: np.ndarray
    constant_feature_index: int


def _generate(n_samples: int, seed: int, n_features: int, effect: float) -> SyntheticDataset:
    check_count(n_samples, "n_samples", 4)
    if n_samples % 2 != 0:
        raise ValueError("n_samples must split evenly between the two classes")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    values = np.empty((n_samples, n_features))
    values[:, 0] = CONSTANT_ABUNDANCE
    values[:, 1:] = rng.lognormal(LOG_MEAN, LOG_SIGMA, size=(n_samples, n_features - 1))
    labels = np.zeros(n_samples, dtype=int)
    labels[n_samples // 2 :] = 1
    values[labels == 1, 1:] *= effect
    sample_ids = tuple(f"S{i:04d}" for i in range(n_samples))
    feature_names = tuple(f"feature_{j + 1}" for j in range(n_features))
    absolute = CompositionMatrix(values, sample_ids, feature_names, "absolute")
    relative = CompositionMatrix(closure(values), sample_ids, feature_names, "relative")
    return SyntheticDataset(absolute, relative, labels, constant_feature_index=0)


def gen_toy(n_samples: int, seed: int) -> SyntheticDataset:
    """Four gut bacteria; the last three over-proliferate fourfold in cases.

    Feature 1 is pinned at an absolute abundance of 100 for every sample;
    features 2-4 are log-normal (mean log 100, sigma 0.2) and multiplied by
    4 in the case class. Controls come first, cases second.
    """
    return _generate(n_samples, seed, n_features=4, effect=TOY_EFFECT)


def gen_cmyc(n_samples: int, seed: int) -> SyntheticDataset:
    """Ten transcripts; 90% are tripled in the positive class, one never moves.

    Mirrors a transcription-amplification scenario: feature 1 stays at 100
    for every cell while features 2-10 are log-normal and multiplied by 3
    in the positive class.
    """
    return _generate(n_samples, seed, n_features=10, effect=CMYC_EFFECT)
