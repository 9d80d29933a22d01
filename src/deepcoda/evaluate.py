"""Split management and the repeated-split benchmark protocol."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import baselines
from ._formats import csv_table
from ._forkmap import ordered_fork_map
from .checks import check_choice, check_count, check_real, check_seed
from .metrics import auc
from .model import HEADS, predict_proba
from .train import TrainConfig, train

__all__ = [
    "B_GRID",
    "LAMBDA_S_GRID",
    "BenchmarkResult",
    "LabeledDataset",
    "Method",
    "auc",
    "benchmark",
    "grid_search",
    "make_deepcoda_method",
    "make_lasso_method",
    "results_to_csv",
    "split",
    "standardize_scores",
]

B_GRID = (1, 3, 5, 10)
LAMBDA_S_GRID = (0.001, 0.01, 0.1, 1.0)
DEFAULT_N_SPLITS = 20


def split(n: int, test_fraction: float = 0.1, seed: int = 0):
    """Disjoint, covering (train, test) index arrays with |test| = round(f * n)."""
    check_count(n, "n")
    check_real(test_fraction, "test_fraction", high=1.0, low_open=True)
    check_seed(seed)
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise ValueError(f"n={n} is too small for a nonempty train/test split")
    return _parts(np.random.default_rng(seed).permutation(n), n_test)


def _parts(perm: np.ndarray, n_test: int):
    """(train, test) index arrays: the test part is the first ``n_test`` entries of ``perm``."""
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


_TEST_FRACTION = 0.1  # of the rows in each benchmark split's test part
_MAX_DRAWS = 1000  # permutations a benchmark split may draw for both classes in both parts


def _split_with_both_classes(y: np.ndarray, seed: int, split_index: int):
    """``split(len(y), _TEST_FRACTION, seed)`` if both its parts hold both classes of ``y``.

    Otherwise the first such split among the next permutations that the
    same generator draws. Raises ValueError, naming ``split_index``, after
    ``_MAX_DRAWS`` permutations without one.
    """
    n = y.shape[0]
    n_test = int(round(n * _TEST_FRACTION))
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        train_idx, test_idx = _parts(rng.permutation(n), n_test)
        if all((y[part] == 0).any() and (y[part] == 1).any() for part in (train_idx, test_idx)):
            return train_idx, test_idx
    raise ValueError(
        f"split {split_index}: {_MAX_DRAWS} permutations gave no split with both classes "
        "in both parts"
    )


@dataclass(frozen=True)
class LabeledDataset:
    """A named, strictly positive N x D matrix with binary labels."""

    name: str
    X: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class Method:
    """A named fit-and-score routine: (X_train, y_train, X_test, seed) -> scores."""

    name: str
    fit_score: Callable[[np.ndarray, np.ndarray, np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class BenchmarkResult:
    method: str
    dataset: str
    split_index: int
    auc: float
    standardized_auc: float | None = None


def make_deepcoda_method(
    n_bottlenecks: int = TrainConfig.n_bottlenecks,
    lambda_s: float = TrainConfig.lambda_s,
    head: str = TrainConfig.head,
    lambda_c: float = TrainConfig.lambda_c,
    learning_rate: float = TrainConfig.learning_rate,
    epochs: int = TrainConfig.epochs,
    name: str | None = None,
) -> Method:
    """Method that trains the network on each split (seed = split seed).

    The configuration is validated here, so a bad one fails before any split.
    """
    cfg = TrainConfig(
        n_bottlenecks=n_bottlenecks,
        lambda_c=lambda_c,
        lambda_s=lambda_s,
        learning_rate=learning_rate,
        epochs=epochs,
        head=head,
    )
    if name is None:
        # ":g" keeps 6 digits; a penalty it would round is named in full, so names stay unique.
        ls = f"{lambda_s:g}" if float(f"{lambda_s:g}") == lambda_s else repr(float(lambda_s))
        name = f"deepcoda[B={n_bottlenecks};ls={ls};{head}]"

    def fit_score(x_train, y_train, x_test, seed):
        report = train(x_train, y_train, replace(cfg, seed=seed))
        return predict_proba(report.params, x_test)

    return Method(name, fit_score)


def make_lasso_method(
    transform: str = "none",
    lambda_grid=None,
    n_folds: int = 5,
    name: str | None = None,
) -> Method:
    """Cross-validated L1 logistic regression on optionally CLR-transformed data.

    ``transform``, ``lambda_grid`` and ``n_folds`` are validated here, so a
    bad one fails before any split.
    """
    check_choice(transform, "transform", baselines.TRANSFORMS)
    grid = baselines._lambda_grid(lambda_grid)
    check_count(n_folds, "n_folds", 2)
    if name is None:
        name = "lasso" if transform == "none" else f"lasso-{transform}"

    def fit_score(x_train, y_train, x_test, seed):
        xt = baselines.apply_transform(x_train, transform)
        lam = baselines.cv_select_lambda(
            xt, y_train, n_folds=n_folds, lambda_grid=grid, seed=seed
        )
        model = baselines.lasso_logistic_fit(xt, y_train, lam, transform=transform)
        return model.decision(baselines.apply_transform(x_test, transform))

    return Method(name, fit_score)


def benchmark(
    dataset: LabeledDataset,
    methods: Sequence[Method],
    n_splits: int = DEFAULT_N_SPLITS,
    base_seed: int = 0,
) -> list[BenchmarkResult]:
    """Test AUC of every method across seeded train/test splits.

    Split s uses seed ``base_seed + s`` for both the split and the method's
    internal randomness, so results are a pure function of the arguments.
    The tasks are the (split, method) pairs, run through the shared
    ``_forkmap.ordered_fork_map`` (forked workers, one per usable CPU, each
    taking the next task when it is free) and merged in (split, method)
    order, so results do not depend on the number of workers. A method's side effects
    in a worker do not reach the caller. The lowest failing task's exception
    propagates as raised, its message prefixed with the method name and the
    split index.

    Split s is ``split(n, 0.1, base_seed + s)`` when both its parts hold
    both classes; otherwise the same generator draws further permutations
    until one does.

    Raises ValueError before any work if ``n_splits`` is below 1, if
    ``base_seed`` is negative, if there are no methods, if two methods
    share a name (their CSV rows could not be told apart), if a class has
    fewer than 2 rows or the test part would hold fewer than 2, or if a
    split finds no such permutation in ``_MAX_DRAWS`` draws.
    """
    check_count(n_splits, "n_splits")
    check_seed(base_seed, "base_seed")
    if not methods:
        raise ValueError("at least one method is required")
    names = [method.name for method in methods]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate method names: {', '.join(duplicates)}")
    x = np.asarray(dataset.X, dtype=float)
    y = np.asarray(dataset.y)
    counts = [int(np.count_nonzero(y == label)) for label in (0, 1)]
    n_test = int(round(y.shape[0] * _TEST_FRACTION))
    if min(counts) < 2 or n_test < 2:
        raise ValueError(
            f"{dataset.name!r} has {counts[0]} rows of class 0 and {counts[1]} of class 1, "
            f"and a test part of {n_test}; the benchmark needs 2 rows of each class and a "
            "test part of 2 rows or more"
        )
    splits = [_split_with_both_classes(y, base_seed + s, s) for s in range(n_splits)]
    tasks = [(s, method) for s in range(n_splits) for method in methods]

    def task_auc(index: int) -> float:
        s, method = tasks[index]
        try:
            train_idx, test_idx = splits[s]
            scores = method.fit_score(x[train_idx], y[train_idx], x[test_idx], base_seed + s)
            return auc(scores, y[test_idx])
        except Exception as exc:
            # The same exception, so callers can still tell a usage error
            # from a numeric failure; its message gains the method and split.
            message = f"method {method.name!r} failed on split {s} of {dataset.name!r}: {exc}"
            exc.args = (message,)
            if message in str(exc):
                raise
            # Its text ignores ``args`` (numpy's MemoryError builds it from
            # the shape and dtype): raise its nearest built-in class instead.
            raise _builtin_error(exc, message) from exc

    values = ordered_fork_map(task_auc, len(tasks))
    return [
        BenchmarkResult(method.name, dataset.name, s, value)
        for (s, method), value in zip(tasks, values)
    ]


def _builtin_error(exc: Exception, message: str) -> Exception:
    """The first built-in class in ``exc``'s MRO that takes ``message`` alone (Exception does)."""
    for cls in type(exc).__mro__:
        if cls.__module__ == "builtins":
            try:
                return cls(message)
            except TypeError:  # UnicodeDecodeError and its kin take more arguments
                pass


def standardize_scores(results: Sequence[BenchmarkResult]) -> list[BenchmarkResult]:
    """Center each dataset's AUC values around the dataset mean."""
    if not results:
        raise ValueError("no results to standardize")
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for r in results:
        sums[r.dataset] = sums.get(r.dataset, 0.0) + r.auc
        counts[r.dataset] = counts.get(r.dataset, 0) + 1
    means = {name: sums[name] / counts[name] for name in sums}
    return [replace(r, standardized_auc=r.auc - means[r.dataset]) for r in results]


def grid_search(
    dataset: LabeledDataset,
    B_grid: Sequence[int] = B_GRID,
    lambda_s_grid: Sequence[float] = LAMBDA_S_GRID,
    heads: Sequence[str] = HEADS,
    n_splits: int = DEFAULT_N_SPLITS,
    base_seed: int = 0,
    lambda_c: float = TrainConfig.lambda_c,
    learning_rate: float = TrainConfig.learning_rate,
    epochs: int = TrainConfig.epochs,
) -> list[BenchmarkResult]:
    """Benchmark the full bottleneck-count x L1-penalty x head cross product."""
    methods = [
        make_deepcoda_method(
            n_bottlenecks=b,
            lambda_s=ls,
            head=head,
            lambda_c=lambda_c,
            learning_rate=learning_rate,
            epochs=epochs,
        )
        for b in B_grid
        for ls in lambda_s_grid
        for head in heads
    ]
    return benchmark(dataset, methods, n_splits=n_splits, base_seed=base_seed)


def results_to_csv(results: Sequence[BenchmarkResult]) -> str:
    """Canonical CSV (sorted rows, numbers as ``_formats.NUMBER``)."""
    ordered = sorted(results, key=lambda r: (r.dataset, r.method, r.split_index))
    return csv_table(
        ["dataset", "method", "split", "auc", "standardized_auc"],
        ([r.dataset, r.method, r.split_index, r.auc,
          "" if r.standardized_auc is None else r.standardized_auc] for r in ordered),
    )
