"""Split management and the repeated-split benchmark protocol."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import baselines
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
    if n < 1:
        raise ValueError("n must be positive")
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise ValueError(f"n={n} is too small for a nonempty train/test split")
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


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
        name = f"deepcoda[B={n_bottlenecks};ls={lambda_s:g};{head}]"

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
    """Cross-validated L1 logistic regression on optionally CLR-transformed data."""
    if name is None:
        name = "lasso" if transform == "none" else f"lasso-{transform}"

    def fit_score(x_train, y_train, x_test, seed):
        xt = baselines.apply_transform(x_train, transform)
        lam = baselines.cv_select_lambda(
            xt, y_train, n_folds=n_folds, lambda_grid=lambda_grid, seed=seed
        )
        model = baselines.lasso_logistic_fit(xt, y_train, lam, transform=transform)
        return model.decision(baselines.apply_transform(x_test, transform))

    return Method(name, fit_score)


def _split_auc(x, y, seed: int, method: Method) -> float:
    """Test AUC of one method on the split drawn with ``seed``."""
    train_idx, test_idx = split(x.shape[0], 0.1, seed)
    scores = method.fit_score(x[train_idx], y[train_idx], x[test_idx], seed)
    return auc(scores, y[test_idx])


def _worker_count(n_tasks: int) -> int:
    """One worker per usable CPU, but no more than there are tasks."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, n_tasks)


# (x, y, base_seed, tasks) in a pool worker. Fork hands them over without
# pickling, so methods built from closures and lambdas work.
_worker_state = None


def _init_worker(*state) -> None:
    global _worker_state
    _worker_state = state


def _worker_auc(index: int) -> tuple[int, float | None]:
    """Task ``index``'s AUC, or None if it raised: exceptions are not pickled."""
    x, y, base_seed, tasks = _worker_state
    s, method = tasks[index]
    try:
        return index, _split_auc(x, y, base_seed + s, method)
    except Exception:
        return index, None


def _pool_aucs(x, y, base_seed, tasks, workers) -> list[float | None]:
    """AUCs from a forked pool; None where a task failed or never finished.

    The pool stops at the first failed task in task order. Without fork, or
    while other threads run (a forked child could inherit a lock one of
    them holds, and hang), every entry is None, as are all entries when a
    worker cannot be started (fork fails with EAGAIN or ENOMEM).
    """
    # Imported here, so importing deepcoda does not load multiprocessing.
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    aucs: list[float | None] = [None] * len(tasks)
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return aucs
    children = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(x, y, base_seed, tasks),
    )
    try:
        for index, value in pool.map(_worker_auc, range(len(tasks)), chunksize=1):
            if value is None:
                break
            aucs[index] = value
    except BrokenProcessPool:
        pass  # a worker died; the caller computes what is missing
    except OSError:
        # fork failed while the pool started its workers. Those already
        # started would wait on the pool's queue for ever; stop them.
        for child in set(multiprocessing.active_children()) - children:
            child.terminate()
            child.join()
    finally:
        # Cancel what has not started, so a failure or an interrupt does not
        # wait for the rest of the run.
        pool.shutdown(cancel_futures=True)
    return aucs


def benchmark(
    dataset: LabeledDataset,
    methods: Sequence[Method],
    n_splits: int = DEFAULT_N_SPLITS,
    base_seed: int = 0,
) -> list[BenchmarkResult]:
    """Test AUC of every method across seeded train/test splits.

    Split s uses seed ``base_seed + s`` for both the split and the method's
    internal randomness, so results are a pure function of the arguments.
    The tasks are the (split, method) pairs. They run in forked worker
    processes, one per usable CPU but never more than there are tasks, or
    in this process when that is one, when fork is unavailable, or when
    the caller runs other threads. Results are merged in (split, method)
    order, so they do not depend on the number of workers. A method's side
    effects in a worker do not reach the caller.

    If tasks fail, the lowest-index failing task is run again in this
    process, and its exception propagates as raised, its message prefixed
    with the method name and the split index. Tasks left unfinished by a
    dead worker are also computed here.
    """
    x = np.asarray(dataset.X, dtype=float)
    y = np.asarray(dataset.y)
    tasks = [(s, method) for s in range(n_splits) for method in methods]
    workers = _worker_count(len(tasks))
    aucs = _pool_aucs(x, y, base_seed, tasks, workers) if workers > 1 else [None] * len(tasks)
    results = []
    for (s, method), value in zip(tasks, aucs):
        if value is None:
            try:
                value = _split_auc(x, y, base_seed + s, method)
            except Exception as exc:
                # The same exception, so callers can still tell a usage error
                # from a numeric failure; its message gains the method and split.
                where = f"method {method.name!r} failed on split {s} of {dataset.name!r}"
                exc.args = (f"{where}: {exc}",)
                raise
        results.append(BenchmarkResult(method.name, dataset.name, s, value))
    return results


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
    """Canonical CSV (sorted rows, 17 significant digits)."""
    lines = ["dataset,method,split,auc,standardized_auc"]
    ordered = sorted(results, key=lambda r: (r.dataset, r.method, r.split_index))
    for r in ordered:
        std = "" if r.standardized_auc is None else f"{r.standardized_auc:.17g}"
        lines.append(f"{r.dataset},{r.method},{r.split_index},{r.auc:.17g},{std}")
    return "\n".join(lines) + "\n"
