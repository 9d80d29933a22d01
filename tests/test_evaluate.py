"""Tests for splitting, AUC, and the benchmark harness."""

import csv
import io
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.stats import rankdata

import deepcoda
from deepcoda import (
    BenchmarkResult,
    LabeledDataset,
    Method,
    auc,
    benchmark,
    gen_toy,
    grid_search,
    make_deepcoda_method,
    make_lasso_method,
    results_to_csv,
    split,
    standardize_scores,
)
from deepcoda import evaluate
from deepcoda.evaluate import LAMBDA_S_GRID, _split_with_both_classes
from deepcoda.metrics import _average_ranks


def brute_force_auc(scores, labels):
    """Independent oracle: explicit double loop over (positive, negative) pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestSplit:
    def test_ten_samples_one_test_index(self):
        train_idx, test_idx = split(10, seed=0)
        assert len(test_idx) == 1
        assert len(train_idx) == 9

    def test_union_covers_and_disjoint(self):
        train_idx, test_idx = split(37, seed=5)
        assert np.intersect1d(train_idx, test_idx).size == 0
        assert np.array_equal(np.union1d(train_idx, test_idx), np.arange(37))

    def test_deterministic(self):
        assert np.array_equal(split(50, seed=4)[1], split(50, seed=4)[1])

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            split(4, test_fraction=0.1, seed=0)


def has_both_classes(labels) -> bool:
    return bool((labels == 0).any() and (labels == 1).any())


class TestBenchmarkSplits:
    """benchmark's splits: ``split``'s where both parts hold both classes, redrawn otherwise."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(15, 120),
        n_positive=st.integers(2, 118),
        order_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**31),
    )
    def test_both_parts_hold_both_classes(self, n, n_positive, order_seed, seed):
        n_positive = min(n_positive, n - 2)
        y = np.zeros(n, dtype=int)
        y[np.random.default_rng(order_seed).permutation(n)[:n_positive]] = 1
        train_idx, test_idx = _split_with_both_classes(y, seed, 0)
        assert has_both_classes(y[train_idx]) and has_both_classes(y[test_idx])
        plain = split(n, 0.1, seed)
        if has_both_classes(y[plain[0]]) and has_both_classes(y[plain[1]]):
            assert np.array_equal(train_idx, plain[0]) and np.array_equal(test_idx, plain[1])
        else:
            assert np.intersect1d(train_idx, test_idx).size == 0
            assert np.array_equal(np.union1d(train_idx, test_idx), np.arange(n))
            assert test_idx.size == plain[1].size

    def test_the_draw_cap_names_the_split(self, monkeypatch):
        # Three positives in 30 rows: split(30, 0.1, 0)'s test part of 3 rows holds
        # both classes, split(30, 0.1, 1)'s none of the positives.
        y = np.zeros(30, dtype=int)
        y[:3] = 1
        assert has_both_classes(y[split(30, 0.1, 0)[1]])
        assert not y[split(30, 0.1, 1)[1]].any()
        monkeypatch.setattr(evaluate, "_MAX_DRAWS", 1)
        data = LabeledDataset("rare", np.ones((30, 3)), y)
        with pytest.raises(ValueError, match="^split 1: 1 permutations gave no split"):
            benchmark(data, [Method("never", never_fit)], n_splits=3, base_seed=0)

    @pytest.mark.parametrize(
        "n,n_positive,counts",
        [(40, 1, "39 rows of class 0 and 1 of class 1, and a test part of 4"),
         (40, 39, "1 rows of class 0 and 39 of class 1, and a test part of 4"),
         (14, 7, "7 rows of class 0 and 7 of class 1, and a test part of 1")],
        ids=["one-positive", "one-negative", "one-test-row"],
    )
    def test_rejects_a_file_too_small_before_any_fit(self, n, n_positive, counts):
        y = np.zeros(n, dtype=int)
        y[:n_positive] = 1
        data = LabeledDataset("small", np.ones((n, 3)), y)
        with pytest.raises(ValueError, match=f"^'small' has {counts}; the benchmark needs"):
            benchmark(data, [Method("never", never_fit)], n_splits=2)


def never_fit(x_train, y_train, x_test, seed):
    raise AssertionError("no method may run")


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_equal_scores_give_half(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = rng.integers(0, 8, size=n).astype(float)  # ties likely
            assert auc(scores, labels) == brute_force_auc(scores, labels)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        transforms = (
            lambda t: 2.0 * t + 3.0,
            lambda t: t**3,
            np.arctan,
            np.exp,
        )
        for _ in range(25):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = rng.integers(-5, 6, size=n).astype(float)
            base = auc(scores, labels)
            for fn in transforms:
                assert auc(fn(scores), labels) == base

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 2])

    @pytest.mark.parametrize(
        "scores",
        [
            np.random.default_rng(2).integers(0, 4, size=200).astype(float),  # tie-heavy
            np.full(7, 0.25),  # all tied
            np.random.default_rng(3).permutation(50) * 0.5 - 3.0,  # tie-free
            np.array([1.0, -1.0]),
            np.array([2.0, 2.0]),
            np.array([0.0, -0.0, 1.0, 0.0]),  # signed zeros tie
        ],
        ids=["tie_heavy", "all_tied", "tie_free", "length2", "length2_tied", "signed_zero"],
    )
    def test_average_ranks_match_rankdata(self, scores):
        assert np.array_equal(_average_ranks(scores), rankdata(scores, method="average"))

    def test_matches_rankdata_formula_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 300))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            scores = rng.normal(size=n) if n % 2 else rng.integers(0, 5, size=n) / 3.0
            pos = labels == 1
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            u = rankdata(scores, method="average")[pos].sum() - n_pos * (n_pos + 1) / 2.0
            assert auc(scores, labels) == float(u / (n_pos * n_neg))

    def test_cli_import_leaves_out_scipy(self):
        src = str(Path(deepcoda.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, deepcoda.cli; sys.exit(any(m.startswith('scipy') for m in sys.modules))"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_cli_import_leaves_out_multiprocessing(self):
        src = str(Path(deepcoda.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, deepcoda.cli; sys.exit('multiprocessing' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.fixture(scope="module")
def tiny_dataset():
    ds = gen_toy(100, seed=3)
    return LabeledDataset("toy100", ds.relative.values, ds.labels)


@pytest.fixture(scope="module")
def noisy_dataset():
    """30 % flipped labels, so AUCs differ between methods and splits."""
    ds = gen_toy(300, seed=3)
    flip = np.random.default_rng(0).random(300) < 0.3
    return LabeledDataset("noisy300", ds.relative.values, np.where(flip, 1 - ds.labels, ds.labels))


def constant_method(value=0.0):
    return Method("const", lambda xtr, ytr, xte, seed: np.full(len(xte), value))


class TestBenchmark:
    def test_one_method_twenty_rows(self, tiny_dataset):
        results = benchmark(tiny_dataset, [constant_method()], n_splits=20, base_seed=0)
        assert len(results) == 20
        assert {r.split_index for r in results} == set(range(20))

    def test_constant_scores_give_half_auc(self, tiny_dataset):
        results = benchmark(tiny_dataset, [constant_method()], n_splits=10, base_seed=0)
        assert all(r.auc == 0.5 for r in results)

    def test_pure_function_of_inputs(self, tiny_dataset):
        methods = [make_lasso_method("none", lambda_grid=[0.01])]
        a = benchmark(tiny_dataset, methods, n_splits=3, base_seed=7)
        b = benchmark(tiny_dataset, methods, n_splits=3, base_seed=7)
        assert a == b

    @pytest.mark.parametrize("kwargs", [{"epochs": 0}, {"n_bottlenecks": 0}, {"learning_rate": -1.0}])
    def test_invalid_deepcoda_config_fails_at_creation(self, kwargs):
        with pytest.raises(ValueError):
            make_deepcoda_method(**kwargs)

    @pytest.mark.parametrize("n_splits", [0, -2])
    def test_rejects_fewer_than_one_split(self, tiny_dataset, n_splits):
        with pytest.raises(ValueError, match="n_splits must be at least 1"):
            benchmark(tiny_dataset, [constant_method()], n_splits=n_splits)

    def test_rejects_no_methods(self, tiny_dataset):
        with pytest.raises(ValueError, match="at least one method"):
            benchmark(tiny_dataset, [], n_splits=2)

    def test_rejects_negative_seed(self, tiny_dataset):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            benchmark(tiny_dataset, [constant_method()], n_splits=2, base_seed=-1)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            grid_search(tiny_dataset, base_seed=-1)

    def test_rejects_duplicate_method_names(self, tiny_dataset):
        def never(xtr, ytr, xte, seed):
            raise AssertionError("no split may run")

        methods = [Method("a", never), Method("b", never), Method("a", never)]
        with pytest.raises(ValueError, match="duplicate method names: a$"):
            benchmark(tiny_dataset, methods, n_splits=2)

    def test_method_errors_are_annotated(self, tiny_dataset):
        def boom(xtr, ytr, xte, seed):
            raise ValueError("inner failure")

        with pytest.raises(ValueError, match=r"'bad'.*split 0.*inner failure"):
            benchmark(tiny_dataset, [Method("bad", boom)], n_splits=2, base_seed=0)

    @pytest.mark.parametrize(
        "fail,cls",
        [
            # 10**15 float64 values exceed a 47-bit address space, so this never allocates.
            (lambda: np.empty(10**15), MemoryError),
            (lambda: open(os.path.join(os.sep, "no", "such", "file")), FileNotFoundError),
            (lambda: b"\xff".decode("utf-8"), UnicodeError),
        ],
        ids=["numpy_memory", "file_not_found", "unicode_decode"],
    )
    def test_errors_whose_text_ignores_args_are_annotated(self, tiny_dataset, fail, cls):
        def big(xtr, ytr, xte, seed):
            fail()

        with pytest.raises(cls) as info:
            benchmark(tiny_dataset, [Method("big", big)], n_splits=1)
        assert str(info.value).startswith("method 'big' failed on split 0 of 'toy100': ")


class SplitZeroError(Exception):
    pass


class TwoArgError(Exception):
    """Cannot be unpickled: unpickling calls ``TwoArgError(message)``."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def failing_on_both_splits(errors):
    """A method that raises ``errors[s]()`` on split s (base seed 0)."""

    def fit_score(xtr, ytr, xte, seed):
        raise errors[seed]()

    return Method("bad", fit_score)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


class TestParallelBenchmark:
    """Forked workers merge in (split, method) order: results never depend on the CPU count."""

    def test_cli_methods_match_serial_bitwise(self, noisy_dataset, set_cpus):
        methods = [
            make_deepcoda_method(2, 0.01, "self_explain", epochs=30, name="deepcoda"),
            make_deepcoda_method(2, 0.01, "linear", epochs=30, name="deepcoda-linear"),
            make_lasso_method("none"),
            make_lasso_method("clr"),
        ]
        set_cpus(1)
        serial = benchmark(noisy_dataset, methods, n_splits=3, base_seed=5)
        set_cpus(2)
        parallel = benchmark(noisy_dataset, methods, n_splits=3, base_seed=5)
        assert parallel == serial
        assert len({r.auc for r in serial}) > 6
        assert [(r.split_index, r.method) for r in parallel] == [
            (s, m.name) for s in range(3) for m in methods
        ]

    def test_grid_matches_serial_bitwise(self, noisy_dataset, set_cpus):
        kwargs = dict(
            B_grid=[1, 2], lambda_s_grid=[0.01], heads=["self_explain", "linear"],
            n_splits=2, base_seed=0, epochs=20,
        )
        set_cpus(1)
        serial = grid_search(noisy_dataset, **kwargs)
        set_cpus(2)
        assert grid_search(noisy_dataset, **kwargs) == serial
        assert len({r.auc for r in serial}) > 4

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "first,cls",
        [(lambda: SplitZeroError("first"), SplitZeroError),
         (lambda: TwoArgError("first", "second"), TwoArgError)],
        ids=["plain", "unpicklable"],
    )
    def test_lowest_failing_task_is_raised(self, tiny_dataset, set_cpus, cpus, first, cls):
        # Tasks: 0 = (split 0, const), 1 = (0, bad), 2 = (1, const), 3 = (1, bad).
        methods = [constant_method(), failing_on_both_splits({0: first, 1: lambda: KeyError("3")})]
        set_cpus(cpus)
        with pytest.raises(cls) as info:
            benchmark(tiny_dataset, methods, n_splits=2, base_seed=0)
        assert str(info.value).startswith("method 'bad' failed on split 0 of 'toy100': first")

    @needs_fork
    @pytest.mark.parametrize(
        "cpus,thread,workers",
        [(8, False, 2), (1, False, 0), (8, True, 0)],
        ids=["tasks", "cpus", "other_thread"],
    )
    def test_workers_clamped_to_tasks_and_cpus(
        self, tiny_dataset, set_cpus, forked_workers, cpus, thread, workers
    ):
        set_cpus(cpus)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        if thread:
            waiter.start()
        try:
            results = benchmark(tiny_dataset, [constant_method()], n_splits=2)
        finally:
            release.set()
            if thread:
                waiter.join()
        assert len(forked_workers) == workers
        assert [r.auc for r in results] == [0.5, 0.5]

    @needs_fork
    @pytest.mark.parametrize("fails_at", [1, 2], ids=["first_worker", "second_worker"])
    def test_failed_fork_runs_in_process(self, tiny_dataset, set_cpus, fail_fork, fails_at):
        methods = [Method("scaled", lambda xtr, ytr, xte, seed: xte[:, 0] * seed)]
        set_cpus(1)
        serial = benchmark(tiny_dataset, methods, n_splits=3, base_seed=1)
        tried = fail_fork(fails_at)
        set_cpus(2)
        assert benchmark(tiny_dataset, methods, n_splits=3, base_seed=1) == serial
        assert len(tried) == fails_at
        # A worker started before the failed fork is stopped and reaped, not left waiting.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestStandardize:
    def test_two_results_center_correctly(self):
        rows = [
            BenchmarkResult("m1", "d", 0, 0.8),
            BenchmarkResult("m2", "d", 0, 0.6),
        ]
        out = standardize_scores(rows)
        assert out[0].standardized_auc == pytest.approx(0.1, abs=1e-15)
        assert out[1].standardized_auc == pytest.approx(-0.1, abs=1e-15)

    def test_per_dataset_means_are_zero(self):
        rng = np.random.default_rng(2)
        rows = [
            BenchmarkResult("m", f"d{k}", s, float(rng.uniform(0.4, 1.0)))
            for k in range(3)
            for s in range(7)
        ]
        out = standardize_scores(rows)
        for k in range(3):
            values = [r.standardized_auc for r in out if r.dataset == f"d{k}"]
            assert abs(np.mean(values)) <= 1e-12

    def test_shift_invariance(self):
        rows = [BenchmarkResult("m", "d", s, 0.5 + 0.01 * s) for s in range(5)]
        shifted = [BenchmarkResult("m", "d", s, 0.7 + 0.01 * s) for s in range(5)]
        a = [r.standardized_auc for r in standardize_scores(rows)]
        b = [r.standardized_auc for r in standardize_scores(shifted)]
        assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            standardize_scores([])


class TestGridSearch:
    def test_single_cell_grid_equals_plain_benchmark(self, tiny_dataset):
        grid = grid_search(
            tiny_dataset,
            B_grid=[1],
            lambda_s_grid=[0.01],
            heads=["linear"],
            n_splits=2,
            base_seed=0,
            epochs=20,
        )
        plain = benchmark(
            tiny_dataset,
            [make_deepcoda_method(1, 0.01, "linear", epochs=20)],
            n_splits=2,
            base_seed=0,
        )
        assert [r.auc for r in grid] == [r.auc for r in plain]

    def test_row_count_is_grid_cross_product(self, tiny_dataset):
        results = grid_search(
            tiny_dataset,
            B_grid=[1, 2],
            lambda_s_grid=[0.01, 0.1],
            heads=["self_explain", "linear"],
            n_splits=2,
            base_seed=0,
            epochs=5,
        )
        assert len(results) == 2 * 2 * 2 * 2
        assert len({r.method for r in results}) == 8

    def test_penalties_that_print_alike_get_distinct_names(self, tiny_dataset):
        # The default grid keeps its short names, so the --grid CSV is unchanged.
        assert [make_deepcoda_method(1, ls, "linear").name for ls in LAMBDA_S_GRID] == [
            f"deepcoda[B=1;ls={ls};linear]" for ls in ("0.001", "0.01", "0.1", "1")
        ]
        results = grid_search(
            tiny_dataset, B_grid=[1], lambda_s_grid=[0.1, 0.1000001], heads=["linear"],
            n_splits=1, epochs=2,
        )
        assert sorted(r.method for r in results) == [
            "deepcoda[B=1;ls=0.1000001;linear]", "deepcoda[B=1;ls=0.1;linear]"
        ]


class TestResultsCsv:
    def test_header_and_sorted_rows(self):
        rows = [
            BenchmarkResult("b", "d", 1, 0.75, 0.05),
            BenchmarkResult("a", "d", 0, 0.5, -0.2),
        ]
        text = results_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "dataset,method,split,auc,standardized_auc"
        assert lines[1].startswith("d,a,0,")
        assert lines[2].startswith("d,b,1,")

    def test_names_needing_quotes_round_trip(self):
        names = ["a,b", "cr\rx", 'say "hi"', "two\nlines"]
        rows = [BenchmarkResult(name, name, 0, 0.5, 0.0) for name in names]
        parsed = list(csv.reader(io.StringIO(results_to_csv(rows))))
        assert all(len(row) == 5 for row in parsed)
        assert [row[:2] for row in parsed[1:]] == [[name, name] for name in sorted(names)]

    def test_round_trips_at_full_precision(self):
        value = 0.123456789012345678
        rows = [BenchmarkResult("m", "d", 0, value, None)]
        line = results_to_csv(rows).strip().split("\n")[1]
        parsed = float(line.split(",")[3])
        assert parsed == value
