"""Tests for the two-level interpretability reports."""

import csv
import dataclasses
import io
import os
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

from deepcoda import (
    DeepCodaParams,
    TrainConfig,
    contrast_membership,
    decision_rule,
    explain_batch,
    explain_sample,
    gen_toy,
    load_params,
    predict_proba,
    render_report,
    replace_zeros,
    save_params,
    train,
    weight_contrast_correlation,
)
from deepcoda.cli import EXIT_NUMERIC, EXIT_OK, load_dataset, run
from deepcoda.explain import (_ROW_BLOCK, DECISION_NEGATIVE, DECISION_POSITIVE, Explanation,
                              ExplanationBatch)


def small_params(head="self_explain", seed=0, d=4, n_b=3):
    rng = np.random.default_rng(seed)
    return DeepCodaParams(
        beta=rng.normal(0, 0.4, size=(d, n_b)),
        beta0=rng.normal(0, 0.1, size=n_b),
        mlp_w1=rng.normal(0, 0.4, size=(n_b, 16)),
        mlp_b1=rng.normal(0, 0.1, size=16),
        mlp_w2=rng.normal(0, 0.4, size=(16, n_b)),
        mlp_b2=rng.normal(0, 0.1, size=n_b),
        head=head,
        linear_v=rng.normal(0, 0.4, size=n_b),
        linear_v0=0.0,
    )


class TestDecisionRule:
    def test_negative_sum_is_healthy(self):
        assert decision_rule([2.0, -15.6, -3.6, -1.1, 1.8]) == DECISION_NEGATIVE

    def test_positive_sum_is_unhealthy(self):
        assert decision_rule([0.5, -7.3, 8.8, 7.4, 0.1]) == DECISION_POSITIVE

    def test_zero_sum_is_healthy(self):
        assert decision_rule([1.0, -1.0]) == DECISION_NEGATIVE

    @pytest.mark.parametrize(
        "products,message",
        [([[1.0, 2.0], [-5.0, 1.0]], "products must have 1 dimensions"),
         (3.0, "products must have 1 dimensions"),
         ([1.0, np.nan], "products must be finite"), ([np.inf, -1.0], "products must be finite")],
        ids=["batch", "scalar", "nan", "inf"],
    )
    def test_anything_but_one_row_of_finite_scores_is_rejected(self, products, message):
        with pytest.raises(ValueError, match=message):
            decision_rule(products)


class TestExplainSample:
    def test_products_and_probability_are_consistent(self):
        p = small_params(seed=1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(0.2, 50.0, size=4)
            e = explain_sample(p, x, "s1")
            assert np.array_equal(e.products, e.w * e.z)
            assert e.prediction == pytest.approx(
                float(expit(e.products.sum())), abs=1e-12
            )
            assert e.prediction == pytest.approx(predict_proba(p, x[None, :])[0], abs=1e-12)

    def test_decision_follows_logit_sign(self):
        p = small_params(seed=2)
        x = np.array([1.0, 3.0, 0.4, 8.0])
        e = explain_sample(p, x)
        expected = DECISION_POSITIVE if e.products.sum() > 0 else DECISION_NEGATIVE
        assert e.decision == expected
        assert (e.prediction > 0.5) == (e.decision == DECISION_POSITIVE)

    def test_linear_head_unsupported(self):
        p = small_params(head="linear", seed=3)
        with pytest.raises(ValueError, match="linear"):
            explain_sample(p, [1.0, 2.0, 3.0, 4.0])


def overflowing_params():
    """Contrast 1 is 1e306 * log(x1 / x2) and feeds nothing, so it overflows only
    on a row where that log-ratio is large."""
    p = small_params(seed=11)
    p.beta[:, 0] = [1e306, -1e306, 0.0, 0.0]
    p.mlp_w1[0, :] = 0.0
    p.mlp_w2[:, 0] = 0.0
    p.mlp_b2[0] = 0.0
    return p


OVERFLOW_ROW = [1e300, 1e-300, 1.0, 1.0]


class TestExplainBatch:
    def test_rows_equal_per_row_explanations(self):
        ds = gen_toy(1200, seed=2)
        counts = ds.absolute.values.copy()
        rng = np.random.default_rng(2)
        hit = np.flatnonzero(rng.random(1200) < 0.5)
        counts[hit, rng.integers(0, 4, size=hit.size)] = 0.0
        values = replace_zeros(dataclasses.replace(ds.absolute, values=counts)).values
        assert not np.array_equal(values, ds.absolute.values)
        p = small_params(seed=12)
        batch = explain_batch(p, values, ds.absolute.sample_ids)
        assert len(batch) == 1200
        for i, sample_id in enumerate(ds.absolute.sample_ids):
            e = explain_sample(p, values[i], sample_id)
            row = batch[i]
            assert row.sample_id == e.sample_id
            assert np.array_equal(row.z, e.z)
            assert np.array_equal(row.w, e.w)
            assert np.array_equal(row.products, e.products)
            assert row.prediction == e.prediction
            assert row.decision == e.decision == decision_rule(e.products)

    def test_rejects_mismatched_sample_ids(self):
        with pytest.raises(ValueError, match="sample ids"):
            explain_batch(small_params(), np.ones((3, 4)), ["a", "b"])

    def test_one_overflowing_row_fails_the_batch(self):
        p = overflowing_params()
        rows = np.random.default_rng(3).uniform(0.5, 20.0, size=(50, 4))
        explain_batch(p, rows, [f"S{i}" for i in range(50)])
        rows[17] = OVERFLOW_ROW
        with pytest.raises(FloatingPointError):
            explain_batch(p, rows, [f"S{i}" for i in range(50)])

    def test_explain_command_exits_3_on_overflow(self, tmp_path):
        p = overflowing_params()
        save_params(p, tmp_path / "model.txt")
        rows = np.random.default_rng(4).uniform(0.5, 20.0, size=(10, 4))
        rows[6] = OVERFLOW_ROW
        lines = ["sample_id,a,b,c,d,label"]
        lines += [",".join([f"S{i}", *map(repr, row.tolist()), str(i % 2)]) for i, row in enumerate(rows)]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        code = run(["explain", str(tmp_path / "model.txt"), str(tmp_path / "data.csv"),
                    "--out", str(tmp_path / "report")])
        assert code == EXIT_NUMERIC


class TestContrastMembership:
    def test_reads_off_signed_powers(self):
        p = small_params(seed=4, d=3, n_b=1)
        p.beta[:, 0] = [0.5, 0.5, -1.0]
        m = contrast_membership(p, 0, feature_names=["a", "b", "c"])
        assert m.entries[0] == ("c", -1.0)
        assert m.numerator == ("a", "b")
        assert m.denominator == ("c",)

    def test_all_below_threshold_gives_empty_membership(self):
        p = small_params(seed=5, d=3, n_b=1)
        p.beta[:, 0] = [1e-4, -5e-4, 0.0]
        m = contrast_membership(p, 0)
        assert m.entries == ()
        assert m.numerator == () and m.denominator == ()

    def test_sorted_by_magnitude_descending(self):
        p = small_params(seed=6, d=4, n_b=2)
        p.beta[:, 1] = [0.2, -0.9, 0.5, -0.1]
        m = contrast_membership(p, 1)
        magnitudes = [abs(pw) for _, pw in m.entries]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_trained_toy_model_uses_the_varying_features(self):
        ds = gen_toy(200, seed=0)
        report = train(
            ds.relative.values,
            ds.labels,
            TrainConfig(n_bottlenecks=1, lambda_s=0.01, seed=0),
        )
        m = contrast_membership(report.params, 0, ds.relative.feature_names)
        names = {name for name, _ in m.entries}
        assert {"feature_2", "feature_3", "feature_4"} <= names

    def test_rejects_bad_index(self):
        p = small_params(seed=7)
        with pytest.raises(ValueError):
            contrast_membership(p, 3)


class TestWeightContrastCorrelation:
    def test_self_correlation(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(400, 4))
        pearson, canonical = weight_contrast_correlation(z, z)
        assert_allclose(np.diag(pearson), 1.0, rtol=0, atol=1e-12)
        assert_allclose(canonical, 1.0, rtol=0, atol=1e-6)

    def test_independent_blocks_have_small_canonical_correlations(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            w = rng.normal(size=(1000, 5))
            z = rng.normal(size=(1000, 5))
            _, canonical = weight_contrast_correlation(w, z)
            assert canonical.max() < 0.3

    def test_planted_cross_correlation(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(600, 5))
        w = rng.normal(size=(600, 5))
        w[:, 4] = z[:, 2] + 0.05 * rng.normal(size=600)
        pearson, canonical = weight_contrast_correlation(w, z)
        assert pearson[4, 2] > 0.95
        assert canonical[0] > 0.95

    def test_constant_column_flagged_and_zeroed(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(50, 3))
        z = rng.normal(size=(50, 3))
        w[:, 1] = 2.5
        with pytest.warns(RuntimeWarning, match="constant"):
            pearson, _ = weight_contrast_correlation(w, z)
        assert np.all(pearson[1, :] == 0.0)

    def test_constant_column_with_an_inexact_mean_is_constant(self):
        # The mean of twelve 0.1s is not 0.1, so their std is 1.4e-17, not 0.
        rng = np.random.default_rng(8)
        w = rng.normal(size=(12, 2))
        w[:, 0] = 0.1
        z = np.column_stack([np.arange(12.0), rng.normal(size=12)])
        assert np.std(w[:, 0]) > 0
        with pytest.warns(RuntimeWarning, match="constant"):
            pearson, _ = weight_contrast_correlation(w, z)
        assert np.all(pearson[0, :] == 0.0)

    def test_bounds(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(80, 4))
        z = 0.5 * w + rng.normal(size=(80, 4))
        pearson, canonical = weight_contrast_correlation(w, z)
        assert np.all(pearson >= -1.0) and np.all(pearson <= 1.0)
        assert np.all(canonical >= 0.0) and np.all(canonical <= 1.0)
        assert np.all(np.diff(canonical) <= 1e-12)

    def test_invariant_under_affine_column_rescaling(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(300, 3))
        z = rng.normal(size=(300, 4))
        z[:, 0] += 0.8 * w[:, 1]
        _, base = weight_contrast_correlation(w, z)
        w2 = w * np.array([3.0, -0.5, 10.0]) + np.array([1.0, -2.0, 0.3])
        z2 = z * np.array([0.2, 5.0, -1.0, 2.0]) + np.array([4.0, 0.0, -1.0, 9.0])
        _, rescaled = weight_contrast_correlation(w2, z2)
        assert_allclose(rescaled, base, rtol=0, atol=1e-5)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match="samples"):
            weight_contrast_correlation(np.ones((3, 3)), np.ones((3, 3)))

    def test_rejects_non_finite_weights(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(20, 2))
        w[3, 1] = np.nan
        with pytest.raises(ValueError, match="^W must be finite"):
            weight_contrast_correlation(w, rng.normal(size=(20, 2)))


def csv_writer_line(row):
    """``row`` as csv.writer writes it, ended by "\n" but quoted as for "\r\n".

    A "\r\n" terminator makes the writer quote a field holding a bare \r,
    which a "\n" terminator leaves unquoted (a reader would split the row).
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(row)
    return buf.getvalue()[:-2] + "\n"


def reference_explanations_csv(batch):
    """The explanations table as csv.writer writes it, one f-string per value."""
    n_contrasts = batch.z.shape[1] if len(batch) else 0
    columns = [f"{kind}_{b + 1}" for kind in ("z", "w", "prod") for b in range(n_contrasts)]
    lines = [csv_writer_line(["sample_id", *columns, "prob", "decision"])]
    for i, sample_id in enumerate(batch.sample_ids):
        row = [*batch.z[i], *batch.w[i], *batch.products[i], batch.prediction[i]]
        lines.append(csv_writer_line([sample_id, *(f"{x:.17g}" for x in np.array(row).tolist()),
                                      str(batch.decisions[i])]))
    return "".join(lines)


QUOTED_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\r", "", " padded ", "\u03bc-7", "S7"]


def synthetic_batch(n):
    """An n-row batch of awkward floats, with sample ids that csv must quote."""
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3, -123456.789]
    rng = np.random.default_rng(n)
    values = np.where(
        rng.random((n, 10)) < 0.3,
        rng.choice(special, size=(n, 10)),
        rng.normal(0.0, 10.0, size=(n, 10)),
    )
    return ExplanationBatch(
        sample_ids=tuple(QUOTED_IDS[i % len(QUOTED_IDS)] for i in range(n)),
        z=values[:, 0:3],
        w=values[:, 3:6],
        products=values[:, 6:9],
        prediction=values[:, 9],
        decisions=np.where(values[:, 9] > 0, DECISION_POSITIVE, DECISION_NEGATIVE),
    )


class TestRenderReport:
    def _explanations(self, n=3, seed=0):
        p = small_params(seed=seed)
        rng = np.random.default_rng(seed)
        return p, [
            explain_sample(p, rng.uniform(0.5, 20.0, size=4), f"S{i:03d}")
            for i in range(n)
        ]

    def test_empty_inputs_give_headers_only(self):
        bundle = render_report([], [], None)
        for text in (
            bundle.explanations_csv,
            bundle.memberships_csv,
            bundle.correlations_csv,
        ):
            assert len(text.strip().split("\n")) == 1

    def test_one_sample_one_row(self):
        _, explanations = self._explanations(n=1)
        bundle = render_report(explanations, [], None)
        lines = bundle.explanations_csv.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].split(",")[0] == "sample_id"

    def test_csv_round_trips_full_precision(self):
        p, explanations = self._explanations(n=4, seed=8)
        memberships = [contrast_membership(p, b) for b in range(3)]
        w = np.array([e.w for e in explanations])
        z = np.array([e.z for e in explanations])
        correlations = weight_contrast_correlation(w, z)
        bundle = render_report(explanations, memberships, correlations)

        rows = list(csv.reader(io.StringIO(bundle.explanations_csv)))
        header, data = rows[0], rows[1:]
        assert len(data) == 4
        for e, row in zip(explanations, data):
            parsed = dict(zip(header, row))
            assert parsed["sample_id"] == e.sample_id
            for b in range(3):
                assert float(parsed[f"z_{b + 1}"]) == e.z[b]
                assert float(parsed[f"w_{b + 1}"]) == e.w[b]
                assert float(parsed[f"prod_{b + 1}"]) == e.products[b]
            assert float(parsed["prob"]) == e.prediction
            assert parsed["decision"] == e.decision

        mem_rows = list(csv.reader(io.StringIO(bundle.memberships_csv)))[1:]
        blocks = {row[0] for row in mem_rows}
        assert blocks <= {"1", "2", "3"}

        corr_rows = list(csv.reader(io.StringIO(bundle.correlations_csv)))[1:]
        kinds = {row[0] for row in corr_rows}
        assert kinds == {"pearson", "canonical"}
        pearson_count = sum(1 for row in corr_rows if row[0] == "pearson")
        assert pearson_count == 9

    def test_batch_and_explanation_list_render_the_same_bytes(self):
        p = small_params(seed=10)
        rows = np.random.default_rng(10).uniform(0.5, 20.0, size=(40, 4))
        ids = [f"S{i:03d}" for i in range(40)]
        batch = explain_batch(p, rows, ids)
        listed = [explain_sample(p, x, sid) for x, sid in zip(rows, ids)]
        memberships = [contrast_membership(p, b) for b in range(3)]
        correlations = weight_contrast_correlation(batch.w, batch.z)
        assert render_report(batch, memberships, correlations) == render_report(
            listed, memberships, correlations
        )
        empty = explain_batch(p, np.empty((0, 4)), [])
        assert render_report(empty, [], None) == render_report([], [], None)
        assert render_report(empty, [], None).explanations_csv == "sample_id,prob,decision\n"

    def test_sample_ids_needing_quotes_round_trip(self):
        p = small_params(seed=13)
        ids = ["a,b", 'say "hi"', "two\nlines", "", " padded "]
        batch = explain_batch(p, np.random.default_rng(13).uniform(0.5, 20.0, size=(5, 4)), ids)
        rows = list(csv.reader(io.StringIO(render_report(batch, [], None).explanations_csv)))
        assert [row[0] for row in rows[1:]] == ids

    def test_decisions_needing_quotes_round_trip(self):
        # Once written bare: 'a,"b"' split its row into 7 fields.
        explanation = Explanation("s,1", np.array([1.0]), np.array([2.0]), np.array([2.0]), 0.5,
                                  'a,"b"')
        rows = list(csv.reader(io.StringIO(render_report([explanation], []).explanations_csv)))
        assert rows[1] == ["s,1", "1", "2", "2", "0.5", 'a,"b"']

    @pytest.mark.parametrize("n", [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK + 1])
    def test_explanations_table_matches_csv_writer_bytes(self, n):
        batch = synthetic_batch(n)
        got = render_report(batch, [], None).explanations_csv.splitlines(keepends=True)
        want = reference_explanations_csv(batch).splitlines(keepends=True)
        assert len(got) == len(want)
        for got_line, want_line in zip(got, want):  # line by line, so a failure reports fast
            assert got_line == want_line

    def test_summary_counts_decisions(self):
        _, explanations = self._explanations(n=5, seed=9)
        bundle = render_report(explanations, [], None)
        n_pos = sum(1 for e in explanations if e.decision == DECISION_POSITIVE)
        assert f"{n_pos} {DECISION_POSITIVE}" in bundle.summary


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
THREE_BLOCKS = 2 * _ROW_BLOCK + 7
REPORT_FILES = ("explanations.csv", "memberships.csv", "correlations.csv", "summary.txt")


@pytest.fixture(scope="module")
def three_block_inputs(tmp_path_factory):
    """A model file and a three-block dataset whose ids and feature names need quoting."""
    out = tmp_path_factory.mktemp("three_blocks")
    save_params(small_params(seed=21), out / "model.txt")
    rng = np.random.default_rng(21)
    values = rng.integers(0, 40, size=(THREE_BLOCKS, 4)).astype(float)
    values[:, 0] += 1.0  # at most three zeros per row, which ingest imputes
    names = ["f,1", 'f"2', "f\r3", "f\n4"]
    lines = [csv_writer_line(["sample_id", *names, "label"])]
    for i, row in enumerate(values.tolist()):
        sample_id = f"{QUOTED_IDS[i % len(QUOTED_IDS)]}{i}"
        lines.append(csv_writer_line([sample_id, *(f"{v:.0f}" for v in row), str(i % 2)]))
    (out / "data.csv").write_text("".join(lines), encoding="utf-8", newline="")
    return out, names


@pytest.fixture(scope="module")
def block_inputs(tmp_path_factory):
    """A model file and unquoted datasets of one to three blocks, which explain reads in blocks."""
    out = tmp_path_factory.mktemp("blocks")
    save_params(small_params(seed=22), out / "model.txt")
    rng = np.random.default_rng(22)
    values = rng.integers(0, 40, size=(THREE_BLOCKS, 4))
    values[:, 0] += 1  # at most three zeros per row, which the blocks impute
    lines = ["sample_id,f1,f2,f3,f4,label\n"]
    for i, row in enumerate(values.tolist()):
        sample_id = f"S{i}" if i % 3 else f"\u03bc-{i}"
        lines.append(",".join([sample_id, *map(str, row), str(i % 2)]) + "\n")
    for n in (_ROW_BLOCK, _ROW_BLOCK + 1, THREE_BLOCKS):
        (out / f"data{n}.csv").write_text("".join(lines[: n + 1]), encoding="utf-8")
    return out


def explain_blocks(inputs, n, tmp_path):
    """explanations.csv from ``deepcoda explain`` on the n-row file; with the ``no_whole_file``
    fixture, the blocks must give it."""
    out = tmp_path / "report"
    assert run(["explain", str(inputs / "model.txt"), str(inputs / f"data{n}.csv"),
                "--out", str(out)]) == EXIT_OK
    return (out / "explanations.csv").read_bytes()


def reference_file(inputs, n):
    """The explanations table of the n-row file, explained whole and written by csv.writer."""
    matrix, _ = load_dataset(inputs / f"data{n}.csv")
    batch = explain_batch(load_params(inputs / "model.txt"), matrix.values, matrix.sample_ids)
    return reference_explanations_csv(batch).encode()


class TestStreamedReport:
    """explain reads, explains and formats its rows block by block, on every usable CPU."""

    def test_explain_files_do_not_depend_on_cpu_count(self, tmp_path, set_cpus, three_block_inputs):
        inputs, names = three_block_inputs
        files = {}
        for cpus in (1, 2, 4):
            set_cpus(cpus)
            out = tmp_path / f"cpus{cpus}"
            model, data = str(inputs / "model.txt"), str(inputs / "data.csv")
            assert run(["explain", model, data, "--out", str(out)]) == EXIT_OK
            files[cpus] = {name: (out / name).read_bytes() for name in REPORT_FILES}
        assert files[2] == files[1] and files[4] == files[1]
        # The streamed files are render_report's tables, byte for byte.
        p = load_params(inputs / "model.txt")
        matrix, _ = load_dataset(inputs / "data.csv")
        batch = explain_batch(p, matrix.values, matrix.sample_ids)
        memberships = [contrast_membership(p, b, matrix.feature_names) for b in range(3)]
        correlations = weight_contrast_correlation(batch.w, batch.z)
        reports = []
        for cpus in (1, 2, 4):
            set_cpus(cpus)
            reports.append(render_report(batch, memberships, correlations))
        assert reports[1] == reports[0] and reports[2] == reports[0]
        bundle = reports[0]
        assert files[1] == {
            "explanations.csv": bundle.explanations_csv.encode(),
            "memberships.csv": bundle.memberships_csv.encode(),
            "correlations.csv": bundle.correlations_csv.encode(),
            "summary.txt": bundle.summary.encode(),
        }
        rows = list(csv.reader(io.StringIO(bundle.explanations_csv)))
        assert [row[0] for row in rows[1:]] == list(matrix.sample_ids)
        assert len(matrix.sample_ids) == THREE_BLOCKS
        assert "cr\r3" in matrix.sample_ids
        features = {row[2] for row in csv.reader(io.StringIO(bundle.memberships_csv))}
        assert features - {"feature"} <= set(names)

    @needs_fork
    @pytest.mark.parametrize(
        "n,workers", [(_ROW_BLOCK, 0), (_ROW_BLOCK + 1, 2), (THREE_BLOCKS, 3)],
        ids=["one_block", "two_blocks", "three_blocks"],
    )
    def test_workers_start_only_for_two_or_more_blocks(
        self, tmp_path, set_cpus, forked_workers, no_whole_file, block_inputs, n, workers
    ):
        set_cpus(8)
        assert explain_blocks(block_inputs, n, tmp_path) == reference_file(block_inputs, n)
        assert len(forked_workers) == workers

    @needs_fork
    @pytest.mark.parametrize("fails_at", [1, 2], ids=["first_worker", "second_worker"])
    def test_failed_fork_explains_in_process(
        self, tmp_path, set_cpus, fail_fork, no_whole_file, block_inputs, fails_at
    ):
        tried = fail_fork(fails_at)
        set_cpus(2)
        got = explain_blocks(block_inputs, THREE_BLOCKS, tmp_path)
        assert len(tried) == fails_at
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert got == reference_file(block_inputs, THREE_BLOCKS)

    @pytest.mark.parametrize("cause", ["no_fork", "other_thread"])
    def test_explains_in_process_without_a_safe_fork(
        self, tmp_path, monkeypatch, set_cpus, forked_workers, no_whole_file, block_inputs, cause
    ):
        set_cpus(2)
        if cause == "no_fork":
            monkeypatch.delattr(os, "fork")
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        if cause == "other_thread":
            waiter.start()
        try:
            got = explain_blocks(block_inputs, THREE_BLOCKS, tmp_path)
        finally:
            release.set()
            if cause == "other_thread":
                waiter.join()
        assert forked_workers == []
        assert got == reference_file(block_inputs, THREE_BLOCKS)
