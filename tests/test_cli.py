"""End-to-end tests of the command-line interface (exit codes and artifacts)."""

import csv
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import deepcoda
from deepcoda import CompositionMatrix, cli, lasso_logistic_fit, load_params, predict_proba
from deepcoda.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    load_dataset,
    parse_train_config,
    read_dataset_csv,
    run,
    write_dataset_csv,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_quoted_copy(src, dst, names):
    """Copy a dataset file with ``names`` as its feature names, written by a
    csv.writer whose "\r\n" terminator makes it quote a field holding \r."""
    rows = read_csv(src)
    rows[0][1:-1] = names
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)
    return dst


NAMES_NEEDING_QUOTES = ["cr\rx", "a,b", 'say "hi"', "two\nlines"]


def write_noisy_copy(src, dst):
    """Copy a dataset file with every third label flipped, so AUCs differ
    between methods and splits and a wrong merge order or a drifted AUC
    changes a benchmark CSV."""
    rows = read_csv(src)
    for row in rows[1::3]:
        row[-1] = "10"[int(row[-1])]
    dst.write_text("".join(",".join(row) + "\n" for row in rows))
    return dst


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    assert run(["simulate", "toy", "--n", "120", "--seed", "3", "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, toy_dir):
    out = tmp_path_factory.mktemp("model")
    config = out / "train.cfg"
    config.write_text(
        "n_bottlenecks = 2\nepochs = 300\nseed = 5\nlambda_s = 0.01  # headline penalty\n"
    )
    model_path = out / "model.txt"
    code = run(
        [
            "train",
            str(toy_dir / "relative.csv"),
            "--config",
            str(config),
            "--out",
            str(model_path),
        ]
    )
    assert code == EXIT_OK
    return model_path


class TestSimulate:
    def test_writes_thousand_sample_dataset(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "toy", "--n", "1000", "--seed", "0", "--out", str(out)]) == EXIT_OK
        for name in ("absolute.csv", "relative.csv"):
            rows = read_csv(out / name)
            assert len(rows) == 1001  # header + 1000 samples
            assert rows[0] == ["sample_id", "feature_1", "feature_2", "feature_3", "feature_4", "label"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "cmyc", "--n", "60", "--seed", "9", "--out", str(out)]) == EXIT_OK
        assert (a / "relative.csv").read_bytes() == (b / "relative.csv").read_bytes()
        assert (a / "absolute.csv").read_bytes() == (b / "absolute.csv").read_bytes()

    def test_too_few_samples_exits_2(self, tmp_path):
        assert run(["simulate", "toy", "--n", "3", "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_bad_kind_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["simulate", "gamma", "--out", str(tmp_path / "x")])
        assert err.value.code == EXIT_USAGE


class TestTrain:
    def test_model_round_trips_through_predict(self, toy_dir, trained_model):
        params = load_params(trained_model)
        matrix, labels = load_dataset(toy_dir / "relative.csv")
        probs = predict_proba(params, matrix.values)
        assert probs.shape == (120,)
        assert np.all((probs > 0) & (probs < 1))

    def test_report_file_matches_config(self, trained_model):
        rows = read_csv(str(trained_model) + ".report.csv")
        assert rows[0] == ["record", "index", "value"]
        losses = [r for r in rows[1:] if r[0] == "loss"]
        residuals = [r for r in rows[1:] if r[0] == "constraint_residual"]
        assert len(losses) == 300
        assert len(residuals) == 2

    def test_rerun_is_byte_identical(self, tmp_path, toy_dir):
        config = tmp_path / "cfg"
        config.write_text("n_bottlenecks = 1\nepochs = 120\nseed = 2\n")
        outputs = []
        for name in ("m1", "m2"):
            model = tmp_path / name
            assert run(
                ["train", str(toy_dir / "relative.csv"), "--config", str(config), "--out", str(model)]
            ) == EXIT_OK
            outputs.append((model.read_bytes(), (tmp_path / f"{name}.report.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_missing_label_column_exits_2(self, tmp_path, toy_dir):
        rows = read_csv(toy_dir / "relative.csv")
        rows[0][-1] = "outcome"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(",".join(r) for r in rows) + "\n")
        assert run(["train", str(bad), "--out", str(tmp_path / "m")]) == EXIT_USAGE

    def test_unknown_config_key_exits_2(self, tmp_path, toy_dir):
        config = tmp_path / "cfg"
        config.write_text("momentum = 0.9\n")
        assert run(
            ["train", str(toy_dir / "relative.csv"), "--config", str(config), "--out", str(tmp_path / "m")]
        ) == EXIT_USAGE

    def test_divergence_exits_3(self, tmp_path, toy_dir):
        config = tmp_path / "cfg"
        config.write_text("learning_rate = 1e200\nepochs = 10\n")
        assert run(
            ["train", str(toy_dir / "relative.csv"), "--config", str(config), "--out", str(tmp_path / "m")]
        ) == EXIT_NUMERIC

    def test_nan_learning_rate_exits_2(self, tmp_path, toy_dir):
        config = tmp_path / "cfg"
        config.write_text("learning_rate = nan\nepochs = 10\n")
        assert run(
            ["train", str(toy_dir / "relative.csv"), "--config", str(config), "--out", str(tmp_path / "m")]
        ) == EXIT_USAGE

    def test_missing_file_exits_2(self, tmp_path):
        assert run(["train", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m")]) == EXIT_USAGE

    @pytest.mark.parametrize("fraction", ["5", "nan", "0"])
    def test_bad_delta_fraction_exits_2_without_zeros(self, tmp_path, toy_dir, fraction):
        data = toy_dir / "absolute.csv"
        assert not (load_dataset(data)[0].values == 0).any()
        code = run(["train", str(data), "--delta-fraction", fraction, "--out", str(tmp_path / "m")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "m").exists()


class TestBenchmark:
    def test_single_method_row_count(self, tmp_path, toy_dir):
        out = tmp_path / "bench.csv"
        assert run(
            [
                "benchmark",
                str(toy_dir / "relative.csv"),
                "--methods",
                "lasso",
                "--splits",
                "3",
                "--out",
                str(out),
            ]
        ) == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["dataset", "method", "split", "auc", "standardized_auc"]
        assert len(rows) == 4

    def test_rerun_is_byte_identical(self, tmp_path, toy_dir):
        data = write_noisy_copy(toy_dir / "relative.csv", tmp_path / "noisy.csv")
        files = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            assert run(
                [
                    "benchmark",
                    str(data),
                    "--methods",
                    "deepcoda",
                    "--epochs",
                    "40",
                    "--splits",
                    "2",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            ) == EXIT_OK
            files.append(out.read_bytes())
        assert files[0] == files[1]
        assert len({row[3] for row in read_csv(tmp_path / "b1.csv")[1:]}) > 1

    def test_grid_produces_full_cross_product(self, tmp_path):
        data_dir = tmp_path / "data"
        assert run(["simulate", "toy", "--n", "200", "--seed", "1", "--out", str(data_dir)]) == EXIT_OK
        out = tmp_path / "grid.csv"
        assert run(
            [
                "benchmark",
                str(data_dir / "relative.csv"),
                "--grid",
                "--epochs",
                "5",
                "--out",
                str(out),
            ]
        ) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 1 + 4 * 4 * 2 * 20  # header + 32 configs x 20 splits

    def test_unknown_method_exits_2(self, tmp_path, toy_dir):
        assert run(
            [
                "benchmark",
                str(toy_dir / "relative.csv"),
                "--methods",
                "xgboost",
                "--out",
                str(tmp_path / "b.csv"),
            ]
        ) == EXIT_USAGE

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--splits", "0"], "n_splits must be at least 1"),
            (["--splits", "-2"], "n_splits must be at least 1"),
            (["--methods", "deepcoda,lasso,deepcoda"], "duplicate method names: deepcoda"),
        ],
    )
    def test_bad_splits_or_methods_exit_2(self, tmp_path, toy_dir, capsys, args, message):
        out = tmp_path / "b.csv"
        assert run(["benchmark", str(toy_dir / "relative.csv"), *args, "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "methods,extra,code",
        [
            # 8 samples leave too few per class for 5-fold stratified CV.
            ("lasso", [], EXIT_USAGE),
            # The L1 term overflows at the first epoch.
            ("deepcoda", ["--lambda-s", "1.7e308", "--epochs", "5"], EXIT_NUMERIC),
        ],
    )
    def test_split_failure_keeps_its_exit_code(self, tmp_path, capsys, methods, extra, code):
        data = tmp_path / "data"
        assert run(["simulate", "toy", "--n", "8", "--seed", "0", "--out", str(data)]) == EXIT_OK
        assert run(
            ["benchmark", str(data / "relative.csv"), "--methods", methods, "--splits", "1",
             *extra, "--out", str(tmp_path / "b.csv")]
        ) == code
        assert f"method '{methods}' failed on split 0" in capsys.readouterr().err

    def test_csv_does_not_depend_on_cpu_count(self, tmp_path, monkeypatch):
        assert run(["simulate", "toy", "--n", "300", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
        data = write_noisy_copy(tmp_path / "relative.csv", tmp_path / "noisy.csv")
        files = []
        for cpus in (1, 2):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
            )
            out = tmp_path / f"b{len(files)}.csv"
            assert run(
                ["benchmark", str(data), "--epochs", "30", "--splits", "3", "--seed", "4",
                 "--out", str(out)]
            ) == EXIT_OK
            files.append(out.read_bytes())
        assert files[0] == files[1]
        assert len({row[3] for row in read_csv(tmp_path / "b0.csv")[1:]}) > 6

    def test_dataset_name_needing_quotes_is_one_field(self, tmp_path, toy_dir):
        data = tmp_path / "a,b.csv"
        data.write_bytes((toy_dir / "relative.csv").read_bytes())
        out = tmp_path / "bench.csv"
        argv = ["benchmark", str(data), "--splits", "1", "--epochs", "5", "--out", str(out)]
        assert run(argv) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 5
        assert all(len(row) == 5 for row in rows)
        assert {row[0] for row in rows[1:]} == {"a,b"}

    @pytest.mark.parametrize("flag", ["--epochs", "--bottlenecks"])
    def test_invalid_training_config_exits_2(self, tmp_path, toy_dir, flag):
        assert run(
            ["benchmark", str(toy_dir / "relative.csv"), flag, "0", "--out", str(tmp_path / "b.csv")]
        ) == EXIT_USAGE


class TestExplain:
    def test_report_rows_and_identity(self, tmp_path, toy_dir, trained_model):
        out = tmp_path / "report"
        assert run(
            ["explain", str(trained_model), str(toy_dir / "relative.csv"), "--out", str(out)]
        ) == EXIT_OK
        rows = read_csv(out / "explanations.csv")
        header, data = rows[0], rows[1:]
        assert len(data) == 120
        n_b = sum(1 for c in header if c.startswith("prod_"))
        assert n_b == 2
        for row in data:
            parsed = dict(zip(header, row))
            products = [float(parsed[f"prod_{b + 1}"]) for b in range(n_b)]
            assert float(parsed["prob"]) == pytest.approx(
                float(expit(np.sum(products))), abs=1e-12
            )
        mem_rows = read_csv(out / "memberships.csv")[1:]
        assert {r[0] for r in mem_rows} == {"1", "2"}
        assert (out / "correlations.csv").exists()
        assert (out / "summary.txt").exists()

    def test_linear_model_exits_2(self, tmp_path, toy_dir):
        config = tmp_path / "cfg"
        config.write_text("head = linear\nepochs = 50\nn_bottlenecks = 1\n")
        model = tmp_path / "linear.txt"
        assert run(
            ["train", str(toy_dir / "relative.csv"), "--config", str(config), "--out", str(model)]
        ) == EXIT_OK
        assert run(
            ["explain", str(model), str(toy_dir / "relative.csv"), "--out", str(tmp_path / "r")]
        ) == EXIT_USAGE

    def test_memberships_quote_feature_names(self, tmp_path, toy_dir, trained_model):
        data = write_quoted_copy(toy_dir / "relative.csv", tmp_path / "q.csv", NAMES_NEEDING_QUOTES)
        out = tmp_path / "report"
        assert run(["explain", str(trained_model), str(data), "--out", str(out)]) == EXIT_OK
        rows = read_csv(out / "memberships.csv")
        assert all(len(row) == 5 for row in rows)
        assert {row[2] for row in rows[1:]} <= set(NAMES_NEEDING_QUOTES)

    def test_forged_model_dims_exit_2(self, tmp_path, toy_dir, trained_model):
        text = trained_model.read_text()
        dims = next(ln for ln in text.splitlines() if ln.startswith("dims ="))
        forged = tmp_path / "forged.txt"
        forged.write_text(text.replace(dims, "dims = 1000000 1000000 1"))
        assert run(
            ["explain", str(forged), str(toy_dir / "relative.csv"), "--out", str(tmp_path / "r")]
        ) == EXIT_USAGE


class TestBaseline:
    def test_writes_coefficients(self, tmp_path, toy_dir, capsys):
        out = tmp_path / "coef.csv"
        assert run(
            ["baseline", str(toy_dir / "relative.csv"), "--out", str(out), "--seed", "0"]
        ) == EXIT_OK
        rows = read_csv(out)
        assert rows[0] == ["feature", "coefficient", "scaled_magnitude"]
        assert len(rows) == 1 + 4 + 1  # header + features + intercept
        assert rows[-1][0] == "(intercept)"
        assert "selected lambda" in capsys.readouterr().out

    def test_feature_names_needing_quotes_round_trip(self, tmp_path, toy_dir):
        data = write_quoted_copy(toy_dir / "relative.csv", tmp_path / "q.csv", NAMES_NEEDING_QUOTES)
        out = tmp_path / "coef.csv"
        assert run(["baseline", str(data), "--out", str(out)]) == EXIT_OK
        assert [row[0] for row in read_csv(out)] == [
            "feature", *NAMES_NEEDING_QUOTES, "(intercept)"
        ]

    def test_fit_at_iteration_cap_warns_on_stderr(self, tmp_path, toy_dir, capsys, monkeypatch):
        argv = ["baseline", str(toy_dir / "relative.csv"), "--seed", "0"]
        assert run([*argv, "--out", str(tmp_path / "a.csv")]) == EXIT_OK
        assert capsys.readouterr().err == ""

        def capped_fit(*args, **kwargs):
            return lasso_logistic_fit(*args, **kwargs, max_iter=5)

        monkeypatch.setattr(cli, "lasso_logistic_fit", capped_fit)
        assert run([*argv, "--out", str(tmp_path / "b.csv")]) == EXIT_OK
        capped = capsys.readouterr()
        assert capped.err.startswith("warning: the LASSO fit stopped at its 5-iteration cap")
        assert "warning" not in capped.out


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["simulate", "train", "benchmark", "baseline"])
    def test_exits_2_naming_the_seed_before_any_work(
        self, tmp_path, toy_dir, capsys, monkeypatch, command
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the seed was checked")

        # Neither benchmark's task pool nor any training may start.
        monkeypatch.setattr(importlib.import_module("deepcoda.evaluate"), "ordered_fork_map", no_work)
        monkeypatch.setattr(importlib.import_module("deepcoda.train"), "init_params", no_work)
        data, out = str(toy_dir / "relative.csv"), str(tmp_path / "out")
        argv = {
            "simulate": ["simulate", "toy", "--n", "20", "--seed", "-1", "--out", out],
            "train": ["train", data, "--seed", "-1", "--out", out],
            "benchmark": ["benchmark", data, "--splits", "2", "--seed", "-3", "--out", out],
            "baseline": ["baseline", data, "--seed", "-1", "--out", out],
        }[command]
        assert run(argv) == EXIT_USAGE
        assert "seed must be a nonnegative integer" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestImpossibleAllocation:
    # 10**15 float64 values exceed a 47-bit address space, so the allocation
    # fails under any overcommit setting.
    @pytest.mark.parametrize("command", ["train", "simulate"])
    def test_exits_2_with_an_error_line(self, tmp_path, toy_dir, capsys, command):
        config = tmp_path / "huge.cfg"
        config.write_text(f"epochs = {10**15}\n")
        out = str(tmp_path / "out")
        argv = {
            "train": ["train", str(toy_dir / "relative.csv"), "--config", str(config), "--out", out],
            "simulate": ["simulate", "toy", "--n", str(10**15), "--out", out],
        }[command]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: Unable to allocate")


class TestAsciiLocale:
    def test_non_ascii_names_give_the_utf8_files(self, tmp_path, toy_dir):
        rows = read_csv(toy_dir / "absolute.csv")
        rows[0][1:-1] = ["μ-a", "β-b", "γ-c", "δ-d"]
        for i, row in enumerate(rows[1:]):
            row[0] = f"échantillon-{i}"
        data = tmp_path / "data.csv"
        data.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        config = tmp_path / "train.cfg"
        config.write_text("n_bottlenecks = 2\nepochs = 30\n")
        src = str(Path(deepcoda.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "LC_ALL": "C",
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        outputs = {}
        for locale in ("ascii", "utf8"):
            out = tmp_path / locale
            out.mkdir()
            for argv in (
                ["train", str(data), "--config", str(config), "--out", str(out / "m")],
                ["explain", str(out / "m"), str(data), "--out", str(out)],
            ):
                if locale == "utf8":
                    assert run(argv) == EXIT_OK
                    continue
                done = subprocess.run(
                    [sys.executable, "-m", "deepcoda", *argv], env=env, capture_output=True
                )
                assert done.returncode == EXIT_OK, done.stderr
            names = ("m", "explanations.csv", "memberships.csv", "correlations.csv", "summary.txt")
            outputs[locale] = {name: (out / name).read_bytes() for name in names}
        assert outputs["ascii"] == outputs["utf8"]
        # explain's summary names a feature; stdout escapes what the locale cannot encode.
        assert "\\u" in done.stdout.decode("ascii")


class TestDatasetIo:
    def test_rejects_negative_values(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,f1,f2,label\ns0,1.0,-2.0,0\ns1,1.0,2.0,1\n")
        with pytest.raises(ValueError, match="negative"):
            read_dataset_csv(bad)

    def test_rejects_nan_values(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,f1,f2,label\ns0,1.0,nan,0\ns1,1.0,2.0,1\n")
        with pytest.raises(ValueError, match="finite"):
            read_dataset_csv(bad)

    def test_rejects_bad_label(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,f1,f2,label\ns0,1.0,2.0,2\n")
        with pytest.raises(ValueError, match="label"):
            read_dataset_csv(bad)

    def test_rejects_oversized_field(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,f1,f2,label\ns0," + "1" * 200_000 + ",2.0,0\n")
        with pytest.raises(ValueError, match=r"bad.csv:2: field larger"):
            read_dataset_csv(bad)

    def test_zero_replacement_on_ingest(self, tmp_path):
        data = tmp_path / "zeros.csv"
        data.write_text("sample_id,f1,f2,f3,label\ns0,0.0,2.0,2.0,0\ns1,1.0,2.0,3.0,1\n")
        matrix, labels = load_dataset(data, delta_fraction=0.5)
        assert np.all(matrix.values > 0)
        assert matrix.values[0, 0] == 1.0
        assert np.array_equal(labels, [0, 1])

    def test_relative_kind_detection(self, tmp_path):
        data = tmp_path / "rel.csv"
        data.write_text("sample_id,f1,f2,label\ns0,0.25,0.75,0\ns1,0.5,0.5,1\n")
        matrix, _ = load_dataset(data)
        assert matrix.kind == "relative"


    def test_names_needing_quotes_round_trip(self, tmp_path):
        ids = [*NAMES_NEEDING_QUOTES, "", "plain"]
        values = np.arange(1.0, 19.0).reshape(6, 3)
        matrix = CompositionMatrix(values, ids, ["f\r1", "f,2", 'f"3'], "absolute")
        write_dataset_csv(tmp_path / "quoted.csv", matrix, [0, 1, 0, 1, 0, 1])
        got_ids, names, got_values, labels = read_dataset_csv(tmp_path / "quoted.csv")
        assert got_ids == ids
        assert names == ["f\r1", "f,2", 'f"3']
        assert np.array_equal(got_values, values)
        assert np.array_equal(labels, [0, 1, 0, 1, 0, 1])


class TestConfigParsing:
    def test_parses_values_and_comments(self):
        cfg = parse_train_config(
            "# full run\nn_bottlenecks = 3\nlambda_s = 0.1\nhead = linear\nseed = 7\n"
        )
        assert cfg.n_bottlenecks == 3
        assert cfg.lambda_s == 0.1
        assert cfg.head == "linear"
        assert cfg.seed == 7

    def test_rejects_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_train_config("seed = 1\nseed = 2\n")

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError, match="epochs"):
            parse_train_config("epochs = soon\n")
