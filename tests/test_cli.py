"""End-to-end tests of the command-line interface (exit codes and artifacts)."""

import builtins
import contextlib
import csv
import errno
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import deepcoda
from deepcoda import CompositionMatrix, cli, lasso_logistic_fit, load_params, predict_proba
from deepcoda import baselines, evaluate
from deepcoda import explain as explain_module
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


def deepcoda_env(**variables):
    """The environment, with ``variables``, of a process that imports this deepcoda."""
    src = str(Path(deepcoda.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, **variables, "PYTHONPATH": path}


def deepcoda_from_pipe(argv, data: bytes):
    """``python -m deepcoda *argv`` in a new process whose stdin is a pipe that gives ``data``."""
    return subprocess.run([sys.executable, "-m", "deepcoda", *argv], input=data,
                          env=deepcoda_env(), capture_output=True)


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

    @pytest.mark.parametrize(
        "text,message",
        [(b"epochs = soon\n", " config line 1: bad value for 'epochs'"),
         (b"seed = 1\n\xff", "2: 'utf-8' codec can't decode byte 0xff in position 9: "
                              "invalid start byte")],
        ids=["bad-value", "bad-byte"],
    )
    def test_config_errors_name_the_file(self, tmp_path, toy_dir, capsys, text, message):
        config = tmp_path / "train.cfg"
        config.write_bytes(text)
        argv = ["train", str(toy_dir / "relative.csv"), "--config", str(config),
                "--out", str(tmp_path / "m")]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {config}:{message}\n"

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
            # 4 positives of 20 rows leave too few in training for 5-fold stratified CV.
            ("lasso", [], EXIT_USAGE),
            # The L1 term overflows at the first epoch.
            ("deepcoda", ["--lambda-s", "1.7e308", "--epochs", "5"], EXIT_NUMERIC),
        ],
    )
    def test_split_failure_keeps_its_exit_code(self, tmp_path, capsys, methods, extra, code):
        data = tmp_path / "data"
        assert run(["simulate", "toy", "--n", "20", "--seed", "0", "--out", str(data)]) == EXIT_OK
        rows = read_csv(data / "relative.csv")
        for row in rows[15:]:  # rows 11-20 are the positives
            row[-1] = "0"
        (data / "relative.csv").write_text("".join(",".join(row) + "\n" for row in rows))
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

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--methods", "lasso"], ["--methods"]),
            (["--bottlenecks", "3"], ["--bottlenecks"]),
            (["--lambda-s", "0.1"], ["--lambda-s"]),
            (["--methods", "lasso", "--lambda-s", "0.1"], ["--methods", "--lambda-s"]),
        ],
        ids=["methods", "bottlenecks", "lambda_s", "two"],
    )
    def test_grid_rejects_method_flags(self, tmp_path, toy_dir, capsys, flags, named):
        out = tmp_path / "grid.csv"
        argv = ["benchmark", str(toy_dir / "relative.csv"), "--grid", *flags,
                "--splits", "1", "--epochs", "5", "--out", str(out)]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(flag in err for flag in named)
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "text,message",
        [(b"# a model\nbogus\n", " line 2: expected 'key = value'"),
         (b"\xff", "1: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")],
        ids=["syntax", "bad-byte"],
    )
    def test_model_errors_name_the_file(self, tmp_path, toy_dir, capsys, text, message):
        model = tmp_path / "model.txt"
        model.write_bytes(text)
        argv = ["explain", str(model), str(toy_dir / "relative.csv"), "--out", str(tmp_path / "r")]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {model}:{message}\n"
        assert not (tmp_path / "r").exists()

    @pytest.fixture(scope="class")
    def identical_rows(self, tmp_path_factory):
        """(model, data): a 5-bottleneck model and 12 identical rows for it to explain."""
        # Every W and Z column is constant, and the float mean of most is inexact.
        root = tmp_path_factory.mktemp("identical")
        (root / "train.cfg").write_text("epochs = 30\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["simulate", "toy", "--n", "40", "--out", str(root)]) == EXIT_OK
            assert run(["train", str(root / "relative.csv"), "--config", str(root / "train.cfg"),
                        "--out", str(root / "model.txt")]) == EXIT_OK
        data = root / "same.csv"
        data.write_text("sample_id,f1,f2,f3,f4,label\n"
                        + "".join(f"s{i},1,2,3,4,{i % 2}\n" for i in range(12)))
        return root / "model.txt", data

    def test_identical_rows_have_zero_correlations(self, tmp_path, capsys, identical_rows):
        model, data = identical_rows
        out = tmp_path / "report"
        with pytest.warns(RuntimeWarning, match="constant columns"):
            code = run(["explain", str(model), str(data), "--out", str(out)])
        assert code == EXIT_OK
        values = [float(row[-1]) for row in read_csv(out / "correlations.csv")[1:]]
        assert values == [0.0] * (5 * 5 + 5)

    def test_a_warning_prints_as_one_line(self, tmp_path, identical_rows):
        model, data = identical_rows
        argv = ["explain", str(model), str(data), "--out", str(tmp_path / "report")]
        done = subprocess.run([sys.executable, "-m", "deepcoda", *argv], env=deepcoda_env(),
                              capture_output=True)
        assert done.returncode == EXIT_OK, done.stderr
        warning = "warning: constant columns detected; their correlations are reported as 0\n"
        assert done.stderr.decode() == warning

    def test_forged_model_dims_exit_2(self, tmp_path, toy_dir, trained_model):
        text = trained_model.read_text()
        dims = next(ln for ln in text.splitlines() if ln.startswith("dims ="))
        forged = tmp_path / "forged.txt"
        forged.write_text(text.replace(dims, "dims = 1000000 1000000 1"))
        assert run(
            ["explain", str(forged), str(toy_dir / "relative.csv"), "--out", str(tmp_path / "r")]
        ) == EXIT_USAGE


def _no_whole_file(*args):
    raise AssertionError("explain read the whole file")


def test_explain_reads_a_pipe_whole(tmp_path, toy_dir, trained_model):
    data = toy_dir / "relative.csv"
    explain = ["explain", str(trained_model)]
    assert run([*explain, str(data), "--out", str(tmp_path / "file")]) == EXIT_OK
    argv = [*explain, "/dev/stdin", "--out", str(tmp_path / "pipe")]
    done = deepcoda_from_pipe(argv, data.read_bytes())
    assert done.returncode == EXIT_OK, done.stderr
    for name in OUTPUTS["explain"]:
        assert (tmp_path / "pipe" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


class TestExplainBlocksRaise:
    """A fault in a block is reported as the whole-file read reports it."""

    @pytest.fixture(autouse=True)
    def three_blocks(self, monkeypatch, set_cpus):
        # toy_dir's 120 rows are three blocks, lines 2-41, 42-81 and 82-121.
        monkeypatch.setattr(explain_module, "_ROW_BLOCK", 40)
        set_cpus(2)

    def explain(self, model, data, out):
        return run(["explain", str(model), str(data), "--out", str(out)])

    def test_a_bad_byte_in_the_middle_block(self, tmp_path, toy_dir, trained_model, monkeypatch,
                                            capsys):
        lines = (toy_dir / "absolute.csv").read_bytes().split(b"\n")
        lines[60] = b"\xff" + lines[60]  # the start of line 61
        bad = tmp_path / "data.csv"
        bad.write_bytes(b"\n".join(lines))
        offset = len(b"\n".join(lines[:60])) + 1
        # Only the first line is decoded up front: the middle block declines to
        # the whole-file read, which names the byte.
        whole_file_reads = []

        def whole_file(*args):
            whole_file_reads.append(args[1])
            return explain_whole_file(*args)

        explain_whole_file = cli._explain_whole_file
        monkeypatch.setattr(cli, "_explain_whole_file", whole_file)
        assert self.explain(trained_model, bad, tmp_path / "r") == EXIT_USAGE
        assert whole_file_reads == [str(bad)]
        assert capsys.readouterr().err == (
            f"error: {bad}:61: 'utf-8' codec can't decode byte 0xff in position {offset}: "
            "invalid start byte\n"
        )
        assert not (tmp_path / "r").exists()

    def test_a_missing_data_file(self, tmp_path, trained_model, monkeypatch, capsys):
        missing = tmp_path / "missing.csv"
        monkeypatch.setattr(cli, "_explain_whole_file", _no_whole_file)
        assert self.explain(trained_model, missing, tmp_path / "r") == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )
        assert not (tmp_path / "r").exists()

    def test_a_crlf_file_is_read_whole_without_the_block_reader(
        self, tmp_path, toy_dir, trained_model, monkeypatch
    ):
        lf = toy_dir / "relative.csv"
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert self.explain(trained_model, lf, tmp_path / "lf") == EXIT_OK

        def no_block_reader(*args):
            raise AssertionError("a block of a CRLF file was parsed")

        monkeypatch.setattr(cli, "_parse_block", no_block_reader)
        assert self.explain(trained_model, crlf, tmp_path / "crlf") == EXIT_OK
        for name in OUTPUTS["explain"]:
            assert (tmp_path / "crlf" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes()


# Each command's outputs, in the order it writes them; --out names the first
# one's directory (simulate, explain) or the first one.
OUTPUTS = {
    "simulate": ["absolute.csv", "relative.csv"],
    "train": ["model.txt", "model.txt.report.csv"],
    "benchmark": ["bench.csv"],
    "baseline": ["coef.csv"],
    "explain": ["explanations.csv", "memberships.csv", "correlations.csv", "summary.txt"],
}


@pytest.fixture(scope="module")
def output_inputs(tmp_path_factory, toy_dir):
    """A 5-epoch config and two self-explaining models trained with it."""
    out = tmp_path_factory.mktemp("output_inputs")
    (out / "train.cfg").write_text("epochs = 5\n")
    for seed in (0, 1):
        argv = ["train", str(toy_dir / "relative.csv"), "--config", str(out / "train.cfg"),
                "--seed", str(seed), "--out", str(out / f"model{seed}.txt")]
        assert run(argv) == EXIT_OK
    return out


def command_argv(command, out, run_no, toy_dir, inputs):
    """``command``'s argv writing under ``out``; run 0 and run 1 write different bytes."""
    data = str(toy_dir / "relative.csv")
    target = str(out if command in ("simulate", "explain") else out / OUTPUTS[command][0])
    return {
        "simulate": ["simulate", "toy", "--n", "40", "--seed", str(run_no)],
        "train": ["train", data, "--config", str(inputs / "train.cfg"), "--seed", str(run_no)],
        "benchmark": ["benchmark", data, "--methods", "deepcoda", "--epochs", "5",
                      "--splits", str(2 + run_no)],
        "baseline": ["baseline", data, "--transform", ("none", "clr")[run_no]],
        "explain": ["explain", str(inputs / f"model{run_no}.txt"), data],
    }[command] + ["--out", target]


def snapshot(root):
    """Every path under ``root``, with each file's bytes."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def output_name(path):
    """The output a path written by a command stands for: its staged temporary's target."""
    return re.sub(r"^\.(.*)\.\d+\.part$", r"\1", os.path.basename(os.fspath(path)))


def fail_output_open(monkeypatch, k, fired, opener):
    """Make every ``opener`` ("create": os.open, "write": open) of the k-th output raise."""
    outputs = []

    def failing(original, writes):
        def patched(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and writes(*args, **kwargs):
                name = output_name(file)
                if name not in outputs:
                    outputs.append(name)
                if outputs.index(name) == k and (original is os_open) == (opener == "create"):
                    fired.append(name)
                    raise OSError(errno.EIO, "injected fault", os.fspath(file))
            return original(file, *args, **kwargs)

        return patched

    os_open, builtin_open = os.open, builtins.open
    monkeypatch.setattr(os, "open", failing(os_open, lambda flags, *a, **kw: flags & os.O_WRONLY))
    writing = failing(builtin_open, lambda mode="r", *a, **kw: set(mode) & set("wax+"))
    monkeypatch.setattr(builtins, "open", writing)
    monkeypatch.setattr(io, "open", writing)


def fail_rename(monkeypatch, k, fired):
    """Make the k-th call of os.replace raise."""
    calls = []
    replace = os.replace

    def patched(*args, **kwargs):
        calls.append(args)
        if len(calls) == k + 1:
            fired.append(args)
            raise OSError(errno.EIO, "injected fault")
        return replace(*args, **kwargs)

    monkeypatch.setattr(os, "replace", patched)


def for_each_fault(root, argv, inject):
    """Run ``argv`` with ``inject``'s k-th fault for k = 0, 1, ... until none fires.

    Each faulted run must exit 2 and leave ``root`` as it was; the last run
    must succeed. Returns how many faults fired.
    """
    before = snapshot(root)
    for k in range(100):
        fired = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            inject(monkeypatch, k, fired)
            code = run(argv)
        if not fired:
            assert code == EXIT_OK
            return k
        assert (code, k) == (EXIT_USAGE, k)
        assert snapshot(root) == before, (k, fired)
    raise AssertionError("faults kept firing")


class TestFailedOutputs:
    """A command that fails leaves the file system as it found it."""

    @pytest.fixture
    def earlier_outputs(self, tmp_path, toy_dir, output_inputs, capsys):
        """(command -> argv of a run that replaces them) after writing a command's outputs."""

        def write(command):
            out = tmp_path / "out"
            out.mkdir()
            assert run(command_argv(command, out, 0, toy_dir, output_inputs)) == EXIT_OK
            assert sorted(os.listdir(out)) == sorted(OUTPUTS[command])
            capsys.readouterr()
            return command_argv(command, out, 1, toy_dir, output_inputs)

        return write

    @pytest.mark.parametrize("opener", ["create", "write"])
    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_a_failed_output_open(self, tmp_path, earlier_outputs, command, opener):
        argv = earlier_outputs(command)
        inject = lambda m, k, fired: fail_output_open(m, k, fired, opener)  # noqa: E731
        assert for_each_fault(tmp_path, argv, inject) == len(OUTPUTS[command])

    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_a_failed_rename(self, tmp_path, earlier_outputs, command):
        argv = earlier_outputs(command)
        # Each earlier output is moved aside, then its new file moved in.
        assert for_each_fault(tmp_path, argv, fail_rename) == 2 * len(OUTPUTS[command])

    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_a_directory_at_the_last_output(self, tmp_path, earlier_outputs, capsys, command):
        argv = earlier_outputs(command)
        last = tmp_path / "out" / OUTPUTS[command][-1]
        last.unlink()
        last.mkdir()
        (last / "kept.txt").write_text("kept")
        before = snapshot(tmp_path)
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{last}'\n"
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("layout", ["new/deeper", "new/sub/../deeper"])
    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_missing_out_directories_are_made_and_removed(
        self, tmp_path, toy_dir, output_inputs, command, layout
    ):
        out = tmp_path / layout
        argv = command_argv(command, out, 1, toy_dir, output_inputs)
        assert for_each_fault(tmp_path, argv, fail_rename) == len(OUTPUTS[command])
        assert sorted(os.listdir(out)) == sorted(OUTPUTS[command])


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
            # Three Newton steps close this fit's gap; two do not.
            return lasso_logistic_fit(*args, **kwargs, max_iter=2)

        monkeypatch.setattr(cli, "lasso_logistic_fit", capped_fit)
        assert run([*argv, "--out", str(tmp_path / "b.csv")]) == EXIT_OK
        capped = capsys.readouterr()
        assert capped.err.startswith(
            "warning: the LASSO fit stopped after 2 Newton steps, before its duality gap closed"
        )
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

    def test_benchmark_names_the_method_and_split(self, tmp_path, toy_dir, capsys):
        argv = ["benchmark", str(toy_dir / "relative.csv"), "--methods", "deepcoda",
                "--splits", "1", "--epochs", str(10**15), "--out", str(tmp_path / "b.csv")]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: method 'deepcoda' failed on split 0 of 'relative': Unable to allocate"
        )


class TestBenchmarkOnSmallFiles:
    def test_a_30_row_file_whose_plain_splits_lack_a_class(self, tmp_path):
        # split(30, 0.1, 3)'s test part holds one class, so this failed on split 3.
        simulate = ["simulate", "toy", "--n", "30", "--seed", "1", "--out", str(tmp_path)]
        assert run(simulate) == EXIT_OK
        out = tmp_path / "bench.csv"
        argv = ["benchmark", str(tmp_path / "relative.csv"), "--splits", "6", "--epochs", "50",
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == EXIT_OK
        rows = read_csv(out)[1:]
        assert sorted({(row[1], row[2]) for row in rows}) == sorted(
            (method, str(s)) for method in ("deepcoda", "deepcoda-linear", "lasso", "lasso-clr")
            for s in range(6)
        )

    def test_a_file_with_one_positive_row_fails_before_any_training(
        self, tmp_path, toy_dir, monkeypatch, capsys
    ):
        rows = read_csv(toy_dir / "relative.csv")
        positives = [row for row in rows[1:] if row[-1] == "1"]
        for row in positives[1:]:
            row[-1] = "0"
        data = tmp_path / "one_positive.csv"
        data.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")

        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(evaluate, "train", no_training)
        monkeypatch.setattr(baselines, "lasso_logistic_fit", no_training)
        argv = ["benchmark", str(data), "--out", str(tmp_path / "bench.csv")]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: 'one_positive' has 119 rows of class 0 and 1 of class 1, and a test part of "
            "12; the benchmark needs 2 rows of each class and a test part of 2 rows or more\n"
        )
        assert not (tmp_path / "bench.csv").exists()


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
        env = deepcoda_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
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

    @pytest.mark.parametrize("command", ["train", "benchmark", "explain", "baseline"])
    def test_every_data_command_defaults_to_the_library_delta_fraction(self, command):
        files = ["model.txt", "data.csv"] if command == "explain" else ["data.csv"]
        args = cli.build_parser().parse_args([command, *files, "--out", "out"])
        assert args.delta_fraction == deepcoda.DEFAULT_DELTA_FRACTION
        assert args.data == "data.csv"

    @pytest.mark.parametrize("command", ["train", "explain"])
    def test_a_decode_error_names_the_file_line_and_byte(
        self, tmp_path, trained_model, capsys, command
    ):
        assert run(["simulate", "toy", "--n", "10000", "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "absolute.csv").read_bytes().split(b"\n")
        lines[9500] = b"\xff" + lines[9500]  # the start of line 9501
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        offset = len(b"\n".join(lines[:9500])) + 1
        capsys.readouterr()
        argv = {"train": ["train", str(bad), "--out", str(tmp_path / "model.txt")],
                "explain": ["explain", str(trained_model), str(bad), "--out", str(tmp_path / "r")]}
        assert run(argv[command]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {bad}:9501: 'utf-8' codec can't decode byte 0xff in position {offset}: "
            "invalid start byte\n"
        )

    @pytest.mark.parametrize("command", ["train", "baseline", "explain"])
    def test_an_unclosed_quote_names_the_line_where_it_opens(
        self, tmp_path, trained_model, capsys, command
    ):
        # csv reads on past line 4 until the quoted field outgrows its limit.
        assert run(["simulate", "toy", "--n", "10000", "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "absolute.csv").read_bytes().split(b"\n")
        lines[3] = b'"' + lines[3]
        bad = tmp_path / "quote.csv"
        bad.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {"train": ["train", str(bad)], "baseline": ["baseline", str(bad)],
                "explain": ["explain", str(trained_model), str(bad)]}
        assert run([*argv[command], "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {bad}:4: field larger than field limit ({csv.field_size_limit()})\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "baseline", "explain"])
    def test_a_row_fault_names_the_line_where_its_record_begins(
        self, tmp_path, trained_model, capsys, command
    ):
        # The first record's quoted id spans lines 2 and 3, so the second record is on line 4.
        bad = tmp_path / "ml.csv"
        bad.write_bytes(b'sample_id,a,b,label\n"s\n0",1,1,0\ns1,-1,1,1\n')
        argv = {"train": ["train", str(bad)], "baseline": ["baseline", str(bad)],
                "explain": ["explain", str(trained_model), str(bad)]}
        assert run([*argv[command], "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {bad}:4: negative abundance\n"

    @pytest.mark.parametrize("command", ["train", "baseline", "benchmark", "explain"])
    @pytest.mark.parametrize(
        "row,fraction,message",
        [
            ("s1,0,0,0,0,1", "0.5", "row is entirely zero"),
            ("s1,1,0,0,0,1", "0.99",
             "imputed mass exceeds the row total; use a smaller delta_fraction"),
            ("s1,0,5e-324,1,0,1", "0.5", "imputed value underflows to zero"),
        ],
        ids=["all-zero", "imputed-mass", "underflow"],
    )
    def test_a_zero_replacement_fault_names_the_file_and_line(
        self, tmp_path, toy_dir, trained_model, capsys, command, row, fraction, message
    ):
        lines = (toy_dir / "absolute.csv").read_text().splitlines()
        lines[40] = row
        bad = tmp_path / "zeros.csv"
        bad.write_text("\n".join(lines) + "\n")
        argv = {"train": ["train", str(bad)], "baseline": ["baseline", str(bad)],
                "benchmark": ["benchmark", str(bad), "--splits", "2"],
                "explain": ["explain", str(trained_model), str(bad)]}
        out = tmp_path / "out"
        assert run([*argv[command], "--delta-fraction", fraction, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {bad}:41: {message}\n"
        assert not out.exists()

    def test_a_row_whose_imputed_mass_overflows_is_trained_on(self, tmp_path, capsys):
        # Row s1's sum and imputed mass both overflow; its nonzero parts keep their values.
        data = tmp_path / "huge.csv"
        data.write_text("sample_id,a,b,c,d,e,f,label\n"
                        "s0,1,2,3,4,5,6,0\ns1,1.7e308,1.7e308,0,0,0,0,1\n"
                        "s2,2,1,3,4,5,6,1\ns3,3,2,1,4,5,6,0\n")
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 5\n")
        model = tmp_path / "model.txt"
        assert run(["train", str(data), "--config", str(config), "--out", str(model)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert load_params(model).dims[0] == 6

    @pytest.mark.parametrize("command", ["train", "explain"])
    def test_a_zero_replacement_fault_read_from_a_pipe_names_its_line(
        self, tmp_path, toy_dir, trained_model, command
    ):
        lines = (toy_dir / "absolute.csv").read_text().splitlines()
        lines[3] = "s3,0,0,0,0,1"
        argv = {"train": ["train"], "explain": ["explain", str(trained_model)]}
        argv = [*argv[command], "/dev/stdin", "--out", str(tmp_path / "out")]
        done = deepcoda_from_pipe(argv, ("\n".join(lines) + "\n").encode())
        assert done.returncode == EXIT_USAGE
        assert done.stderr == b"error: /dev/stdin:4: row is entirely zero\n"

    @pytest.mark.parametrize("command", ["train", "baseline", "benchmark"])
    def test_a_relative_row_that_drifts_when_imputed_is_accepted(self, tmp_path, toy_dir, command):
        # Sums to 1 within 1e-9, but not once its zero is imputed.
        drift = "drift,0.0,0.11638940957447788,0.10661105421141165,0.7769995372141104,1\n"
        data = tmp_path / "drift.csv"
        data.write_text((toy_dir / "relative.csv").read_text() + drift)
        assert load_dataset(data)[0].kind == "relative"
        config = tmp_path / "train.cfg"
        config.write_text("epochs = 5\n")
        argv = {"train": ["train", str(data), "--config", str(config)],
                "baseline": ["baseline", str(data)],
                "benchmark": ["benchmark", str(data), "--splits", "2", "--epochs", "5"]}
        assert run([*argv[command], "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("command", ["train", "explain"])
    def test_a_repeated_feature_name_exits_2_naming_it(
        self, tmp_path, toy_dir, trained_model, capsys, command
    ):
        rows = read_csv(toy_dir / "absolute.csv")
        rows[0][1:-1] = ["a", "a", "c", "d"]
        bad = tmp_path / "repeated.csv"
        bad.write_text("".join(",".join(row) + "\n" for row in rows))
        argv = {"train": ["train", str(bad)], "explain": ["explain", str(trained_model), str(bad)]}
        assert run([*argv[command], "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {bad}: feature name 'a' is repeated\n"

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
