"""The four benchmark workloads: inputs made from a seed, CLI arguments, output checks.

Inputs are generated here with numpy, by the same recipe as
``deepcoda.simulate`` (feature 1 pinned at an absolute abundance of 100,
the others log-normal with mean log 100 and sigma 0.2, multiplied by the
class effect in cases; controls first). The program only ever receives the
files. ``test_perfbench.py`` checks that the recipe still matches
``gen_toy``/``gen_cmyc`` draw for draw.

``prepare`` writes a workload's input files into its work directory and
returns the measured CLI arguments plus the CLI calls set-up makes once.
Each check returns a list of problems (empty when the output is correct) and
the quality figures read from the output.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TOY_FEATURES, TOY_EFFECT = 4, 4.0
CMYC_FEATURES, CMYC_EFFECT = 10, 3.0
METHODS = ("deepcoda", "deepcoda-linear", "lasso", "lasso-clr")
AUC_FLOOR = 0.95  # acceptance criterion 5's bar for the median test AUC
IDENTITY_TOL = 1e-12  # acceptance criterion 3's bound on |expit(sum(prod)) - prob|

Prepared = tuple[list[str], list[list[str]]]
Check = Callable[[Path, str, "Sizes"], tuple[list[str], dict]]


@dataclass(frozen=True)
class Sizes:
    """Input sizes. ``FULL`` is the benchmark; ``TINY`` only smoke-tests the harness."""

    rows: int  # rows of the train, benchmark and baseline datasets
    epochs: int | None  # None keeps the CLI's TrainConfig default (2000)
    splits: int
    explain_rows: int
    explain_model_epochs: int


FULL = Sizes(rows=1000, epochs=None, splits=2, explain_rows=50_000, explain_model_epochs=300)
TINY = Sizes(rows=60, epochs=20, splits=1, explain_rows=200, explain_model_epochs=20)


def composition(n: int, seed: int, n_features: int, effect: float):
    """Absolute abundances and labels, drawn exactly as ``deepcoda.simulate`` draws them."""
    rng = np.random.default_rng(seed)
    values = np.empty((n, n_features))
    values[:, 0] = 100.0
    values[:, 1:] = rng.lognormal(np.log(100.0), 0.2, size=(n, n_features - 1))
    labels = np.zeros(n, dtype=int)
    labels[n // 2 :] = 1
    values[labels == 1, 1:] *= effect
    return values, labels


def write_dataset(path: Path, values, labels, names=None, fmt="{:.17g}") -> None:
    names = names or [f"feature_{j + 1}" for j in range(values.shape[1])]
    lines = [",".join(["sample_id", *names, "label"])]
    for i, (row, label) in enumerate(zip(values, labels)):
        lines.append(",".join([f"S{i:04d}", *(fmt.format(v) for v in row), str(label)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _relative(n: int, seed: int, n_features: int, effect: float):
    values, labels = composition(n, seed, n_features, effect)
    return values / values.sum(axis=1, keepdims=True), labels


def _config_args(work: Path, epochs: int | None) -> list[str]:
    if epochs is None:
        return []
    (work / "train.cfg").write_text(f"epochs = {epochs}\n", encoding="utf-8")
    return ["--config", "train.cfg"]


# --- train -------------------------------------------------------------------


def prepare_train(work: Path, seed: int, sizes: Sizes) -> Prepared:
    write_dataset(work / "data.csv", *_relative(sizes.rows, seed, CMYC_FEATURES, CMYC_EFFECT))
    return ["train", "data.csv", *_config_args(work, sizes.epochs), "--out", "out/model.txt"], []


def check_train(work: Path, stdout: str, sizes: Sizes) -> tuple[list[str], dict]:
    from deepcoda.model import load_params, params_to_text

    problems = []
    model = work / "out" / "model.txt"
    if params_to_text(load_params(model)) != model.read_text(encoding="utf-8"):
        problems.append("model file does not round-trip through load_params")
    losses = []
    with open(work / "out" / "model.txt.report.csv", newline="") as fh:
        for record, index, value in list(csv.reader(fh))[1:]:
            if record == "loss":
                if int(index) != len(losses):
                    problems.append(f"loss row {index} out of order")
                losses.append(float(value))
    epochs = sizes.epochs or 2000
    if len(losses) != epochs:
        problems.append(f"{len(losses)} loss rows for {epochs} epochs")
    if not losses or not losses[-1] < losses[0]:
        problems.append("final loss is not below the first")
    final = next((ln for ln in stdout.splitlines() if ln.startswith("final loss: ")), None)
    if final is None or not losses or float(final.split(": ")[1]) != losses[-1]:
        problems.append("printed final loss differs from the report's last loss row")
    return problems, {"final_loss": losses[-1] if losses else math.nan}


# --- benchmark ---------------------------------------------------------------


def prepare_benchmark(work: Path, seed: int, sizes: Sizes) -> Prepared:
    write_dataset(work / "data.csv", *_relative(sizes.rows, seed, TOY_FEATURES, TOY_EFFECT))
    argv = ["benchmark", "data.csv", "--splits", str(sizes.splits), "--out", "out/bench.csv"]
    return argv + ([] if sizes.epochs is None else ["--epochs", str(sizes.epochs)]), []


def check_benchmark(work: Path, stdout: str, sizes: Sizes) -> tuple[list[str], dict]:
    with open(work / "out" / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    cells = sorted((r["method"], int(r["split"])) for r in rows)
    expected = sorted((m, s) for m in METHODS for s in range(sizes.splits))
    if cells != expected:
        problems.append(f"expected one row per method and split, got {cells}")
    aucs = [float(r["auc"]) for r in rows]
    if not aucs or not all(0.0 <= a <= 1.0 for a in aucs):
        problems.append("AUC values missing or outside [0, 1]")
    median = statistics.median(aucs) if aucs else math.nan
    if not median >= AUC_FLOOR:
        problems.append(f"median test AUC {median} is below {AUC_FLOOR}")
    return problems, {"test_auc_median": median}


# --- baseline ----------------------------------------------------------------


def prepare_baseline(work: Path, seed: int, sizes: Sizes) -> Prepared:
    # One fixed draw, gen_cmyc(rows, 0), whose columns the seed permutes.
    # ISTA's iteration count swings by about +-20 % between draws (65k to
    # 95k iterations over four draws at 1000 rows), which would swamp the
    # timing; a column permutation keeps the solver's path (75,807
    # iterations at every seed tried) while the program still reads new bytes.
    values, labels = composition(sizes.rows, 0, CMYC_FEATURES, CMYC_EFFECT)
    perm = np.random.default_rng(seed).permutation(CMYC_FEATURES)
    names = [f"feature_{j + 1}" for j in perm]
    write_dataset(work / "data.csv", values[:, perm], labels, names)
    return ["baseline", "data.csv", "--out", "out/coef.csv"], []


def check_baseline(work: Path, stdout: str, sizes: Sizes) -> tuple[list[str], dict]:
    with open(work / "out" / "coef.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    coef = {r["feature"]: float(r["coefficient"]) for r in rows}
    problems = []
    expected = {f"feature_{j + 1}" for j in range(CMYC_FEATURES)} | {"(intercept)"}
    if set(coef) != expected or len(rows) != len(expected):
        problems.append(f"unexpected coefficient rows {sorted(coef)}")
    if not all(math.isfinite(v) for v in coef.values()):
        problems.append("non-finite coefficient")
    if coef.get("feature_1") != 0.0:
        problems.append(f"constant feature_1 has coefficient {coef.get('feature_1')}, not 0")
    return problems, {}


# --- explain -----------------------------------------------------------------


def prepare_explain(work: Path, seed: int, sizes: Sizes) -> Prepared:
    """Write the rows to explain, and the data for the model that set-up trains."""
    values, labels = composition(sizes.explain_rows, seed, CMYC_FEATURES, CMYC_EFFECT)
    counts = np.rint(values)
    rng = np.random.default_rng((seed, 1))
    n_zero = rng.integers(0, 4, size=counts.shape[0])
    for i, k in enumerate(n_zero):
        # Feature 1 (the constant part) is never zeroed. Rows with about
        # seven or more zeros are rejected by replace_zeros, so none are made.
        counts[i, 1 + rng.choice(CMYC_FEATURES - 1, size=k, replace=False)] = 0.0
    write_dataset(work / "data.csv", counts, labels, fmt="{:.0f}")
    write_dataset(work / "model_data.csv", *_relative(sizes.rows, seed, CMYC_FEATURES, CMYC_EFFECT))
    # Model quality does not change explain's cost, so set-up trains briefly.
    train = ["train", "model_data.csv", *_config_args(work, sizes.explain_model_epochs),
             "--out", "model.txt"]
    return ["explain", "model.txt", "data.csv", "--out", "out"], [train]


def check_explain(work: Path, stdout: str, sizes: Sizes) -> tuple[list[str], dict]:
    problems = []
    with open(work / "out" / "explanations.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        prods = [j for j, name in enumerate(header) if name.startswith("prod_")]
        prob = header.index("prob")
        n_rows = worst = 0
        for n_rows, row in enumerate(reader, start=1):
            if row[0] != f"S{n_rows - 1:04d}":
                problems.append(f"row {n_rows} has sample id {row[0]}")
                break
            logit = math.fsum(float(row[j]) for j in prods)
            worst = max(worst, abs(1.0 / (1.0 + math.exp(-logit)) - float(row[prob])))
    if n_rows != sizes.explain_rows:
        problems.append(f"{n_rows} explained rows for {sizes.explain_rows} inputs")
    if not worst <= IDENTITY_TOL:
        problems.append(f"expit(sum(products)) misses prob by {worst:.3g}")
    if f"samples: {sizes.explain_rows}\n" not in stdout:
        problems.append("summary does not report the row count")
    return problems, {}


# name -> (prepare, check). The reason for each workload is in BENCHMARK.json
# and README.md. ``baseline`` is runnable and in the cross-check, but not in
# BENCHMARK.json: README.md says why.
WORKLOADS: dict[str, tuple[Callable[[Path, int, Sizes], Prepared], Check]] = {
    "train": (prepare_train, check_train),
    "benchmark": (prepare_benchmark, check_benchmark),
    "baseline": (prepare_baseline, check_baseline),
    "explain": (prepare_explain, check_explain),
}
