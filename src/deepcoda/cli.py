"""Command-line surface: simulate, train, benchmark, explain, baseline.

Dataset files are CSV with a header row: first column ``sample_id``, last
column ``label`` (0/1), everything in between a nonnegative numeric
abundance. Zeros are replaced at ingestion (multiplicative imputation,
``--delta-fraction`` controls the size) so downstream log transforms are
defined. Exit codes: 0 success, 2 usage or validation error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from array import array
from pathlib import Path

import numpy as np

from ._formats import NUMBER, csv_row, key_values
from .baselines import (
    TRANSFORMS,
    apply_transform,
    cv_select_lambda,
    lasso_logistic_fit,
    scaled_magnitudes,
)
from .checks import check_real
from .coda import _RELATIVE_SUM_TOL, DEFAULT_DELTA_FRACTION, CompositionMatrix, replace_zeros
from .evaluate import (
    DEFAULT_N_SPLITS,
    LabeledDataset,
    benchmark,
    grid_search,
    make_deepcoda_method,
    make_lasso_method,
    results_to_csv,
    standardize_scores,
)
# ``explain_sample`` and ``render_report`` are not called here; perfbench/tracer.py wraps them.
from .explain import (  # noqa: F401
    _explanation_blocks,
    _summary_tables,
    contrast_membership,
    explain_batch,
    explain_sample,
    render_report,
    weight_contrast_correlation,
)
from .model import load_params, save_params
from .simulate import gen_cmyc, gen_toy
from .train import TrainConfig, TrainingDivergedError, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_CONFIG_TYPES = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}


def read_dataset_csv(path):
    """Parse a dataset file; returns (sample_ids, feature_names, values, labels)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            try:
                return _parse_dataset(path, reader)
            except UnicodeDecodeError:  # raised by the read, so it wins at once
                raise
            except ValueError:
                for _ in reader:  # a malformed record later in the file still wins
                    pass
                raise
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc


def _parse_dataset(path, reader):
    """``read_dataset_csv``'s result from the rows of ``reader``; raises at the first fault."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty dataset file")
    if len(header) < 4:
        raise ValueError(f"{path}: need sample_id, at least two features, and label")
    if header[0] != "sample_id" or header[-1] != "label":
        raise ValueError(f"{path}: header must start with sample_id and end with label")
    sample_ids, values, labels = [], array("d"), []
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{line_no}: expected {len(header)} fields")
        try:
            feats = list(map(float, row[1:-1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: non-numeric feature value") from exc
        # A cheap test per row; the scans name a failing row's fault (or pass an overflowing sum).
        if not (math.isfinite(sum(feats)) and min(feats) >= 0):
            if not all(map(math.isfinite, feats)):
                raise ValueError(f"{path}:{line_no}: non-finite feature value")
            if any(v < 0 for v in feats):
                raise ValueError(f"{path}:{line_no}: negative abundance")
        if row[-1] not in ("0", "1"):
            raise ValueError(f"{path}:{line_no}: label must be 0 or 1")
        sample_ids.append(row[0])
        values.fromlist(feats)
        labels.append(row[-1] == "1")
    if not sample_ids:
        raise ValueError(f"{path}: no data rows")
    values_2d = np.array(values).reshape(len(sample_ids), -1)
    return sample_ids, header[1:-1], values_2d, np.array(labels, dtype=int)


def load_dataset(path, delta_fraction: float = DEFAULT_DELTA_FRACTION):
    """Read a dataset file into a strictly positive CompositionMatrix + labels.

    ``delta_fraction`` is checked even when the file has no zeros to replace.
    """
    check_real(delta_fraction, "delta_fraction", high=1.0, low_open=True)
    sample_ids, feature_names, values, labels = read_dataset_csv(path)
    kind = "relative" if np.all(np.abs(values.sum(axis=1) - 1.0) <= _RELATIVE_SUM_TOL) else "absolute"
    matrix = CompositionMatrix(values, sample_ids, feature_names, kind)
    return replace_zeros(matrix, delta_fraction), labels


def write_dataset_csv(path, matrix: CompositionMatrix, labels) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_row(["sample_id", *matrix.feature_names, "label"]))
        for i, sid in enumerate(matrix.sample_ids):
            fh.write(csv_row([sid, *matrix.values[i].tolist(), int(labels[i])]))


def parse_train_config(text: str) -> TrainConfig:
    """Parse flat ``key = value`` lines (# comments); unknown keys are rejected."""
    kwargs = {}
    for line_no, key, value in key_values(text, "config line"):
        if key not in _CONFIG_TYPES:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        try:
            kwargs[key] = _CONFIG_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(f"config line {line_no}: bad value for {key!r}") from exc
    return TrainConfig(**kwargs)


def cmd_simulate(args) -> int:
    generator = gen_toy if args.kind == "toy" else gen_cmyc
    dataset = generator(args.n, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset_csv(out_dir / "absolute.csv", dataset.absolute, dataset.labels)
    write_dataset_csv(out_dir / "relative.csv", dataset.relative, dataset.labels)
    print(f"wrote {out_dir / 'absolute.csv'} and {out_dir / 'relative.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    matrix, labels = load_dataset(args.data, args.delta_fraction)
    if args.config:
        cfg = parse_train_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        cfg = TrainConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = train(matrix.values, labels, cfg)
    save_params(report.params, args.out)
    report_path = f"{args.out}.report.csv"
    with open(report_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_row(["record", "index", "value"]))
        for epoch, value in enumerate(report.loss_history):
            fh.write(csv_row(["loss", epoch, value]))
        for b, value in enumerate(report.final_constraint_residuals):
            fh.write(csv_row(["constraint_residual", b, value]))
    print("final loss:", NUMBER % report.loss_history[-1])
    for b, value in enumerate(report.final_constraint_residuals):
        print(f"constraint residual {b}:", NUMBER % value)
    print(f"wrote {args.out} and {report_path}")
    return EXIT_OK


def _deepcoda_builder(head: str, name: str):
    def build(args):
        # A flag left out keeps make_deepcoda_method's default.
        given = {"n_bottlenecks": args.bottlenecks, "lambda_s": args.lambda_s}
        options = {key: value for key, value in given.items() if value is not None}
        return make_deepcoda_method(head=head, epochs=args.epochs, name=name, **options)

    return build


_METHOD_BUILDERS = {
    "deepcoda": _deepcoda_builder("self_explain", "deepcoda"),
    "deepcoda-linear": _deepcoda_builder("linear", "deepcoda-linear"),
    "lasso": lambda args: make_lasso_method("none"),
    "lasso-clr": lambda args: make_lasso_method("clr"),
}


def cmd_benchmark(args) -> int:
    if args.grid:
        flags = [("--methods", args.methods), ("--bottlenecks", args.bottlenecks),
                 ("--lambda-s", args.lambda_s)]
        given = [flag for flag, value in flags if value is not None]
        if given:
            raise ValueError(f"--grid sets the methods itself; drop {', '.join(given)}")
    matrix, labels = load_dataset(args.data, args.delta_fraction)
    dataset = LabeledDataset(Path(args.data).stem, matrix.values, labels)
    if args.grid:
        results = grid_search(
            dataset, n_splits=args.splits, base_seed=args.seed, epochs=args.epochs
        )
    else:
        methods = []
        names = list(_METHOD_BUILDERS) if args.methods is None else args.methods.split(",")
        for name in names:
            name = name.strip()
            if name not in _METHOD_BUILDERS:
                raise ValueError(
                    f"unknown method {name!r}; choose from {sorted(_METHOD_BUILDERS)}"
                )
            methods.append(_METHOD_BUILDERS[name](args))
        results = benchmark(dataset, methods, n_splits=args.splits, base_seed=args.seed)
    results = standardize_scores(results)
    Path(args.out).write_text(results_to_csv(results), encoding="utf-8")
    print(f"wrote {args.out} ({len(results)} rows)")
    return EXIT_OK


def cmd_explain(args) -> int:
    params = load_params(args.model)
    if params.head != "self_explain":
        raise ValueError("model uses the linear head; explanations need self_explain")
    matrix, _labels = load_dataset(args.data, args.delta_fraction)
    d, n_bottlenecks, _ = params.dims
    if matrix.n_features != d:
        raise ValueError(f"model expects {d} features, data has {matrix.n_features}")
    batch = explain_batch(params, matrix.values, matrix.sample_ids)
    memberships = [
        contrast_membership(params, b, matrix.feature_names)
        for b in range(n_bottlenecks)
    ]
    correlations = None
    if matrix.n_samples > n_bottlenecks:
        correlations = weight_contrast_correlation(batch.w, batch.z)
    # render_report's tables, with the large one streamed block by block.
    summary, memberships_csv, correlations_csv = _summary_tables(batch, memberships, correlations)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "explanations.csv", "w", encoding="utf-8") as fh:
        fh.writelines(_explanation_blocks(batch))
    (out_dir / "memberships.csv").write_text(memberships_csv, encoding="utf-8")
    (out_dir / "correlations.csv").write_text(correlations_csv, encoding="utf-8")
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")
    print(f"wrote report files to {out_dir}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    matrix, labels = load_dataset(args.data, args.delta_fraction)
    features = apply_transform(matrix, args.transform)
    lam = cv_select_lambda(features, labels, seed=args.seed)
    model = lasso_logistic_fit(features, labels, lam, transform=args.transform)
    if not model.converged:
        print(
            f"warning: the LASSO fit stopped at its {model.n_iter}-iteration cap "
            "before reaching its tolerance",
            file=sys.stderr,
        )
    scaled = scaled_magnitudes(model.coef)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_row(["feature", "coefficient", "scaled_magnitude"]))
        for name, coef, mag in zip(matrix.feature_names, model.coef, scaled):
            fh.write(csv_row([name, coef, mag]))
        fh.write(csv_row(["(intercept)", model.intercept, ""]))
    print("selected lambda:", NUMBER % lam)
    print("intercept:", NUMBER % model.intercept)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepcoda",
        description="Learn and inspect log-contrast models for compositional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The option of every command that reads a dataset file.
    data_options = argparse.ArgumentParser(add_help=False)
    data_options.add_argument("--delta-fraction", type=float, default=DEFAULT_DELTA_FRACTION)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("kind", choices=("toy", "cmyc"))
    p_sim.add_argument("--n", type=int, default=1000, help="number of samples")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", parents=[data_options], help="train a model on a dataset CSV")
    p_train.add_argument("data")
    p_train.add_argument("--config", help="flat key = value config file")
    p_train.add_argument("--seed", type=int, default=None, help="override config seed")
    p_train.add_argument("--out", required=True, help="model output path")
    p_train.set_defaults(func=cmd_train)

    p_bench = sub.add_parser(
        "benchmark", parents=[data_options], help="repeated-split AUC benchmark"
    )
    p_bench.add_argument("data")
    # --methods, --bottlenecks and --lambda-s have no default, so that
    # --grid can reject them; left out, the method builders' defaults apply.
    p_bench.add_argument(
        "--methods", help=f"comma-separated method names (default: {','.join(_METHOD_BUILDERS)})"
    )
    p_bench.add_argument("--grid", action="store_true", help="run the full hyper-parameter grid")
    p_bench.add_argument("--splits", type=int, default=DEFAULT_N_SPLITS)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--bottlenecks", type=int)
    p_bench.add_argument("--lambda-s", type=float, dest="lambda_s")
    p_bench.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_benchmark)

    p_exp = sub.add_parser("explain", parents=[data_options], help="write interpretability reports")
    p_exp.add_argument("model")
    p_exp.add_argument("data")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.set_defaults(func=cmd_explain)

    p_base = sub.add_parser("baseline", parents=[data_options], help="cross-validated LASSO fit")
    p_base.add_argument("data")
    p_base.add_argument("--transform", choices=TRANSFORMS, default="none")
    p_base.add_argument("--seed", type=int, default=0)
    p_base.add_argument("--out", required=True)
    p_base.set_defaults(func=cmd_baseline)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    # Names from a UTF-8 file may not fit a narrower locale's stdout; escape them.
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(run())


if __name__ == "__main__":
    main()
