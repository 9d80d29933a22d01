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
import contextlib
import csv
import dataclasses
import errno
import io
import math
import os
import stat
import sys
import warnings
from array import array
from pathlib import Path

import numpy as np

from . import explain
from ._forkmap import ordered_fork_map
from ._formats import NUMBER, _number_tables, csv_table, key_values, parse_file, utf8_text
from .baselines import (
    TRANSFORMS,
    apply_transform,
    cv_select_lambda,
    lasso_logistic_fit,
    scaled_magnitudes,
)
from .checks import check_real
from .coda import (
    DEFAULT_DELTA_FRACTION,
    CompositionMatrix,
    _replace_zeros_values,
    _RowFault,
    _sums_to_one,
    replace_zeros,
)
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
from .explain import (_correlation_moments, _explanations_header, _explanations_table, _positives,
                      explain_batch)
# Not called here; perfbench/tracer.py wraps them by their names in this module.
from .explain import explain_sample, render_report, weight_contrast_correlation  # noqa: F401
from .model import load_params, save_params
from .simulate import gen_cmyc, gen_toy
from .train import TrainConfig, TrainingDivergedError, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_CONFIG_TYPES = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}


def read_dataset_csv(path):
    """Parse a dataset file; returns (sample_ids, feature_names, values, labels)."""
    return _read_dataset(path, Path(path).read_bytes())[:4]


def _read_dataset(path, data: bytes):
    """``read_dataset_csv`` of the file ``path`` whose bytes are ``data``, and each row's line.

    The lines are an ``array("q")`` of the line where each data record
    begins: ``reader.line_num + 1``, read before the record. A fault names
    the line of its record, as does a csv error.
    """
    utf8_text(path, data)  # a byte that is not UTF-8 wins over every other fault
    reader, line = _records(data), 1
    try:
        try:
            header = next(reader, None)
            _check_header(path, header)
            n_fields = len(header)
            sample_ids, values, labels, lines = [], array("d"), [], array("q")
            line = reader.line_num + 1
            for row in reader:
                if len(row) != n_fields:
                    raise ValueError(f"{path}:{line}: expected {n_fields} fields")
                try:
                    feats = list(map(float, row[1:-1]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{line}: non-numeric feature value") from exc
                # A cheap test per row; the scans name the fault (or pass an overflowing sum).
                if not (math.isfinite(sum(feats)) and min(feats) >= 0):
                    if not all(map(math.isfinite, feats)):
                        raise ValueError(f"{path}:{line}: non-finite feature value")
                    if any(v < 0 for v in feats):
                        raise ValueError(f"{path}:{line}: negative abundance")
                if row[-1] not in ("0", "1"):
                    raise ValueError(f"{path}:{line}: label must be 0 or 1")
                sample_ids.append(row[0])
                values.fromlist(feats)
                labels.append(row[-1] == "1")
                lines.append(line)
                line = reader.line_num + 1
            if not sample_ids:
                raise ValueError(f"{path}: no data rows")
        except ValueError:
            line = reader.line_num + 1
            for _ in reader:  # a malformed record later in the file still wins
                line = reader.line_num + 1
            raise
    except csv.Error as exc:
        # Name the line where the failing record began (an unclosed quote's), not reader.line_num.
        raise ValueError(f"{path}:{line}: {exc}") from exc
    values_2d = np.array(values).reshape(len(sample_ids), n_fields - 2)
    return sample_ids, header[1:-1], values_2d, np.array(labels, dtype=int), lines


def _records(data: bytes):
    """A csv reader of a UTF-8 file's bytes (io.StringIO(text) would hold 4 bytes a character)."""
    return csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))


def _check_header(path, header) -> None:
    if header is None:
        raise ValueError(f"{path}: empty dataset file")
    if len(header) < 4:
        raise ValueError(f"{path}: need sample_id, at least two features, and label")
    if header[0] != "sample_id" or header[-1] != "label":
        raise ValueError(f"{path}: header must start with sample_id and end with label")
    names = header[1:-1]
    if len(set(names)) < len(names):
        repeated = next(name for j, name in enumerate(names) if name in names[:j])
        raise ValueError(f"{path}: feature name {repeated!r} is repeated")


_TEXT_CELL_MAX = 256  # bytes; a longer id would widen every row's id cell


def _parse_block(data: bytes, n_fields: int):
    """(id cells, N x (n_fields - 2) values) of the data lines in ``data``, read with numpy.

    The fast reader of an ``explain`` block, which holds no ``"``, ``\\r`` or
    NUL byte (``_explain_in_blocks`` declines such files before any block).
    It reads only what ``_read_dataset`` reads to the same ids and values, and
    raises ValueError on anything else: a line (lines end at ``\\n``) without
    exactly ``n_fields - 1`` commas; a label other than ``0`` or ``1``; a value
    byte other than ``0-9 . + - e E``; a value longer than
    ``csv.field_size_limit()``, which csv rejects; an id longer than
    ``_TEXT_CELL_MAX`` bytes; a value ``np.loadtxt`` rejects, or a row count it
    reads otherwise; a non-finite or negative value. The ids are
    ``_formats.text_cells`` of their bytes.
    """
    text = str(data, "utf-8")
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if raw[-1] != ord("\n"):
        ends = np.append(ends, raw.size)
    n_rows, n_commas = ends.size, n_fields - 1
    commas = np.flatnonzero(raw == ord(","))
    if commas.size != n_rows * n_commas or np.any(
        np.searchsorted(commas, ends) != n_commas * np.arange(1, n_rows + 1)
    ):
        raise ValueError("line with a wrong field count")
    commas = commas.reshape(n_rows, n_commas)
    labels = commas[:, -1] + 1
    if np.any(ends - labels != 1) or np.any(raw[labels] | 1 != ord("1")):
        raise ValueError("label other than 0 or 1")
    # float() and loadtxt read a field of these bytes alike; an id may hold any.
    value_byte = (raw - np.uint8(ord("+")) <= ord("9") - ord("+")) & (raw != ord("/"))
    value_byte |= (raw | 0x20) == ord("e")
    value_byte |= raw == ord("\n")
    other = np.flatnonzero(~value_byte)
    if np.any(other >= commas[np.searchsorted(ends, other), 0]):
        raise ValueError("value the block reader leaves to csv")
    if np.any(np.diff(commas) - 1 > csv.field_size_limit()):  # value bytes are ASCII
        raise ValueError("value longer than csv's field limit")
    starts = np.concatenate([[0], ends[:-1] + 1])
    widths = commas[:, 0] - starts
    width = int(widths.max())
    if width > _TEXT_CELL_MAX:
        raise ValueError("id too long for a text cell")
    columns = np.arange(width)
    ids = raw[np.minimum(starts[:, None] + columns, raw.size - 1)]
    ids[columns >= widths[:, None]] = 0
    values = np.loadtxt(io.StringIO(text), delimiter=",", usecols=range(1, n_commas),
                        comments=None, quotechar=None, ndmin=2, dtype=float)
    if values.shape != (n_rows, n_fields - 2):
        raise ValueError("loadtxt read another row count")
    if not (np.isfinite(values).all() and (values >= 0).all()):
        raise ValueError("non-finite or negative value")
    return ids, values


def load_dataset(path, delta_fraction: float = DEFAULT_DELTA_FRACTION):
    """Read a dataset file into a strictly positive CompositionMatrix + labels.

    ``delta_fraction`` is checked even when the file has no zeros to replace.
    """
    check_real(delta_fraction, "delta_fraction", high=1.0, low_open=True)
    sample_ids, feature_names, values, labels, lines = _read_dataset(path, Path(path).read_bytes())
    kind = "relative" if _sums_to_one(values) else "absolute"
    matrix = CompositionMatrix(values, sample_ids, feature_names, kind)
    try:
        return replace_zeros(matrix, delta_fraction), labels
    except _RowFault as exc:
        raise ValueError(f"{path}:{lines[exc.row]}: {exc.reason}") from exc


def write_dataset_csv(path, matrix: CompositionMatrix, labels) -> None:
    rows = zip(matrix.sample_ids, matrix.values.tolist(), labels, strict=True)
    table = csv_table(["sample_id", *matrix.feature_names, "label"],
                      ([sid, *values, int(label)] for sid, values, label in rows))
    Path(path).write_text(table, encoding="utf-8", newline="")


@contextlib.contextmanager
def _staged_outputs():
    """Yield ``stage(path)``: the temporary path through which a command writes ``path``.

    The first ``stage(path)`` makes the missing parent directories and, with ``O_EXCL``,
    an empty ``.<name>.<pid>.part`` beside ``path``; a later call returns the same path.
    When the block ends, and no target is a directory, each temporary replaces its target
    in staging order, an old target kept as ``.<name>.<pid>.old`` until all are in. On any
    exception the renames are undone and the temporaries and directories made removed.
    """
    staged, made, renamed = {}, [], []

    def stage(path) -> Path:
        path = Path(path)
        if path not in staged:
            for directory in reversed(path.parents):  # outermost first, so "a/b/.." exists
                if not os.path.lexists(directory):
                    directory.mkdir()
                    made.append(directory)
            part = path.with_name(f".{path.name}.{os.getpid()}.part")
            os.close(os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            staged[path] = part
        return staged[path]

    try:
        yield stage
        if directories := [path for path in staged if path.is_dir()]:
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(directories[0]))
        for path, part in staged.items():
            old = part.with_suffix(".old") if os.path.lexists(path) else None
            if old:
                os.replace(path, old)
            renamed.append((path, old))
            os.replace(part, path)
    except BaseException:
        undo = [(os.replace, old, path) if old else (os.unlink, path) for path, old in renamed]
        undo += [(os.unlink, part) for part in staged.values()]
        undo += [(os.rmdir, directory) for directory in reversed(made)]
        for step, *paths in undo:
            with contextlib.suppress(OSError):
                step(*paths)
        raise
    for old in [old for _, old in renamed if old]:
        with contextlib.suppress(OSError):
            os.unlink(old)


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
    with _staged_outputs() as stage:
        write_dataset_csv(stage(out_dir / "absolute.csv"), dataset.absolute, dataset.labels)
        write_dataset_csv(stage(out_dir / "relative.csv"), dataset.relative, dataset.labels)
    print(f"wrote {out_dir / 'absolute.csv'} and {out_dir / 'relative.csv'}")
    return EXIT_OK


def cmd_train(args) -> int:
    matrix, labels = load_dataset(args.data, args.delta_fraction)
    cfg = parse_file(args.config, parse_train_config) if args.config else TrainConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = train(matrix.values, labels, cfg)
    report_path = f"{args.out}.report.csv"
    rows = [["loss", epoch, value] for epoch, value in enumerate(report.loss_history)]
    rows += [["constraint_residual", b, value]
             for b, value in enumerate(report.final_constraint_residuals)]
    with _staged_outputs() as stage:
        save_params(report.params, stage(args.out))
        stage(report_path).write_text(csv_table(["record", "index", "value"], rows),
                                      encoding="utf-8", newline="")
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
    with _staged_outputs() as stage:
        stage(args.out).write_text(results_to_csv(results), encoding="utf-8", newline="")
    print(f"wrote {args.out} ({len(results)} rows)")
    return EXIT_OK


def cmd_explain(args) -> int:
    params = load_params(args.model)
    if params.head != "self_explain":
        raise ValueError("model uses the linear head; explanations need self_explain")
    check_real(args.delta_fraction, "delta_fraction", high=1.0, low_open=True)
    out_dir = Path(args.out)
    with _staged_outputs() as stage:
        explanations = stage(out_dir / "explanations.csv")
        explained = _explain_in_blocks(params, args.data, args.delta_fraction, explanations)
        if explained is None:
            explained = _explain_whole_file(params, args.data, args.delta_fraction, explanations)
        # render_report's other tables; explanations.csv is already written.
        tables = explain._report_tables(params, *explained)
        for name, text in zip(["memberships.csv", "correlations.csv", "summary.txt"], tables):
            stage(out_dir / name).write_text(text, encoding="utf-8", newline="")
    print(tables[-1], end="")
    print(f"wrote report files to {out_dir}")
    return EXIT_OK


def _explain_whole_file(params, path, delta_fraction, explanations):
    """Read the whole dataset, explain it and write explanations.csv to ``explanations``.

    Returns (feature names, row count, positive decisions, the moments of
    the rows' [W | Z], or None for a row count of at most B, which has no
    correlations). This is the reference that ``_explain_in_blocks`` matches
    byte for byte, and its errors are the ones ``explain`` reports.
    """
    matrix, _labels = load_dataset(path, delta_fraction)
    d, n_bottlenecks, _ = params.dims
    if matrix.n_features != d:
        raise ValueError(f"model expects {d} features, data has {matrix.n_features}")
    batch = explain_batch(params, matrix.values, matrix.sample_ids)
    with open(explanations, "wb") as fh:
        fh.write(_explanations_table(batch))
    moments = _correlation_moments(batch.w, batch.z) if len(batch) > n_bottlenecks else None
    return matrix.feature_names, len(batch), _positives(batch), moments


_SCAN_CHUNK = 1 << 20  # bytes of the dataset file that explain's block scan reads at a time


def _block_bounds(fh):
    """The offsets that bound the blocks of the file ``fh``; its first line ends at ``bounds[0]``.

    Block k, the bytes from offset ``bounds[k]`` to ``bounds[k + 1]``, holds
    ``explain._ROW_BLOCK`` data lines, the last block perhaps fewer. The file is read from its start
    in chunks of ``_SCAN_CHUNK`` bytes. None when it holds a ``"``, a
    ``\\r`` or a NUL byte, or no byte after its first line.
    """
    bounds, n_lines, size = [], 0, 0
    while chunk := fh.read(_SCAN_CHUNK):
        if any(byte in chunk for byte in (b'"', b"\r", b"\0")):
            return None
        ends = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
        # Line n_lines + j ends at ends[j]; a block starts after lines 0, R, 2R, ...
        bounds += (ends[-n_lines % explain._ROW_BLOCK :: explain._ROW_BLOCK] + size + 1).tolist()
        n_lines += ends.size
        size += len(chunk)
    if not bounds or bounds[0] == size:
        return None
    if bounds[-1] != size:
        bounds.append(size)
    return bounds


def _explain_in_blocks(params, path, delta_fraction, explanations):
    """``_explain_whole_file``, with every row stage run per block of ``explain._ROW_BLOCK`` lines.

    This process reads the file in fixed-size chunks to find its blocks, and
    parses only its first line, with ``_read_dataset``'s csv reader and header
    check. Each ``ordered_fork_map`` task reads one block with ``os.pread``,
    parses it with ``_parse_block``, imputes it, and returns the
    ``explain._Part`` of its rows, explained and formatted; this process
    writes each block's lines and merges its moments, in block order. The map
    sends blocks only while this process waits for the next one, at most two
    per worker sent and not returned, so it holds few blocks. An OSError
    raises here as it does in the whole-file read. Returns None where the
    blocks cannot stand for the whole file, and the whole-file path then gives
    the result, or the error, of reading the file at once: before any byte is
    read, data that is not a regular file, such as a pipe; before any block, a
    file holding a ``"`` (a quoted field may span lines), a ``\\r`` or a NUL
    byte, or a first line that csv does not read as one valid header for the
    model (a byte that is not UTF-8 and a field longer than csv's limit
    included); then any block that raises (a byte that is not UTF-8 and
    ``_parse_block``'s rejections included) or warns, since each block turns
    warnings into errors.
    """
    with open(path, "rb", buffering=0) as fh:
        # Only a regular file can be read at the blocks' offsets; a pipe, unread, is read whole.
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return None
        bounds = _block_bounds(fh)
        if bounds is None:
            return None
        try:
            header = next(_records(os.pread(fh.fileno(), bounds[0], 0)), None)
            _check_header(path, header)
        except (ValueError, csv.Error):
            return None
        if len(header) - 2 != params.dims[0]:
            return None

        _number_tables()  # built before the fork map starts, so every worker inherits them

        def block(k: int) -> explain._Part:
            # The whole-file path's steps on one block. Its error messages count
            # lines from the block's start, so a fault only declines the blocks.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                data = os.pread(fh.fileno(), bounds[k + 1] - bounds[k], bounds[k])
                if len(data) != bounds[k + 1] - bounds[k]:
                    raise ValueError("the file shrank while it was read")
                ids, values = _parse_block(data, len(header))
                return explain._part(params, _replace_zeros_values(values, delta_fraction), ids)

        n_positive, moments = 0, None
        try:
            with (contextlib.closing(ordered_fork_map(block, len(bounds) - 1)) as blocks,
                  open(explanations, "wb") as out):
                out.write(_explanations_header(params.dims[1]).encode())
                for result in blocks:
                    out.write(result.lines)
                    n_positive += result.positives
                    if moments is None:
                        moments = result.moments
                    else:
                        # A merge that would warn declines, as a block that warns does.
                        with np.errstate(over="raise", invalid="raise"):
                            moments = moments.merge(result.moments)
        except (ValueError, ArithmeticError, MemoryError, Warning):
            return None
    return header[1:-1], moments.count, n_positive, moments


def cmd_baseline(args) -> int:
    matrix, labels = load_dataset(args.data, args.delta_fraction)
    features = apply_transform(matrix, args.transform)
    lam = cv_select_lambda(features, labels, seed=args.seed)
    model = lasso_logistic_fit(features, labels, lam, transform=args.transform)
    if not model.converged:
        print(
            f"warning: the LASSO fit stopped after {model.n_iter} Newton steps, "
            "before its duality gap closed",
            file=sys.stderr,
        )
    scaled = scaled_magnitudes(model.coef)
    rows = [*zip(matrix.feature_names, model.coef, scaled), ["(intercept)", model.intercept, ""]]
    with _staged_outputs() as stage:
        stage(args.out).write_text(csv_table(["feature", "coefficient", "scaled_magnitude"], rows),
                                   encoding="utf-8", newline="")
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
    # A warning is one line, as baseline's is, without the source line that warned.
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    sys.exit(run())


if __name__ == "__main__":
    main()
