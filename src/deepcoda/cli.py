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
import gc
import importlib
import io
import math
import os
import stat
import sys
import warnings
from array import array
from pathlib import Path

import numpy as np

from ._formats import NUMBER, _number_tables, csv_field, csv_table, key_values, parse_file, utf8_text
from .checks import check_real
from .coda import (
    DEFAULT_DELTA_FRACTION,
    TRANSFORMS,
    CompositionMatrix,
    _replace_zeros_values,
    _RowFault,
    _sums_to_one,
    replace_zeros,
)
from .model import load_params, save_params
from .train import TrainConfig, TrainingDivergedError, train

# The names only some commands use, by the module that holds them ("explain": that module too).
# Commands bind theirs (_bind), a lookup here binds one (__getattr__): no command loads a module
# it does not run. Three explain names go unused here; perfbench/tracer.py wraps them here.
_LAZY = {
    "baselines": ("apply_transform", "cv_select_lambda", "lasso_logistic_fit", "scaled_magnitudes"),
    "evaluate": ("LabeledDataset", "benchmark", "grid_search", "make_deepcoda_method",
                 "make_lasso_method", "results_to_csv", "standardize_scores"),
    "explain": ("explain", "explain_sample", "render_report", "weight_contrast_correlation"),
    "simulate": ("gen_cmyc", "gen_toy"),
    "_forkmap": ("ordered_fork_map",),
}


def _bind(*modules: str) -> None:
    """Import each of ``modules`` and bind here its ``_LAZY`` names; a name bound already stays."""
    for name in modules:
        module = importlib.import_module(f".{name}", __package__)
        for attr in _LAZY[name]:
            globals().setdefault(attr, module if attr == name else getattr(module, attr))


def __getattr__(attr: str):
    for name in [name for name, attrs in _LAZY.items() if attr in attrs]:
        _bind(name)
        return globals()[attr]
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")


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
        raise ValueError(f"{path}: header must start with sample_id and end with label, "
                         f"got {header[0]!r} and {header[-1]!r}")
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
    return _load_dataset(path, Path(path).read_bytes(), delta_fraction)


def _load_dataset(path, data: bytes, delta_fraction: float):
    """``load_dataset`` of the file ``path`` whose bytes are ``data``, ``delta_fraction`` unchecked."""
    sample_ids, feature_names, values, labels, lines = _read_dataset(path, data)
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
    _bind("simulate")
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


# benchmark's methods, by name: a deepcoda method's network head, or a LASSO method's transform.
_METHODS = {"deepcoda": "self_explain", "deepcoda-linear": "linear",
            "lasso": "none", "lasso-clr": "clr"}


def cmd_benchmark(args) -> int:
    _bind("evaluate")
    if args.grid:
        options = [("--methods", args.methods), ("--bottlenecks", args.bottlenecks),
                   ("--lambda-s", args.lambda_s)]
        given = [option for option, value in options if value is not None]
        if given:
            raise ValueError(f"--grid sets the methods itself; drop {', '.join(given)}")
    # The deepcoda flags that were given; one left out keeps make_deepcoda_method's default.
    flags = {"n_bottlenecks": args.bottlenecks, "lambda_s": args.lambda_s, "epochs": args.epochs}
    flags = {key: value for key, value in flags.items() if value is not None}
    TrainConfig(**flags)  # checked before any fit, whichever methods run
    matrix, labels = load_dataset(args.data, args.delta_fraction)
    dataset = LabeledDataset(Path(args.data).stem, matrix.values, labels)
    splits = {} if args.splits is None else {"n_splits": args.splits}  # absent: evaluate's default
    if args.grid:
        results = grid_search(dataset, base_seed=args.seed, epochs=args.epochs, **splits)
    else:
        names = list(_METHODS) if args.methods is None else args.methods.split(",")
        methods = []
        for name in map(str.strip, names):
            if name not in _METHODS:
                raise ValueError(f"unknown method {name!r}; choose from {sorted(_METHODS)}")
            methods.append(make_lasso_method(_METHODS[name], name=name) if name.startswith("lasso")
                           else make_deepcoda_method(head=_METHODS[name], name=name, **flags))
        results = benchmark(dataset, methods, base_seed=args.seed, **splits)
    results = standardize_scores(results)
    with _staged_outputs() as stage:
        stage(args.out).write_text(results_to_csv(results), encoding="utf-8", newline="")
    print(f"wrote {args.out} ({len(results)} rows)")
    return EXIT_OK


def cmd_explain(args) -> int:
    _bind("explain", "_forkmap")
    params = load_params(args.model)
    if params.head != "self_explain":
        raise ValueError("model uses the linear head; explanations need self_explain")
    check_real(args.delta_fraction, "delta_fraction", high=1.0, low_open=True)
    out_dir, path, delta_fraction = Path(args.out), args.data, args.delta_fraction
    with _staged_outputs() as stage:
        explanations = stage(out_dir / "explanations.csv")
        with open(path, "rb", buffering=0) as fh:
            # A pipe has no offsets to read blocks at, and can be read only once: it is held.
            data = None if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else fh.read()
            explained = None
            with contextlib.suppress(*_DECLINES):  # a decline's traceback is gone before the read
                explained = _explain_in_blocks(params, path, fh, data, delta_fraction, explanations)
            if explained is None:
                data = _read(fh, data, 0, os.fstat(fh.fileno()).st_size) if data is None else data
                explained = _explain_whole(params, path, data, delta_fraction, explanations)
        # render_report's other tables; explanations.csv is already written.
        tables = explain._report_tables(params, *explained)
        for name, text in zip(["memberships.csv", "correlations.csv", "summary.txt"], tables):
            stage(out_dir / name).write_text(text, encoding="utf-8", newline="")
    print(tables[-1], end="")
    print(f"wrote report files to {out_dir}")
    return EXIT_OK


def _write_explanations(params, parts, explanations):
    """Write explanations.csv to ``explanations``: its header, then the lines of each of ``parts``,
    ``explain._Part`` records in row order. Returns (positive decisions, merged moments): the one
    place the command merges moments, under the caller's ``np.errstate``."""
    n_positive, moments = 0, None
    with open(explanations, "wb") as out:
        out.write(explain._explanations_header(params.dims[1]).encode())
        for part in parts:
            out.write(part.lines)
            n_positive += part.positives
            moments = part.moments if moments is None else moments.merge(part.moments)
    return n_positive, moments


def _explain_whole(params, path, data, delta_fraction, explanations):
    """``_explain_in_blocks`` in this process, after reading every row: ``data`` read by
    ``load_dataset``'s rules and one forward pass, then ``explain._parts``'s ``_ROW_BLOCK`` rows at
    a time (without moments for at most B rows, which have no correlations), each part written as
    it is made, with each row's id, which may need quotes, be long or hold a NUL byte, in front."""
    matrix, _labels = _load_dataset(path, data, delta_fraction)
    d, n_bottlenecks, _ = params.dims
    if matrix.n_features != d:
        raise ValueError(f"model expects {d} features, data has {matrix.n_features}")
    n_rows = len(matrix.sample_ids)
    ids = (csv_field(sid).encode("utf-8", "surrogatepass") for sid in matrix.sample_ids)
    parts = explain._parts(params, matrix.values, np.zeros((n_rows, 0), np.uint8),
                           moments=n_rows > n_bottlenecks)
    # zip takes a line before its id, so a part's end takes none of the next part's ids.
    parts = (dataclasses.replace(part, lines=b"".join(
        sid + line + b"\n" for line, sid in zip(part.lines.splitlines(), ids))) for part in parts)
    return matrix.feature_names, n_rows, *_write_explanations(params, parts, explanations)


_SCAN_CHUNK = 1 << 20  # bytes of the dataset file that explain's block scan reads at a time
# What the block path raises to decline a file, which cmd_explain then reads whole.
_DECLINES = (ValueError, csv.Error, ArithmeticError, MemoryError, Warning)


def _block_bounds(fh):
    """The offsets that bound the blocks of the file ``fh``; its first line ends at ``bounds[0]``.

    Block k, from offset ``bounds[k]`` to ``bounds[k + 1]``, holds ``explain._ROW_BLOCK`` data
    lines, the last perhaps fewer. ``fh`` is read from its start in chunks of ``_SCAN_CHUNK``
    bytes. Raises ValueError if it holds a ``"``, ``\\r`` or NUL byte, or no byte after line 1.
    """
    bounds, n_lines, size = [], 0, 0
    while chunk := fh.read(_SCAN_CHUNK):
        if any(byte in chunk for byte in (b'"', b"\r", b"\0")):
            raise ValueError('a ", \\r or NUL byte')
        ends = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
        # Line n_lines + j ends at ends[j]; a block starts after lines 0, R, 2R, ...
        bounds += (ends[-n_lines % explain._ROW_BLOCK :: explain._ROW_BLOCK] + size + 1).tolist()
        n_lines += ends.size
        size += len(chunk)
    if not bounds or bounds[0] == size:
        raise ValueError("no byte after the first line")
    if bounds[-1] != size:
        bounds.append(size)
    return bounds


def _read(fh, data, start: int, stop: int) -> bytes:
    """The bytes from offset ``start`` to ``stop`` of ``data``, or, if None, of the file ``fh``."""
    chunk = os.pread(fh.fileno(), stop - start, start) if data is None else data[start:stop]
    if len(chunk) != stop - start:
        raise ValueError("the file shrank while it was read")
    return chunk


def _explain_in_blocks(params, path, fh, data, delta_fraction, explanations):
    """``_explain_whole``, with every row stage run per block of ``explain._ROW_BLOCK`` lines.

    The blocks are ``_read`` from ``data``, a pipe's bytes read once, or if
    None from the regular file ``fh``. This process scans the bytes in chunks
    to find the blocks and parses the first line with ``_read_dataset``'s csv
    reader and header check. Each ``ordered_fork_map`` task parses a block
    with ``_parse_block``, imputes it and returns its ``explain._Part``; the
    map sends at most two blocks per worker ahead, so this process holds few.
    Raises one of ``_DECLINES``, leaving the file to ``_explain_whole``, when
    it holds a ``"``, a ``\\r`` or a NUL byte, when csv does not read its first
    line as one valid header for the model, or when any block raises or warns.
    """
    bounds = _block_bounds(fh if data is None else io.BytesIO(data))
    header = next(_records(_read(fh, data, 0, bounds[0])), None)
    _check_header(path, header)
    if len(header) - 2 != params.dims[0]:
        raise ValueError("a header whose width does not fit the model")

    _number_tables()  # built before the fork map starts, so every worker inherits them

    def block(k: int) -> explain._Part:
        # _explain_whole's steps on one block; a fault, named by the block's lines, only declines.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids, values = _parse_block(_read(fh, data, bounds[k], bounds[k + 1]), len(header))
            [part] = explain._parts(params, _replace_zeros_values(values, delta_fraction), ids)
            return part

    # A merge that would warn raises, and so declines the blocks, as a block that warns does.
    with np.errstate(over="raise", invalid="raise"), \
            contextlib.closing(ordered_fork_map(block, len(bounds) - 1)) as parts:
        n_positive, moments = _write_explanations(params, parts, explanations)
    return header[1:-1], moments.count, n_positive, moments


def cmd_baseline(args) -> int:
    _bind("baselines")
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and usage text fail as a command's output does: each write
    is flushed, and its error raised (argparse drops it from Python 3.11 on)."""

    def _print_message(self, message, file=None):
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deepcoda",
        description="Learn and inspect log-contrast models for compositional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The option of every command that reads a dataset file.
    data_options = _Parser(add_help=False)
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
    # --methods, --bottlenecks and --lambda-s have no default, so that --grid can reject them;
    # left out, every name of _METHODS runs, each with make_deepcoda_method's defaults.
    # Nor has --splits, whose default evaluate holds: the parser loads no evaluate.
    p_bench.add_argument(
        "--methods", help=f"comma-separated method names (default: {','.join(_METHODS)})"
    )
    p_bench.add_argument("--grid", action="store_true", help="run the full hyper-parameter grid")
    p_bench.add_argument("--splits", type=int)
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


def _failed(exc: BaseException, code: int) -> int:
    """``code``, once ``exc`` is printed as one ``error:`` line; a stderr that fails drops it."""
    with contextlib.suppress(OSError):
        print(f"error: {exc}", file=sys.stderr)
    return code


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # a help or usage text it cannot write fails here
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails the command here, not at shutdown
        return code
    except (ValueError, OSError, MemoryError) as exc:
        return _failed(exc, EXIT_USAGE)
    except (TrainingDivergedError, FloatingPointError) as exc:
        return _failed(exc, EXIT_NUMERIC)


def main() -> None:
    for fd, name in enumerate(["stdout", "stderr"], 1):
        if getattr(sys, name) is None:  # closed at start-up: its output goes to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
            setattr(sys, name, open(fd, "w", errors="backslashreplace", closefd=False))
    # Names from a UTF-8 file may not fit a narrower locale's stdout; escape them.
    sys.stdout.reconfigure(errors="backslashreplace")
    # A warning is one line, as baseline's is, without the source line that warned.
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        code = run()
    except SystemExit as stop:  # argparse's, after --help or a usage error, both written
        code = stop.code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # the fault is named, or cannot be; what it holds goes to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    if not sys.flags.dev_mode:  # there shutdown's collections still warn of an unclosed file
        gc.freeze()  # shutdown skips its full collections over all numpy and the command made
    sys.exit(code)


if __name__ == "__main__":
    main()
