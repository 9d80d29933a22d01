"""``deepcoda explain`` reads, explains and formats its rows block by block.

Each block runs in a fork-map task; the result must be the whole-file one:
byte-identical report files on a good input, and on a rejected input the
exit code, the error line and the file system a whole-file read gives.
"""

import contextlib
import csv
import dataclasses
import io
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from deepcoda import (
    DeepCodaParams,
    contrast_membership,
    explain_batch,
    load_params,
    render_report,
    save_params,
    weight_contrast_correlation,
)
from deepcoda import DECISION_NEGATIVE, DECISION_POSITIVE, ExplanationBatch, cli
from deepcoda import coda as coda_module
from deepcoda import _formats
from deepcoda import explain as explain_module
from deepcoda._formats import csv_row, text_cells
from deepcoda.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, load_dataset, run
from deepcoda.cli import _TEXT_CELL_MAX
from deepcoda.explain import _explanation_lines

D = 4
REPORT_FILES = ("explanations.csv", "memberships.csv", "correlations.csv", "summary.txt")


def model_params(overflowing: bool) -> DeepCodaParams:
    """A 4-feature, 2-bottleneck model. The overflowing one's first weight is
    1e305 * relu(log(x1 / x2)), so a row with x1 / x2 = 1e20 has a non-finite logit."""
    rng = np.random.default_rng(3)
    w2 = rng.normal(0, 0.4, size=(2, 2))
    if overflowing:
        w2 = np.array([[1e305, 0.0], [0.0, 0.7]])
    return DeepCodaParams(
        beta=np.array([[1.0, 0.3], [-1.0, 0.2], [0.0, -0.4], [0.0, -0.1]]),
        beta0=np.array([0.0, 0.1]),
        mlp_w1=np.eye(2),
        mlp_b1=np.array([0.0, 0.5]),
        mlp_w2=w2,
        mlp_b2=np.array([0.0, 0.2]),
    )


# A fault on one row: (fields) -> fields, or (line bytes) -> line bytes.
FIELD_FAULTS = {
    "non_numeric": lambda f: [*f[:2], "x", *f[3:]],
    "negative": lambda f: [*f[:2], "-1", *f[3:]],
    "nan": lambda f: [*f[:3], "nan", *f[4:]],
    "label": lambda f: [*f[:-1], "2"],
    "field_count": lambda f: [*f[:2], *f[3:]],
    "all_zero": lambda f: [f[0], *["0"] * (len(f) - 2), f[-1]],
    "non_finite_contrast": lambda f: [f[0], "1e20", "1", *f[3:]],
    # A row sum that overflows; the row is still explained.
    "huge": lambda f: [f[0], "1e308", "1e308", *f[3:]],
    # The same with a zero, which is imputed.
    "huge_with_zero": lambda f: [f[0], "1e308", "1e308", "0", *f[4:]],
}
LINE_FAULTS = {
    "decode": lambda line: b"\xff" + line,
    "blank": lambda line: b"",
    "bare_cr": lambda line: line[:3] + b"\r" + line[3:],
}
# Fields on which np.loadtxt and float(), or the csv rules, may part ways. The
# block reader must read each as the whole-file reader does, or leave it to it.
# The last value is one digit longer than csv's field limit: float() reads it, csv does not.
VALUE_TOKENS = ["1_0", "\uff11", "0x1", "1e400", "1e-400", "-0", "+1", "infinity", "nan", "007",
                "1.5e1", "2E-3", " 7", "7 ", "\v7", "7\x85", "\x1c7", "7\x00", "#7", "\xa07", "",
                "0" * csv.field_size_limit() + "1"]
ID_TOKENS = ["i\vd", "i\x85d", "i\x1cd", "i\x00d", "\ufeffid", "#id", " id ", "\u0438\u0434", "i\u2028d"]


def _in_field(index, text):
    return lambda f: [*f[:index], text, *f[index + 1:]]


def _shown(token):
    """``repr(token)``, or its length where it is too long to name a test."""
    return repr(token) if len(token) < 40 else f"<{len(token)} chars>"


TOKEN_FAULTS = {
    **{f"value {_shown(t)}": _in_field(2, t) for t in VALUE_TOKENS},
    **{f"id {_shown(t)}": _in_field(0, t) for t in ID_TOKENS},
    "label ' 1'": lambda f: [*f[:-1], " 1"],
    "extra field": lambda f: [*f, "1"],
}
FIELD_FAULTS.update(TOKEN_FAULTS)


def dataset_bytes(values, faults=(), relative=False, crlf=False, final_newline=True,
                  drop_feature=False, quoted=False, bom=False, exponent=False):
    """A dataset file: one row per row of ``values``, ``faults`` as (row, fault name) pairs.

    ``bom`` starts it with a UTF-8 byte-order mark; ``exponent`` writes the
    values in e-notation.
    """
    eol = b"\r\n" if crlf else b"\n"
    n_features = values.shape[1] - drop_feature
    header = ["sample_id", *(f"f{j + 1}" for j in range(n_features)), "label"]
    lines = [",".join(header).encode()]
    for i, row in enumerate(values):
        row = row[:n_features]
        numbers = (row / row.sum()).tolist() if relative else row.tolist()
        # A quoted id may span lines, so a file holding a quote is one block.
        sample_id = '"q,uo\nted"' if quoted and i == 0 else f"S{i}" if i % 3 else f"é{i}"
        written = (f"{v:.16e}" if exponent else repr(v) if relative else f"{v:.0f}" for v in numbers)
        fields = [sample_id, *written, str(i % 2)]
        for row_index, fault in faults:
            if row_index == i and fault in FIELD_FAULTS:
                fields = FIELD_FAULTS[fault](fields)
        line = ",".join(fields).encode()
        for row_index, fault in faults:
            if row_index == i and fault in LINE_FAULTS:
                line = LINE_FAULTS[fault](line)
        lines.append(line)
    return b"\xef\xbb\xbf" * bom + eol.join(lines) + (eol if final_newline else b"")


def reference(model: Path, data: Path, out: Path):
    """(exit code, stdout, stderr, report files) from a whole-batch explanation."""
    params = load_params(model)
    n_bottlenecks = params.dims[1]
    try:
        matrix, _ = load_dataset(data)
        if matrix.n_features != D:
            raise ValueError(f"model expects {D} features, data has {matrix.n_features}")
        batch = explain_batch(params, matrix.values, matrix.sample_ids)
    except ValueError as exc:
        return EXIT_USAGE, "", f"error: {exc}\n", None
    except FloatingPointError as exc:
        return EXIT_NUMERIC, "", f"error: {exc}\n", None
    names = matrix.feature_names
    memberships = [contrast_membership(params, b, names) for b in range(n_bottlenecks)]
    correlations = None
    if len(batch) > n_bottlenecks:
        correlations = weight_contrast_correlation(batch.w, batch.z)
    bundle = render_report(batch, memberships, correlations)
    files = dict(zip(REPORT_FILES, (bundle.explanations_csv, bundle.memberships_csv,
                                    bundle.correlations_csv, bundle.summary)))
    stdout = f"{bundle.summary}wrote report files to {out}\n"
    return EXIT_OK, stdout, "", {name: text.encode() for name, text in files.items()}


def explain_cli(model: Path, data: Path, out: Path):
    """(exit code, stdout, stderr, report files) from ``deepcoda explain``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(["explain", str(model), str(data), "--out", str(out)])
    files = None
    if code == EXIT_OK:
        files = {name: (out / name).read_bytes() for name in REPORT_FILES}
    return code, stdout.getvalue(), stderr.getvalue(), files


def tree(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def assert_matches_reference(work: Path, data: bytes, overflowing: bool, block: int, cpus: int):
    """Explain ``data`` in ``block``-line blocks on ``cpus`` CPUs; compare with the reference."""
    model = work / "model.txt"
    save_params(model_params(overflowing), model)
    (work / "data.csv").write_bytes(data)
    before = tree(work)
    out = work / "out" / "report"
    results, caught = [], []
    usable = mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True)
    for explain in (reference, explain_cli):
        with warnings.catch_warnings(record=True) as seen, \
                mock.patch.object(explain_module, "_ROW_BLOCK", block), usable:
            warnings.simplefilter("always")
            results.append(explain(model, work / "data.csv", out))
        caught.append([(w.category, str(w.message)) for w in seen])
        if results[-1][0] != EXIT_OK:
            assert tree(work) == before  # nothing created, nothing left behind
    assert results[1] == results[0]
    assert caught[1] == caught[0]
    return results[0], caught[0]


def counts(n_rows: int, seed: int) -> np.ndarray:
    """Abundance counts of ``n_rows`` rows with a few zeros; no row is all zero."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 60, size=(n_rows, D)).astype(float)
    values[:, 0] += 1.0
    return values


@settings(max_examples=200, deadline=None)
@given(
    n_rows=st.integers(1, 14),
    seed=st.integers(0, 2**16),
    faults=st.lists(
        st.tuples(st.integers(0, 13), st.sampled_from(sorted({**FIELD_FAULTS, **LINE_FAULTS}))),
        max_size=3,
    ),
    layout=st.fixed_dictionaries({
        "relative": st.booleans(),
        "crlf": st.booleans(),
        "final_newline": st.booleans(),
        "drop_feature": st.sampled_from([False] * 5 + [True]),
        "quoted": st.sampled_from([False] * 4 + [True]),
        "bom": st.sampled_from([False] * 9 + [True]),
        "exponent": st.sampled_from([False] * 4 + [True]),
    }),
    overflowing=st.booleans(),
    block=st.integers(1, 4),
    cpus=st.sampled_from([1, 1, 2]),
)
# Two one-row blocks whose weights are near 1e305: merging their moments
# overflows, where the whole batch, with no more rows than bottlenecks, has no
# correlations and so no warning.
@example(n_rows=2, seed=0, faults=[],
         layout={"relative": False, "crlf": False, "final_newline": False, "drop_feature": False,
                 "quoted": False, "bom": False, "exponent": False},
         overflowing=True, block=1, cpus=1)
def test_blocks_give_the_whole_batch_result(n_rows, seed, faults, layout, overflowing, block, cpus):
    data = dataset_bytes(counts(n_rows, seed), faults, **layout)
    with tempfile.TemporaryDirectory() as tmp:
        assert_matches_reference(Path(tmp), data, overflowing, block, cpus)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "faults,drop_feature,code,message",
    [
        ([(1, "non_finite_contrast"), (7, "non_numeric")], False, EXIT_USAGE, ":9: non-numeric"),
        ([(2, "label"), (8, "decode")], False, EXIT_USAGE, "'utf-8' codec can't decode"),
        ([(6, "all_zero")], False, EXIT_USAGE, ":8: row is entirely zero"),
        ([(5, "negative")], True, EXIT_USAGE, ":7: negative abundance"),
        ([(4, "non_finite_contrast")], False, EXIT_NUMERIC, "non-finite value in forward pass"),
        ([], True, EXIT_USAGE, "model expects 4 features, data has 3"),
    ],
    ids=["parse-after-non-finite", "decode-after-parse", "all-zero-row",
         "parse-with-feature-mismatch", "non-finite-contrast", "feature-mismatch"],
)
def test_a_fault_in_any_block_gives_the_whole_file_error(
    tmp_path, faults, drop_feature, code, message, cpus
):
    data = dataset_bytes(counts(10, 1), faults, drop_feature=drop_feature)
    (got_code, _, stderr, _), _ = assert_matches_reference(tmp_path, data, True, 3, cpus)
    assert got_code == code
    assert message in stderr


def csv_reads_nul() -> bool:
    """Whether csv reads a NUL byte: 3.11 does, 3.10 raises ``csv.Error("line contains NUL")``."""
    try:
        next(csv.reader(["\0"]))
    except csv.Error:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(
    n_rows=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    faults=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(sorted({**FIELD_FAULTS, **LINE_FAULTS}))),
        max_size=2,
    ),
    layout=st.fixed_dictionaries({
        "relative": st.booleans(),
        "final_newline": st.booleans(),
        "exponent": st.booleans(),
    }),
)
def test_the_block_reader_reads_what_the_csv_reader_reads(n_rows, seed, faults, layout):
    data = dataset_bytes(counts(n_rows, seed), faults, **layout)
    block = data[data.find(b"\n") + 1 :]
    assume(block)
    try:  # the header, which holds no fault, and the block
        sample_ids, _, values, _, _ = cli._read_dataset("data.csv", data)
    except ValueError:
        # Python 3.10's csv rejects a NUL byte, which 3.11's and the block reader
        # read; no block holds one, since _explain_in_blocks declines such files.
        if b"\0" in block and not csv_reads_nul():
            return
        with pytest.raises(ValueError):
            cli._parse_block(block, D + 2)
        return
    try:
        ids, got = cli._parse_block(block, D + 2)
    except ValueError:
        assert faults  # a clean block is the block reader's; others may be left to csv
        return
    assert got.tobytes() == values.tobytes()
    assert np.array_equal(ids, text_cells([sid.encode() for sid in sample_ids]))


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_header_field_longer_than_csvs_limit_gives_the_whole_file_error(tmp_path, cpus):
    # A feature name one character longer than csv's limit; such a value is in VALUE_TOKENS.
    limit = csv.field_size_limit()
    data = dataset_bytes(counts(10, 5)).replace(b",f2,", b",f" + b"2" * limit + b",", 1)
    (code, _, stderr, _), _ = assert_matches_reference(tmp_path, data, False, 3, cpus)
    assert code == EXIT_USAGE
    assert stderr.endswith(f"data.csv:1: field larger than field limit ({limit})\n")


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fault", sorted(TOKEN_FAULTS))
def test_a_field_the_two_readers_may_read_apart_gives_the_whole_file_result(
    tmp_path, fault, cpus
):
    data = dataset_bytes(counts(10, 8), [(8, fault)])
    assert_matches_reference(tmp_path, data, False, 3, cpus)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "faults,layout",
    [([(7, "bare_cr")], {}), ([], {"crlf": True}), ([(7, "bare_cr")], {"crlf": True}),
     ([], {"bom": True}), ([(4, "blank")], {}), ([(9, "blank")], {"crlf": True}),
     ([], {"crlf": True, "final_newline": False})],
    ids=["bare-cr", "crlf", "crlf-and-bare-cr", "bom", "blank-line", "crlf-blank-last-line",
         "crlf-no-final-newline"],
)
def test_line_ends_and_marks_give_the_whole_file_result(tmp_path, faults, layout, cpus):
    data = dataset_bytes(counts(10, 9), faults, **layout)
    assert_matches_reference(tmp_path, data, False, 3, cpus)


@pytest.mark.parametrize("layout", [{}, {"crlf": True}, {"relative": True}, {"quoted": True}],
                         ids=["counts", "crlf", "relative", "quoted"])
def test_good_files_give_the_whole_batch_report(tmp_path, layout):
    data = dataset_bytes(counts(23, 2), **layout)
    for cpus in (1, 2):
        work = tmp_path / f"cpus{cpus}"
        work.mkdir()
        assert assert_matches_reference(work, data, False, 5, cpus)[0][0] == EXIT_OK


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_block_that_warns_gives_the_whole_file_warnings(tmp_path, monkeypatch, cpus):
    # Imputation warns on a row holding 1e308: in the second of three blocks, and
    # once in the whole-file read. The user sees that read's warning, and only it.
    impute = coda_module._replace_zeros_values

    def warning_impute(values, delta_fraction):
        if (values == 1e308).any():
            warnings.warn("a huge row", RuntimeWarning)
        return impute(values, delta_fraction)

    monkeypatch.setattr(coda_module, "_replace_zeros_values", warning_impute)
    monkeypatch.setattr(cli, "_replace_zeros_values", warning_impute)
    whole_file = mock.Mock(wraps=cli._explain_whole_file)
    monkeypatch.setattr(cli, "_explain_whole_file", whole_file)
    data = dataset_bytes(counts(8, 3), [(5, "huge_with_zero")])
    (code, _, _, _), caught = assert_matches_reference(tmp_path, data, False, 3, cpus)
    assert code == EXIT_OK
    assert whole_file.call_count == 1
    assert caught == [(RuntimeWarning, "a huge row")]


def _no_whole_file(*args):
    raise AssertionError("the blocks fell back to the whole-file path")


def test_a_good_file_is_explained_without_the_whole_file_path(tmp_path, monkeypatch, set_cpus):
    save_params(model_params(False), tmp_path / "model.txt")
    (tmp_path / "data.csv").write_bytes(dataset_bytes(counts(30, 4)))

    monkeypatch.setattr(explain_module, "_ROW_BLOCK", 7)
    monkeypatch.setattr(cli, "_explain_whole_file", _no_whole_file)
    set_cpus(2)
    argv = ["explain", str(tmp_path / "model.txt"), str(tmp_path / "data.csv"),
            "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == EXIT_OK
    assert sorted(os.listdir(tmp_path / "out")) == sorted(REPORT_FILES)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "layout",
    [{}, {"relative": True}, {"exponent": True}, {"relative": True, "final_newline": False},
     {"faults": [(5, "huge")]}, {"faults": [(5, "huge_with_zero")]}],
    ids=["counts-with-zeros", "relative", "exponent", "relative-unterminated", "huge-row-sum",
         "huge-row-sum-with-zero"],
)
def test_good_files_are_read_by_the_block_reader(tmp_path, monkeypatch, layout, cpus):
    # Every third id is non-ASCII. A silent fallback would give the same bytes, slower.
    # A row sum that overflows warns nowhere, so its block does not decline.
    monkeypatch.setattr(cli, "_explain_whole_file", _no_whole_file)
    data = dataset_bytes(counts(30, 4), **layout)
    assert assert_matches_reference(tmp_path, data, False, 7, cpus)[0][0] == EXIT_OK


def test_the_byte_writer_writes_csv_rows():
    rng = np.random.default_rng(12)
    n = 7
    z, w = rng.normal(0.0, 3.0, (n, 2)), rng.uniform(0.0, 1.0, (n, 2))
    z[0, 0], w[1, 1], z[2, 1] = 0.0, 3e-7, -1e300  # zero, e-notation, written by %
    products, prediction = w * z, rng.uniform(0.0, 1.0, n)
    ids = ["S0", "\u00e91", "a b", "x", "", "#7", "\u0438\u0434" * 30]
    positive = np.array([True, False, True, False, False, True, True])
    decisions = [DECISION_POSITIVE if p else DECISION_NEGATIVE for p in positive]

    def table(ids):
        return "".join(
            csv_row([sid, *z[i], *w[i], *products[i], prediction[i], decisions[i]])
            for i, sid in enumerate(ids)
        )

    batch = ExplanationBatch(tuple(ids), z, w, products, prediction, np.array(decisions))
    id_cells = text_cells([sid.encode() for sid in ids])
    decision_cells = text_cells([d.encode() for d in decisions])
    assert _explanation_lines(batch, id_cells, decision_cells) == table(ids).encode()
    # The whole-file path writes the batch's ids and decisions, a long id or a NUL included.
    for odd_id in ("x\x00y", "x" * (_TEXT_CELL_MAX + 1)):
        odd = (*ids[:3], odd_id, *ids[4:])
        batch = ExplanationBatch(odd, z, w, products, prediction, np.array(decisions))
        assert render_report(batch, []).explanations_csv.endswith(table(odd))
    # A block's part of a model's rows is the whole-batch reference, bit for bit.
    params, X = model_params(False), counts(n, 5) + 1.0
    part = explain_module._part(params, X, id_cells)
    batch = explain_batch(params, X, ids)
    assert 0 < part.positives == explain_module._positives(batch) < n
    assert part.lines == explain_module._explanations_table(batch).split(b"\n", 1)[1]
    moments = explain_module._correlation_moments(batch.w, batch.z)
    assert part.moments.count == moments.count == n
    for name in ("mean", "cross", "low", "high"):
        assert getattr(part.moments, name).tobytes() == getattr(moments, name).tobytes()


def test_a_rejected_file_leaves_an_earlier_report_as_it_was(tmp_path):
    save_params(model_params(False), tmp_path / "model.txt")
    out = tmp_path / "out"
    (tmp_path / "good.csv").write_bytes(dataset_bytes(counts(12, 5)))
    (tmp_path / "bad.csv").write_bytes(dataset_bytes(counts(12, 6), [(10, "label")]))
    explain = ["explain", str(tmp_path / "model.txt")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*explain, str(tmp_path / "good.csv"), "--out", str(out)]) == EXIT_OK
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    with mock.patch.object(explain_module, "_ROW_BLOCK", 2), \
            contextlib.redirect_stderr(io.StringIO()):
        assert run([*explain, str(tmp_path / "bad.csv"), "--out", str(out)]) == EXIT_USAGE
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


# Sums to 1 within 1e-9, but not once its zero is imputed.
DRIFTING_ROW = ["0.0", "0.11638940957447788", "0.10661105421141165", "0.7769995372141104"]


@pytest.mark.parametrize("absolute_row", [None, 1], ids=["relative-file", "absolute-file"])
def test_the_kind_is_decided_over_all_rows(tmp_path, absolute_row):
    # Relative or not, the file is explained: imputation keeps the kind the reader decided.
    values = counts(9, 7)
    lines = [b"sample_id,f1,f2,f3,f4,label"]
    for i, row in enumerate(values):
        numbers = row.tolist() if i == absolute_row else (row / row.sum()).tolist()
        lines.append(",".join([f"S{i}", *map(repr, numbers), "0"]).encode())
    lines.append(",".join(["drift", *DRIFTING_ROW, "1"]).encode())
    data = b"\n".join(lines) + b"\n"
    (code, _, stderr, _), _ = assert_matches_reference(tmp_path, data, False, 2, 2)
    assert (code, stderr) == (EXIT_OK, "")
    matrix, _ = load_dataset(tmp_path / "data.csv")
    assert matrix.kind == ("relative" if absolute_row is None else "absolute")


def block_moments(W, Z, block: int):
    """The moments of [W | Z] as explain's blocks of ``block`` rows give them, merged in order."""
    moments = None
    for start in range(0, W.shape[0], block):
        # Each block's own arrays, as a block task makes them.
        rows = np.hstack([W[start : start + block].copy(), Z[start : start + block].copy()])
        part = explain_module._Moments.of(rows)
        moments = part if moments is None else moments.merge(part)
    return moments


@pytest.mark.parametrize("block", [4096, 2, 7, 40])
def test_merged_block_moments_give_the_whole_batch_correlations(block, monkeypatch):
    monkeypatch.setattr(explain_module, "_ROW_BLOCK", block)
    rng = np.random.default_rng(block)
    n = 2 * block + 3  # a short last block
    z = rng.normal(2.0, 3.0, (n, 3))
    w = 0.4 * z[:, ::-1] + rng.normal(0.0, 1.0, (n, 3))
    pearson, canonical = explain_module._correlations(block_moments(w, z, block), 3)
    whole_pearson, whole_canonical = weight_contrast_correlation(w, z)
    assert pearson.tobytes() == whole_pearson.tobytes()
    assert canonical.tobytes() == whole_canonical.tobytes()


@pytest.mark.parametrize("block", [4096, 2, 7, 40])
def test_constant_columns_are_the_whole_batch_constant_columns(block, monkeypatch):
    monkeypatch.setattr(explain_module, "_ROW_BLOCK", block)
    n = 3 * block + 5
    rng = np.random.default_rng(block)
    z = rng.normal(size=(n, 2))
    w = rng.normal(size=(n, 2))
    w[:, 0] = np.arange(n) // block  # constant within every block, not across them
    w[:, 1] = 0.7  # constant across them; its merged spread need not be 0
    assert [np.ptp(w[:, j]) == 0 for j in range(2)] == [False, True]
    moments = block_moments(w, z, block)
    with pytest.warns(RuntimeWarning, match="constant") as seen:
        pearson, _ = explain_module._correlations(moments, 2)
    assert len(seen) == 1
    assert np.all(pearson[0] != 0.0) and np.all(pearson[1] == 0.0)


def test_the_number_tables_are_built_before_the_map_starts(tmp_path, monkeypatch, set_cpus):
    # Forked workers inherit the tables: none builds its own in its first block.
    save_params(model_params(False), tmp_path / "model.txt")
    (tmp_path / "data.csv").write_bytes(dataset_bytes(counts(30, 4)))
    monkeypatch.setattr(explain_module, "_ROW_BLOCK", 7)
    monkeypatch.setattr(cli, "_explain_whole_file", _no_whole_file)
    set_cpus(2)
    tables_built = []

    def checking_map(task, n_tasks):
        tables_built.append(_formats._number_tables.cache_info().currsize)
        return cli_map(task, n_tasks)

    cli_map = cli.ordered_fork_map
    monkeypatch.setattr(cli, "ordered_fork_map", checking_map)
    _formats._number_tables.cache_clear()
    argv = ["explain", str(tmp_path / "model.txt"), str(tmp_path / "data.csv"),
            "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == EXIT_OK
    assert tables_built == [1]


def test_a_block_task_returns_no_per_row_array(tmp_path, monkeypatch, set_cpus):
    save_params(model_params(False), tmp_path / "model.txt")
    (tmp_path / "data.csv").write_bytes(dataset_bytes(counts(30, 4)))
    monkeypatch.setattr(explain_module, "_ROW_BLOCK", 7)
    monkeypatch.setattr(cli, "_explain_whole_file", _no_whole_file)
    set_cpus(2)
    records = []

    def recording_map(task, n_tasks):
        for record in cli_map(task, n_tasks):
            records.append(record)
            yield record

    cli_map = cli.ordered_fork_map
    monkeypatch.setattr(cli, "ordered_fork_map", recording_map)
    argv = ["explain", str(tmp_path / "model.txt"), str(tmp_path / "data.csv"),
            "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(argv) == EXIT_OK
    assert [record.moments.count for record in records] == [7, 7, 7, 7, 2]
    columns = 2 * 2  # [W | Z] of a 2-bottleneck model
    for record in records:
        fields = [getattr(record, f.name) for f in dataclasses.fields(record)]
        fields += [getattr(record.moments, f.name) for f in dataclasses.fields(record.moments)]
        arrays = [field for field in fields if isinstance(field, np.ndarray)]
        assert len(arrays) == 4
        assert {array.shape for array in arrays} == {(columns,), (columns, columns)}
