"""The shared text formats: numbers and CSV fields as written, and the ``key = value`` readers."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deepcoda import DeepCodaParams, load_params, params_from_text, params_to_text
from deepcoda._forkmap import ordered_fork_map
from deepcoda import _formats
from deepcoda._formats import NUMBER, cell_lines, csv_row, text_cells
from deepcoda.cli import EXIT_USAGE, parse_train_config, run


@pytest.mark.parametrize(
    "field,text",
    [
        (0.1, "0.10000000000000001"),
        (np.float64(0.1), "0.10000000000000001"),
        (-0.0, "-0"),
        (7, "7"),
        (np.int64(7), "7"),
        ('say "a,b"', '"say ""a,b"""'),
        ("", ""),
    ],
    ids=["float", "float64", "negative-zero", "int", "int64", "needs-quotes", "empty"],
)
def test_csv_row_writes_each_field_type(field, text):
    assert csv_row(["x", field]) == f"x,{text}\n"


@pytest.mark.parametrize("value", [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, -2.5e-17])
def test_number_reads_back_as_the_same_double(value):
    assert float(csv_row([value])) == value
    assert float(NUMBER % value) == value


MODEL_TEXT = params_to_text(DeepCodaParams.zeros((2, 1, 1)))
CONFIG_TEXT = "seed = 3\nepochs = 5\nhead = linear\n"

# (reader, a canonical text of what it read, a valid input, its error prefix)
READERS = [
    pytest.param(params_from_text, params_to_text, MODEL_TEXT, "line", id="model"),
    pytest.param(parse_train_config, repr, CONFIG_TEXT, "config line", id="config"),
]


@pytest.mark.parametrize("read,canonical,text,where", READERS)
def test_reader_ignores_a_trailing_comment(read, canonical, text, where):
    commented = "".join(f"{line}  # note\n" for line in text.splitlines())
    assert canonical(read(commented)) == canonical(read(text))


@pytest.mark.parametrize("read,canonical,text,where", READERS)
def test_reader_rejects_a_line_without_equals(read, canonical, text, where):
    n = len(text.splitlines()) + 1
    with pytest.raises(ValueError, match=f"^{where} {n}: expected 'key = value'"):
        read(text + "no equals sign here\n")


@pytest.mark.parametrize("read,canonical,text,where", READERS)
def test_reader_rejects_a_duplicate_key(read, canonical, text, where):
    first = text.splitlines()[0]
    key = first.split("=")[0].strip()
    n = len(text.splitlines()) + 1
    with pytest.raises(ValueError, match="^" + re.escape(f"{where} {n}: duplicate key {key!r}")):
        read(f"{text}{first}\n")


# A model file's fault: (its bytes, the error after the file's path)
MODEL_FILE_FAULTS = [
    pytest.param(
        MODEL_TEXT.replace("head", "\udcffhead").encode("utf-8", "surrogateescape"),
        f":3: 'utf-8' codec can't decode byte 0xff in position {MODEL_TEXT.index('head')}: "
        "invalid start byte",
        id="bad-byte",
    ),
    pytest.param(
        (MODEL_TEXT + "no equals sign here\n").encode(),
        f": line {len(MODEL_TEXT.splitlines()) + 1}: expected 'key = value'",
        id="malformed-line",
    ),
]


@pytest.mark.parametrize("data,error", MODEL_FILE_FAULTS)
def test_load_params_and_explain_report_a_model_file_alike(tmp_path, capsys, data, error):
    model = tmp_path / "model.txt"
    model.write_bytes(data)
    with pytest.raises(ValueError) as raised:
        load_params(model)
    assert str(raised.value) == f"{model}{error}"
    argv = ["explain", str(model), str(tmp_path / "data.csv"), "--out", str(tmp_path / "report")]
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {model}{error}\n"


def number_rows(values) -> list[str]:
    """Each row of ``values`` as ``cell_lines`` writes its numbers, between empty text fields."""
    values = np.asarray(values, dtype=float)
    empty = np.zeros((values.shape[0], 0), dtype=np.uint8)
    lines = cell_lines(empty, values, empty).decode("ascii").split("\n")[:-1]
    assert all(line[0] == line[-1] == "," for line in lines)
    return [line[1:-1] for line in lines]


def _percent_rows(values: np.ndarray) -> list[str]:
    """``",".join(NUMBER % x for x in row)`` for each row, as one ``%`` per row."""
    row_format = ",".join([NUMBER] * values.shape[1])
    return [row_format % tuple(row) for row in values.tolist()]


def _mismatches(values, width=100) -> list:
    """(x, number_rows' text) for each value where number_rows differs from ``NUMBER % x``."""
    flat = np.asarray(values, dtype=float).ravel()
    flat = np.concatenate([flat, np.ones(-flat.size % width)])
    wrong = []
    for start in range(0, flat.size, 50_000):  # chunks that stay in the CPU cache
        chunk = flat[start : start + 50_000].reshape(-1, width)
        for row, got, want in zip(chunk.tolist(), number_rows(chunk), _percent_rows(chunk)):
            if got != want:
                wrong += [(x, g) for x, g in zip(row, got.split(",")) if NUMBER % x != g]
    return wrong


def _powers_of_ten_and_neighbours():
    exact = np.array([float(f"1e{k}") for k in range(-325, 309)])
    return np.concatenate([exact, np.nextafter(exact, 0), np.nextafter(exact, np.inf)])


def _value_set(case: int) -> np.ndarray:
    """Float64 values of one kind; cases 0-19 hold more than 10 million."""
    rng = np.random.default_rng([20261018, case])
    kind = case % 5
    if kind == 0:  # random bit patterns: signs, subnormals, inf and nan included
        return rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(float)
    if kind == 1:  # every binade, uniformly
        scale = rng.integers(-1074, 1024, 100_000)
        return np.ldexp(rng.uniform(-2.0, 2.0, scale.size), scale)
    if kind == 2:  # the binades the exact path covers, and those around its ends
        scale = rng.integers(-45, 60, 1_300_000)
        return np.ldexp(rng.uniform(-2.0, 2.0, scale.size), scale)
    if kind == 3:  # few significant digits, whose trailing zeros %g drops
        digits = rng.integers(1, 10**6, 250_000) * 10.0 ** rng.integers(-16, 18, 250_000)
        return np.concatenate([digits, -digits])
    # Integers and halves near 2**52, 2**53 and 1e17, ties at the 17th digit,
    # and powers of ten with their neighbours.
    offset = case * 100_000.0
    return np.concatenate([
        2.0**52 + np.arange(-offset - 50_000, -offset + 50_000, 0.5),
        2.0**53 + np.arange(offset - 50_000, offset + 50_000, 1.0),
        1e17 + np.arange(offset - 800_000, offset + 800_000, 16.0),
        1e15 + offset + np.arange(0.0, 25_000.0, 0.25),
        _powers_of_ten_and_neighbours(),
    ])


class TestNumberRows:
    """cell_lines writes ``NUMBER %`` on whole arrays: byte-identical on every float64."""

    def test_matches_percent_on_ten_million_values(self):
        # Forked workers share the cases, one per usable CPU.
        def check(case):
            values = _value_set(case)
            return values.size, _mismatches(values)

        results = list(ordered_fork_map(check, 20))
        assert sum(n for n, _ in results) >= 10_000_000
        assert [wrong for _, wrong in results if wrong] == []

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         np.inf, -np.inf, np.nan, -np.nan, 1e-11, 9.999999999999999e-12, 2.0**52, 2.0**52 - 0.5,
         9.9999999999999995e-5, 1e-4, 1e-5, 0.5, 1.0, 1e15 + 0.25, 123456789012345.67],
    )
    def test_matches_percent_on_edge_values(self, value):
        assert number_rows(np.array([[value, -value]])) == [f"{NUMBER % value},{NUMBER % -value}"]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=12), st.integers(1, 4))
    def test_matches_percent_on_any_floats(self, values, n_rows):
        grid = np.array(values * n_rows).reshape(n_rows, len(values))
        assert number_rows(grid) == _percent_rows(grid)

    def test_rows_across_tiles_match_percent(self):
        # explain's 16 numbers a row, over three tiles and a ragged fourth.
        tile = _formats._TILE_CELLS // 16
        n = 3 * tile + 37
        rng = np.random.default_rng(20261019)
        values = rng.normal(0.0, 10.0, (n, 16)) * 10.0 ** rng.integers(-8, 8, (n, 16))
        ids = [f"S{i}".encode() for i in range(n)]
        decisions = [b"unhealthy" if i % 3 else b"healthy" for i in range(n)]
        got = cell_lines(text_cells(ids), values, text_cells(decisions))
        rows = _percent_rows(values)
        assert got == b"".join(b"%s,%s,%s\n" % (sid, row.encode(), decision)
                               for sid, row, decision in zip(ids, rows, decisions))

    def test_rows_without_columns_are_empty(self):
        assert number_rows(np.empty((3, 0))) == ["", "", ""]
        assert number_rows(np.empty((0, 4))) == []


def _reference_number_tables():
    """``_formats._number_tables`` as it was first written: exact fractions and a loop per key."""
    _MIN_X, _MAX_X, _CELL, _U64 = _formats._MIN_X, _formats._MAX_X, _formats._CELL, np.uint64

    def ceil_power_of_ten(exponent):
        power = Fraction(10) ** exponent
        nearest = float(power)
        return nearest if Fraction(nearest) >= power else math.nextafter(nearest, math.inf)

    ceil10 = np.array([ceil_power_of_ten(x) for x in range(_MIN_X, _MAX_X + 2)])
    pow5 = np.array([5**k for k in range(16 - _MIN_X + 1)], dtype=_U64)
    chunk = np.arange(10_000)
    digits = np.zeros((10_000, 8), dtype=np.uint8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        digits[:, 2 * j] = chunk // scale % 10 + ord("0")
    trailing = np.zeros(10_000, dtype=np.int64)
    for scale in (10, 100, 1000, 10_000):
        trailing += chunk % scale == 0
    n_keys = (_MAX_X - _MIN_X + 1) * 17
    literals = np.zeros((n_keys, _CELL), dtype=np.uint8)
    shown = np.full((n_keys, _CELL), 0xFF, dtype=np.uint8)
    for exponent in range(_MIN_X, _MAX_X + 1):
        for n_digits in range(1, 18):
            key = (exponent - _MIN_X) * 17 + n_digits - 1
            cell = literals[key]
            if exponent >= 0:
                kept = max(n_digits, exponent + 1)
                if n_digits > exponent + 1:
                    cell[7 + 2 * exponent] = ord(".")
            elif exponent >= -4:
                kept = n_digits
                cell[1 : 2 - exponent] = np.frombuffer(b"0." + b"0" * (-exponent - 1), np.uint8)
            else:
                kept = n_digits
                if n_digits > 1:
                    cell[7] = ord(".")
                cell[40:44] = np.frombuffer(b"e-%02d" % -exponent, np.uint8)
            shown[key, 6 + 2 * kept : 40 : 2] = 0
    return (ceil10, pow5, digits.view(_U64).ravel(), trailing, literals.view(_U64),
            shown.view(_U64))


def test_number_tables_match_the_reference():
    tables = _formats._number_tables()
    reference = _reference_number_tables()
    assert len(tables) == len(reference)
    for table, expected in zip(tables, reference):
        assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
        assert table.tobytes() == expected.tobytes()
        assert not table.flags.writeable
