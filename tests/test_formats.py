"""The shared text formats: how a CSV field is written, and the ``key = value`` readers."""

import re

import numpy as np
import pytest

from deepcoda import DeepCodaParams, params_from_text, params_to_text
from deepcoda._formats import NUMBER, csv_row
from deepcoda.cli import parse_train_config


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
