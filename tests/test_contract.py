"""The input contract: every public entry point rejects the same malformed
inputs with ValueError, and the text parsers raise nothing but ValueError."""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deepcoda import (
    CompositionMatrix,
    TrainConfig,
    auc,
    closure,
    clr,
    cv_select_lambda,
    forward,
    init_params,
    lasso_logistic_fit,
    log_contrast,
    loss_and_gradients,
    params_from_text,
    params_to_text,
    predict_proba,
    train,
)
from deepcoda.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    parse_train_config,
    read_dataset_csv,
    run,
)
from deepcoda.model import HEADS, PARAM_LAYOUT

X_OK = np.random.default_rng(0).uniform(0.5, 2.0, size=(8, 3))
Y_OK = np.array([0, 1] * 4)
PARAMS = init_params(3, 2, seed=0)


def _set_first(value):
    def mutate(x, y):
        x = x.copy()
        x[0, 0] = value
        return x, y

    return mutate


def _relabel(labels):
    return lambda x, y: (x, labels)


def _penalty(value):
    return lambda x, y: (x, y, value)


# Each case breaks one rule; the entry points below list the rules they enforce.
# A case returns the arguments (x, y), plus a penalty weight for the "penalty" rule.
CASES = {
    "nan": ("finite", _set_first(np.nan)),
    "inf": ("finite", _set_first(np.inf)),
    "wrong_ndim": ("ndim", lambda x, y: (x[None], y)),
    "wrong_columns": ("columns", lambda x, y: (x[:, :-1], y)),
    "zero": ("zero", _set_first(0.0)),
    "negative": ("negative", _set_first(-1.0)),
    "label_2": ("labels", _relabel(np.array([2] + [0, 1] * 3 + [1]))),
    "label_short": ("labels", _relabel(Y_OK[:-1])),
    "single_class": ("both_classes", _relabel(np.zeros(8, dtype=int))),
    "penalty_nan": ("penalty", _penalty(np.nan)),
    "penalty_inf": ("penalty", _penalty(np.inf)),
}

ARRAY_RULES = {"finite", "ndim", "negative"}
ENTRY_POINTS = {
    "forward": (lambda x, y: forward(PARAMS, x[0]), ARRAY_RULES | {"columns", "zero"}),
    "predict_proba": (lambda x, y: predict_proba(PARAMS, x), ARRAY_RULES | {"columns", "zero"}),
    "loss_and_gradients": (
        lambda x, y, lam=1.0: loss_and_gradients(PARAMS, x, y, lambda_c=lam),
        ARRAY_RULES | {"columns", "zero", "labels", "penalty"},
    ),
    "train": (
        lambda x, y, lam=1.0: train(x, y, TrainConfig(n_bottlenecks=2, epochs=2, lambda_c=lam)),
        ARRAY_RULES | {"zero", "labels", "both_classes", "penalty"},
    ),
    "lasso_logistic_fit": (
        lambda x, y, lam=0.01: lasso_logistic_fit(x, y, lam),
        {"finite", "ndim", "labels", "both_classes", "penalty"},
    ),
    "cv_select_lambda": (
        lambda x, y, lam=0.1: cv_select_lambda(x, y, n_folds=2, lambda_grid=[0.01, lam]),
        {"finite", "ndim", "labels", "both_classes", "penalty"},
    ),
    "auc": (lambda x, y: auc(x[..., 0], y), {"finite", "ndim", "labels", "both_classes"}),
    "clr": (lambda x, y: clr(x), ARRAY_RULES | {"zero"}),
    "log_contrast": (
        lambda x, y: log_contrast(x[0], [1.0, -1.0, 0.0]),
        ARRAY_RULES | {"columns", "zero"},
    ),
    "closure": (lambda x, y: closure(x), ARRAY_RULES),
    "CompositionMatrix": (
        lambda x, y: CompositionMatrix(x, [str(i) for i in range(len(x))], "abc", "absolute"),
        ARRAY_RULES | {"columns"},
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_valid_inputs_are_accepted(entry):
    ENTRY_POINTS[entry][0](X_OK, Y_OK)


@pytest.mark.parametrize(
    "entry,case",
    [
        (entry, case)
        for entry, (_, rules) in sorted(ENTRY_POINTS.items())
        for case, (rule, _) in CASES.items()
        if rule in rules
    ],
)
def test_malformed_inputs_raise_value_error(entry, case):
    call = ENTRY_POINTS[entry][0]
    args = CASES[case][1](X_OK, Y_OK)
    with pytest.raises(ValueError):
        call(*args)


# ---------------------------------------------------------------------------
# Fuzzing the text parsers

_CONFIG_VALUES = {
    float: st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats()).map(repr),
    int: st.integers(-2, 3000).map(str),
    str: st.sampled_from(HEADS + ("other",)),
}


@st.composite
def config_texts(draw):
    """Config lines over real keys with mostly well-typed values, plus junk."""
    keys = draw(st.lists(st.sampled_from(list(TrainConfig.__dataclass_fields__)), max_size=4))
    typed = [_CONFIG_VALUES[type(getattr(TrainConfig(), key))] for key in keys]
    lines = [
        f"{key} = " + draw(st.one_of(values, st.text(max_size=8)))
        for key, values in zip(keys, typed)
    ]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=20)))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(config_texts())
def test_parse_train_config_raises_only_value_error(text):
    try:
        cfg = parse_train_config(text)
    except ValueError:
        return
    assert isinstance(cfg, TrainConfig)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_BAD_TOKENS = st.sampled_from(["nan", "inf", "-inf", "x", "1e999", "0x1", "--1"])
_DAMAGE = ("format", "dims_count", "dims_value", "head", "value_count", "token", "garbage", "drop")


@st.composite
def model_texts(draw):
    """A well-formed model file with small dims, then zero to two faults."""
    dims = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    head = draw(st.sampled_from(HEADS))
    damage = draw(st.lists(st.sampled_from(_DAMAGE), max_size=2))
    sizes = dict(zip("DBH", dims))
    tensors = {
        name: draw(st.lists(_FLOATS, min_size=n, max_size=n))
        for name, axes, _ in PARAM_LAYOUT
        for n in [math.prod(sizes[axis] for axis in axes)]
    }
    if "dims_count" in damage:
        dims = dims[: draw(st.integers(0, 2))] + draw(st.lists(st.integers(1, 3), max_size=1))
    if "dims_value" in damage and dims:
        dims[draw(st.integers(0, len(dims) - 1))] = draw(st.integers(-2, 4))
    name = draw(st.sampled_from([name for name, _, _ in PARAM_LAYOUT]))
    if "value_count" in damage:
        tensors[name] = tensors[name][1:] if draw(st.booleans()) else tensors[name] + ["0.5"]
    if "token" in damage and tensors[name]:
        tensors[name][0] = draw(_BAD_TOKENS)
    lines = [
        "format = deepcoda-params-v" + ("0" if "format" in damage else "1"),
        "dims = " + " ".join(map(str, dims)),
        "head = " + ("other" if "head" in damage else head),
    ] + [f"{key} = " + " ".join(tokens) for key, tokens in tensors.items()]
    if "drop" in damage:
        del lines[draw(st.integers(0, len(lines) - 1))]
    if "garbage" in damage:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=20)))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(model_texts())
def test_params_from_text_raises_only_value_error(text):
    try:
        p = params_from_text(text)
    except ValueError:
        return
    assert params_from_text(params_to_text(p)).flat.tobytes() == p.flat.tobytes()


_ODD_CELLS = st.one_of(
    st.sampled_from(["-1", "nan", "inf", "1e999", "", "x", '"', " 1", "0x1", "2"]),
    st.text(max_size=4),
)


@st.composite
def dataset_bytes(draw, max_rows=4, odd_cell_one_in=10):
    """Raw bytes, or a mostly well-formed dataset file with a few faults."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))

    def cell(good):
        return draw(_ODD_CELLS) if draw(st.integers(1, odd_cell_one_in)) == 1 else draw(good)

    n_features = draw(st.integers(2, 3))
    rows = [["sample_id", *(f"f{j}" for j in range(n_features)), "label"]]
    for _ in range(draw(st.integers(0, max_rows))):
        features = [cell(st.floats(0.0, 1e3).map(repr)) for _ in range(n_features)]
        rows.append([draw(st.text(max_size=4)), *features, cell(st.sampled_from("01"))])
    if draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        del row[draw(st.integers(0, len(row) - 1))]
    data = "\n".join(",".join(row) for row in rows).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(data=dataset_bytes())
def test_read_dataset_csv_raises_only_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(data)
    try:
        sample_ids, names, values, labels = read_dataset_csv(path)
    except ValueError:
        return
    assert values.shape == (len(sample_ids), len(names)) and labels.shape == (len(sample_ids),)


def reference_read_dataset_csv(path):
    """The reader before streaming: the whole file as rows first, then checks."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    header = rows[0]
    if len(header) < 4:
        raise ValueError(f"{path}: need sample_id, at least two features, and label")
    if header[0] != "sample_id" or header[-1] != "label":
        raise ValueError(f"{path}: header must start with sample_id and end with label")
    feature_names = header[1:-1]
    sample_ids, values, labels = [], [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}:{line_no}: expected {len(header)} fields")
        sample_ids.append(row[0])
        try:
            feats = [float(tok) for tok in row[1:-1]]
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: non-numeric feature value") from exc
        if not all(math.isfinite(v) for v in feats):
            raise ValueError(f"{path}:{line_no}: non-finite feature value")
        if any(v < 0 for v in feats):
            raise ValueError(f"{path}:{line_no}: negative abundance")
        if row[-1] not in ("0", "1"):
            raise ValueError(f"{path}:{line_no}: label must be 0 or 1")
        values.append(feats)
        labels.append(int(row[-1]))
    if not values:
        raise ValueError(f"{path}: no data rows")
    return sample_ids, feature_names, np.array(values), np.array(labels, dtype=int)


_FAULTY_CELLS = st.sampled_from(
    ["-1", "-0.0", "nan", "-inf", "1e999", "1e308", "1.7976931348623157e308", "5e-324",
     "", "x", '"', " 1", "1_0", "2", "01", "\r", "\xff"]
)
_OVERSIZED_FIELD = "9" * (csv.field_size_limit() + 1)


@st.composite
def faulty_dataset_bytes(draw):
    """A dataset file with any number of faults of every kind, often several."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([b"", b"sample_id,f0,f1,label\n", b"sample_id,f0,f1,label"]))
    n_features = draw(st.integers(2, 3))
    header = ["sample_id", *(f"f{j}" for j in range(n_features)), "label"]
    if draw(st.integers(0, 9)) == 0:
        header[draw(st.sampled_from([0, -1]))] = "id"
    rows = [header]
    fault_one_in = draw(st.sampled_from([2, 5, 50]))
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(st.text(max_size=3)), *(repr(draw(st.floats(0.0, 1e308))) for _ in header[2:])]
        row.append(draw(st.sampled_from("01")))
        for j in range(len(row)):
            if draw(st.integers(1, fault_one_in)) == 1:
                row[j] = draw(_FAULTY_CELLS)
        if draw(st.integers(1, fault_one_in * 3)) == 1:
            del row[draw(st.integers(0, len(row) - 1))]
        if draw(st.integers(1, fault_one_in * 10)) == 1:
            row[-1] = _OVERSIZED_FIELD
        rows.append(row)
    text = "\n".join(",".join(row) for row in rows)
    encoding = draw(st.sampled_from(["utf-8", "utf-8", "latin-1"]))
    return text.encode(encoding, errors="replace")


@settings(max_examples=500, deadline=None)
@given(data=st.one_of(faulty_dataset_bytes(), dataset_bytes()))
@example(data=b"sample_id,a,b,label\ns0,1e308,1e308,1\n")  # finite values, overflowing sum
@example(data=b"sample_id,a,b,label\ns0,-1,nan,1\ns1,1,1,2\n")  # two faults: the first wins
@example(data=b"sample_id,a,label\ns0,1,2\ns1," + _OVERSIZED_FIELD.encode() + b",1,1\n")
# A fault, then past the first 8 KiB read an undecodable byte: the decoding error wins.
@example(data=b"sample_id,a,b,label\ns0,x,1,1\n" + b"s1,1,1,1\n" * 2000 + b"s2,1,1,\xff\n")
# An undecodable byte past the first 8 KiB, then an oversized field: the decoding error wins.
@example(
    data=b"sample_id,a,b,label\n" + b"s1,1,1,1\n" * 2000 + b"s2,\xff,1,1\n" * 2000
    + b"s3,1,1," + _OVERSIZED_FIELD.encode() + b"\n"
)
def test_read_dataset_csv_matches_the_whole_file_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("diff") / "data.csv"
    path.write_bytes(data)
    try:
        expected = reference_read_dataset_csv(path)
    except ValueError as exc:
        with pytest.raises(type(exc)) as raised:
            read_dataset_csv(path)
        assert str(raised.value) == str(exc)
        return
    ids, names, values, labels = read_dataset_csv(path)
    assert (ids, names) == expected[:2]
    assert values.dtype == expected[2].dtype and values.shape == expected[2].shape
    assert values.tobytes() == expected[2].tobytes()
    assert labels.dtype == expected[3].dtype and np.array_equal(labels, expected[3])


@settings(max_examples=300, deadline=None)
@given(
    # Enough rows, and few enough faults, that many files train.
    data=dataset_bytes(max_rows=12, odd_cell_one_in=200),
    bottlenecks=st.integers(1, 3),
    head=st.sampled_from(HEADS),
    fraction=st.sampled_from(["0.5", "0.01", "0.99"]),
)
def test_run_exits_only_0_2_or_3(tmp_path_factory, data, bottlenecks, head, fraction):
    work = tmp_path_factory.mktemp("run")
    (work / "data.csv").write_bytes(data)
    (work / "train.cfg").write_text(f"epochs = 2\nn_bottlenecks = {bottlenecks}\nhead = {head}\n")
    paths = {name: str(work / name) for name in ("data.csv", "train.cfg", "model.txt", "report")}
    trained = run(
        ["train", paths["data.csv"], "--config", paths["train.cfg"], "--out", paths["model.txt"],
         "--delta-fraction", fraction]
    )
    assert trained in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC)
    if trained == EXIT_OK:
        explained = run(
            ["explain", paths["model.txt"], paths["data.csv"], "--out", paths["report"],
             "--delta-fraction", fraction]
        )
        assert explained in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC)
