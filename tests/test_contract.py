"""The input contract: every public entry point rejects the same malformed
inputs with ValueError, and the text parsers raise nothing but ValueError."""

import csv
import inspect
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import deepcoda
from deepcoda import (
    KINDS,
    TRANSFORMS,
    CompositionMatrix,
    ContrastMembership,
    DeepCodaParams,
    LabeledDataset,
    LassoModel,
    Method,
    TrainConfig,
    apply_transform,
    auc,
    benchmark,
    closure,
    clr,
    contrast_membership,
    cv_select_lambda,
    forward,
    gen_cmyc,
    gen_toy,
    gradients,
    grid_search,
    init_params,
    lasso_logistic_fit,
    lasso_objective,
    log_contrast,
    loss,
    loss_and_gradients,
    make_deepcoda_method,
    make_lasso_method,
    params_from_text,
    params_to_text,
    predict_proba,
    replace_zeros,
    soft_threshold,
    split,
    train,
)
from deepcoda.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    load_dataset,
    parse_train_config,
    read_dataset_csv,
    run,
)
from deepcoda.model import HEADS, PARAM_FIELDS, PARAM_LAYOUT

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
# Integer and named-option arguments

_TOY = gen_toy(100, seed=3)
DATASET = LabeledDataset("toy100", _TOY.relative.values, _TOY.labels)
CONSTANT = Method("const", lambda x_train, y_train, x_test, seed: np.zeros(len(x_test)))


def _grid(**kwargs):
    """One cheap grid cell; ``kwargs`` replace its arguments."""
    return grid_search(
        DATASET,
        **{"B_grid": (1,), "lambda_s_grid": (0.1,), "heads": ("linear",), "n_splits": 1,
           "epochs": 2, **kwargs},
    )


# Every public argument that takes a count, a size, an index, a seed or a named
# option. (entry point, argument) -> (call passing v as that argument, rule,
# a valid value), where the rule is the least valid integer or the choices.
# The argument is the name the error message starts with, so grid_search's
# B_grid and heads elements appear as n_bottlenecks and head.
ARGUMENT_RULES = {
    ("CompositionMatrix", "kind"): (
        lambda v: CompositionMatrix(X_OK, list("abcdefgh"), "abc", v), KINDS, "absolute"
    ),
    ("gen_toy", "n_samples"): (lambda v: gen_toy(v, 0), 4, 4),
    ("gen_toy", "seed"): (lambda v: gen_toy(4, v), 0, 0),
    ("gen_cmyc", "n_samples"): (lambda v: gen_cmyc(v, 0), 4, 4),
    ("gen_cmyc", "seed"): (lambda v: gen_cmyc(4, v), 0, 0),
    ("DeepCodaParams", "head"): (
        lambda v: DeepCodaParams(*(PARAMS[name] for name in PARAM_FIELDS[:6]), head=v),
        HEADS,
        "linear",
    ),
    ("TrainConfig", "n_bottlenecks"): (lambda v: TrainConfig(n_bottlenecks=v), 1, 1),
    ("TrainConfig", "epochs"): (lambda v: TrainConfig(epochs=v), 1, 1),
    ("TrainConfig", "seed"): (lambda v: TrainConfig(seed=v), 0, 0),
    ("TrainConfig", "head"): (lambda v: TrainConfig(head=v), HEADS, "linear"),
    ("init_params", "n_features"): (lambda v: init_params(v, 2), 1, 1),
    ("init_params", "n_bottlenecks"): (lambda v: init_params(3, v), 1, 1),
    ("init_params", "hidden_units"): (lambda v: init_params(3, 2, hidden_units=v), 1, 1),
    ("init_params", "seed"): (lambda v: init_params(3, 2, seed=v), 0, 0),
    ("init_params", "head"): (lambda v: init_params(3, 2, head=v), HEADS, "linear"),
    ("split", "n"): (lambda v: split(v), 1, 10),
    ("split", "seed"): (lambda v: split(10, seed=v), 0, 0),
    ("benchmark", "n_splits"): (lambda v: benchmark(DATASET, [CONSTANT], n_splits=v), 1, 1),
    ("benchmark", "base_seed"): (
        lambda v: benchmark(DATASET, [CONSTANT], n_splits=1, base_seed=v), 0, 0
    ),
    ("grid_search", "n_bottlenecks"): (lambda v: _grid(B_grid=(v,)), 1, 1),
    ("grid_search", "head"): (lambda v: _grid(heads=(v,)), HEADS, "linear"),
    ("grid_search", "n_splits"): (lambda v: _grid(n_splits=v), 1, 1),
    ("grid_search", "base_seed"): (lambda v: _grid(base_seed=v), 0, 0),
    ("grid_search", "epochs"): (lambda v: _grid(epochs=v), 1, 1),
    ("make_deepcoda_method", "n_bottlenecks"): (
        lambda v: make_deepcoda_method(n_bottlenecks=v), 1, 1
    ),
    ("make_deepcoda_method", "head"): (lambda v: make_deepcoda_method(head=v), HEADS, "linear"),
    ("make_deepcoda_method", "epochs"): (lambda v: make_deepcoda_method(epochs=v), 1, 1),
    ("make_lasso_method", "transform"): (lambda v: make_lasso_method(v), TRANSFORMS, "clr"),
    ("make_lasso_method", "n_folds"): (lambda v: make_lasso_method(n_folds=v), 2, 2),
    ("LassoModel", "transform"): (
        lambda v: LassoModel(np.zeros(3), 0.0, 0.1, transform=v), TRANSFORMS, "clr"
    ),
    ("LassoModel", "n_iter"): (lambda v: LassoModel(np.zeros(3), 0.0, 0.1, n_iter=v), 0, 0),
    ("apply_transform", "transform"): (lambda v: apply_transform(X_OK, v), TRANSFORMS, "clr"),
    ("cv_select_lambda", "n_folds"): (
        lambda v: cv_select_lambda(X_OK, Y_OK, n_folds=v, lambda_grid=[0.1]), 2, 2
    ),
    ("cv_select_lambda", "seed"): (
        lambda v: cv_select_lambda(X_OK, Y_OK, n_folds=2, lambda_grid=[0.1], seed=v), 0, 0
    ),
    ("lasso_logistic_fit", "transform"): (
        lambda v: lasso_logistic_fit(X_OK, Y_OK, 0.1, transform=v), TRANSFORMS, "clr"
    ),
    ("lasso_logistic_fit", "max_iter"): (
        lambda v: lasso_logistic_fit(X_OK, Y_OK, 0.1, max_iter=v), 1, 1
    ),
    ("ContrastMembership", "bottleneck_index"): (
        lambda v: ContrastMembership(v, (), (), ()), 0, 0
    ),
    ("contrast_membership", "bottleneck_index"): (
        lambda v: contrast_membership(PARAMS, v), 0, 0
    ),
}


def _rejected_values(rule):
    """A float, a bool, and the value just below the minimum or a name not among the choices."""
    return [2.5, True, "other" if isinstance(rule, tuple) else rule - 1]


@pytest.mark.parametrize(
    "entry,argument,value",
    [
        (entry, argument, value)
        for (entry, argument), (_, rule, _) in ARGUMENT_RULES.items()
        for value in _rejected_values(rule)
    ],
)
def test_argument_rule_rejects(entry, argument, value):
    call = ARGUMENT_RULES[entry, argument][0]
    # Anchored: an error raised inside a benchmark split starts with the method instead.
    with pytest.raises(ValueError, match=rf"^{argument} must"):
        call(value)


@pytest.mark.parametrize("entry,argument", sorted(ARGUMENT_RULES))
def test_argument_rule_accepts_a_valid_value(entry, argument):
    call, _, valid = ARGUMENT_RULES[entry, argument]
    call(np.int64(valid) if isinstance(valid, int) else valid)


_RULED_ARGUMENT = re.compile(
    r"n_\w+|epochs|max_iter|hidden_units|bottleneck_index|seed|base_seed|head|transform|kind"
)


def _public_arguments():
    """(callable, argument) for every parameter of every public callable of the package."""
    for name in dir(deepcoda):
        obj = getattr(deepcoda, name)
        if name.startswith("_") or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        for argument in inspect.signature(obj).parameters:
            yield name, argument


def test_every_ruled_argument_is_in_the_table():
    """A new public count, seed or option argument cannot skip the rules above."""
    missing = [
        f"{name}({argument})"
        for name, argument in _public_arguments()
        if _RULED_ARGUMENT.fullmatch(argument) and (name, argument) not in ARGUMENT_RULES
    ]
    assert not missing


# ---------------------------------------------------------------------------
# Real-valued arguments

_NONNEGATIVE = (0.0, math.inf, False)
_POSITIVE = (0.0, math.inf, True)
_DECAY = (0.0, 1.0, False)
_FRACTION = (0.0, 1.0, True)
_REAL = (-math.inf, math.inf, True)
_ZEROS = CompositionMatrix([[1.0, 0.0], [1.0, 2.0]], ["s0", "s1"], ["a", "b"], "absolute")


def _load_dataset(delta_fraction):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text("sample_id,a,b,label\ns0,1,0,0\ns1,1,2,1\n", encoding="utf-8")
        return load_dataset(path, delta_fraction)


# Every public argument that takes a penalty, a rate, a fraction or a
# tolerance. (entry point, argument) -> (call passing v as that argument,
# (low, high, low_open), a valid value): the argument takes [low, high), or
# (low, high) when low_open is set. As above, the argument is the name the
# error message starts with, so grid_search's lambda_s_grid elements appear
# as lambda_s; a lambda_grid element is reported as lambda_grid.
REAL_RULES = {
    ("TrainConfig", "lambda_c"): (lambda v: TrainConfig(lambda_c=v), _NONNEGATIVE, 0.5),
    ("TrainConfig", "lambda_s"): (lambda v: TrainConfig(lambda_s=v), _NONNEGATIVE, 0.5),
    ("TrainConfig", "learning_rate"): (lambda v: TrainConfig(learning_rate=v), _POSITIVE, 0.5),
    ("TrainConfig", "adam_beta1"): (lambda v: TrainConfig(adam_beta1=v), _DECAY, 0.5),
    ("TrainConfig", "adam_beta2"): (lambda v: TrainConfig(adam_beta2=v), _DECAY, 0.5),
    ("TrainConfig", "adam_eps"): (lambda v: TrainConfig(adam_eps=v), _POSITIVE, 0.5),
    ("loss_and_gradients", "lambda_c"): (
        lambda v: loss_and_gradients(PARAMS, X_OK, Y_OK, lambda_c=v), _NONNEGATIVE, 0.5
    ),
    ("loss_and_gradients", "lambda_s"): (
        lambda v: loss_and_gradients(PARAMS, X_OK, Y_OK, lambda_s=v), _NONNEGATIVE, 0.5
    ),
    ("loss", "lambda_c"): (lambda v: loss(PARAMS, X_OK, Y_OK, lambda_c=v), _NONNEGATIVE, 0.5),
    ("loss", "lambda_s"): (lambda v: loss(PARAMS, X_OK, Y_OK, lambda_s=v), _NONNEGATIVE, 0.5),
    ("gradients", "lambda_c"): (
        lambda v: gradients(PARAMS, X_OK, Y_OK, lambda_c=v), _NONNEGATIVE, 0.5
    ),
    ("gradients", "lambda_s"): (
        lambda v: gradients(PARAMS, X_OK, Y_OK, lambda_s=v), _NONNEGATIVE, 0.5
    ),
    ("split", "test_fraction"): (lambda v: split(10, v), _FRACTION, 0.5),
    ("make_deepcoda_method", "lambda_c"): (
        lambda v: make_deepcoda_method(lambda_c=v), _NONNEGATIVE, 0.5
    ),
    ("make_deepcoda_method", "lambda_s"): (
        lambda v: make_deepcoda_method(lambda_s=v), _NONNEGATIVE, 0.5
    ),
    ("make_deepcoda_method", "learning_rate"): (
        lambda v: make_deepcoda_method(learning_rate=v), _POSITIVE, 0.5
    ),
    ("make_lasso_method", "lambda_grid"): (
        lambda v: make_lasso_method(lambda_grid=[v]), _NONNEGATIVE, 0.5
    ),
    ("grid_search", "lambda_s"): (lambda v: _grid(lambda_s_grid=(v,)), _NONNEGATIVE, 0.5),
    ("grid_search", "lambda_c"): (lambda v: _grid(lambda_c=v), _NONNEGATIVE, 0.5),
    ("grid_search", "learning_rate"): (lambda v: _grid(learning_rate=v), _POSITIVE, 0.5),
    ("LassoModel", "lam"): (lambda v: LassoModel(np.zeros(3), 0.0, v), _NONNEGATIVE, 0.5),
    ("lasso_objective", "lam"): (
        lambda v: lasso_objective(X_OK, Y_OK, np.zeros(3), 0.0, v), _NONNEGATIVE, 0.5
    ),
    ("lasso_logistic_fit", "lam"): (
        lambda v: lasso_logistic_fit(X_OK, Y_OK, v), _NONNEGATIVE, 0.5
    ),
    ("lasso_logistic_fit", "rel_tol"): (
        lambda v: lasso_logistic_fit(X_OK, Y_OK, 0.1, rel_tol=v), _NONNEGATIVE, 0.5
    ),
    ("cv_select_lambda", "lambda_grid"): (
        lambda v: cv_select_lambda(X_OK, Y_OK, n_folds=2, lambda_grid=[v]), _NONNEGATIVE, 0.5
    ),
    ("replace_zeros", "delta_fraction"): (lambda v: replace_zeros(_ZEROS, v), _FRACTION, 0.5),
    ("load_dataset", "delta_fraction"): (_load_dataset, _FRACTION, 0.5),
    ("contrast_membership", "magnitude_threshold"): (
        lambda v: contrast_membership(PARAMS, 0, magnitude_threshold=v), _NONNEGATIVE, 0.5
    ),
    ("soft_threshold", "threshold"): (
        lambda v: soft_threshold(np.array([1.0, -1.0]), v), _NONNEGATIVE, 0.5
    ),
    ("LassoModel", "intercept"): (lambda v: LassoModel(np.zeros(3), v, 0.1), _REAL, 0.5),
    ("lasso_objective", "intercept"): (
        lambda v: lasso_objective(X_OK, Y_OK, np.zeros(3), v, 0.1), _REAL, 0.5
    ),
}


def _rejected_reals(interval):
    """A string, a bool, NaN, infinity, and the nearest values outside the interval."""
    low, high, low_open = interval
    outside = [low if low_open else np.nextafter(low, -math.inf)]
    return ["0.5", True, math.nan, math.inf] + outside + ([high] if high < math.inf else [])


@pytest.mark.parametrize(
    "entry,argument,value",
    [
        (entry, argument, value)
        for (entry, argument), (_, interval, _) in REAL_RULES.items()
        for value in _rejected_reals(interval)
    ],
)
def test_real_rule_rejects(entry, argument, value):
    call = REAL_RULES[entry, argument][0]
    with pytest.raises(ValueError, match=rf"^{argument} must"):
        call(value)


@pytest.mark.parametrize("entry,argument", sorted(REAL_RULES))
def test_real_rule_accepts_a_valid_value(entry, argument):
    call, _, valid = REAL_RULES[entry, argument]
    call(np.float64(valid))


_REAL_ARGUMENT = re.compile(
    r"lambda_\w+|lam|learning_rate|adam_\w+|\w+_fraction|\w*threshold|rel_tol|intercept"
)


def test_every_real_argument_is_in_the_table():
    """A new public penalty, rate, fraction or tolerance cannot skip the real-number rule."""
    missing = [
        f"{name}({argument})"
        for name, argument in _public_arguments()
        if _REAL_ARGUMENT.fullmatch(argument)
        # A grid's elements are reported under the element's name.
        and not {(name, argument), (name, argument.removesuffix("_grid"))} & REAL_RULES.keys()
    ]
    assert not missing


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
    """The reader before streaming: the whole file as rows first, then checks.

    A byte that is not UTF-8 anywhere in the file is reported first, by its
    line (as csv counts lines) and its offset in the file. A csv error, and
    a fault in a data record, is reported at the line where its record began.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "x" stands for the bad byte, which starts or continues the last line.
        line = len(list(io.StringIO(data[: exc.start].decode("utf-8") + "x", newline="")))
        raise ValueError(f"{path}:{line}: {exc}") from None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows, starts, start = [], [], 1  # start: the line where the next record begins
        try:
            for row in reader:
                rows.append(row)
                starts.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ValueError(f"{path}:{start}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    header = rows[0]
    if len(header) < 4:
        raise ValueError(f"{path}: need sample_id, at least two features, and label")
    if header[0] != "sample_id" or header[-1] != "label":
        raise ValueError(f"{path}: header must start with sample_id and end with label")
    feature_names = header[1:-1]
    for j, name in enumerate(feature_names):
        if name in feature_names[:j]:
            raise ValueError(f"{path}: feature name {name!r} is repeated")
    sample_ids, values, labels = [], [], []
    for line_no, row in zip(starts[1:], rows[1:]):
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
# The first record spans lines 2 and 3, so the faulty second record begins on line 4.
@example(data=b'sample_id,a,b,label\n"s\n0",1,1,0\ns1,-1,1,1\n')
@example(data=b"sample_id,a,b,a,b,label\ns0,1,1,1,1,1\n")  # a repeated feature name
@example(data=b"sample_id,a,label\ns0,1,2\ns1," + _OVERSIZED_FIELD.encode() + b",1,1\n")
# A fault, then past the first 8 KiB read an undecodable byte: the decoding error wins.
@example(data=b"sample_id,a,b,label\ns0,x,1,1\n" + b"s1,1,1,1\n" * 2000 + b"s2,1,1,\xff\n")
# An oversized field, then past the next 8 KiB an undecodable byte: the decoding error wins.
@example(
    data=b"sample_id,a,b,label\ns0,1," + _OVERSIZED_FIELD.encode() + b",1\n"
    + b"s1,1,1,1\n" * 2000 + b"s2,\xff,1,1\n"
)
# A quote left open on line 3: csv gives up when the field outgrows its limit, and the error
# names line 3, where the record began.
@example(data=b'sample_id,a,b,label\ns0,1,1,1\n"s1,1,1,1\n' + b"s2,1,1,1\n" * 20_000)
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
