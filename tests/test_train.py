"""Tests for seeded initialization and the full-batch Adam trainer."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deepcoda
from deepcoda import (
    TrainConfig,
    TrainingDivergedError,
    gen_cmyc,
    gen_toy,
    init_params,
    train,
)
from deepcoda.model import PARAM_FIELDS, loss_and_gradients
from test_model import reference_loss_and_gradients


class TestInitParams:
    def test_same_seed_identical(self):
        a = init_params(6, 3, seed=11)
        b = init_params(6, 3, seed=11)
        for name in PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(a, name)), np.asarray(getattr(b, name)))

    def test_different_seeds_differ(self):
        a = init_params(6, 3, seed=1)
        b = init_params(6, 3, seed=2)
        assert not np.array_equal(a.beta, b.beta)

    def test_weights_bounded_and_biases_zero(self):
        p = init_params(5, 4, seed=3)
        for name in ("beta", "mlp_w1", "mlp_w2", "linear_v"):
            assert np.all(np.abs(np.asarray(getattr(p, name))) <= 0.1)
        for name in ("beta0", "mlp_b1", "mlp_b2"):
            assert np.all(np.asarray(getattr(p, name)) == 0.0)
        assert p.linear_v0 == 0.0

    def test_head_is_stamped(self):
        assert init_params(3, 1, seed=0, head="linear").head == "linear"

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_params(0, 1)


@pytest.fixture(scope="module")
def toy200():
    return gen_toy(200, seed=0)


@pytest.fixture(scope="module")
def trained_toy(toy200):
    cfg = TrainConfig(n_bottlenecks=1, lambda_s=0.01, seed=0)
    return train(toy200.relative.values, toy200.labels, cfg)


class TestTrain:
    def test_loss_decreases_on_separable_data(self, trained_toy):
        history = trained_toy.loss_history
        assert history[-1] < history[0]
        assert np.all(np.isfinite(history))

    def test_history_has_one_entry_per_epoch(self, trained_toy):
        assert trained_toy.loss_history.shape == (TrainConfig().epochs,)

    def test_constraint_residual_is_small(self, trained_toy):
        # lambda_c = 1 drives the column sums toward zero
        assert np.all(np.abs(trained_toy.final_constraint_residuals) < 0.01)

    def test_residuals_match_params(self, trained_toy):
        assert np.array_equal(
            trained_toy.final_constraint_residuals, trained_toy.params.beta.sum(axis=0)
        )

    def test_deterministic_reruns(self, toy200):
        cfg = TrainConfig(n_bottlenecks=2, epochs=300, seed=123)
        a = train(toy200.relative.values, toy200.labels, cfg)
        b = train(toy200.relative.values, toy200.labels, cfg)
        assert np.array_equal(a.loss_history, b.loss_history)
        for name in PARAM_FIELDS:
            assert np.array_equal(
                np.asarray(getattr(a.params, name)), np.asarray(getattr(b.params, name))
            )

    def test_divergence_raises_with_epoch(self, toy200):
        cfg = TrainConfig(n_bottlenecks=1, learning_rate=1e200, epochs=10, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(toy200.relative.values, toy200.labels, cfg)

    def test_rejects_single_class(self, toy200):
        cfg = TrainConfig(epochs=2)
        with pytest.raises(ValueError):
            train(toy200.relative.values, np.zeros(200, dtype=int), cfg)

    def test_rejects_shape_mismatch(self, toy200):
        cfg = TrainConfig(epochs=2)
        with pytest.raises(ValueError):
            train(toy200.relative.values, toy200.labels[:-1], cfg)


def reference_adam(X, y, cfg, kernel=loss_and_gradients):
    """Adam written tensor by tensor, as the reference for train()'s flat steps."""
    params = init_params(X.shape[1], cfg.n_bottlenecks, seed=cfg.seed, head=cfg.head)
    moment1 = {name: np.zeros_like(np.asarray(getattr(params, name))) for name in PARAM_FIELDS}
    moment2 = {name: arr.copy() for name, arr in moment1.items()}
    history = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        history[epoch], grads = kernel(params, X, y, cfg.lambda_c, cfg.lambda_s)
        bias1 = 1.0 - cfg.adam_beta1 ** (epoch + 1)
        bias2 = 1.0 - cfg.adam_beta2 ** (epoch + 1)
        for name in PARAM_FIELDS:
            g = np.asarray(grads[name], dtype=float)
            moment1[name] = cfg.adam_beta1 * moment1[name] + (1.0 - cfg.adam_beta1) * g
            moment2[name] = cfg.adam_beta2 * moment2[name] + (1.0 - cfg.adam_beta2) * g * g
            update = cfg.learning_rate * (moment1[name] / bias1) / (
                np.sqrt(moment2[name] / bias2) + cfg.adam_eps
            )
            value = np.asarray(getattr(params, name), dtype=float) - update
            setattr(params, name, value if value.ndim else float(value))
    return history, params


@pytest.mark.parametrize("head", ["self_explain", "linear"])
def test_train_matches_per_tensor_adam(toy200, head):
    cfg = TrainConfig(n_bottlenecks=2, epochs=50, seed=5, head=head)
    X, y = toy200.relative.values, toy200.labels
    history, expected = reference_adam(X, y, cfg)
    report = train(X, y, cfg)
    assert np.array_equal(report.loss_history, history)
    for name in PARAM_FIELDS:
        assert np.array_equal(getattr(report.params, name), getattr(expected, name))


@pytest.mark.parametrize("head", ["self_explain", "linear"])
@pytest.mark.parametrize("kind", ["absolute", "relative"])
def test_train_matches_reference_kernel(kind, head):
    data = gen_cmyc(300, seed=2)
    X, y = getattr(data, kind).values, data.labels
    cfg = TrainConfig(epochs=300, seed=4, head=head)
    history, expected = reference_adam(X, y, cfg, kernel=reference_loss_and_gradients)
    report = train(X, y, cfg)
    np.testing.assert_allclose(report.loss_history, history, rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.params.flat, expected.flat, rtol=1e-12, atol=1e-14)


_BLAS_THREADS_SCRIPT = """
import sys
from deepcoda import TrainConfig, gen_toy, train
data = gen_toy(20_000, 0)
report = train(data.relative.values, data.labels, TrainConfig(epochs=5))
sys.stdout.buffer.write(report.loss_history.tobytes() + report.params.flat.tobytes())
"""


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS runs at most one thread per usable CPU"
)
def test_train_does_not_depend_on_blas_thread_count():
    # Above 10,000 elements an OpenBLAS dot product splits its sum across
    # threads, so a loss summed through BLAS would change in the last bits.
    src = str(Path(deepcoda.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env, capture_output=True, check=True
        )
        runs.append(run.stdout)
    assert runs[0] == runs[1]


class TestTrainConfig:
    def test_defaults_match_headline_configuration(self):
        cfg = TrainConfig()
        assert cfg.n_bottlenecks == 5
        assert cfg.lambda_c == 1.0
        assert cfg.lambda_s == 0.01
        assert cfg.head == "self_explain"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_bottlenecks": 0},
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"lambda_c": -1.0},
            {"head": "other"},
            {"adam_eps": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0"])
    def test_rejects_bad_seed_at_construction(self, seed):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["learning_rate", "lambda_c", "lambda_s", "adam_eps"])
    def test_rejects_non_finite_floats(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})
