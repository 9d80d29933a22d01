"""Full-batch Adam training with seeded initialization and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_array, check_choice, check_count, check_labels, check_real, check_seed
# ``loss_and_gradients`` is not called here; perfbench/tracer.py wraps it by name on this module.
from .model import (  # noqa: F401
    HEADS,
    PARAM_LAYOUT,
    DeepCodaParams,
    _loss_and_gradients,
    _Workspace,
    loss_and_gradients,
)

__all__ = [
    "HIDDEN_UNITS",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "init_params",
    "train",
]

HIDDEN_UNITS = 16
INIT_SCALE = 0.1


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss leaves the finite range."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for one training run. Everything is seeded."""

    n_bottlenecks: int = 5
    lambda_c: float = 1.0
    lambda_s: float = 0.01
    learning_rate: float = 0.01
    epochs: int = 2000
    seed: int = 0
    head: str = "self_explain"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        check_count(self.n_bottlenecks, "n_bottlenecks")
        check_count(self.epochs, "epochs")
        check_real(self.learning_rate, "learning_rate", low_open=True)
        check_real(self.lambda_c, "lambda_c")
        check_real(self.lambda_s, "lambda_s")
        check_choice(self.head, "head", HEADS)
        check_real(self.adam_beta1, "adam_beta1", high=1.0)
        check_real(self.adam_beta2, "adam_beta2", high=1.0)
        check_real(self.adam_eps, "adam_eps", low_open=True)
        check_seed(self.seed)


@dataclass
class TrainReport:
    """Per-epoch loss curve, final zero-sum residuals, and the trained params."""

    loss_history: np.ndarray
    final_constraint_residuals: np.ndarray
    params: DeepCodaParams


def _tensor_rng(seed: int, index: int) -> np.random.Generator:
    # Philox is counter-based: each named tensor gets its own keyed stream,
    # so one tensor's draw never depends on the sizes of the others.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


def init_params(
    n_features: int,
    n_bottlenecks: int,
    hidden_units: int = HIDDEN_UNITS,
    seed: int = 0,
    head: str = "self_explain",
) -> DeepCodaParams:
    """Small uniform weights from per-tensor Philox streams; zero biases."""
    check_seed(seed)
    p = DeepCodaParams.zeros((n_features, n_bottlenecks, hidden_units), head)
    for name, _, stream in PARAM_LAYOUT:
        if stream is not None:
            p[name][...] = _tensor_rng(seed, stream).uniform(
                -INIT_SCALE, INIT_SCALE, size=p[name].shape
            )
    return p


def train(X, y, cfg: TrainConfig) -> TrainReport:
    """Run full-batch Adam on the penalized loss for ``cfg.epochs`` steps.

    Pure function of (X, y, cfg): identical inputs give bit-identical
    reports. ``loss_history[t]`` is the loss evaluated before step t.
    Raises TrainingDivergedError naming the epoch if the loss becomes
    non-finite. The inputs are checked and log-transformed once, into one
    ``_Workspace``; each epoch runs the ``loss_and_gradients`` kernel into
    it and one reused gradient, then steps Adam in place.
    """
    xv = check_array(X, "X", 2, bound=">0")
    yv = check_labels(y, xv.shape[0], both_classes=True)

    params = init_params(xv.shape[1], cfg.n_bottlenecks, seed=cfg.seed, head=cfg.head)
    grads = DeepCodaParams.zeros(params.dims, params.head)
    ws = _Workspace(xv, params.dims, params.head)
    moment1, moment2, update, scratch = np.zeros((4, params.flat.size))
    history = np.empty(cfg.epochs)
    b1, b2, g = cfg.adam_beta1, cfg.adam_beta2, grads.flat

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for epoch in range(cfg.epochs):
            try:
                history[epoch] = _loss_and_gradients(
                    params, ws, yv, cfg.lambda_c, cfg.lambda_s, grads
                )
            except FloatingPointError as exc:
                raise TrainingDivergedError(
                    f"training diverged: non-finite loss at epoch {epoch}"
                ) from exc
            bias1 = 1.0 - b1 ** (epoch + 1)
            bias2 = 1.0 - b2 ** (epoch + 1)
            # In place, in this arithmetic order: m1 = b1 m1 + (1 - b1) g,
            # m2 = b2 m2 + (1 - b2) g g, p -= lr (m1 / bias1) / (sqrt(m2 / bias2) + eps).
            moment1 *= b1
            moment1 += np.multiply(g, 1.0 - b1, out=scratch)
            moment2 *= b2
            np.multiply(g, 1.0 - b2, out=scratch)
            moment2 += np.multiply(scratch, g, out=scratch)
            np.sqrt(np.divide(moment2, bias2, out=scratch), out=scratch)
            scratch += cfg.adam_eps
            np.divide(moment1, bias1, out=update)
            update *= cfg.learning_rate
            params.flat -= np.divide(update, scratch, out=update)

    residuals = params.beta.sum(axis=0)
    return TrainReport(
        loss_history=history,
        final_constraint_residuals=residuals,
        params=params,
    )
