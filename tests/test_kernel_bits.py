"""The training kernel and Adam loop against the workspace kernel they replaced, bit for bit.

``model._kernel`` prebinds every buffer and view once per run, and
``train`` steps the two Adam moments as one stack. Neither changes an
operation, its operand order or the BLAS/einsum choice, so every loss,
gradient and parameter must keep the bits of the workspace kernel and
the per-moment Adam loop copied below as the reference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deepcoda import DeepCodaParams, TrainConfig, init_params, loss_and_gradients, train
from deepcoda.model import HEADS
from deepcoda.train import TrainingDivergedError


# ---------------------------------------------------------------------------
# The reference: the workspace kernel and the train loop it ran in


class _Workspace:
    """Every buffer ``_loss_and_gradients`` writes for one batch, allocated once."""

    def __init__(self, X, dims, head):
        (n, d), (_, b, h) = X.shape, dims
        self.logx1 = np.ones((d + 1, n))
        np.log(X.T, out=self.logx1[:d])
        self.z1 = np.ones((b + 1, n))
        self.s, self.yhat, self.resid, self.gs = np.empty((4, n))
        self.gz = np.empty((b, n))
        if head == "self_explain":
            self.h1 = np.ones((h + 1, n))
            self.relu, self.ga = np.empty((2, h, n))
            self.w, self.gw = np.empty((2, b, n))


def _loss_and_gradients(p, ws, y, lambda_c, lambda_s, grads):
    beta1, w1b1, w2b2, vv0 = p._affine
    g_beta1, g_w1b1, g_w2b2, g_vv0 = grads._affine
    z = ws.z1[:-1]
    np.matmul(beta1.T, ws.logx1, out=z)
    if p.head == "self_explain":
        a = ws.h1[:-1]
        np.matmul(w1b1.T, ws.z1, out=a)
        np.greater(a, 0.0, out=ws.relu)
        np.maximum(a, 0.0, out=a)
        np.matmul(w2b2.T, ws.h1, out=ws.w)
        np.einsum("bn,bn->n", ws.w, z, out=ws.s)
    else:
        np.matmul(vv0[:, 0], ws.z1, out=ws.s)
    yhat = ws.yhat
    with np.errstate(over="ignore", under="ignore"):
        np.exp(np.negative(ws.s, out=yhat), out=yhat)
    yhat += 1.0
    np.divide(1.0, yhat, out=yhat)

    resid = np.subtract(yhat, y, out=ws.resid)
    col_sums = p.beta.sum(axis=0)
    total = float(
        np.einsum("n,n->", resid, resid)
        + lambda_c * (col_sums @ col_sums)
        + lambda_s * np.abs(p.beta).sum()
    )
    if not np.isfinite(total):
        raise FloatingPointError("non-finite loss")

    gs = np.multiply(resid, 2.0, out=ws.gs)
    gs *= yhat
    gs *= np.subtract(1.0, yhat, out=ws.yhat)
    gz = ws.gz
    if p.head == "self_explain":
        gw = np.multiply(gs, z, out=ws.gw)
        np.matmul(ws.h1, gw.T, out=g_w2b2)
        ga = np.matmul(p.mlp_w2, gw, out=ws.ga)
        ga *= ws.relu
        np.matmul(ws.z1, ga.T, out=g_w1b1)
        np.matmul(p.mlp_w1, ga, out=gz)
        gz += np.multiply(gs, ws.w, out=ws.w)
    else:
        np.matmul(ws.z1, gs, out=g_vv0[:, 0])
        np.multiply(p.linear_v[:, None], gs, out=gz)
    np.matmul(ws.logx1, gz.T, out=g_beta1)
    g_beta = grads.beta
    g_beta += 2.0 * lambda_c * col_sums
    g_beta += lambda_s * np.sign(p.beta)
    return total


def workspace_train(X, y, cfg):
    """(loss history, params), or the epoch at which the loss left the finite range."""
    params = init_params(X.shape[1], cfg.n_bottlenecks, seed=cfg.seed, head=cfg.head)
    grads = DeepCodaParams.zeros(params.dims, params.head)
    ws = _Workspace(X, params.dims, params.head)
    moment1, moment2, update, scratch = np.zeros((4, params.flat.size))
    history = np.empty(cfg.epochs)
    b1, b2, g = cfg.adam_beta1, cfg.adam_beta2, grads.flat
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for epoch in range(cfg.epochs):
            try:
                history[epoch] = _loss_and_gradients(
                    params, ws, y, cfg.lambda_c, cfg.lambda_s, grads
                )
            except FloatingPointError:
                return epoch
            bias1 = 1.0 - b1 ** (epoch + 1)
            bias2 = 1.0 - b2 ** (epoch + 1)
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
    return history, params


def workspace_loss_and_gradients(p, X, y, lambda_c, lambda_s):
    grads = DeepCodaParams.zeros(p.dims, p.head)
    ws = _Workspace(X, p.dims, p.head)
    return _loss_and_gradients(p, ws, y, lambda_c, lambda_s, grads), grads


# ---------------------------------------------------------------------------
# Drawn batches


def batch(n, d, seed, relative):
    """A positive n x d batch holding both labels; relative rows sum to 1."""
    rng = np.random.default_rng(seed)
    X = rng.lognormal(0.0, 2.0, size=(n, d))
    if relative:
        X /= X.sum(axis=1, keepdims=True)
    y = rng.integers(0, 2, size=n)
    y[:2] = 0, 1
    return X, y


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# 0 turns a penalty term off.
PENALTIES = st.sampled_from([0.0, 0.01, 1.0, 3.7])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 80),
    d=st.integers(1, 8),
    n_b=st.integers(1, 7),
    seed=st.integers(0, 2**16),
    epochs=st.integers(1, 40),
    lambda_c=PENALTIES,
    lambda_s=PENALTIES,
    head=st.sampled_from(HEADS),
    relative=st.booleans(),
    rate=st.sampled_from([0.01, 0.05, 0.05, 1e200]),  # 1e200 diverges
)
# The benchmark workload's shape (N=900, D=4, B=5, so D < B) for both heads, one with
# lambda_s = 0; and one row per class.
@example(n=900, d=4, n_b=5, seed=0, epochs=30, lambda_c=1.0, lambda_s=0.01,
         head="self_explain", relative=True, rate=0.01)
@example(n=900, d=4, n_b=5, seed=1, epochs=30, lambda_c=1.0, lambda_s=0.0,
         head="linear", relative=True, rate=0.01)
@example(n=2, d=1, n_b=3, seed=2, epochs=5, lambda_c=0.0, lambda_s=0.0,
         head="self_explain", relative=False, rate=0.05)
@example(n=20, d=3, n_b=2, seed=3, epochs=10, lambda_c=1.0, lambda_s=0.01,
         head="linear", relative=True, rate=1e200)
def test_train_keeps_the_reference_bits(n, d, n_b, seed, epochs, lambda_c, lambda_s, head,
                                        relative, rate):
    X, y = batch(n, d, seed, relative)
    cfg = TrainConfig(n_bottlenecks=n_b, lambda_c=lambda_c, lambda_s=lambda_s, epochs=epochs,
                      seed=seed, head=head, learning_rate=rate)
    expected = workspace_train(X, y.astype(float), cfg)
    if isinstance(expected, int):
        with pytest.raises(TrainingDivergedError, match=f"at epoch {expected}$"):
            train(X, y, cfg)
        return
    history, params = expected
    report = train(X, y, cfg)
    assert np.array_equal(bits(report.loss_history), bits(history))
    assert np.array_equal(bits(report.params.flat), bits(params.flat))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 80),
    d=st.integers(1, 8),
    n_b=st.integers(1, 7),
    n_h=st.integers(1, 9),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0.1, 1.0, 30.0]),
    lambda_c=PENALTIES,
    lambda_s=PENALTIES,
    head=st.sampled_from(HEADS),
)
@example(n=900, d=4, n_b=5, n_h=16, seed=0, scale=0.1, lambda_c=1.0, lambda_s=0.0,
         head="self_explain")
def test_loss_and_gradients_keeps_the_reference_bits(n, d, n_b, n_h, seed, scale, lambda_c,
                                                     lambda_s, head):
    # Large parameters drive logits past exp's range, where the logistic saturates.
    X, y = batch(max(n, 2), d, seed, relative=False)
    X, y = X[:n], y[:n]
    p = DeepCodaParams.zeros((d, n_b, n_h), head)
    p.flat[:] = np.random.default_rng(seed).normal(0.0, scale, size=p.flat.size)
    total, grads = loss_and_gradients(p, X, y, lambda_c, lambda_s)
    expected_total, expected = workspace_loss_and_gradients(p, X, y.astype(float), lambda_c,
                                                            lambda_s)
    assert bits(total) == bits(expected_total)
    assert np.array_equal(bits(grads.flat), bits(expected.flat))

