"""Tests for the network forward pass, loss, gradients, and serialization.

The expected values for the derived cases come from straight-line scalar
recomputations (plain Python floats, explicit loops) and from central
finite differences on the loss; both oracles live in this file and share no
code with the implementation.
"""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

from deepcoda import (
    DeepCodaParams,
    TrainConfig,
    explain_batch,
    forward,
    gradients,
    init_params,
    lasso_logistic_fit,
    loss,
    loss_and_gradients,
    params_from_text,
    params_to_text,
    predict_proba,
    load_params,
    save_params,
    train,
)
from deepcoda._expit import expit as numpy_expit
from deepcoda.model import PARAM_FIELDS, _loss_and_gradients, _Workspace


# ---------------------------------------------------------------------------
# Oracles


def scalar_forward(p, x):
    """Step-by-step recomputation of one forward pass with Python floats."""
    d, n_b, n_h = p.dims
    z = [
        float(p.beta0[b]) + sum(float(p.beta[j, b]) * math.log(float(x[j])) for j in range(d))
        for b in range(n_b)
    ]
    if p.head == "self_explain":
        act = [
            float(p.mlp_b1[h]) + sum(z[b] * float(p.mlp_w1[b, h]) for b in range(n_b))
            for h in range(n_h)
        ]
        hidden = [max(v, 0.0) for v in act]
        w = [
            float(p.mlp_b2[b]) + sum(hidden[h] * float(p.mlp_w2[h, b]) for h in range(n_h))
            for b in range(n_b)
        ]
        s = sum(w[b] * z[b] for b in range(n_b))
    else:
        w = [float(v) for v in p.linear_v]
        s = float(p.linear_v0) + sum(w[b] * z[b] for b in range(n_b))
    yhat = 1.0 / (1.0 + math.exp(-s))
    return z, w, s, yhat


def scalar_loss(p, X, y, lambda_c, lambda_s):
    """Straight-line recomputation of the penalized loss."""
    total = 0.0
    for i in range(X.shape[0]):
        *_, yhat = scalar_forward(p, X[i])
        total += (yhat - float(y[i])) ** 2
    d, n_b, _ = p.dims
    for b in range(n_b):
        col = sum(float(p.beta[j, b]) for j in range(d))
        total += lambda_c * col * col
        total += lambda_s * sum(abs(float(p.beta[j, b])) for j in range(d))
    return total


def finite_difference_gradients(p, X, y, lambda_c, lambda_s, h=1e-5):
    """Central differences of `loss` for every parameter coordinate."""
    out = {}
    for name in PARAM_FIELDS:
        value = np.asarray(getattr(p, name), dtype=float)
        grad = np.zeros_like(value) if value.ndim else 0.0
        flat_grad = np.atleast_1d(grad).reshape(-1)
        flat = np.atleast_1d(value).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]

            def set_coord(v):
                if value.ndim:
                    flat[k] = v
                    setattr(p, name, value)
                else:
                    setattr(p, name, float(v))

            set_coord(orig + h)
            up = loss(p, X, y, lambda_c, lambda_s)
            set_coord(orig - h)
            down = loss(p, X, y, lambda_c, lambda_s)
            set_coord(orig)
            flat_grad[k] = (up - down) / (2.0 * h)
        out[name] = flat_grad[0] if not value.ndim else grad
    return out


def reference_loss_and_gradients(p, X, y, lambda_c, lambda_s):
    """The allocating training kernel that the workspace kernel replaced.

    One ``matmul`` and one broadcast bias add per layer, one ``sum(axis=0)``
    per bias gradient, and fresh arrays throughout.
    """
    logx = np.log(X)
    z = logx @ p.beta + p.beta0
    if p.head == "self_explain":
        a = z @ p.mlp_w1 + p.mlp_b1
        hidden = np.maximum(a, 0.0)
        w = hidden @ p.mlp_w2 + p.mlp_b2
        s = (w * z).sum(axis=1)
    else:
        s = p.linear_v0 + np.einsum("nb,b->n", z, p.linear_v)
    yhat = expit(s)
    resid = yhat - y
    col_sums = p.beta.sum(axis=0)
    total = float(
        resid @ resid + lambda_c * (col_sums @ col_sums) + lambda_s * np.abs(p.beta).sum()
    )
    gs = 2.0 * resid * yhat * (1.0 - yhat)
    grads = DeepCodaParams.zeros(p.dims, p.head)
    if p.head == "self_explain":
        gw = gs[:, None] * z
        grads.mlp_b2 = gw.sum(axis=0)
        grads.mlp_w2 = hidden.T @ gw
        ga = (gw @ p.mlp_w2.T) * (a > 0)
        grads.mlp_b1 = ga.sum(axis=0)
        grads.mlp_w1 = z.T @ ga
        gz = gs[:, None] * w + ga @ p.mlp_w1.T
    else:
        grads.linear_v = z.T @ gs
        grads.linear_v0 = gs.sum()
        gz = gs[:, None] * p.linear_v[None, :]
    grads.beta = logx.T @ gz + 2.0 * lambda_c * col_sums[None, :] + lambda_s * np.sign(p.beta)
    grads.beta0 = gz.sum(axis=0)
    return total, grads


def random_params(head="self_explain", d=4, n_b=3, n_h=16, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return DeepCodaParams(
        beta=rng.normal(0.0, scale, size=(d, n_b)),
        beta0=rng.normal(0.0, 0.1, size=n_b),
        mlp_w1=rng.normal(0.0, scale, size=(n_b, n_h)),
        mlp_b1=rng.normal(0.0, 0.1, size=n_h),
        mlp_w2=rng.normal(0.0, scale, size=(n_h, n_b)),
        mlp_b2=rng.normal(0.0, 0.1, size=n_b),
        head=head,
        linear_v=rng.normal(0.0, scale, size=n_b),
        linear_v0=float(rng.normal(0.0, 0.1)),
    )


def random_batch(n=6, d=4, seed=0):
    rng = np.random.default_rng(seed + 1000)
    X = rng.uniform(0.5, 200.0, size=(n, d))
    y = np.zeros(n, dtype=int)
    y[: n // 2] = 1
    return X, y


# ---------------------------------------------------------------------------
# Forward pass


class TestForward:
    def test_constant_weights_when_mlp_is_zero(self):
        n_b = 3
        p = random_params(n_b=n_b, seed=4)
        p.mlp_w1[:] = 0.0
        p.mlp_b1[:] = 0.0
        p.mlp_w2[:] = 0.0
        p.mlp_b2[:] = 0.7
        trace = forward(p, [2.0, 3.0, 4.0, 5.0])
        assert_allclose(trace.w, np.full(n_b, 0.7), rtol=0, atol=0)
        assert trace.s == pytest.approx(0.7 * trace.z.sum(), abs=1e-12)

    def test_zero_bottleneck_row_gives_constant_contrast(self):
        p = random_params(seed=5)
        p.beta[:, 1] = 0.0
        p.beta0[1] = -2.25
        for x in ([1.0, 2.0, 3.0, 4.0], [10.0, 0.5, 7.0, 90.0]):
            assert forward(p, x).z[1] == pytest.approx(-2.25, abs=0)

    @pytest.mark.parametrize("head", ["self_explain", "linear"])
    def test_matches_scalar_oracle(self, head):
        for seed in range(8):
            p = random_params(head=head, seed=seed)
            x = np.random.default_rng(seed).uniform(0.3, 300.0, size=4)
            z, w, s, yhat = scalar_forward(p, x)
            trace = forward(p, x)
            assert_allclose(trace.z, z, rtol=0, atol=1e-12)
            assert_allclose(trace.w, w, rtol=0, atol=1e-12)
            assert trace.s == pytest.approx(s, abs=1e-12)
            assert trace.yhat == pytest.approx(yhat, abs=1e-12)

    def test_trace_probability_is_logistic_of_logit(self):
        p = random_params(seed=9)
        trace = forward(p, [1.0, 5.0, 2.0, 8.0])
        assert trace.yhat == pytest.approx(float(expit(trace.s)), abs=1e-12)

    def test_self_explain_logit_is_exact_dot_product(self):
        p = random_params(seed=10)
        trace = forward(p, [3.0, 1.0, 4.0, 1.5])
        assert trace.s == (trace.w * trace.z).sum()

    def test_rejects_nonpositive_input(self):
        p = random_params(seed=0)
        with pytest.raises(ValueError):
            forward(p, [1.0, 0.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            forward(p, [1.0, -1.0, 2.0, 3.0])

    def test_rejects_wrong_length(self):
        p = random_params(seed=0)
        with pytest.raises(ValueError):
            forward(p, [1.0, 2.0])


class TestPredictProba:
    def test_single_row_matches_forward(self):
        p = random_params(seed=2)
        x = np.array([2.0, 9.0, 5.0, 1.0])
        assert predict_proba(p, x[None, :])[0] == forward(p, x).yhat

    def test_identical_rows_identical_outputs(self):
        p = random_params(seed=3)
        X = np.tile([4.0, 2.0, 8.0, 16.0], (5, 1))
        out = predict_proba(p, X)
        assert np.all(out == out[0])

    def test_permutation_equivariance(self):
        p = random_params(seed=6)
        X, _ = random_batch(n=7, seed=6)
        perm = np.random.default_rng(0).permutation(7)
        assert_allclose(predict_proba(p, X)[perm], predict_proba(p, X[perm]), rtol=0, atol=0)


class TestInvariances:
    def test_decomposition_identity(self):
        for seed in range(5):
            p = random_params(seed=seed)
            X, _ = random_batch(n=10, seed=seed)
            probs = predict_proba(p, X)
            for i in range(X.shape[0]):
                trace = forward(p, X[i])
                assert float(expit((trace.w * trace.z).sum())) == pytest.approx(
                    probs[i], abs=1e-12
                )

    def test_scale_invariance_with_zero_sum_columns(self):
        p = random_params(seed=12)
        p.beta -= p.beta.mean(axis=0, keepdims=True)
        x = np.array([3.0, 1.0, 0.5, 9.0])
        for c in (1e-3, 0.1, 7.0, 1e4):
            base = forward(p, x)
            scaled = forward(p, c * x)
            assert_allclose(scaled.z, base.z, rtol=0, atol=1e-9)
            assert scaled.yhat == pytest.approx(base.yhat, abs=1e-9)

    def test_contrast_shift_under_scaling_equals_column_sum_times_log_c(self):
        p = random_params(seed=13)
        col_sums = p.beta.sum(axis=0)
        x = np.array([2.0, 5.0, 1.0, 4.0])
        for c in (0.25, 3.0, 40.0):
            shift = forward(p, c * x).z - forward(p, x).z
            assert_allclose(shift, col_sums * math.log(c), rtol=0, atol=1e-9)

    def test_loss_invariant_under_sample_permutation(self):
        p = random_params(seed=14)
        X, y = random_batch(n=9, seed=14)
        perm = np.random.default_rng(1).permutation(9)
        a = loss(p, X, y, 1.0, 0.01)
        b = loss(p, X[perm], y[perm], 1.0, 0.01)
        assert b == pytest.approx(a, rel=1e-12)

    def test_linear_head_single_bottleneck_is_log_linear(self):
        p = random_params(head="linear", d=5, n_b=1, seed=15)
        X, _ = random_batch(n=6, d=5, seed=15)
        direct = expit(
            p.linear_v0 + p.linear_v[0] * (p.beta0[0] + np.log(X) @ p.beta[:, 0])
        )
        assert_allclose(predict_proba(p, X), direct, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Loss and gradients


class TestLoss:
    def test_zero_at_exact_predictions(self):
        # saturated logit: expit(40) rounds to exactly 1.0 in float64
        p = DeepCodaParams(
            beta=np.zeros((3, 1)),
            beta0=[40.0],
            mlp_w1=np.zeros((1, 4)),
            mlp_b1=np.zeros(4),
            mlp_w2=np.zeros((4, 1)),
            mlp_b2=[1.0],
        )
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        y = np.array([1, 1])
        assert loss(p, X, y, 0.0, 0.0) == 0.0

    def test_zero_beta_has_no_penalty(self):
        p = random_params(seed=16)
        p.beta[:] = 0.0
        X, y = random_batch(seed=16)
        assert loss(p, X, y, 5.0, 9.0) == loss(p, X, y, 0.0, 0.0)

    @pytest.mark.parametrize("head", ["self_explain", "linear"])
    def test_matches_scalar_oracle(self, head):
        for seed in range(6):
            p = random_params(head=head, d=4, n_b=2, seed=seed)
            X, y = random_batch(n=3, d=4, seed=seed)
            expected = scalar_loss(p, X, y, lambda_c=1.0, lambda_s=0.05)
            assert loss(p, X, y, 1.0, 0.05) == pytest.approx(expected, abs=1e-10)

    def test_rejects_bad_labels(self):
        p = random_params(seed=0)
        X, _ = random_batch(seed=0)
        with pytest.raises(ValueError):
            loss(p, X, np.full(X.shape[0], 2), 1.0, 0.01)

    def test_rejects_negative_penalties(self):
        p = random_params(seed=0)
        X, y = random_batch(seed=0)
        with pytest.raises(ValueError):
            loss(p, X, y, -1.0, 0.01)


class TestGradients:
    def test_zero_gradient_at_exact_fit_without_penalties(self):
        p = DeepCodaParams(
            beta=np.zeros((3, 1)),
            beta0=[40.0],
            mlp_w1=np.zeros((1, 4)),
            mlp_b1=np.zeros(4),
            mlp_w2=np.zeros((4, 1)),
            mlp_b2=[1.0],
        )
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        y = np.array([1, 1])
        g = gradients(p, X, y, 0.0, 0.0)
        for name in PARAM_FIELDS:
            assert np.all(np.asarray(g[name]) == 0.0)

    def test_constraint_term_has_closed_form(self):
        p = random_params(seed=17)
        X, y = random_batch(seed=17)
        lam_c = 2.5
        with_constraint = gradients(p, X, y, lam_c, 0.0)
        without = gradients(p, X, y, 0.0, 0.0)
        expected = 2.0 * lam_c * np.broadcast_to(p.beta.sum(axis=0), p.beta.shape)
        assert_allclose(
            np.asarray(with_constraint["beta"]) - np.asarray(without["beta"]),
            expected,
            rtol=1e-12,
            atol=1e-12,
        )

    @pytest.mark.parametrize("head", ["self_explain", "linear"])
    def test_matches_finite_differences(self, head):
        for seed in (21, 22, 23):
            p = random_params(head=head, d=5, n_b=2, n_h=8, seed=seed)
            X, y = random_batch(n=5, d=5, seed=seed)
            analytic = gradients(p, X, y, 1.0, 0.01)
            numeric = finite_difference_gradients(p, X, y, 1.0, 0.01)
            for name in PARAM_FIELDS:
                a = np.atleast_1d(np.asarray(analytic[name], dtype=float)).reshape(-1)
                n_ = np.atleast_1d(np.asarray(numeric[name], dtype=float)).reshape(-1)
                beta_flat = p.beta.reshape(-1)
                for k in range(a.size):
                    if name == "beta" and abs(beta_flat[k]) < 1e-8:
                        continue  # |.| kink
                    denom = max(abs(a[k]), abs(n_[k]), 1e-3)
                    assert abs(a[k] - n_[k]) / denom < 1e-5


class TestTrainingKernel:
    """The workspace kernel against the allocating reference kernel."""

    @pytest.mark.parametrize("head", ["self_explain", "linear"])
    @pytest.mark.parametrize(
        "n, d, n_b, n_h",
        [(1, 2, 1, 1), (7, 2, 3, 1), (40, 6, 1, 5), (200, 10, 5, 16), (33, 3, 4, 2)],
    )
    def test_matches_reference_kernel(self, head, n, d, n_b, n_h):
        p = random_params(head=head, d=d, n_b=n_b, n_h=n_h, seed=n + d)
        X, y = random_batch(n=n, d=d, seed=n)
        y[0] = 1
        expected_loss, expected = reference_loss_and_gradients(p, X, y, 1.0, 0.01)
        total, grads = loss_and_gradients(p, X, y, 1.0, 0.01)
        assert total == pytest.approx(expected_loss, rel=1e-12, abs=0)
        for name in PARAM_FIELDS:
            assert_allclose(grads[name], expected[name], rtol=1e-12, atol=0, err_msg=name)

    @pytest.mark.parametrize("head", ["self_explain", "linear"])
    def test_reused_workspace_matches_fresh_ones(self, head):
        p = random_params(head=head, d=5, n_b=3, n_h=8, seed=31)
        X, y = random_batch(n=60, d=5, seed=31)
        rng = np.random.default_rng(31)
        ws, grads = _Workspace(X, p.dims, head), DeepCodaParams.zeros(p.dims, head)
        for _ in range(50):
            # Steps large enough to flip ReLU units on and off between calls.
            p.flat += rng.normal(0.0, 0.3, size=p.flat.size)
            total = _loss_and_gradients(p, ws, y.astype(float), 1.0, 0.01, grads)
            fresh_total, fresh = loss_and_gradients(p, X, y, 1.0, 0.01)
            assert total == fresh_total
            assert np.array_equal(grads.flat, fresh.flat)

    def test_affine_blocks_are_weights_over_bias(self):
        p = random_params(d=4, n_b=3, n_h=5, seed=3)
        pairs = [("beta", "beta0"), ("mlp_w1", "mlp_b1"), ("mlp_w2", "mlp_b2"),
                 ("linear_v", "linear_v0")]
        for block, (weight, bias) in zip(p._affine, pairs):
            assert np.shares_memory(block, p.flat)
            assert np.array_equal(block[:-1], p[weight].reshape(block.shape[0] - 1, -1))
            assert np.array_equal(block[-1], p[bias].reshape(-1))


# ---------------------------------------------------------------------------
# The logistic function against scipy's


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestExpit:
    """``deepcoda._expit.expit`` equals ``scipy.special.expit`` bit for bit."""

    @pytest.fixture(scope="class")
    def values(self):
        rng = np.random.default_rng(20)
        tiny = np.nextafter(0.0, 1.0)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
                    2.2250738585072014e-308, -2.2250738585072009e-308,
                    709.7827128933840, -709.7827128933840, 709.0, -709.0, -710.0]
        return np.concatenate([
            rng.normal(0.0, 5.0, 1_000_000),
            rng.uniform(-800.0, 800.0, 400_000),
            rng.uniform(-711.0, -708.0, 100_000),
            specials,
        ])

    def test_bitwise_equal_to_scipy(self, values):
        assert np.array_equal(_bits(numpy_expit(values)), _bits(expit(values)))

    @pytest.mark.parametrize("x", [0.5, -709.5, np.nan, -np.inf])
    def test_zero_dimensional_input_gives_a_scalar(self, x):
        got = numpy_expit(np.array(x))
        assert isinstance(got, np.float64)
        assert _bits(got) == _bits(expit(np.array(x)))

    def test_no_warning_or_raise_under_any_errstate(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                numpy_expit(values)
                numpy_expit(np.array(-1000.0))


class TestReportedProbabilities:
    """Every probability the package reports is ``scipy.special.expit`` of its
    logit, bit for bit; only fitting runs the logistic on numpy's ``exp``."""

    @pytest.fixture(scope="class")
    def rows(self):
        # Spread-out compositions, so the logits span a wide range.
        return np.random.default_rng(21).lognormal(0.0, 3.0, size=(2000, 4))

    def test_network_probabilities(self, rows):
        X, y = random_batch(n=60, seed=7)
        params = train(X, y, TrainConfig(n_bottlenecks=3, epochs=5, seed=1)).params
        traces = [forward(params, x) for x in rows]
        logits = np.array([trace.s for trace in traces])
        expected = _bits(expit(logits))
        assert np.array_equal(_bits([trace.yhat for trace in traces]), expected)
        assert np.array_equal(_bits(predict_proba(params, rows)), expected)
        batch = explain_batch(params, rows, [str(i) for i in range(len(rows))])
        assert np.array_equal(_bits(batch.products.sum(axis=1)), _bits(logits))
        assert np.array_equal(_bits(batch.prediction), expected)

    def test_lasso_probabilities(self, rows):
        features = np.log(rows)
        labels = (features[:, 0] - features[:, 1] + features[:, 2] > 0).astype(int)
        model = lasso_logistic_fit(features, labels, 1e-3)
        expected = _bits(expit(model.decision(features)))
        assert np.array_equal(_bits(model.predict_proba(features)), expected)


# ---------------------------------------------------------------------------
# Serialization


class TestSerialization:
    @pytest.mark.parametrize("head", ["self_explain", "linear"])
    def test_text_round_trip_is_exact(self, head):
        p = random_params(head=head, seed=30)
        q = params_from_text(params_to_text(p))
        assert q.head == p.head
        for name in PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(q, name)), np.asarray(getattr(p, name)))

    def test_file_round_trip(self, tmp_path):
        p = random_params(seed=31)
        path = tmp_path / "model.txt"
        save_params(p, path)
        q = load_params(path)
        assert np.array_equal(q.beta, p.beta)
        assert q.linear_v0 == p.linear_v0

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            params_from_text("format = something-else\n")

    def test_rejects_missing_tensor(self):
        text = params_to_text(random_params(seed=32))
        broken = "\n".join(
            ln for ln in text.splitlines() if not ln.startswith("beta0")
        )
        with pytest.raises(ValueError, match="beta0"):
            params_from_text(broken)

    def test_rejects_wrong_value_count(self):
        text = params_to_text(random_params(seed=33))
        lines = text.splitlines()
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("beta0"))
        lines[idx] = lines[idx] + " 0.5"
        with pytest.raises(ValueError, match="beta0"):
            params_from_text("\n".join(lines))

    def test_rejects_duplicate_key(self):
        text = params_to_text(random_params(seed=34)) + "beta0 = 5 5 5\n"
        with pytest.raises(ValueError, match="duplicate key 'beta0'"):
            params_from_text(text)

    def test_rejects_zero_dimension(self):
        # A D = 0 model: every tensor line that scales with D is empty.
        text = params_to_text(random_params(d=1, n_b=1, n_h=1, seed=35))
        text = text.replace("dims = 1 1 1", "dims = 0 1 1").replace(
            next(ln for ln in text.splitlines() if ln.startswith("beta =")), "beta ="
        )
        with pytest.raises(ValueError, match="n_features must be at least 1, got 0"):
            params_from_text(text)

    def test_rejects_forged_dims_before_allocating(self):
        # The header asks for a 7 TiB buffer; the tensor lines hold 1x1x1 values.
        text = params_to_text(random_params(d=1, n_b=1, n_h=1, seed=36))
        text = text.replace("dims = 1 1 1", "dims = 1000000 1000000 1")
        with pytest.raises(ValueError, match="beta: expected 1000000000000 values, got 1"):
            params_from_text(text)


    @pytest.mark.parametrize(
        "clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_pickle_and_deepcopy_keep_views_on_one_buffer(self, clone):
        p = random_params(seed=37)
        q = clone(p)
        assert params_to_text(q) == params_to_text(p)
        assert not np.shares_memory(q.flat, p.flat)
        q.flat[:] = 0.5  # a write through the buffer, as Adam makes it
        assert np.all(q.beta == 0.5) and np.all(q.linear_v0 == 0.5)
        assert all(np.all(block == 0.5) for block in q._affine)
        assert params_to_text(p) != params_to_text(q)


class TestParamsValidation:
    def test_rejects_bad_head(self):
        with pytest.raises(ValueError):
            random_params(head="attention")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DeepCodaParams(
                beta=np.zeros((3, 2)),
                beta0=np.zeros(3),
                mlp_w1=np.zeros((2, 4)),
                mlp_b1=np.zeros(4),
                mlp_w2=np.zeros((4, 2)),
                mlp_b2=np.zeros(2),
            )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DeepCodaParams(
                beta=np.array([[np.inf, 0.0]]),
                beta0=np.zeros(2),
                mlp_w1=np.zeros((2, 4)),
                mlp_b1=np.zeros(4),
                mlp_w2=np.zeros((4, 2)),
                mlp_b2=np.zeros(2),
            )

    @pytest.mark.parametrize("dims", [(3, 2), (3, 2, 4, 5)])
    def test_rejects_dims_of_other_length(self, dims):
        with pytest.raises(ValueError, match="^dims must be"):
            DeepCodaParams.zeros(dims)

    def test_init_params_dims(self):
        p = init_params(7, 3, seed=0)
        assert p.dims == (7, 3, 16)
