"""Log-bottleneck network with per-sample self-explanation.

Each of the B bottlenecks is a single hidden unit on the log-transformed
input, so its activation is a log-contrast once the unit's weights are
penalized toward zero sum. A small ReLU MLP maps the B contrast values to B
per-sample weights and the prediction logit is their dot product; the
linear head variant replaces the MLP with one global weight vector. The
training objective is squared error on the logistic output plus a squared
zero-sum penalty and an L1 penalty on the bottleneck weights, and the
gradients here are exact (hand-derived) rather than numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._expit import expit
from ._formats import NUMBER, key_values, parse_file
from .checks import check_array, check_choice, check_count, check_labels, check_real

__all__ = [
    "HEADS",
    "PARAM_FIELDS",
    "PARAM_LAYOUT",
    "DeepCodaParams",
    "ForwardTrace",
    "forward",
    "predict_proba",
    "loss",
    "gradients",
    "loss_and_gradients",
    "params_to_text",
    "params_from_text",
    "save_params",
    "load_params",
]

HEADS = ("self_explain", "linear")

# The parameter layout, in buffer, optimizer, file and initialization order:
# name, shape over the dims (D features, B bottlenecks, H hidden units), and
# the Philox stream ``init_params`` draws the tensor from (None: starts at 0).
PARAM_LAYOUT = (
    ("beta", "DB", 0),
    ("beta0", "B", None),
    ("mlp_w1", "BH", 1),
    ("mlp_b1", "H", None),
    ("mlp_w2", "HB", 2),
    ("mlp_b2", "B", None),
    ("linear_v", "B", 3),
    ("linear_v0", "", None),
)
PARAM_FIELDS = tuple(name for name, _, _ in PARAM_LAYOUT)

_FORMAT_TAG = "deepcoda-params-v1"


def _layout_shapes(dims: tuple[int, int, int], head: str) -> list[tuple[int, ...]]:
    """Each ``PARAM_LAYOUT`` tensor's shape for ``dims``; checks dims and head."""
    check_choice(head, "head", HEADS)
    if len(dims) != 3:
        raise ValueError(f"dims must be (n_features, n_bottlenecks, hidden_units), got {dims!r}")
    for size, name in zip(dims, ("n_features", "n_bottlenecks", "hidden_units")):
        check_count(size, name)
    sizes = dict(zip("DBH", dims))
    return [tuple(sizes[axis] for axis in axes) for _, axes, _ in PARAM_LAYOUT]


class DeepCodaParams:
    """All network parameters plus the head-variant flag.

    ``PARAM_LAYOUT`` lists the tensors and their shapes over ``dims`` =
    (n_features, n_bottlenecks, n_hidden); ``linear_v0`` is a scalar held
    as a 0-d array. The MLP tensors drive the self_explain head and
    ``linear_v``/``linear_v0`` the linear head; both sets are always
    present so one container serves either head.

    All tensors live in one contiguous float64 buffer, ``flat``, in
    ``PARAM_LAYOUT`` order, and each field is a named view of its slice, so
    an optimizer can step every parameter as one vector. Assigning a field
    (``p.beta = ...``) copies the value into the buffer and requires the
    field's shape; in-place updates (``p.beta -= ...``) write through the
    view. ``p["beta"]`` reads a field by name.
    """

    def __init__(
        self,
        beta,
        beta0,
        mlp_w1,
        mlp_b1,
        mlp_w2,
        mlp_b2,
        head: str = "self_explain",
        linear_v=None,
        linear_v0: float = 0.0,
    ) -> None:
        beta, mlp_w1 = np.asarray(beta, dtype=float), np.asarray(mlp_w1, dtype=float)
        if beta.ndim != 2:
            raise ValueError("beta must be a D x B matrix")
        if mlp_w1.ndim != 2 or mlp_w1.shape[0] != beta.shape[1]:
            raise ValueError("mlp_w1 must be a B x H matrix")
        self._allocate((*beta.shape, mlp_w1.shape[1]), head)
        self.beta, self.beta0, self.mlp_w1, self.mlp_b1 = beta, beta0, mlp_w1, mlp_b1
        self.mlp_w2, self.mlp_b2, self.linear_v0 = mlp_w2, mlp_b2, linear_v0
        if linear_v is not None:
            self.linear_v = linear_v
        self.validate()

    @classmethod
    def zeros(cls, dims: tuple[int, int, int], head: str = "self_explain") -> "DeepCodaParams":
        """All-zero parameters for ``dims`` = (n_features, n_bottlenecks, n_hidden)."""
        p = cls.__new__(cls)
        p._allocate(dims, head)
        return p

    def _allocate(self, dims: tuple[int, int, int], head: str) -> None:
        shapes = _layout_shapes(dims, head)
        self.head, self.dims = head, tuple(dims)
        self.flat = np.zeros(sum(math.prod(shape) for shape in shapes))
        bounds = [0]
        for name, shape in zip(PARAM_FIELDS, shapes):
            bounds.append(bounds[-1] + math.prod(shape))
            # Stored in the instance dict so a field read is a plain attribute read.
            self.__dict__[name] = self.flat[bounds[-2] : bounds[-1]].reshape(shape)
        # PARAM_LAYOUT alternates weights and bias, each bias straight after
        # its weights, so each pair is one (in + 1) x out block whose last
        # row is the bias: an input extended by a constant 1 applies both in
        # one matmul, and one matmul gives the gradient of both.
        self._affine = tuple(
            self.flat[bounds[i] : bounds[i + 2]].reshape(-1, bounds[i + 2] - bounds[i + 1])
            for i in range(0, len(shapes), 2)
        )

    def __setattr__(self, name: str, value) -> None:
        if name not in PARAM_FIELDS:
            super().__setattr__(name, value)
            return
        view = self.__dict__[name]
        value = np.asarray(value, dtype=float)
        if value.shape != view.shape:
            raise ValueError(f"{name} must have shape {view.shape}")
        view[...] = value

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in PARAM_FIELDS:
            raise KeyError(name)
        return self.__dict__[name]

    def validate(self) -> None:
        """Raise ValueError if any tensor holds a non-finite value."""
        for name in PARAM_FIELDS:
            if not np.all(np.isfinite(self[name])):
                raise ValueError(f"{name} contains non-finite values")

    def copy(self) -> "DeepCodaParams":
        return _params_from_flat(self.flat, self.dims, self.head)

    def __reduce__(self):
        # Pickle and deepcopy rebuild the field views over one new buffer;
        # restoring the instance dict would give each view its own copy.
        return _params_from_flat, (self.flat, self.dims, self.head)


def _params_from_flat(flat, dims: tuple[int, int, int], head: str) -> DeepCodaParams:
    p = DeepCodaParams.zeros(dims, head)
    p.flat[:] = flat
    return p


@dataclass(frozen=True)
class ForwardTrace:
    """Per-sample activations: contrasts z, weights w, logit s, probability yhat."""

    z: np.ndarray
    w: np.ndarray
    s: float
    yhat: float


def _rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # einsum keeps one fixed accumulation order per row, so each output row
    # depends only on that row's content: prediction and explanation give a
    # row bit for bit the same result alone or in any batch. BLAS kernels may
    # round rows of one batch differently, so only the training kernel,
    # which always sees the same batch, uses BLAS (many times faster).
    return np.einsum("nd,db->nb", a, b)


def _forward_batch(p: DeepCodaParams, X: np.ndarray):
    """Row-invariant pass of a positive batch. Returns (Z, W, S, yhat).

    Raises FloatingPointError if any contrast or logit is not finite.
    """
    z = _rowwise_matmul(np.log(X), p.beta) + p.beta0
    if p.head == "self_explain":
        hidden = np.maximum(_rowwise_matmul(z, p.mlp_w1) + p.mlp_b1, 0.0)
        w = _rowwise_matmul(hidden, p.mlp_w2) + p.mlp_b2
        s = (w * z).sum(axis=1)
    else:
        w = np.broadcast_to(p.linear_v, z.shape)
        s = p.linear_v0 + np.einsum("nb,b->n", z, p.linear_v)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(s))):
        raise FloatingPointError("non-finite value in forward pass")
    return z, w, s, expit(s)


def forward(p: DeepCodaParams, x) -> ForwardTrace:
    """Run one strictly positive D-vector through the network.

    The trace satisfies ``yhat == expit(s)`` by construction, and for the
    self_explain head ``s`` is exactly the dot product of the returned
    weights and contrasts.
    """
    xv = check_array(x, "x", 1, length=p.dims[0], bound=">0")
    z, w, s, yhat = _forward_batch(p, xv[None, :])
    return ForwardTrace(z=z[0], w=np.array(w[0]), s=float(s[0]), yhat=float(yhat[0]))


def predict_proba(p: DeepCodaParams, X) -> np.ndarray:
    """Row-wise forward pass; returns one probability per sample."""
    xv = check_array(X, "X", 2, length=p.dims[0], bound=">0")
    return _forward_batch(p, xv)[3]


def loss_and_gradients(
    p: DeepCodaParams, X, y, lambda_c: float = 1.0, lambda_s: float = 0.01
) -> tuple[float, DeepCodaParams]:
    """Total training loss and its exact gradient for every parameter tensor.

    The loss is ``sum_i (yhat_i - y_i)^2 + lambda_c * sum_b (sum_d
    beta[d,b])^2 + lambda_s * sum |beta|``; the intercepts and MLP
    parameters are unpenalized. Subgradient conventions at the kinks:
    d|b|/db = 0 at b = 0, and the ReLU derivative is 0 at a pre-activation
    of exactly 0. The gradient has the layout of ``p`` (``grads.flat``
    lines up with ``p.flat``) and is read by name, ``grads["beta"]``; the
    inactive head's tensors get zero gradient.

    ``train`` runs the same kernel each epoch on one ``_Workspace``; this
    wrapper builds a workspace per call. The kernel uses BLAS and is not
    row-invariant: a row's loss term may differ in the last bits between
    batches. Its logistic runs on numpy's float64 ``exp``, not on the
    scipy-exact ``expit``, so the loss may also differ in the last bits
    from one computed from ``predict_proba``, and between CPUs for which
    numpy picks different ``exp`` kernels. ``predict_proba``, ``forward``
    and explanations keep the row-invariant einsum and the scipy-exact
    logistic of ``_forward_batch``.
    """
    check_real(lambda_c, "lambda_c")
    check_real(lambda_s, "lambda_s")
    xv = check_array(X, "X", 2, length=p.dims[0], bound=">0")
    yv = check_labels(y, xv.shape[0])
    grads = DeepCodaParams.zeros(p.dims, p.head)
    ws = _Workspace(xv, p.dims, p.head)
    return _loss_and_gradients(p, ws, yv, lambda_c, lambda_s, grads), grads


class _Workspace:
    """Every buffer ``_loss_and_gradients`` writes for one batch, allocated once.

    Activations are stored feature-major (one row per feature, one column
    per sample), so every elementwise pass runs over contiguous memory.
    ``logx1``, ``z1`` and ``h1`` end in a row of ones, so a layer is one
    matmul against a ``DeepCodaParams._affine`` block. The kernel never
    writes a ones row, so a workspace serves any number of calls on the
    same ``X``, ``dims`` and ``head``. Every buffer is float64: the
    logistic is computed in place in ``yhat``.
    """

    def __init__(self, X: np.ndarray, dims: tuple[int, int, int], head: str) -> None:
        (n, d), (_, b, h) = X.shape, dims
        self.logx1 = np.ones((d + 1, n))
        np.log(X.T, out=self.logx1[:d])
        self.z1 = np.ones((b + 1, n))
        self.s, self.yhat, self.resid, self.gs = np.empty((4, n))
        self.gz = np.empty((b, n))
        if head == "self_explain":
            self.h1 = np.ones((h + 1, n))
            # The ReLU derivative as 0.0/1.0, so masking is a float multiply.
            self.relu, self.ga = np.empty((2, h, n))
            self.w, self.gw = np.empty((2, b, n))


def _loss_and_gradients(
    p: DeepCodaParams,
    ws: _Workspace,
    y: np.ndarray,
    lambda_c: float,
    lambda_s: float,
    grads: DeepCodaParams,
) -> float:
    """``loss_and_gradients`` on a checked batch's workspace; writes the gradient into ``grads``.

    Every tensor of the active head is overwritten, and the inactive head's
    are never written, so ``grads`` can be reused across calls.
    """
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
    # The logistic on numpy's float64 exp, about 3.5 times faster at 1,000
    # rows than the scipy-exact expit that every reported probability goes
    # through; the errstate keeps a logit beyond exp's range from warning.
    yhat = ws.yhat
    with np.errstate(over="ignore", under="ignore"):
        np.exp(np.negative(ws.s, out=yhat), out=yhat)
    yhat += 1.0
    np.divide(1.0, yhat, out=yhat)

    resid = np.subtract(yhat, y, out=ws.resid)
    col_sums = p.beta.sum(axis=0)
    # einsum, not BLAS ddot, which splits long sums across threads and so
    # would make the loss depend on the CPU count.
    total = float(
        np.einsum("n,n->", resid, resid)
        + lambda_c * (col_sums @ col_sums)
        + lambda_s * np.abs(p.beta).sum()
    )
    if not np.isfinite(total):
        raise FloatingPointError("non-finite loss")

    # d(loss)/d(logit) = 2 resid yhat (1 - yhat): squared error through the logistic output.
    gs = np.multiply(resid, 2.0, out=ws.gs)
    gs *= yhat
    gs *= np.subtract(1.0, yhat, out=ws.yhat)  # yhat is not read again
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


def loss(p: DeepCodaParams, X, y, lambda_c: float = 1.0, lambda_s: float = 0.01) -> float:
    """Penalized squared-error loss over a strictly positive batch."""
    return loss_and_gradients(p, X, y, lambda_c, lambda_s)[0]


def gradients(
    p: DeepCodaParams, X, y, lambda_c: float = 1.0, lambda_s: float = 0.01
) -> DeepCodaParams:
    """Exact analytic gradient of ``loss`` with respect to every parameter."""
    return loss_and_gradients(p, X, y, lambda_c, lambda_s)[1]


def params_to_text(p: DeepCodaParams) -> str:
    """Serialize to the flat text format: one ``key = values`` line per tensor.

    Values are written row-major as ``_formats.NUMBER``, which round-trips
    IEEE doubles exactly. No line holds ``#``, which starts a comment.
    """
    d, b, h = p.dims
    lines = [
        f"format = {_FORMAT_TAG}",
        f"dims = {d} {b} {h}",
        f"head = {p.head}",
    ]
    for name in PARAM_FIELDS:
        lines.append(f"{name} = " + " ".join([NUMBER % x for x in p[name].reshape(-1)]))
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> DeepCodaParams:
    """Parse the flat text format produced by ``params_to_text`` (``#`` starts a comment)."""
    entries = {key: value for _, key, value in key_values(text, "line")}
    if entries.get("format") != _FORMAT_TAG:
        raise ValueError(f"not a {_FORMAT_TAG} file")
    try:
        d, b, h = (int(tok) for tok in entries["dims"].split())
    except (KeyError, ValueError) as exc:
        raise ValueError("missing or malformed dims header") from exc
    head = entries.get("head")
    values: list[float] = []
    # Token counts are checked against the header before anything is
    # allocated, so a forged header cannot request a huge buffer.
    for name, shape in zip(PARAM_FIELDS, _layout_shapes((d, b, h), head)):
        if name not in entries:
            raise ValueError(f"missing parameter {name}")
        tokens = entries[name].split()
        if len(tokens) != math.prod(shape):
            raise ValueError(f"{name}: expected {math.prod(shape)} values, got {len(tokens)}")
        values += [float(tok) for tok in tokens]
    p = DeepCodaParams.zeros((d, b, h), head)
    p.flat[:] = values
    p.validate()
    return p


def save_params(p: DeepCodaParams, path) -> None:
    Path(path).write_text(params_to_text(p), encoding="utf-8", newline="")


def load_params(path) -> DeepCodaParams:
    """Read a model file; an error names the file, and the line of a byte that is not UTF-8."""
    return parse_file(path, params_from_text)
