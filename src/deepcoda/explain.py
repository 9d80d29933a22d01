"""Two-level interpretability reports for trained models.

Level 1 decomposes one prediction into per-bottleneck product scores
(weight times contrast value): their sum is the prediction logit, so the
class call is readable off the signs. Level 2 describes each learned
contrast by its member features (positive powers form the numerator,
negative the denominator) and relates the per-sample weights back to the
contrast values through Pearson and canonical correlations.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._formats import cell_lines, csv_field, csv_row, csv_table, text_cells
from .checks import check_array, check_count, check_names, check_real
# ``forward`` is not called here; perfbench/tracer.py wraps it by name on this module.
from .model import DeepCodaParams, _forward_batch, forward  # noqa: F401

__all__ = [
    "DECISION_NEGATIVE",
    "DECISION_POSITIVE",
    "ContrastMembership",
    "Explanation",
    "ExplanationBatch",
    "ReportBundle",
    "contrast_membership",
    "decision_rule",
    "explain_batch",
    "explain_sample",
    "render_report",
    "weight_contrast_correlation",
]

DECISION_POSITIVE = "unhealthy"
DECISION_NEGATIVE = "healthy"
# ``_part``'s decision cells, indexed by positive; built at import, so forked workers inherit them.
_DECISION_CELLS = text_cells([DECISION_NEGATIVE.encode(), DECISION_POSITIVE.encode()])

_CCA_JITTER = 1e-8
# Rows per chunk of the correlation moments, and so per block of ``deepcoda explain``.
_ROW_BLOCK = 4096


def _decisions(products: np.ndarray) -> np.ndarray:
    """Positive class iff the summed product scores exceed zero (logit > 0), per row."""
    return np.where(products.sum(axis=-1) > 0.0, DECISION_POSITIVE, DECISION_NEGATIVE)


def _positives(batch: "ExplanationBatch") -> int:
    """How many rows of ``batch`` have the decision ``DECISION_POSITIVE``."""
    return int(np.count_nonzero(batch.decisions == DECISION_POSITIVE))


def decision_rule(products) -> str:
    """Positive class iff the summed product scores exceed zero (logit > 0)."""
    return str(_decisions(np.asarray(products, dtype=float)))


@dataclass(frozen=True)
class Explanation:
    """One sample's additive decomposition: prediction = expit(sum(products))."""

    sample_id: str
    z: np.ndarray
    w: np.ndarray
    products: np.ndarray
    prediction: float
    decision: str


@dataclass(frozen=True)
class ContrastMembership:
    """Features with |power| above threshold for one bottleneck, largest first."""

    bottleneck_index: int
    entries: tuple[tuple[str, float], ...]
    numerator: tuple[str, ...]
    denominator: tuple[str, ...]

    def __post_init__(self) -> None:
        check_count(self.bottleneck_index, "bottleneck_index", 0)


@dataclass(frozen=True)
class ExplanationBatch:
    """N explanations held as columns.

    ``z``, ``w`` and ``products`` are N x B arrays, ``prediction`` and
    ``decisions`` have length N, and ``batch[i]`` is row i as an
    ``Explanation``.
    """

    sample_ids: tuple[str, ...]
    z: np.ndarray
    w: np.ndarray
    products: np.ndarray
    prediction: np.ndarray
    decisions: np.ndarray

    def __len__(self) -> int:
        return len(self.sample_ids)

    def __getitem__(self, i: int) -> Explanation:
        return Explanation(
            sample_id=self.sample_ids[i],
            z=self.z[i],
            w=self.w[i],
            products=self.products[i],
            prediction=float(self.prediction[i]),
            decision=str(self.decisions[i]),
        )

    @classmethod
    def stack(cls, explanations: Sequence[Explanation]) -> "ExplanationBatch":
        """The batch whose rows are ``explanations``, in order."""
        n = len(explanations)
        n_contrasts = len(explanations[0].z) if n else 0

        def column(field: str) -> np.ndarray:
            rows = [getattr(e, field) for e in explanations]
            return np.array(rows, dtype=float).reshape(n, n_contrasts)

        return cls(
            sample_ids=tuple(e.sample_id for e in explanations),
            z=column("z"),
            w=column("w"),
            products=column("products"),
            prediction=np.array([e.prediction for e in explanations], dtype=float),
            decisions=np.array([e.decision for e in explanations], dtype=str),
        )


def explain_batch(p: DeepCodaParams, X, sample_ids: Sequence[str]) -> ExplanationBatch:
    """Decompose the prediction for every row of a strictly positive N x D batch.

    One forward pass covers all rows. Its kernel rounds each row on its own,
    so row i is bit for bit ``explain_sample(p, X[i], sample_ids[i])``.
    """
    if p.head != "self_explain":
        raise ValueError(
            "explanations require the self_explain head; "
            "the linear head has no per-sample weights"
        )
    xv = check_array(X, "X", 2, length=p.dims[0], bound=">0")
    ids = check_names(sample_ids, xv.shape[0], "sample ids")
    z, w, _, yhat = _forward_batch(p, xv)
    products = w * z
    return ExplanationBatch(ids, z, w, products, yhat, _decisions(products))


def explain_sample(p: DeepCodaParams, x, sample_id: str = "sample") -> Explanation:
    """Decompose one prediction into per-bottleneck product scores."""
    xv = check_array(x, "x", 1, length=p.dims[0], bound=">0")
    return explain_batch(p, xv[None, :], [sample_id])[0]


def contrast_membership(
    p: DeepCodaParams,
    bottleneck_index: int,
    feature_names: Sequence[str] | None = None,
    magnitude_threshold: float = 1e-3,
) -> ContrastMembership:
    """Signed power list for one bottleneck, sorted by |power| descending."""
    d, n_bottlenecks, _ = p.dims
    check_count(bottleneck_index, "bottleneck_index", 0)
    if bottleneck_index >= n_bottlenecks:
        raise ValueError(f"bottleneck_index must lie in [0, {n_bottlenecks})")
    check_real(magnitude_threshold, "magnitude_threshold")
    if feature_names is None:
        names = [f"feature_{j + 1}" for j in range(d)]
    else:
        names = check_names(feature_names, d, "feature names")
    powers = p.beta[:, bottleneck_index]
    kept = np.flatnonzero(np.abs(powers) > magnitude_threshold)
    order = kept[np.argsort(-np.abs(powers[kept]), kind="stable")]
    entries = tuple((names[j], float(powers[j])) for j in order)
    return ContrastMembership(
        bottleneck_index=bottleneck_index,
        entries=entries,
        numerator=tuple(nm for nm, pw in entries if pw > 0),
        denominator=tuple(nm for nm, pw in entries if pw < 0),
    )


@dataclass(frozen=True)
class _Moments:
    """The moments of the rows of an N x k array, N >= 1.

    ``count`` is N; ``mean``, ``low`` and ``high`` are each column's mean,
    min and max; ``cross`` is the k x k cross-product of the centered rows.
    """

    count: int
    mean: np.ndarray
    cross: np.ndarray
    low: np.ndarray
    high: np.ndarray

    @classmethod
    def of(cls, rows: np.ndarray) -> "_Moments":
        mean = rows.mean(axis=0)
        centered = rows - mean
        return cls(rows.shape[0], mean, centered.T @ centered, rows.min(axis=0), rows.max(axis=0))

    def merge(self, other: "_Moments") -> "_Moments":
        """The moments of these rows followed by ``other``'s: the pairwise update of Chan,
        Golub and LeVeque ("Updating formulae and a pairwise algorithm for computing sample
        variances", 1979)."""
        count = self.count + other.count
        delta = other.mean - self.mean
        return _Moments(
            count,
            self.mean + delta * (other.count / count),
            self.cross + other.cross + np.outer(delta, delta) * (self.count * other.count / count),
            np.minimum(self.low, other.low),
            np.maximum(self.high, other.high),
        )


def _correlation_moments(W: np.ndarray, Z: np.ndarray) -> _Moments:
    """The moments of the rows of [W | Z], merged in order from chunks of ``_ROW_BLOCK`` rows.

    A block of ``deepcoda explain`` is such a chunk, so merging its blocks'
    moments gives these bits.
    """
    rows = np.hstack([W, Z])
    chunks = (_Moments.of(rows[i : i + _ROW_BLOCK]) for i in range(0, rows.shape[0], _ROW_BLOCK))
    return functools.reduce(_Moments.merge, chunks)


def _inverse_sqrt(sym: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, _CCA_JITTER)
    return (vecs / np.sqrt(vals)) @ vecs.T


def _correlations(moments: _Moments, n_weights: int):
    """``weight_contrast_correlation`` of the rows whose [W | Z] has ``moments``.

    W is the first ``n_weights`` columns. Warns when a column is constant, on behalf of
    the caller of ``weight_contrast_correlation`` or ``_report_tables``.
    """
    # By min and max, as a constant column whose mean is inexact has a tiny
    # nonzero spread; a zero spread (an underflow) would divide by zero.
    spread = np.diag(moments.cross)
    constant = (moments.low == moments.high) | (spread == 0)
    if constant.any():
        warnings.warn(
            "constant columns detected; their correlations are reported as 0",
            RuntimeWarning,
            stacklevel=3,
        )
    # A spread that overflowed standardizes its column to 0, as dividing by an infinite std would.
    zeroed = constant | ~np.isfinite(spread)
    scale = np.sqrt(np.where(zeroed, 1.0, spread))
    r = moments.cross / np.outer(scale, scale)
    r[zeroed, :] = 0.0
    r[:, zeroed] = 0.0
    r_wz = r[:n_weights, n_weights:]
    pearson = np.clip(r_wz, -1.0, 1.0)
    r_ww = r[:n_weights, :n_weights] + _CCA_JITTER * np.eye(n_weights)
    r_zz = r[n_weights:, n_weights:] + _CCA_JITTER * np.eye(r.shape[0] - n_weights)
    whitened = _inverse_sqrt(r_ww) @ r_wz @ _inverse_sqrt(r_zz)
    singular = np.linalg.svd(whitened, compute_uv=False)
    canonical = np.clip(singular, 0.0, 1.0)
    return pearson, canonical[: min(r_wz.shape)]


def weight_contrast_correlation(W, Z):
    """Pearson matrix between weight and contrast columns, plus canonical correlations.

    Constant columns get correlation 0 by convention (a warning flags
    them). Canonical correlations are the singular values of the
    whitened cross-correlation block, computed on standardized columns
    with a 1e-8 ridge on the diagonals, clipped to [0, 1], descending.
    The column moments are merged from fixed chunks of rows, so
    ``deepcoda explain``, which merges them from its blocks, writes these
    bits whatever its CPU count.
    """
    wv = check_array(W, "W", 2)
    zv = check_array(Z, "Z", 2)
    if wv.shape[0] != zv.shape[0]:
        raise ValueError("W and Z must have matching row counts")
    n = wv.shape[0]
    if n <= max(wv.shape[1], zv.shape[1]):
        raise ValueError("need more samples than columns for correlation analysis")
    return _correlations(_correlation_moments(wv, zv), wv.shape[1])


@dataclass(frozen=True)
class ReportBundle:
    """Deterministic text summary plus the three CSV tables."""

    summary: str
    explanations_csv: str
    memberships_csv: str
    correlations_csv: str


def _explanations_header(n_contrasts: int) -> str:
    return csv_row(
        ["sample_id"]
        + [f"{kind}_{b + 1}" for kind in ("z", "w", "prod") for b in range(n_contrasts)]
        + ["prob", "decision"]
    )


def _explanation_lines(batch: ExplanationBatch, id_cells, decision_cells) -> bytes:
    """The explanations table's lines for ``batch``, as UTF-8.

    Each line holds the id, Z, W, the products, the prediction and the
    decision. The ids and decisions are given as ``_formats.text_cells``;
    each number is written as ``NUMBER``.
    """
    numbers = np.hstack([batch.z, batch.w, batch.products, batch.prediction[:, None]])
    return cell_lines(id_cells, numbers, decision_cells)


def _explanations_table(batch: ExplanationBatch) -> bytes:
    """The explanations table, header first, as UTF-8, for any ids and decisions."""
    ids = [csv_field(str(sid)).encode("utf-8", "surrogatepass") for sid in batch.sample_ids]
    decisions = [str(d).encode("utf-8", "surrogatepass") for d in batch.decisions.tolist()]
    empty = np.zeros((len(ids), 0), dtype=np.uint8)  # each id and decision joins its line
    lines = _explanation_lines(batch, empty, empty).split(b"\n")
    rows = [sid + line + d + b"\n" for sid, line, d in zip(ids, lines, decisions)]
    return b"".join([_explanations_header(batch.z.shape[1] if len(batch) else 0).encode(), *rows])


@dataclass(frozen=True)
class _Part:
    """``_part``'s report of some rows: nothing that grows with them but their lines."""

    lines: bytes  # their rows of the explanations table
    positives: int  # rows with the decision DECISION_POSITIVE
    moments: _Moments  # of their [W | Z]; its count is the row count


def _part(p: DeepCodaParams, X: np.ndarray, id_cells) -> _Part:
    """The ``_Part`` of the strictly positive rows ``X``; ``id_cells`` are their ids' ``text_cells``."""
    batch = explain_batch(p, X, range(len(X)))
    decision_cells = _DECISION_CELLS[(batch.decisions == DECISION_POSITIVE) * 1]
    return _Part(
        _explanation_lines(batch, id_cells, decision_cells),
        _positives(batch),
        _correlation_moments(batch.w, batch.z),
    )


def _summary_tables(
    n_samples: int, n_positive: int, memberships, correlations
) -> tuple[str, str, str]:
    """``render_report``'s memberships CSV, correlations CSV and summary, as explain writes them.

    ``n_positive`` of the ``n_samples`` explained rows have the decision
    ``DECISION_POSITIVE``.
    """
    mem_rows = []
    for m in memberships:
        for rank, (name, power) in enumerate(m.entries, start=1):
            side = "numerator" if power > 0 else "denominator"
            mem_rows.append([m.bottleneck_index + 1, rank, name, power, side])
    memberships_csv = csv_table(["bottleneck", "rank", "feature", "power", "side"], mem_rows)

    corr_rows = []
    if correlations is not None:
        pearson, canonical = correlations
        pearson = np.asarray(pearson, dtype=float)
        for i in range(pearson.shape[0]):
            for j in range(pearson.shape[1]):
                corr_rows.append(["pearson", i + 1, j + 1, pearson[i, j]])
        for k, value in enumerate(np.asarray(canonical, dtype=float), start=1):
            corr_rows.append(["canonical", k, "", value])
    correlations_csv = csv_table(["kind", "row", "col", "value"], corr_rows)

    lines = [
        f"samples: {n_samples}",
        f"decisions: {n_positive} {DECISION_POSITIVE}, "
        f"{n_samples - n_positive} {DECISION_NEGATIVE}",
    ]
    for m in memberships:
        if m.entries:
            top_name, top_power = m.entries[0]
            lines.append(
                f"contrast {m.bottleneck_index + 1}: {len(m.entries)} parts, "
                f"top |power| {top_name} ({top_power:.4g})"
            )
        else:
            lines.append(f"contrast {m.bottleneck_index + 1}: no parts above threshold")
    return memberships_csv, correlations_csv, "\n".join(lines) + "\n"


def _report_tables(p: DeepCodaParams, feature_names, n_rows: int, n_positive: int, moments):
    """``_summary_tables`` of ``n_rows`` rows explained by ``p``, ``n_positive`` of them positive,
    whose [W | Z] has ``moments`` (None for at most B rows, which have no correlations)."""
    n_bottlenecks = p.dims[1]
    memberships = [contrast_membership(p, b, feature_names) for b in range(n_bottlenecks)]
    correlations = _correlations(moments, n_bottlenecks) if n_rows > n_bottlenecks else None
    return _summary_tables(n_rows, n_positive, memberships, correlations)


def render_report(
    explanations: ExplanationBatch | Sequence[Explanation],
    memberships: Sequence[ContrastMembership],
    correlations=None,
) -> ReportBundle:
    """Serialize report tables deterministically (numbers as ``_formats.NUMBER``).

    A sequence of ``Explanation`` is stacked into an ``ExplanationBatch``
    first, so both forms give the same bytes.
    """
    batch = explanations
    if not isinstance(batch, ExplanationBatch):
        batch = ExplanationBatch.stack(explanations)
    memberships_csv, correlations_csv, summary = _summary_tables(
        len(batch), _positives(batch), memberships, correlations
    )
    explanations_csv = _explanations_table(batch).decode("utf-8", "surrogatepass")
    return ReportBundle(summary, explanations_csv, memberships_csv, correlations_csv)
