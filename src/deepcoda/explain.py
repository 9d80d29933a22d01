"""Two-level interpretability reports for trained models.

Level 1 decomposes one prediction into per-bottleneck product scores
(weight times contrast value): their sum is the prediction logit, so the
class call is readable off the signs. Level 2 describes each learned
contrast by its member features (positive powers form the numerator,
negative the denominator) and relates the per-sample weights back to the
contrast values through Pearson and canonical correlations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._formats import NUMBER, csv_field, csv_row
from ._forkmap import ordered_fork_map
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

_CCA_JITTER = 1e-8
_ROW_BLOCK = 4096  # explanation rows per block: one join, one fork-map task


def _decisions(products: np.ndarray) -> np.ndarray:
    """Positive class iff the summed product scores exceed zero (logit > 0), per row."""
    return np.where(products.sum(axis=-1) > 0.0, DECISION_POSITIVE, DECISION_NEGATIVE)


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


def _standardize_columns(arr: np.ndarray):
    centered = arr - arr.mean(axis=0)
    std = arr.std(axis=0)
    constant = std == 0
    safe = np.where(constant, 1.0, std)
    out = centered / safe
    out[:, constant] = 0.0
    return out, constant


def _inverse_sqrt(sym: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, _CCA_JITTER)
    return (vecs / np.sqrt(vals)) @ vecs.T


def weight_contrast_correlation(W, Z):
    """Pearson matrix between weight and contrast columns, plus canonical correlations.

    Constant columns get correlation 0 by convention (a warning flags
    them). Canonical correlations are the singular values of the
    whitened cross-correlation block, computed on standardized columns
    with a 1e-8 ridge on the diagonals, clipped to [0, 1], descending.
    """
    wv = check_array(W, "W", 2)
    zv = check_array(Z, "Z", 2)
    if wv.shape[0] != zv.shape[0]:
        raise ValueError("W and Z must have matching row counts")
    n = wv.shape[0]
    if n <= max(wv.shape[1], zv.shape[1]):
        raise ValueError("need more samples than columns for correlation analysis")
    ws, w_const = _standardize_columns(wv)
    zs, z_const = _standardize_columns(zv)
    if w_const.any() or z_const.any():
        warnings.warn(
            "constant columns detected; their correlations are reported as 0",
            RuntimeWarning,
            stacklevel=2,
        )
    r_wz = ws.T @ zs / n
    pearson = np.clip(r_wz, -1.0, 1.0)
    r_ww = ws.T @ ws / n + _CCA_JITTER * np.eye(wv.shape[1])
    r_zz = zs.T @ zs / n + _CCA_JITTER * np.eye(zv.shape[1])
    whitened = _inverse_sqrt(r_ww) @ r_wz @ _inverse_sqrt(r_zz)
    singular = np.linalg.svd(whitened, compute_uv=False)
    canonical = np.clip(singular, 0.0, 1.0)
    return pearson, canonical[: min(wv.shape[1], zv.shape[1])]


@dataclass(frozen=True)
class ReportBundle:
    """Deterministic text summary plus the three CSV tables."""

    summary: str
    explanations_csv: str
    memberships_csv: str
    correlations_csv: str


def _csv_table(header: list[str], rows: Iterable[list]) -> str:
    return "".join(map(csv_row, [header, *rows]))


def _explanation_blocks(batch: ExplanationBatch) -> Iterator[str]:
    """The explanations table in order: its header, then one string per ``_ROW_BLOCK`` rows.

    With two or more blocks, ``ordered_fork_map`` formats them in forked workers.
    """
    n_contrasts = batch.z.shape[1] if len(batch) else 0
    yield csv_row(
        ["sample_id"]
        + [f"{kind}_{b + 1}" for kind in ("z", "w", "prod") for b in range(n_contrasts)]
        + ["prob", "decision"]
    )
    # One "%" format per row, so each number is written as csv_row writes it.
    row_format = "%s" + f",{NUMBER}" * (3 * n_contrasts + 1) + ",%s\n"

    def block(k: int) -> str:
        rows = slice(k * _ROW_BLOCK, (k + 1) * _ROW_BLOCK)
        numbers = np.hstack(
            [batch.z[rows], batch.w[rows], batch.products[rows], batch.prediction[rows, None]]
        )
        ids = map(csv_field, map(str, batch.sample_ids[rows]))
        lines = zip(ids, numbers.tolist(), batch.decisions[rows].tolist())
        return "".join([row_format % (sid, *row, dec) for sid, row, dec in lines])

    yield from ordered_fork_map(block, -(-len(batch) // _ROW_BLOCK))


def _summary_tables(batch: ExplanationBatch, memberships, correlations) -> tuple[str, str, str]:
    """``render_report``'s summary, memberships CSV and correlations CSV."""
    mem_rows = []
    for m in memberships:
        for rank, (name, power) in enumerate(m.entries, start=1):
            side = "numerator" if power > 0 else "denominator"
            mem_rows.append([m.bottleneck_index + 1, rank, name, power, side])
    memberships_csv = _csv_table(["bottleneck", "rank", "feature", "power", "side"], mem_rows)

    corr_rows = []
    if correlations is not None:
        pearson, canonical = correlations
        pearson = np.asarray(pearson, dtype=float)
        for i in range(pearson.shape[0]):
            for j in range(pearson.shape[1]):
                corr_rows.append(["pearson", i + 1, j + 1, pearson[i, j]])
        for k, value in enumerate(np.asarray(canonical, dtype=float), start=1):
            corr_rows.append(["canonical", k, "", value])
    correlations_csv = _csv_table(["kind", "row", "col", "value"], corr_rows)

    n_pos = int(np.count_nonzero(batch.decisions == DECISION_POSITIVE))
    lines = [
        f"samples: {len(batch)}",
        f"decisions: {n_pos} {DECISION_POSITIVE}, {len(batch) - n_pos} {DECISION_NEGATIVE}",
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
    summary = "\n".join(lines) + "\n"
    return summary, memberships_csv, correlations_csv


def render_report(
    explanations: ExplanationBatch | Sequence[Explanation],
    memberships: Sequence[ContrastMembership],
    correlations=None,
) -> ReportBundle:
    """Serialize report tables deterministically (numbers as ``_formats.NUMBER``).

    A sequence of ``Explanation`` is stacked into an ``ExplanationBatch``
    first, so both forms give the same bytes. The explanations table is
    joined from the row blocks that ``deepcoda explain`` streams to disk,
    formatted through the shared ``_forkmap.ordered_fork_map``.
    """
    batch = explanations
    if not isinstance(batch, ExplanationBatch):
        batch = ExplanationBatch.stack(explanations)
    summary, memberships_csv, correlations_csv = _summary_tables(batch, memberships, correlations)
    explanations_csv = "".join(_explanation_blocks(batch))
    return ReportBundle(summary, explanations_csv, memberships_csv, correlations_csv)
