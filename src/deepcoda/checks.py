"""The input contract: each rule on caller-supplied arrays, written once.

- Arrays (``check_array``): float64; ``ndim`` one of the caller's allowed
  values; optionally a fixed last-axis length; every entry finite; and
  optionally every entry ``> 0`` (log inputs) or ``>= 0`` (abundances).
- Labels (``check_labels``): one per sample, each 0 or 1, and optionally
  both values present (fits and AUC need two classes).
- Penalty weights (``check_penalties``): each finite and ``>= 0``.
- The zero-replacement fraction (``check_delta_fraction``): in (0, 1).
- Counts, sizes and indices (``check_count``): an integer of at least a
  minimum (1 unless the caller says otherwise).
- Seeds (``check_seed``): a nonnegative integer, as numpy's generators need.
- Named options (``check_choice``): one of a fixed tuple of values.

An integer is a Python ``int`` or a numpy integer; a bool is not one, so
``True`` is no count and no seed. Every rejection is a ValueError naming
the argument.
"""

from __future__ import annotations

import numpy as np


def check_array(x, name: str, ndim, length: int | None = None, bound: str | None = None):
    """``x`` as a float array; ``ndim`` is an int or a tuple, ``bound`` ">0" or ">=0"."""
    arr = np.asarray(x, dtype=float)
    allowed = (ndim,) if isinstance(ndim, int) else ndim
    if arr.ndim not in allowed:
        raise ValueError(f"{name} must have {' or '.join(map(str, allowed))} dimensions")
    if length is not None and arr.shape[-1] != length:
        raise ValueError(f"{name} must have {length} entries along its last axis")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if bound == ">0" and not (arr > 0).all():
        raise ValueError(f"{name} must be strictly positive")
    if bound == ">=0" and not (arr >= 0).all():
        raise ValueError(f"{name} must be nonnegative")
    return arr


def check_labels(y, n_samples: int, both_classes: bool = False) -> np.ndarray:
    """``y`` as a float vector of ``n_samples`` labels, each 0 or 1."""
    arr = np.asarray(y)
    if arr.shape != (n_samples,):
        raise ValueError(f"labels must be a vector of length {n_samples}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("labels must be 0 or 1")
    labels = arr.astype(float)
    if both_classes and not 0 < labels.sum() < n_samples:
        raise ValueError("labels must contain both 0 and 1")
    return labels


def check_penalties(*weights: float) -> None:
    """Reject a penalty weight that is negative, NaN or infinite."""
    # Chained comparisons are False for NaN, so this also rejects NaN.
    if not all(0 <= w < np.inf for w in weights):
        raise ValueError("penalty weights must be nonnegative and finite")


def check_delta_fraction(delta_fraction: float) -> None:
    """Reject a zero-replacement fraction outside the open interval (0, 1)."""
    # A chained comparison is False for NaN, so this also rejects NaN.
    if not 0.0 < delta_fraction < 1.0:
        raise ValueError("delta_fraction must lie in (0, 1)")


def _is_integer(value) -> bool:
    # bool subclasses int, but True is not a count.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(value, name: str, minimum: int = 1) -> None:
    """Reject ``value`` unless it is an integer of at least ``minimum``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")


def check_seed(seed, name: str = "seed") -> None:
    """Reject a seed that is not a nonnegative integer."""
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {seed!r}")


def check_choice(value, name: str, choices: tuple) -> None:
    """Reject ``value`` unless it is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
