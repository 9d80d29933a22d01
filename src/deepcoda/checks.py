"""The input contract: each rule on caller-supplied arguments, written once.

- Arrays (``check_array``): float64; ``ndim`` one of the caller's allowed
  values; optionally a fixed last-axis length; every entry finite; and
  optionally every entry ``> 0`` (log inputs) or ``>= 0`` (abundances).
- Labels (``check_labels``): one per sample, each 0 or 1, and optionally
  both values present (fits and AUC need two classes).
- Penalties, rates, fractions and tolerances (``check_real``): a finite
  real number in ``[low, high)``, or ``(low, high)``.
- Names (``check_names``): one per row or column, each read as a string.
- Counts, sizes and indices (``check_count``): an integer of at least a
  minimum (1 unless the caller says otherwise).
- Seeds (``check_seed``): a nonnegative integer, as numpy's generators need.
- Named options (``check_choice``): one of a fixed tuple of values.

An integer is a Python ``int`` or a numpy integer, and a real number is
an integer, a Python ``float`` or a numpy floating scalar; a bool is
neither, so ``True`` is no count, no seed and no penalty. Every rejection
is a ValueError naming the argument.
"""

from __future__ import annotations

import math

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


def _is_integer(value) -> bool:
    # bool subclasses int, but True is not a count.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(value, name: str, minimum: int = 1) -> None:
    """Reject ``value`` unless it is an integer of at least ``minimum``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")


def check_real(value, name: str, low=0.0, high=math.inf, low_open=False) -> None:
    """Reject ``value`` unless it is real and in [low, high), or (low, high) when ``low_open``."""
    if not (_is_integer(value) or isinstance(value, (float, np.floating))):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    # Comparisons with NaN are False, and the upper end is open: NaN and infinities fail.
    if not ((low < value if low_open else low <= value) and value < high):
        interval = f"{'(' if low_open else '['}{low:g}, {high:g})"
        raise ValueError(f"{name} must be a finite number in {interval}, got {value}")


def check_names(names, count: int, what: str) -> tuple[str, ...]:
    """``names`` as a tuple of ``count`` strings; ``what`` says what they name in the error."""
    strings = tuple(map(str, names))
    if len(strings) != count:
        raise ValueError(f"expected {count} {what}, got {len(strings)}")
    return strings


def check_seed(seed, name: str = "seed") -> None:
    """Reject a seed that is not a nonnegative integer."""
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {seed!r}")


def check_choice(value, name: str, choices: tuple) -> None:
    """Reject ``value`` unless it is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
