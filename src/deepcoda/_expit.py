"""The logistic function, equal bit for bit to ``scipy.special.expit``.

scipy computes ``1 / (1 + exp(-x))`` with libm's ``exp``. numpy's float64
``exp`` runs its own SIMD kernels, which round some values differently, but
its complex128 ``exp`` calls libm's ``cexp``, and for a zero imaginary part
``cexp`` returns libm's ``exp`` of the real part times exactly 1. So the
argument goes through ``exp`` as a complex number with zero imaginary part.

Two kinds of element are redone one at a time with ``math.exp``, which is
libm's ``exp``: arguments in (709, 710), where glibc's ``cexp`` computes
``exp(709) * exp(t - 709)`` to avoid overflow and so may round differently
(from 710 on both overflow to inf), and NaN, whose sign ``cexp`` drops.

Every probability the package reports goes through this function: the
network's ``predict_proba``, ``forward`` and explanations, and
``LassoModel.predict_proba``. Fitting does not: the training kernel and
the LASSO solver use numpy's faster float64 ``exp``, so a fit's last
bits may differ between CPUs for which numpy picks different kernels.
"""

from __future__ import annotations

import math

import numpy as np

# -x in (709, 710): int(1023 ln 2) = 709, above which glibc's cexp rescales,
# and exp overflows from log(DBL_MAX) = 709.78 on.
_CEXP_RESCALE = 709.0
_EXP_OVERFLOW = 710.0


def _expit_of_negated(t: float) -> float:
    try:
        e = math.exp(t)
    except OverflowError:
        e = math.inf
    return 1.0 / (1.0 + e)


def expit(x):
    """``1 / (1 + exp(-x))`` elementwise, as ``scipy.special.expit`` computes it.

    ``x`` is read as float64; a 0-d input gives a numpy scalar, as a ufunc
    does. Like scipy, this never warns and never raises on overflow or
    underflow, whatever the caller's ``np.errstate``.
    """
    x = np.asarray(x, dtype=float)
    c = np.zeros(x.shape, dtype=complex)
    result = np.empty(x.shape)
    t = c.real
    with np.errstate(all="ignore"):
        np.negative(x, out=t)
        redone = None
        # The minimum is NaN if any element is, and the comparison then False.
        if x.size and not np.minimum.reduce(x, axis=None) >= -_CEXP_RESCALE:
            slow = np.flatnonzero(~((t <= _CEXP_RESCALE) | (t >= _EXP_OVERFLOW)))
            redone = [_expit_of_negated(v) for v in t.flat[slow].tolist()]
        np.exp(c, out=c)
        np.add(t, 1.0, out=result)
        np.divide(1.0, result, out=result)
    if redone is not None:
        result.flat[slow] = redone
    return result if result.ndim else result[()]
