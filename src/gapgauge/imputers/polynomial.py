"""Local least-squares polynomial fill."""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import ContextError, DivergenceError
from ..gaps import GapSpec
from ..series import TimeSeries


def polynomial_fill(masked: TimeSeries, gap: GapSpec, params: dict, seed: int) -> np.ndarray:
    """Fit one polynomial through observed context points and read off the gap.

    Each side of the gap is read up to :func:`polynomial_reach` samples out
    and must contribute at least ``order + 1`` observed points, except that
    when the series end cuts the right window short of that, the fill
    extrapolates from the left context alone.  The abscissa is the sample
    index.
    """
    order, context = params["order"], polynomial_reach(params, gap.length)

    needed = order + 1
    left_lo = max(0, gap.start_index - context)
    left_idx = _observed_indices(masked, left_lo, gap.start_index)
    right_hi = min(len(masked), gap.end_index + context)
    right_idx = _observed_indices(masked, gap.end_index, right_hi)

    if len(left_idx) < needed:
        raise ContextError("insufficient observed context left of gap",
                           needed=needed, found=len(left_idx))
    if len(right_idx) >= needed:
        idx = np.concatenate([left_idx, right_idx])
    elif gap.end_index + context >= len(masked):
        idx = left_idx  # the series end cuts the right window: extrapolate
    else:
        raise ContextError("insufficient observed context right of gap",
                           needed=needed, found=len(right_idx))

    filled = _fit_and_evaluate(idx, masked.values[idx], order,
                               np.arange(gap.start_index, gap.end_index, dtype=float))
    if not np.all(np.isfinite(filled)):
        raise DivergenceError("polynomial fill produced non-finite values")
    return filled


def polynomial_reach(params: dict, gap_length: int) -> int:
    """Samples the fill reads on each side of a gap of ``gap_length``: the
    ``context`` param, or twice the gap length with a floor of four."""
    context = params["context"]
    return max(2 * gap_length, 4) if context is None else context


def _observed_indices(series: TimeSeries, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi)
    return idx[series.observed[lo:hi]] if hi > lo else idx


def _fit_and_evaluate(idx: np.ndarray, y: np.ndarray, order: int,
                      grid: np.ndarray) -> np.ndarray:
    """Least-squares polynomial through ``(idx, y)``, read off at ``grid``.

    These are the float operations of fitting and then evaluating with
    numpy's ``numpy.polynomial`` series class, in numpy's order, so the
    result is bit-identical to it without the class, its domain objects or
    its argument plumbing.  The abscissa (sorted ascending) is mapped onto
    [-1, 1] for conditioning, the Vandermonde columns are scaled to unit norm
    before ``lstsq``, and the fit is read off by Horner's rule.  A
    rank-deficient fit warns ``RankWarning``, as numpy does.
    """
    lo, hi = float(idx[0]), float(idx[-1])
    span = hi - lo
    off, scl = (-hi - lo) / span, 2.0 / span
    x = off + scl * idx
    vander = np.empty((order + 1, len(x)))
    vander[0] = x * 0 + 1
    vander[1] = x
    for i in range(2, order + 1):
        vander[i] = vander[i - 1] * x
    norms = np.sqrt(np.square(vander).sum(1))
    norms[norms == 0] = 1
    coef, _, rank, _ = np.linalg.lstsq(vander.T / norms, y, len(x) * np.finfo(float).eps)
    coef = coef / norms
    if rank != order + 1:
        warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning,
                      stacklevel=2)
    t = off + scl * grid
    filled = coef[-1] + t * 0
    for i in range(2, order + 2):
        filled = coef[-i] + filled * t
    return filled
