"""Local least-squares polynomial fill."""

from __future__ import annotations

import numpy as np

from ..errors import ContextError, DivergenceError, InvalidParameterError
from ..gaps import GapSpec
from ..series import TimeSeries


def polynomial_fill(masked: TimeSeries, gap: GapSpec, order: int = 3,
                    context: int | None = None) -> np.ndarray:
    """Fit one polynomial through observed context points and read off the gap.

    ``context`` is the window width, in samples, inspected on each side of
    the gap; it defaults to twice the gap length with a floor of four
    samples.  Each side must contribute at least ``order + 1`` observed
    points, except that when the series end cuts the right window short of
    that, the fill extrapolates from the left context alone.  The abscissa
    is the sample index.
    """
    if order < 1:
        raise InvalidParameterError("polynomial order must be >= 1", order=order)
    context = polynomial_reach(context, gap.length)

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

    # Polynomial.fit maps the abscissa onto [-1, 1] for conditioning.
    poly = np.polynomial.Polynomial.fit(idx, masked.values[idx], deg=order)
    filled = poly(np.arange(gap.start_index, gap.end_index, dtype=float))
    if not np.all(np.isfinite(filled)):
        raise DivergenceError("polynomial fill produced non-finite values")
    return filled


def polynomial_reach(context: int | None, gap_length: int) -> int:
    """Samples the fill reads on each side of a gap of ``gap_length``."""
    return max(2 * gap_length, 4) if context is None else context


def _observed_indices(series: TimeSeries, lo: int, hi: int) -> np.ndarray:
    idx = np.arange(lo, hi)
    return idx[series.observed[lo:hi]] if hi > lo else idx
