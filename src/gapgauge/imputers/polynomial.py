"""Local least-squares polynomial fill, fit for many gaps as rows of one batch."""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np
# Private numpy API: the stacked gufunc behind numpy.linalg.lstsq, named
# lstsq in numpy 2.x (lstsq_m/lstsq_n in 1.x).  TestStackedSolve pins it
# row by row against the public one-matrix solve.
from numpy.linalg import _umath_linalg

from ..errors import ContextError, DivergenceError
from ..gaps import GapSpec
from ..series import ParamSpec, TimeSeries

PARAMS = (ParamSpec("order", int, 3, low=1),
          ParamSpec("context", int, None, low=1, nullable=True, hours=True))
_EPS = np.finfo(float).eps


def polynomial_fill_gaps(series: TimeSeries, gaps: Sequence[GapSpec], params: dict) -> list:
    """Fit one polynomial per gap through observed context points and read off the gap.

    Each side of a gap is read up to :func:`polynomial_reach` samples out
    and must contribute at least ``order + 1`` observed points, except that
    when the series end cuts the right window short, the fill extrapolates
    from the left context alone.  The abscissa is the sample index; a gap's
    windows never hold its own positions.  Returns one outcome per gap: its
    fill, or the ``ContextError``, ``DivergenceError`` or ``LinAlgError`` of
    that gap alone.  Gaps of one window geometry (length, left and right
    reach after clipping to the series) gather their windows in one index;
    rows with equal observed counts are fit as one batch.
    """
    order, n, needed = params["order"], len(series), params["order"] + 1
    outcomes: list = [None] * len(gaps)
    if not gaps:
        return outcomes
    all_starts = np.array([gap.start_index for gap in gaps], dtype=np.intp)
    lengths = np.array([gap.length for gap in gaps], dtype=np.intp)
    distinct, which = np.unique(lengths, return_inverse=True)
    reach = np.array([polynomial_reach(params, length) for length in distinct.tolist()])[which]
    keys = np.stack([lengths, np.minimum(all_starts, reach),
                     np.minimum(n - all_starts - lengths, reach), reach])
    by_key = np.lexsort(keys[::-1])  # by (length, left, right, reach), stable
    keys = keys[:, by_key]
    cuts = np.flatnonzero((keys[:, 1:] != keys[:, :-1]).any(axis=0)) + 1
    for (length, left, right, context), rows in zip(keys[:, np.r_[0, cuts]].T.tolist(),
                                                    np.split(by_key, cuts)):
        starts = all_starts[rows]
        windows = starts[:, None] + np.concatenate(
            [np.arange(-left, 0), np.arange(length, length + right)])
        use = series.observed[windows]
        found = use[:, :left].sum(1), use[:, left:].sum(1)
        short, right_short = found[0] < needed, found[1] < needed
        if right < context:  # the series end cuts the right window: extrapolate
            use[right_short, left:] = False
        else:
            short |= right_short
        for r in np.flatnonzero(short).tolist():
            side = int(found[0][r] >= needed)
            outcomes[rows[r]] = ContextError(
                f"insufficient observed context {('left', 'right')[side]} of gap",
                needed=needed, found=int(found[side][r]))
        counts = np.where(short, 0, use.sum(1))
        for m in set(counts.tolist()) - {0}:
            batch = counts == m
            idx = windows[batch][use[batch]].reshape(-1, m)
            grid = (starts[batch, None] + np.arange(length)).astype(float)
            fits = _fit_and_evaluate(idx, series.values[idx], order, grid)
            for gi, outcome in zip(rows[batch].tolist(), fits):
                outcomes[gi] = outcome
    return outcomes


def polynomial_reach(params: dict, gap_length: int) -> int:
    """Samples the fill reads on each side of a gap of ``gap_length``: the
    ``context`` param, or twice the gap length with a floor of four."""
    context = params["context"]
    return max(2 * gap_length, 4) if context is None else context


def _fit_and_evaluate(idx: np.ndarray, y: np.ndarray, order: int,
                      grid: np.ndarray) -> list:
    """Least-squares polynomial through each row of ``(idx, y)``, read off
    at that row of ``grid``: per row its values, or its ``LinAlgError`` or
    ``DivergenceError``.

    Per row these are the float operations of fitting and then evaluating
    with numpy's ``numpy.polynomial`` series class, in numpy's order, so each
    row is bit-identical to it.  The abscissa (sorted ascending) is mapped
    onto [-1, 1], the Vandermonde columns are scaled to unit norm (each norm
    summed pairwise along a contiguous row, as numpy does), the stacked
    LAPACK solver behind numpy's ``lstsq`` solves every row's own matrix in
    one call, and Horner's rule reads the fit off.  A row whose solution is
    not finite is solved again alone by ``lstsq``, which raises that row's
    ``LinAlgError`` or returns its NaNs.  A rank-deficient row warns
    ``RankWarning``.
    """
    lo, hi = idx[:, :1].astype(float), idx[:, -1:].astype(float)
    span = hi - lo
    off, scl = (-hi - lo) / span, 2.0 / span
    x = off + scl * idx
    vander = np.empty((len(x), order + 1, x.shape[1]))
    vander[:, 0] = x * 0 + 1
    vander[:, 1] = x
    for i in range(2, order + 1):
        vander[:, i] = vander[:, i - 1] * x
    norms = np.sqrt(np.square(vander).sum(-1))
    norms[norms == 0] = 1
    design = vander.transpose(0, 2, 1) / norms[:, None, :]
    rcond = x.shape[1] * _EPS
    with np.errstate(all="ignore"):  # a failed row reads NaN here
        solved, _, ranks, _ = _umath_linalg.lstsq(design, y[:, :, None], rcond,
                                                  signature="ddd->ddid")
    coef = solved[:, :, 0]
    redo = ~np.isfinite(coef).all(1)
    failed: dict[int, Exception] = {}
    for r in np.flatnonzero(redo | (ranks != order + 1)).tolist():
        rank = ranks[r]
        if redo[r]:  # alone, as numpy.polynomial would: its error or its NaNs
            try:
                coef[r], _, rank, _ = np.linalg.lstsq(design[r], y[r], rcond)
            except np.linalg.LinAlgError as exc:
                failed[r] = exc
                continue
        if rank != order + 1:
            warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning,
                          stacklevel=2)
    coef = coef / norms
    t = off + scl * grid
    filled = coef[:, -1:] + t * 0
    for i in range(2, order + 2):
        filled = coef[:, -i, None] + filled * t
    finite = np.isfinite(filled).all(1)
    return [failed.get(r) or (filled[r] if finite[r] else DivergenceError(
        "polynomial fill produced non-finite values")) for r in range(len(x))]
