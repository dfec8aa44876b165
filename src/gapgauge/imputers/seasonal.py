"""Seasonal-naive fill: repeat the most recent observed value one or more
whole seasons back.  The simplest seasonality-aware baseline; not drawn from
the evaluated method family, and flagged as such in reports."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SeasonalReferenceError
from ..gaps import GapSpec
from ..series import ParamSpec, TimeSeries

PARAMS = (ParamSpec("season", int, 24, low=2, hours=True),)


def seasonal_naive_fill_gaps(series: TimeSeries, gaps: Sequence[GapSpec], params: dict) -> list:
    """Fill each gap position from its nearest observed seasonal ancestor.

    For gap index ``i`` the fill is ``value[i - k*season]`` for the smallest
    ``k >= 1`` whose position is observed, with ``season = params["season"]``;
    positions inside the gap itself count as unobserved and are skipped.
    Every gap's positions walk back together in one array.  Returns one
    outcome per gap: its fill, or a ``SeasonalReferenceError`` naming its
    first position that has no such ancestor.
    """
    if not gaps:
        return []
    season, observed = params["season"], series.observed
    lengths = np.array([gap.length for gap in gaps], dtype=np.intp)
    ends = np.cumsum(lengths)  # each gap's end among all gaps' positions
    own = np.repeat(np.array([gap.start_index for gap in gaps], dtype=np.intp),
                    lengths)  # a position's gap start
    # each position: its gap's start plus its offset within that gap
    positions = own + np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)
    source = positions - season
    lost = (source >= own) | ~observed.take(source, mode="clip")
    while lost.any():  # walk each unobserved ancestor back one more season
        lost &= source >= 0
        np.subtract(source, season, out=source, where=lost)
        lost &= (source >= own) | ~observed.take(source, mode="clip")
    filled = series.values.take(source, mode="clip")
    outcomes = [filled[end - gap.length:end] for gap, end in zip(gaps, ends.tolist())]
    orphans = np.flatnonzero(source < 0)  # walked out of the series
    gis, first = np.unique(np.searchsorted(ends, orphans, side="right"), return_index=True)
    for gi, at in zip(gis.tolist(), orphans[first].tolist()):
        outcomes[gi] = SeasonalReferenceError(
            "no observed value a whole number of seasons earlier",
            index=int(positions[at]), season=season)
    return outcomes


def seasonal_reach(params: dict, gap_length: int) -> int:
    """Samples before a gap of ``gap_length`` the ancestor walk may read:
    in the worst case the ancestor must clear the whole gap."""
    season = params["season"]
    return season * ((gap_length + season - 1) // season + 1)
