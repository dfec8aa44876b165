"""Seasonal-naive fill: repeat the most recent observed value one or more
whole seasons back.  The simplest seasonality-aware baseline; not drawn from
the evaluated method family, and flagged as such in reports."""

from __future__ import annotations

import numpy as np

from ..errors import SeasonalReferenceError
from ..gaps import GapSpec
from ..series import TimeSeries


def seasonal_naive_fill(masked: TimeSeries, gap: GapSpec, params: dict, seed: int) -> np.ndarray:
    """Fill each gap position from its nearest observed seasonal ancestor.

    For gap index ``i`` the fill is ``value[i - k*season]`` for the smallest
    ``k >= 1`` whose position is observed, with ``season = params["season"]``;
    positions inside the gap itself are masked and therefore skipped.
    """
    season = params["season"]
    filled = np.empty(gap.length)
    for offset, i in enumerate(range(gap.start_index, gap.end_index)):
        j = i - season
        while j >= 0 and not masked.observed[j]:
            j -= season
        if j < 0:
            raise SeasonalReferenceError(
                "no observed value a whole number of seasons earlier",
                index=i, season=season)
        filled[offset] = masked.values[j]
    return filled


def seasonal_reach(params: dict, gap_length: int) -> int:
    """Samples before a gap of ``gap_length`` the ancestor walk may read:
    in the worst case the ancestor must clear the whole gap."""
    season = params["season"]
    return season * ((gap_length + season - 1) // season + 1)
