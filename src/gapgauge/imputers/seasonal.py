"""Seasonal-naive fill: repeat the most recent observed value one or more
whole seasons back.  The simplest seasonality-aware baseline; not drawn from
the evaluated method family, and flagged as such in reports."""

from __future__ import annotations

import numpy as np

from ..errors import SeasonalReferenceError
from ..gaps import GapSpec
from ..series import ParamSpec, TimeSeries

PARAMS = (ParamSpec("season", int, 24, low=2, hours=True),)


def seasonal_naive_fill(masked: TimeSeries, gap: GapSpec, params: dict, seed: int) -> np.ndarray:
    """Fill each gap position from its nearest observed seasonal ancestor.

    For gap index ``i`` the fill is ``value[i - k*season]`` for the smallest
    ``k >= 1`` whose position is observed, with ``season = params["season"]``;
    positions inside the gap itself are masked and therefore skipped.
    """
    season, observed = params["season"], masked.observed
    source = np.arange(gap.start_index - season, gap.end_index - season)
    lost, walked = ~observed.take(source, mode="clip"), season
    while lost.any():  # walk each unobserved ancestor back one more season
        lost &= source >= 0
        np.subtract(source, season, out=source, where=lost)
        lost &= ~observed.take(source, mode="clip")
        walked += season
    if walked > gap.start_index and source.min() < 0:  # else no walk left the series
        raise SeasonalReferenceError(
            "no observed value a whole number of seasons earlier",
            index=gap.start_index + int(np.flatnonzero(source < 0)[0]), season=season)
    return masked.values[source]


def seasonal_reach(params: dict, gap_length: int) -> int:
    """Samples before a gap of ``gap_length`` the ancestor walk may read:
    in the worst case the ancestor must clear the whole gap."""
    season = params["season"]
    return season * ((gap_length + season - 1) // season + 1)
