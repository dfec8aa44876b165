"""Uniformly sampled time series with an explicit missing mask.

A series is a start epoch, a positive step in seconds, a value array and a
boolean ``observed`` mask of the same length.  Timestamps are implied:
``t_i = start_time + i * step``.  A position with ``observed=False`` carries
no meaningful value and must never be consumed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import RangeError


def fits_in_memory(samples: int, bytes_each: int = 9) -> bool:
    """Whether ``samples`` items of ``bytes_each`` bytes (by default a series'
    value and mask) fit in this machine's physical memory; more never could."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no figure on this platform
        return True
    return samples * bytes_each <= memory


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` or numpy integer; a ``bool`` is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class TimeSeries:
    """Regularly sampled values plus a missing mask.

    Construction only coerces arrays; it does not enforce invariants, so that
    broken inputs can be inspected with :func:`validate`.  All operations in
    this module treat the series as read-only.
    """

    start_time: float
    step: float
    values: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.observed = np.asarray(self.observed, dtype=bool)

    def __len__(self):
        return len(self.values)

    def timestamp(self, index: int) -> float:
        return self.start_time + index * self.step

    def hour_of_day(self, index: int | np.ndarray) -> int | np.ndarray:
        """Hour 0-23 (UTC) of the implied timestamp: an ``int`` for one
        index, an int array for an index array."""
        hour = self.timestamp(index) % 86400.0 // 3600.0
        return hour.astype(int) if isinstance(hour, np.ndarray) else int(hour)

    def copy(self) -> "TimeSeries":
        return TimeSeries(self.start_time, self.step,
                          self.values.copy(), self.observed.copy())

    @classmethod
    def fully_observed(cls, start_time: float, step: float, values) -> "TimeSeries":
        values = np.asarray(values, dtype=float)
        return cls(start_time, step, values, np.ones(len(values), dtype=bool))


def validate(series: TimeSeries) -> list[str]:
    """Every violated series invariant; an empty list means the series is
    valid.  Violations are data, not failures."""
    violations = []
    if not (series.step > 0):
        violations.append("non-positive step")
    if len(series.values) != len(series.observed):
        violations.append("length mismatch between values and observed mask")
    if len(series.values) < 1:
        violations.append("empty series")
    n = min(len(series.values), len(series.observed))
    if n and not np.all(np.isfinite(series.values[:n][series.observed[:n]])):
        violations.append("non-finite value at an observed position")
    if not np.isfinite(series.start_time):
        violations.append("non-finite start_time")
    return violations


def _check_window(series: TimeSeries, start_index: int, length: int) -> None:
    if start_index < 0:
        raise RangeError("start_index must be >= 0", start_index=start_index)
    if length < 1:
        raise RangeError("length must be >= 1", length=length)
    if start_index + length > len(series):
        raise RangeError("window end exceeds series length",
                         end=start_index + length, series_length=len(series))


def slice_series(series: TimeSeries, start_index: int, length: int) -> TimeSeries:
    """Copy out ``length`` samples from ``start_index``; the original is untouched."""
    _check_window(series, start_index, length)
    return TimeSeries(
        start_time=series.start_time + start_index * series.step,
        step=series.step,
        values=series.values[start_index:start_index + length].copy(),
        observed=series.observed[start_index:start_index + length].copy(),
    )
