"""Uniformly sampled time series with an explicit missing mask.

A series is a start epoch, a positive step in seconds, a value array and a
boolean ``observed`` mask of the same length.  Timestamps are implied:
``t_i = start_time + i * step``.  A position with ``observed=False`` carries
no meaningful value and must never be consumed.

The rules every checked number of the library follows live here too:
``is_integer``, and ``ParamSpec``, with which each module declares the
numbers it reads.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidParameterError, RangeError


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


@dataclass(frozen=True)
class ParamSpec:
    """One checked number: its type, default and accepted range.

    ``type`` is ``int`` or ``float``.  ``low`` is exclusive when
    ``low_open`` is set; ``high`` is always inclusive.  ``nullable`` admits
    ``None``; ``hours`` lets a config file give the value as ``<name>_hours``.
    """

    name: str
    type: type
    default: object
    low: float | None = None
    high: float | None = None
    low_open: bool = False
    nullable: bool = False
    hours: bool = False

    def normalize(self, value):
        """``value`` as a Python ``int`` or ``float`` (or ``None``), else
        ``InvalidParameterError``: a wrong type, not finite, or out of range."""
        if value is None and self.nullable:
            return None
        noun = "an integer" if self.type is int else "a finite number"
        if not (is_integer(value) or (self.type is float
                                      and isinstance(value, (float, np.floating)))):
            raise InvalidParameterError(f"{self.name} must be {noun}", value=value)
        try:
            value = self.type(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not -math.inf < value < math.inf:
            raise InvalidParameterError(f"{self.name} must be {noun}", value=value)
        low_ok = self.low is None or (
            value > self.low if self.low_open else value >= self.low)
        if not low_ok or (self.high is not None and value > self.high):
            raise InvalidParameterError(f"{self.name} out of range", value=value,
                                        low=self.low, high=self.high)
        return value


def normalize_params(specs: Sequence[ParamSpec], params: dict | None, owner: str) -> dict:
    """Each spec's normalized value from ``params`` (``None`` gives none) or
    its default; a key of ``params`` that no spec names raises ``ConfigError``."""
    params = {} if params is None else params
    unknown = sorted(set(params) - {spec.name for spec in specs})
    if unknown:
        raise ConfigError(f"unknown parameters for {owner}", unknown=unknown)
    return {spec.name: spec.normalize(params.get(spec.name, spec.default))
            for spec in specs}


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
