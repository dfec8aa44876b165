"""Deterministic synthetic series for validation experiments.

Stands in for real traffic-count exports: the ``seasonal`` kind layers a
daily and a weekly sinusoid over a base level with seeded noise, which is
the shape the evaluation protocol is designed around.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .gaps import philox_generator
from .series import TimeSeries, fits_in_memory

# 2021-01-01T00:00:00Z; hour-aligned so hour-of-day features start at 0.
DEFAULT_START_TIME = 1_609_459_200

SERIES_KINDS = ("constant", "sine", "ar1", "seasonal")


def _pop_noise_sd(params: dict, default: float) -> float:
    noise_sd = float(params.pop("noise_sd", default))
    if not noise_sd >= 0:
        raise InvalidParameterError("noise_sd must be >= 0", noise_sd=noise_sd)
    return noise_sd


def synthesize_series(kind: str, length: int, params: dict | None = None,
                      seed: int = 0, step: float = 3600.0,
                      start_time: float = DEFAULT_START_TIME) -> TimeSeries:
    """Build a fully observed series of the given kind.

    Deterministic in (kind, length, params, seed).  Supported kinds:

    * ``constant``: params ``value`` (default 5.0).
    * ``sine``: ``offset + amplitude * sin(2*pi*i/period + phase)`` plus
      Gaussian noise of sd ``noise_sd``; with ``noise_sd=0`` the values
      match the closed form exactly.
    * ``ar1``: ``y[t] = intercept + coefficient * y[t-1] + noise_sd * e[t]``
      started at the stationary mean.
    * ``seasonal``: daily plus weekly sinusoids over ``base`` with noise,
      period counts derived from ``step``.

    Every parameter value, ``start_time`` and ``step`` must be finite,
    ``step`` and ``period`` positive, and ``noise_sd`` non-negative.
    """
    if length < 1:
        raise InvalidParameterError("length must be >= 1", length=length)
    if not fits_in_memory(length):
        raise InvalidParameterError("length is more than fits in memory", length=length)
    for key, value in {**(params or {}), "start_time": start_time, "step": step}.items():
        if not np.isfinite(value):
            raise InvalidParameterError(f"{key} must be finite", value=value)
    if not step > 0:
        raise InvalidParameterError("step must be > 0", step=step)
    params = dict(params or {})
    rng = philox_generator(seed)
    i = np.arange(length, dtype=float)

    if kind == "constant":
        values = np.full(length, float(params.pop("value", 5.0)))
    elif kind == "sine":
        amplitude = float(params.pop("amplitude", 1.0))
        period = float(params.pop("period", 24.0))
        if not period > 0:
            raise InvalidParameterError("sine period must be > 0", period=period)
        phase = float(params.pop("phase", 0.0))
        offset = float(params.pop("offset", 0.0))
        noise_sd = _pop_noise_sd(params, 0.0)
        values = offset + amplitude * np.sin(2.0 * np.pi * i / period + phase)
        if noise_sd > 0:
            values = values + noise_sd * rng.standard_normal(length)
    elif kind == "ar1":
        coefficient = float(params.pop("coefficient", 0.8))
        intercept = float(params.pop("intercept", 0.0))
        noise_sd = _pop_noise_sd(params, 1.0)
        if not -1.0 < coefficient < 1.0:
            raise InvalidParameterError("ar1 coefficient must lie in (-1, 1)",
                                        coefficient=coefficient)
        noise = noise_sd * rng.standard_normal(length)
        values = np.empty(length)
        values[0] = intercept / (1.0 - coefficient) + noise[0]
        for t in range(1, length):
            values[t] = intercept + coefficient * values[t - 1] + noise[t]
    elif kind == "seasonal":
        base = float(params.pop("base", 120.0))
        daily_amplitude = float(params.pop("daily_amplitude", 60.0))
        weekly_amplitude = float(params.pop("weekly_amplitude", 25.0))
        yearly_amplitude = float(params.pop("yearly_amplitude", 0.0))
        harmonic2 = float(params.pop("harmonic2", 0.45))
        harmonic3 = float(params.pop("harmonic3", 0.20))
        noise_sd = _pop_noise_sd(params, 8.0)
        samples_per_day = 86400.0 / step
        phase = 2.0 * np.pi * i / samples_per_day
        # Daily harmonics give the sharp two-peaked rush-hour shape real
        # traffic counts show; a single sinusoid is too easy to mimic with
        # a low-order non-seasonal recurrence.
        daily = (0.60 * np.sin(phase - 0.6)
                 + harmonic2 * np.sin(2.0 * phase + 0.8)
                 + harmonic3 * np.sin(3.0 * phase + 0.2))
        values = (base
                  + daily_amplitude * daily
                  + weekly_amplitude * np.sin(phase / 7.0 + 0.3)
                  + yearly_amplitude * np.sin(phase / 365.25 + 1.1))
        if noise_sd > 0:
            values = values + noise_sd * rng.standard_normal(length)
    else:
        raise ConfigError(f"unknown series kind {kind!r}", known=SERIES_KINDS)

    if params:
        raise ConfigError(f"unknown parameters for kind {kind!r}",
                          unknown=sorted(params))
    return TimeSeries.fully_observed(start_time, step, values)
