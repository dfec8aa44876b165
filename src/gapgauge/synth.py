"""Deterministic synthetic series for validation experiments.

Stands in for real traffic-count exports: the ``seasonal`` kind layers a
daily and a weekly sinusoid over a base level with seeded noise, which is
the shape the evaluation protocol is designed around.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .gaps import philox_generator
from .series import ParamSpec, TimeSeries, fits_in_memory, normalize_params

_KIND_PARAMS = {
    "constant": (ParamSpec("value", float, 5.0),),
    "sine": (ParamSpec("amplitude", float, 1.0),
             ParamSpec("period", float, 24.0, low=0.0, low_open=True),
             ParamSpec("phase", float, 0.0), ParamSpec("offset", float, 0.0),
             ParamSpec("noise_sd", float, 0.0, low=0.0)),
    "ar1": (ParamSpec("coefficient", float, 0.8, low=-1.0, low_open=True),
            ParamSpec("intercept", float, 0.0), ParamSpec("noise_sd", float, 1.0, low=0.0)),
    "seasonal": (ParamSpec("base", float, 120.0), ParamSpec("daily_amplitude", float, 60.0),
                 ParamSpec("weekly_amplitude", float, 25.0),
                 ParamSpec("yearly_amplitude", float, 0.0), ParamSpec("harmonic2", float, 0.45),
                 ParamSpec("harmonic3", float, 0.20), ParamSpec("noise_sd", float, 8.0, low=0.0)),
}
SERIES_KINDS = tuple(_KIND_PARAMS)

_LENGTH = ParamSpec("length", int, None, low=1)
_STEP = ParamSpec("step", float, 3600.0, low=0.0, low_open=True)
# 2021-01-01T00:00:00Z; hour-aligned so hour-of-day features start at 0.
_START_TIME = ParamSpec("start_time", float, 1_609_459_200)


def synthesize_series(kind: str, length: int, params: dict | None = None,
                      seed: int = 0, step: float = _STEP.default,
                      start_time: float = _START_TIME.default) -> TimeSeries:
    """Build a fully observed series of the given kind.

    Deterministic in (kind, length, params, seed).  ``params`` are checked
    against the kind's ``ParamSpec`` table in ``_KIND_PARAMS``:

    * ``constant``: ``value`` everywhere.
    * ``sine``: ``offset + amplitude * sin(2*pi*i/period + phase)`` plus
      Gaussian noise of sd ``noise_sd``; with ``noise_sd=0`` the values
      match the closed form exactly.
    * ``ar1``: ``y[t] = intercept + coefficient * y[t-1] + noise_sd * e[t]``
      started at the stationary mean; ``coefficient`` lies in (-1, 1).
    * ``seasonal``: daily plus weekly sinusoids over ``base`` with noise,
      period counts derived from ``step``.

    ``step`` and ``start_time`` must be finite, ``step`` positive, and
    ``length`` and ``seed`` integers.
    """
    if kind not in _KIND_PARAMS:
        raise ConfigError(f"unknown series kind {kind!r}", known=SERIES_KINDS)
    p = normalize_params(_KIND_PARAMS[kind], params, f"kind {kind!r}")
    length = _LENGTH.normalize(length)
    if not fits_in_memory(length):
        raise InvalidParameterError("length is more than fits in memory", length=length)
    # Checked only: the series keeps step and start_time as given.
    _STEP.normalize(step)
    _START_TIME.normalize(start_time)
    rng = philox_generator(seed)
    i = np.arange(length, dtype=float)

    if kind == "constant":
        values = np.full(length, p["value"])
    elif kind == "sine":
        wave = np.sin(2.0 * np.pi * i / p["period"] + p["phase"])
        values = p["offset"] + p["amplitude"] * wave
        if p["noise_sd"] > 0:
            values = values + p["noise_sd"] * rng.standard_normal(length)
    elif kind == "ar1":
        coefficient, intercept = p["coefficient"], p["intercept"]
        if not coefficient < 1.0:  # a ParamSpec's high bound is inclusive
            raise InvalidParameterError("ar1 coefficient must lie in (-1, 1)",
                                        coefficient=coefficient)
        noise = p["noise_sd"] * rng.standard_normal(length)
        values = np.empty(length)
        values[0] = intercept / (1.0 - coefficient) + noise[0]
        for t in range(1, length):
            values[t] = intercept + coefficient * values[t - 1] + noise[t]
    else:
        phase = 2.0 * np.pi * i / (86400.0 / step)  # one turn a day
        # Daily harmonics give the sharp two-peaked rush-hour shape real
        # traffic counts show; a single sinusoid is too easy to mimic with
        # a low-order non-seasonal recurrence.
        daily = (0.60 * np.sin(phase - 0.6)
                 + p["harmonic2"] * np.sin(2.0 * phase + 0.8)
                 + p["harmonic3"] * np.sin(3.0 * phase + 0.2))
        values = (p["base"]
                  + p["daily_amplitude"] * daily
                  + p["weekly_amplitude"] * np.sin(phase / 7.0 + 0.3)
                  + p["yearly_amplitude"] * np.sin(phase / 365.25 + 1.1))
        if p["noise_sd"] > 0:
            values = values + p["noise_sd"] * rng.standard_normal(length)
    return TimeSeries.fully_observed(start_time, step, values)
