"""Gap-filling methods behind one uniform interface.

Every imputer consumes a masked series plus a gap spec and returns exactly
``gap.length`` finite values.  Each method, built-in or added through
:func:`register_imputer`, registers under a ``kind`` string as one
:class:`KindSpec`: its ``fill(masked, gap, params, seed)``, a table of
:class:`ParamSpec` entries holding each default and range, and a history
hook.  Parameter validation and normalization, hour-form config keys and
head-of-series history reservation all derive from that one declaration,
so equal configurations always produce equal ``imputer_id`` strings.
``impute(masked, gap, ImputerConfig(kind, params), seed)`` runs any kind on
one gap.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import (ConfigError, InvalidParameterError, NumericalError,
                      ShapeError)
from ..gaps import GapSpec
from ..series import TimeSeries
from .arima import (ArimaOrder, FittedArima, arima_fill, fit_arima, forecast,
                    select_order)
from .gbt import (GradientBoostedTrees, RegressionTree, causal_features,
                  gbt_fill)
from .polynomial import polynomial_fill, polynomial_reach
from .seasonal import seasonal_naive_fill, seasonal_reach

__all__ = [
    "ArimaOrder", "FittedArima", "GradientBoostedTrees", "ImputerConfig",
    "KindSpec", "ParamSpec", "RegressionTree", "causal_features",
    "derive_seed", "fit_arima", "forecast", "impute", "kind_spec",
    "register_imputer", "select_order",
]


def derive_seed(master: int, *parts: int) -> int:
    """Deterministic, platform-stable child seed for one (gap, imputer) job."""
    state = np.random.SeedSequence([int(master), *map(int, parts)]).generate_state(1)
    return int(state[0])


@dataclass(frozen=True)
class ParamSpec:
    """One imputer parameter: its type, default and accepted range.

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
        if value is None and self.nullable:
            return None
        accepted = (int, np.integer) if self.type is int else (
            int, float, np.integer, np.floating)
        noun = "an integer" if self.type is int else "a finite number"
        if not isinstance(value, accepted) or isinstance(value, bool):
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


def _no_history(params: dict, max_gap_len: int) -> int:
    return 0


@dataclass(frozen=True)
class KindSpec:
    """Everything gapgauge knows about one imputer kind.

    ``fill(masked, gap, params, seed)`` returns the gap's values;
    ``history(params, max_gap_len)`` is how many head-of-series samples it
    may read before any gap, which gap placement reserves.  ``reads_seed``
    is false for a fill that ignores its seed, so a run need not derive one.
    """

    fill: Callable
    params: tuple[ParamSpec, ...] = ()
    history: Callable[[dict, int], int] = _no_history
    reads_seed: bool = True

    def normalize(self, kind: str, params: dict) -> dict:
        unknown = sorted(set(params) - {spec.name for spec in self.params})
        if unknown:
            raise ConfigError(f"unknown parameters for imputer kind {kind!r}",
                              unknown=unknown)
        return {spec.name: spec.normalize(params.get(spec.name, spec.default))
                for spec in self.params}


def _train_span_history(params: dict, max_gap_len: int) -> int:
    return params["train_span"]


_ARIMA_PARAMS = (
    ParamSpec("train_span", int, 1008, low=20, hours=True),
    ParamSpec("p_max", int, 3, low=0),
    ParamSpec("d_max", int, 2, low=0),
    ParamSpec("q_max", int, 3, low=0),
)

_REGISTRY: dict[str, KindSpec] = {
    "polynomial": KindSpec(
        polynomial_fill,
        (ParamSpec("order", int, 3, low=1),
         ParamSpec("context", int, None, low=1, nullable=True, hours=True)),
        polynomial_reach, reads_seed=False),
    "seasonal_naive": KindSpec(
        seasonal_naive_fill, (ParamSpec("season", int, 24, low=2, hours=True),),
        seasonal_reach, reads_seed=False),
    "arima": KindSpec(arima_fill, _ARIMA_PARAMS, _train_span_history, reads_seed=False),
    "sarima": KindSpec(
        arima_fill,
        _ARIMA_PARAMS + (ParamSpec("P_max", int, 1, low=0),
                         ParamSpec("D_max", int, 1, low=0),
                         ParamSpec("Q_max", int, 1, low=0),
                         ParamSpec("season", int, 24, low=2, hours=True)),
        _train_span_history, reads_seed=False),
    "gbt": KindSpec(
        gbt_fill,
        (ParamSpec("train_span", int, 8760, low=2, hours=True),
         ParamSpec("trees", int, 100, low=1),
         ParamSpec("max_depth", int, 4, low=1),
         ParamSpec("learning_rate", float, 0.1, low=0.0, high=1.0, low_open=True),
         ParamSpec("subsample", float, 1.0, low=0.0, high=1.0, low_open=True),
         ParamSpec("sma_window", int, 24, low=1, hours=True),
         ParamSpec("ewma_alpha", float, 0.3, low=0.0, high=1.0, low_open=True)),
        _train_span_history),
}


def register_imputer(kind: str, fill: Callable, params: tuple[ParamSpec, ...] = (),
                     history: Callable[[dict, int], int] | None = None) -> None:
    """Extension seam: add a kind callable as ``fill(masked, gap, params, seed)``.

    ``params`` declares every parameter the kind accepts; any other key is
    rejected.  ``history(params, max_gap_len)`` returns the head-of-series
    samples the kind needs before any gap (none when omitted).  A run passes
    every such kind the job's derived seed.
    """
    _REGISTRY[kind] = KindSpec(fill, tuple(params), history or _no_history)


def kind_spec(kind: str) -> KindSpec:
    """The registered declaration of ``kind``; ``ConfigError`` if unknown."""
    if kind not in _REGISTRY:
        raise ConfigError(f"unknown imputer kind {kind!r}", known=sorted(_REGISTRY))
    return _REGISTRY[kind]


@dataclass
class ImputerConfig:
    """A kind plus normalized, validated kind-specific parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.params = kind_spec(self.kind).normalize(self.kind, self.params)

    @property
    def imputer_id(self) -> str:
        canon = json.dumps(self.params, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canon.encode()).hexdigest()[:8]
        return f"{self.kind}-{digest}"


def impute(masked: TimeSeries, gap: GapSpec, config: ImputerConfig,
           seed: int = 0) -> np.ndarray:
    """Run one imputer on one gap and return its ``gap.length`` finite values.

    Deterministic given (inputs, config, seed).  A fill of the wrong length
    or with non-finite values raises ``ShapeError``.  A ``LinAlgError`` or
    ``FloatingPointError`` escaping the fill becomes a ``NumericalError``;
    any other exception that is not a ``GapgaugeError`` is a bug and
    propagates unchanged.
    """
    try:
        filled = _REGISTRY[config.kind].fill(masked, gap, config.params, seed)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise NumericalError(f"{type(exc).__name__}: {exc}",
                             kind=config.kind) from exc
    filled = np.asarray(filled, dtype=float)
    if len(filled) != gap.length:
        raise ShapeError("fill length must match the gap",
                         filled=len(filled), gap=gap.length)
    if not np.all(np.isfinite(filled)):
        raise ShapeError("fill contains non-finite values")
    return filled
