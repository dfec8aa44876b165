"""Gap-filling methods behind one uniform interface.

Every imputer consumes a masked series plus a gap spec and returns exactly
``gap.length`` finite values.  Each method, built-in or added through
:func:`register_imputer`, registers under a ``kind`` string as one
:class:`KindSpec`: its ``fill(masked, gap, params, seed)``, a table of
:class:`ParamSpec` entries holding each default and range (a built-in
kind's table lives in its own module), and a history hook.  Parameter
validation and normalization, hour-form config keys and head-of-series
history reservation all derive from that one declaration, so equal
configurations always produce equal ``imputer_id`` strings.
``impute(masked, gap, ImputerConfig(kind, params), seed)`` runs any kind on
one gap, and a kind with a row form (``fill_gaps``) on a sequence of gaps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError, GapgaugeError, NumericalError, ShapeError
from ..gaps import GapSpec
from ..series import ParamSpec, TimeSeries, normalize_params
from . import gbt, polynomial, seasonal
from .arima import (ARIMA_PARAMS, SARIMA_PARAMS, ArimaOrder, FittedArima, arima_fill,
                    fit_arima, forecast, select_order)
from .gbt import GradientBoostedTrees, RegressionTree, causal_features

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


def _no_history(params: dict, max_gap_len: int) -> int:
    return 0


@dataclass(frozen=True)
class KindSpec:
    """Everything gapgauge knows about one imputer kind.

    ``fill(masked, gap, params, seed)`` returns the gap's values;
    ``history(params, max_gap_len)`` is how many head-of-series samples it
    may read before any gap, which gap placement reserves.  ``reads_seed``
    is false for a fill that ignores its seed, so a run need not derive one.
    ``fill_gaps(series, gaps, params)``, if set, returns one outcome per gap
    (its fill or its error), each gap treated as the only one missing.
    """

    fill: Callable
    params: tuple[ParamSpec, ...] = ()
    history: Callable[[dict, int], int] = _no_history
    reads_seed: bool = True
    fill_gaps: Callable | None = None


def _train_span_history(params: dict, max_gap_len: int) -> int:
    return params["train_span"]


_REGISTRY: dict[str, KindSpec] = {
    "polynomial": KindSpec(polynomial.polynomial_fill, polynomial.PARAMS,
                           polynomial.polynomial_reach, reads_seed=False,
                           fill_gaps=polynomial.polynomial_fill_gaps),
    "seasonal_naive": KindSpec(seasonal.seasonal_naive_fill, seasonal.PARAMS,
                               seasonal.seasonal_reach, reads_seed=False,
                               fill_gaps=seasonal.seasonal_naive_fill_gaps),
    "arima": KindSpec(arima_fill, ARIMA_PARAMS, _train_span_history, reads_seed=False),
    "sarima": KindSpec(arima_fill, SARIMA_PARAMS, _train_span_history, reads_seed=False),
    "gbt": KindSpec(gbt.gbt_fill, gbt.PARAMS, _train_span_history),
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
        self.params = normalize_params(kind_spec(self.kind).params, self.params,
                                       f"imputer kind {self.kind!r}")

    @property
    def imputer_id(self) -> str:
        canon = json.dumps(self.params, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canon.encode()).hexdigest()[:8]
        return f"{self.kind}-{digest}"


def impute(masked: TimeSeries, gap: GapSpec | Sequence[GapSpec], config: ImputerConfig,
           seed: int = 0):
    """Run one imputer on one gap and return its ``gap.length`` finite values.

    Deterministic given (inputs, config, seed).  A fill that is not a 1-D
    array of ``gap.length`` finite values raises ``ShapeError``.  A
    ``LinAlgError`` or ``FloatingPointError`` escaping the fill becomes a
    ``NumericalError``; any other exception that is not a ``GapgaugeError``
    is a bug and propagates unchanged.

    Given a sequence of gaps, a kind with a row form (``fill_gaps``) returns
    one outcome per gap: its fill after the same checks, or the
    ``GapgaugeError`` it alone raised.  Other kinds raise ``ConfigError``.
    """
    spec = _REGISTRY[config.kind]
    if isinstance(gap, GapSpec):
        try:
            outcome = spec.fill(masked, gap, config.params, seed)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            outcome = exc
        return _checked(outcome, gap, config.kind)
    if spec.fill_gaps is None:
        raise ConfigError("imputer kind fills one gap per call", kind=config.kind)
    outcomes = []
    for one, outcome in zip(gap, spec.fill_gaps(masked, gap, config.params), strict=True):
        try:
            outcomes.append(_checked(outcome, one, config.kind))
        except GapgaugeError as exc:
            outcomes.append(exc)
    return outcomes


def _checked(outcome, gap: GapSpec, kind: str) -> np.ndarray:
    """``outcome`` as a checked fill of ``gap``, or raised as the error it is."""
    if isinstance(outcome, (np.linalg.LinAlgError, FloatingPointError)):
        raise NumericalError(f"{type(outcome).__name__}: {outcome}", kind=kind) from outcome
    if isinstance(outcome, Exception):
        raise outcome
    filled = np.asarray(outcome, dtype=float)
    if filled.shape != (gap.length,):
        raise ShapeError("fill must be a 1-D array of gap.length values",
                         shape=filled.shape, gap=gap.length)
    if not np.isfinite(filled).all():
        raise ShapeError("fill contains non-finite values")
    return filled
