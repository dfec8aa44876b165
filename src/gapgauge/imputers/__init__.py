"""Gap-filling methods behind one uniform interface.

Every imputer consumes a masked series plus a gap spec and returns exactly
``gap.length`` finite values.  Each method, built-in or added through
:func:`register_imputer`, registers under a ``kind`` string as one
:class:`KindSpec`: one fill form (a per-gap ``fill(masked, gap, params,
seed)``, or a row form ``fill_gaps(series, gaps, params)``), a table of
:class:`ParamSpec` entries holding each default and range (a built-in
kind's table lives in its own module), and a history hook.  Parameter
validation and normalization, hour-form config keys and head-of-series
history reservation all derive from that one declaration, so equal
configurations always produce equal ``imputer_id`` strings.
``impute(masked, gap, ImputerConfig(kind, params), seed)`` runs any kind on
one gap, and a row kind on a sequence of gaps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError, GapgaugeError, NumericalError, ShapeError
from ..gaps import GapSpec
from ..series import ParamSpec, TimeSeries, _check_window, normalize_params
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

    A per-gap kind sets ``fill(masked, gap, params, seed)``, which returns
    one gap's values.  A row kind sets ``fill_gaps(series, gaps, params)``
    instead, which returns one outcome per gap (its fill or its error), each
    gap treated as the only one missing; it serves every call, and a one-gap
    call is its one-row case.  ``history(params, max_gap_len)`` is how many
    head-of-series samples the kind may read before any gap, which gap
    placement reserves.
    """

    fill: Callable | None
    params: tuple[ParamSpec, ...] = ()
    history: Callable[[dict, int], int] = _no_history
    fill_gaps: Callable | None = None


def _train_span_history(params: dict, max_gap_len: int) -> int:
    return params["train_span"]


_REGISTRY: dict[str, KindSpec] = {
    "polynomial": KindSpec(None, polynomial.PARAMS, polynomial.polynomial_reach,
                           fill_gaps=polynomial.polynomial_fill_gaps),
    "seasonal_naive": KindSpec(None, seasonal.PARAMS, seasonal.seasonal_reach,
                               fill_gaps=seasonal.seasonal_naive_fill_gaps),
    "arima": KindSpec(arima_fill, ARIMA_PARAMS, _train_span_history),
    "sarima": KindSpec(arima_fill, SARIMA_PARAMS, _train_span_history),
    "gbt": KindSpec(gbt.gbt_fill, gbt.PARAMS, _train_span_history),
}


def register_imputer(kind: str, fill: Callable, params: tuple[ParamSpec, ...] = (),
                     history: Callable[[dict, int], int] | None = None) -> None:
    """Extension seam: add a kind callable as ``fill(masked, gap, params, seed)``.

    ``params`` declares every parameter the kind accepts; any other key is
    rejected.  ``history(params, max_gap_len)`` returns the head-of-series
    samples the kind needs before any gap (none when omitted).  A run passes
    every per-gap job its derived seed, ``derive_seed(seed, gap_index,
    imputer_index)``.
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

    Deterministic given (inputs, config, seed).  A gap not inside the series
    raises ``RangeError`` before any fill runs (a gap field that is not an
    integer, ``InvalidParameterError``).  A fill that is not a 1-D array of
    ``gap.length`` finite values raises ``ShapeError``.  A ``LinAlgError``
    or ``FloatingPointError`` escaping the fill becomes a
    ``NumericalError``; any other exception that is not a ``GapgaugeError``
    is a bug and propagates unchanged.  A row kind fills one gap as the
    one-row case of its ``fill_gaps``.

    Given a sequence of gaps, a row kind returns one outcome per gap: its
    fill after the same checks, or the ``GapgaugeError`` it alone raised.
    Other kinds raise ``ConfigError``.
    """
    spec, rows = _REGISTRY[config.kind], not isinstance(gap, GapSpec)
    gaps = gap if rows else [gap]
    for each in gaps:
        _check_window(masked, each.start_index, each.length)
    if rows:
        if spec.fill_gaps is None:
            raise ConfigError("imputer kind fills one gap per call", kind=config.kind)
        return _checked(spec.fill_gaps(masked, gaps, config.params), gaps, config.kind)
    try:
        if spec.fill_gaps is None:
            outcomes = [spec.fill(masked, gap, config.params, seed)]
        else:
            outcomes = spec.fill_gaps(masked, gaps, config.params)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        outcomes = [exc]
    outcome, = _checked(outcomes, gaps, config.kind)
    if isinstance(outcome, GapgaugeError):
        raise outcome
    return outcome


def _checked(outcomes, gaps: Sequence[GapSpec], kind: str) -> list:
    """Each of ``outcomes`` as a checked fill of its gap, or the
    ``GapgaugeError`` it is or becomes.  Any other exception is a bug and is
    raised.

    One pass: each fill's shape is checked against its gap's length, then
    one ``np.isfinite`` runs over every fill that passed, reduced per fill.
    """
    checked = []
    for outcome, gap in zip(outcomes, gaps, strict=True):
        if isinstance(outcome, (np.linalg.LinAlgError, FloatingPointError)):
            error = NumericalError(f"{type(outcome).__name__}: {outcome}", kind=kind)
            error.__cause__ = outcome
            outcome = error
        elif not isinstance(outcome, Exception):
            filled = np.asarray(outcome, dtype=float)
            outcome = filled if filled.shape == (gap.length,) else ShapeError(
                "fill must be a 1-D array of gap.length values",
                shape=filled.shape, gap=gap.length)
        elif not isinstance(outcome, GapgaugeError):
            raise outcome
        checked.append(outcome)
    fills = [i for i, outcome in enumerate(checked) if isinstance(outcome, np.ndarray)]
    if fills:
        sizes = np.array([len(checked[i]) for i in fills])
        finite = np.logical_and.reduceat(
            np.isfinite(np.concatenate([checked[i] for i in fills])), np.cumsum(sizes) - sizes)
        for at in np.flatnonzero(~finite).tolist():
            checked[fills[at]] = ShapeError("fill contains non-finite values")
    return checked
