"""ARIMA and seasonal ARIMA fills estimated by conditional least squares.

Estimation follows the Hannan-Rissanen two-stage procedure: a long
autoregression fitted by ordinary least squares supplies innovation
estimates, then the differenced series is regressed on its own lags and the
lagged innovations.  Order selection is an exhaustive AIC grid with
``AIC = n * ln(SSE / n) + 2 * k`` where ``k = p + q + 1`` plus ``P + Q`` for
seasonal orders and n counts stage-two regression rows.

Seasonal structure enters additively: seasonal lags of the series and of
the innovations join the design matrix alongside the non-seasonal ones.
Forecasts run the fitted recursion forward with zero future innovations and
then integrate the differences back out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import (DivergenceError, GapgaugeError, InvalidParameterError,
                      RankDeficiencyError, SelectionError, TrainingError,
                      TrainingWindowError)
from ..gaps import GapSpec
from ..series import TimeSeries, slice_series

DEFAULT_TRAIN_SPAN = 1008  # six weeks of hourly samples


@dataclass(frozen=True)
class ArimaOrder:
    p: int
    d: int
    q: int
    P: int = 0
    D: int = 0
    Q: int = 0
    s: int = 0

    def __post_init__(self):
        fields = (self.p, self.d, self.q, self.P, self.D, self.Q, self.s)
        if any(v < 0 for v in fields):
            raise InvalidParameterError("order terms must be non-negative",
                                        order=self.label())
        if (self.P or self.D or self.Q) and self.s < 2:
            raise InvalidParameterError("seasonal terms require season length >= 2",
                                        order=self.label())
        if self.n_params == 0 and self.d + self.D == 0:
            raise InvalidParameterError("degenerate all-zero order",
                                        order=self.label())

    @property
    def n_params(self) -> int:
        return self.p + self.q + self.P + self.Q

    @property
    def k(self) -> int:
        """Parameter count entering the AIC penalty (includes the intercept)."""
        return self.p + self.q + self.P + self.Q + 1

    @property
    def is_seasonal(self) -> bool:
        return self.s >= 2 and (self.P or self.D or self.Q)

    def ar_lags(self) -> list[int]:
        return list(range(1, self.p + 1)) + [self.s * j for j in range(1, self.P + 1)]

    def ma_lags(self) -> list[int]:
        return list(range(1, self.q + 1)) + [self.s * j for j in range(1, self.Q + 1)]

    def label(self) -> str:
        base = f"({self.p},{self.d},{self.q})"
        if self.P or self.D or self.Q:
            base += f"({self.P},{self.D},{self.Q})[{self.s}]"
        return base


@dataclass
class FittedArima:
    order: ArimaOrder
    ar: np.ndarray        # coefficients for lags 1..p
    sar: np.ndarray       # coefficients for seasonal lags s..P*s
    ma: np.ndarray
    sma: np.ndarray
    intercept: float
    sigma2: float
    sse: float
    aic: float
    n_obs: int
    _levels: list[np.ndarray] = field(repr=False, default_factory=list)
    _ops: list[int] = field(repr=False, default_factory=list)
    _innovations: np.ndarray = field(repr=False, default=None)

    @property
    def working_series(self) -> np.ndarray:
        """The differenced series the recursion runs on."""
        return self._levels[-1]

    @property
    def innovations(self) -> np.ndarray:
        """In-sample innovation estimates aligned with the working series
        (zero where the regression had no row)."""
        return self._innovations


def _difference_levels(y: np.ndarray, order: ArimaOrder) -> tuple[list[np.ndarray], list[int]]:
    """Apply d regular then D seasonal differences, keeping every level."""
    levels = [np.asarray(y, dtype=float)]
    ops: list[int] = []
    for _ in range(order.d):
        w = levels[-1]
        if len(w) < 2:
            raise TrainingError("series too short to difference", length=len(w))
        levels.append(w[1:] - w[:-1])
        ops.append(1)
    for _ in range(order.D):
        w = levels[-1]
        if len(w) <= order.s:
            raise TrainingError("series too short for seasonal differencing",
                                length=len(w), season=order.s)
        levels.append(w[order.s:] - w[:-order.s])
        ops.append(order.s)
    return levels, ops


def _lag_matrix(x: np.ndarray, lags: list[int], rows: np.ndarray) -> np.ndarray:
    if not lags:
        return np.empty((len(rows), 0))
    return np.column_stack([x[rows - lag] for lag in lags])


def _ols(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise RankDeficiencyError("singular design matrix",
                                  rank=int(rank), columns=design.shape[1])
    return coef, target - design @ coef


def _long_ar_order(n: int, max_lag: int) -> int:
    return max(int(np.floor(np.log(n) ** 2)), 2 * max_lag, 1)


def _stage1_innovations(w: np.ndarray, h: int) -> np.ndarray:
    """Innovation estimates from a long-AR OLS fit; zeros before index h."""
    rows = np.arange(h, len(w))
    design = np.column_stack([_lag_matrix(w, list(range(1, h + 1)), rows),
                              np.ones(len(rows))])
    coef, _, rank, _ = np.linalg.lstsq(design, w[rows], rcond=None)
    # The long AR is a nuisance fit: collinear lags (constant series, exact
    # periodicity) are fine, lstsq already returns the minimum-norm solution.
    resid = w[rows] - design @ coef
    e = np.zeros(len(w))
    e[h:] = resid
    return e


def _fit_core(w: np.ndarray, order: ArimaOrder,
              stage1_cache: dict | None = None) -> dict:
    n_w = len(w)
    if n_w < 10 * (order.p + order.q + 1):
        raise TrainingError("differenced series shorter than 10*(p+q+1)",
                            length=n_w, order=order.label())
    if order.is_seasonal and n_w < 2 * order.s:
        raise TrainingError("differenced series shorter than two seasons",
                            length=n_w, season=order.s)

    ar_lags = order.ar_lags()
    ma_lags = order.ma_lags()
    max_ar = max(ar_lags, default=0)
    max_ma = max(ma_lags, default=0)

    if ma_lags:
        h = _long_ar_order(n_w, max(max_ar, max_ma))
        if h + max_ma + order.k + 1 >= n_w:
            raise TrainingError("training window too short for long-AR stage",
                                length=n_w, long_ar=h, order=order.label())
        if stage1_cache is not None and h in stage1_cache:
            e = stage1_cache[h]
        else:
            e = _stage1_innovations(w, h)
            if stage1_cache is not None:
                stage1_cache[h] = e
        t0 = max(max_ar, h + max_ma)
    else:
        e = np.zeros(n_w)
        t0 = max_ar

    rows = np.arange(t0, n_w)
    if len(rows) <= order.k:
        raise TrainingError("not enough regression rows", rows=len(rows),
                            order=order.label())
    design = np.column_stack([
        _lag_matrix(w, ar_lags, rows),
        _lag_matrix(e, ma_lags, rows),
        np.ones(len(rows)),
    ])
    coef, resid = _ols(design, w[rows])

    sse = float(resid @ resid)
    if not np.isfinite(sse):
        raise DivergenceError("non-finite residual sum of squares",
                              order=order.label())
    n_obs = len(rows)
    aic = float("-inf") if sse <= 0.0 else n_obs * np.log(sse / n_obs) + 2 * order.k

    innovations = np.zeros(n_w)
    innovations[t0:] = resid
    n_ar = order.p + order.P
    n_ma = order.q + order.Q
    return {
        "ar": coef[:order.p],
        "sar": coef[order.p:n_ar],
        "ma": coef[n_ar:n_ar + order.q],
        "sma": coef[n_ar + order.q:n_ar + n_ma],
        "intercept": float(coef[-1]),
        "sse": sse,
        "sigma2": sse / n_obs,
        "aic": float(aic),
        "n_obs": n_obs,
        "innovations": innovations,
    }


def fit_arima(train: TimeSeries, order: ArimaOrder) -> FittedArima:
    """Estimate the given order on a fully observed training series."""
    if not train.observed.all():
        raise TrainingWindowError("training window contains missing values")
    levels, ops = _difference_levels(train.values, order)
    core = _fit_core(levels[-1], order)
    return FittedArima(
        order=order, ar=core["ar"], sar=core["sar"], ma=core["ma"],
        sma=core["sma"], intercept=core["intercept"], sigma2=core["sigma2"],
        sse=core["sse"], aic=core["aic"], n_obs=core["n_obs"],
        _levels=levels, _ops=ops, _innovations=core["innovations"])


def forecast(fitted: FittedArima, steps: int) -> np.ndarray:
    """Roll the recursion ``steps`` ahead and undo the differencing.

    Future innovations are zero; in-sample innovations come from the
    stage-two residuals.
    """
    if steps < 1:
        raise InvalidParameterError("steps must be >= 1", steps=steps)
    order = fitted.order
    w_hist = list(fitted.working_series)
    e_hist = list(fitted.innovations)
    ar_lags = order.ar_lags()
    ma_lags = order.ma_lags()
    coeffs = np.concatenate([fitted.ar, fitted.sar])
    ma_coeffs = np.concatenate([fitted.ma, fitted.sma])
    w_forecast = []
    for _ in range(steps):
        value = fitted.intercept
        for lag, c in zip(ar_lags, coeffs):
            value += c * w_hist[-lag]
        for lag, c in zip(ma_lags, ma_coeffs):
            value += c * e_hist[-lag]
        w_hist.append(value)
        e_hist.append(0.0)
        w_forecast.append(value)

    # Integrate the differences back out, deepest level first.
    ext = w_forecast
    for level, lag in zip(reversed(fitted._levels[:-1]), reversed(fitted._ops)):
        full = list(level)
        parent_ext = []
        for value in ext:
            restored = value + full[-lag]
            parent_ext.append(restored)
            full.append(restored)
        ext = parent_ext
    result = np.asarray(ext)
    if not np.all(np.isfinite(result)):
        raise DivergenceError("forecast recursion diverged",
                              order=order.label())
    return result


def _candidate_orders(p_max: int, d_max: int, q_max: int,
                      seasonal: tuple[int, int, int, int] | None):
    if min(p_max, d_max, q_max) < 0:
        raise InvalidParameterError("order bounds must be >= 0")
    P_max, D_max, Q_max, s = (0, 0, 0, 0) if seasonal is None else seasonal
    if seasonal is not None and s < 2:
        raise InvalidParameterError("seasonal period must be >= 2", s=s)
    for d in range(d_max + 1):
        for D in range(D_max + 1):
            for p in range(p_max + 1):
                for P in range(P_max + 1):
                    for q in range(q_max + 1):
                        for Q in range(Q_max + 1):
                            if p + q + P + Q == 0 and d + D == 0:
                                continue  # degenerate
                            yield ArimaOrder(p, d, q, P, D, Q,
                                             s if (P or D or Q) else 0)


def _select_and_fit(train: TimeSeries, p_max: int, d_max: int, q_max: int,
                    seasonal: tuple[int, int, int, int] | None = None
                    ) -> tuple[ArimaOrder, FittedArima]:
    if not train.observed.all():
        raise TrainingWindowError("training window contains missing values")
    failures: dict[str, str] = {}
    best = None
    # Stage-one innovations depend only on (d, D, long-AR order), so cache
    # them per differencing rather than recomputing across the (p, q) grid.
    level_cache: dict[tuple[int, int], tuple[list, list]] = {}
    stage1_caches: dict[tuple[int, int], dict] = {}
    for order in _candidate_orders(p_max, d_max, q_max, seasonal):
        key = (order.d, order.D)
        try:
            if key not in level_cache:
                level_cache[key] = _difference_levels(train.values, order)
            levels, ops = level_cache[key]
            core = _fit_core(levels[-1], order,
                             stage1_caches.setdefault(key, {}))
        except (GapgaugeError, np.linalg.LinAlgError) as exc:
            # A typed fit failure rejects this candidate; anything else is a bug.
            failures[order.label()] = str(exc)
            continue
        rank = (core["aic"], order.n_params, order.d + order.D,
                (order.p, order.d, order.q, order.P, order.D, order.Q))
        if best is None or rank < best[0]:
            fitted = FittedArima(
                order=order, ar=core["ar"], sar=core["sar"], ma=core["ma"],
                sma=core["sma"], intercept=core["intercept"],
                sigma2=core["sigma2"], sse=core["sse"], aic=core["aic"],
                n_obs=core["n_obs"], _levels=levels, _ops=ops,
                _innovations=core["innovations"])
            best = (rank, fitted)
    if best is None:
        raise SelectionError("no candidate order could be fitted",
                             failures=failures)
    return best[1].order, best[1]


def select_order(train: TimeSeries, p_max: int = 3, d_max: int = 2, q_max: int = 3,
                 seasonal: tuple[int, int, int, int] | None = None) -> ArimaOrder:
    """Exhaustive AIC minimization over the bounded order lattice.

    Ties break toward fewer AR+MA parameters, then fewer differences, then
    lexicographically smaller orders.  ``seasonal`` is ``None`` or a tuple
    ``(P_max, D_max, Q_max, s)``.
    """
    order, _ = _select_and_fit(train, p_max, d_max, q_max, seasonal)
    return order


def arima_fill(masked: TimeSeries, gap: GapSpec, train_span: int = DEFAULT_TRAIN_SPAN,
               p_max: int = 3, d_max: int = 2, q_max: int = 3,
               seasonal: tuple[int, int, int, int] | None = None) -> np.ndarray:
    """Select, fit and forecast over the gap from the window preceding it.

    The ``train_span`` samples immediately before the gap must exist and be
    fully observed.
    """
    lo = gap.start_index - train_span
    if lo < 0:
        raise TrainingWindowError("training window underflows the series",
                                  gap_start=gap.start_index, train_span=train_span)
    if not masked.observed[lo:gap.start_index].all():
        raise TrainingWindowError("training window overlaps missing data",
                                  gap_start=gap.start_index, train_span=train_span)
    train = slice_series(masked, lo, train_span)
    _, fitted = _select_and_fit(train, p_max, d_max, q_max, seasonal)
    return forecast(fitted, gap.length)
