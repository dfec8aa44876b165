"""ARIMA and seasonal ARIMA fills estimated by conditional least squares.

Estimation follows the Hannan-Rissanen two-stage procedure: a long
autoregression fitted by ordinary least squares supplies innovation
estimates, then the differenced series is regressed on its own lags and the
lagged innovations.  Order selection minimizes
``AIC = n * ln(SSE / n) + 2 * k`` over a bounded order lattice, where
``k = p + q + 1`` plus ``P + Q`` for seasonal orders and n counts stage-two
regression rows.

Selection screens every candidate cheaply, then confirms with exact fits.
The screen forms one Gram matrix per shared lag design and solves each
candidate's normal equations from an index subset of it, with an a
posteriori bound on its error.  Every candidate within ``MARGIN`` of the
screened best, and every one the screen cannot bound within ``MARGIN / 2``,
is refitted with ``lstsq``; the exact best is always among them, so the
result equals the exhaustive grid's bit for bit.

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
from ..gaps import GapSpec, training_window_start
from ..series import ParamSpec, TimeSeries, slice_series

ARIMA_PARAMS = (ParamSpec("train_span", int, 1008, low=20, hours=True),
                ParamSpec("p_max", int, 3, low=0), ParamSpec("d_max", int, 2, low=0),
                ParamSpec("q_max", int, 3, low=0))
SARIMA_PARAMS = ARIMA_PARAMS + (
    ParamSpec("P_max", int, 1, low=0), ParamSpec("D_max", int, 1, low=0),
    ParamSpec("Q_max", int, 1, low=0), ParamSpec("season", int, 24, low=2, hours=True))

# Screened AICs this close to the screened best are refitted exactly.  Half
# of it bounds the screen's error on any candidate not refitted regardless.
MARGIN = 0.01


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
    # In-sample innovation estimates aligned with the working series (zero
    # where the regression had no row).
    innovations: np.ndarray = field(repr=False, default=None)
    _levels: list[np.ndarray] = field(repr=False, default_factory=list)

    @property
    def working_series(self) -> np.ndarray:
        """The differenced series the recursion runs on."""
        return self._levels[-1]


def _difference_levels(y: np.ndarray, order: ArimaOrder) -> list[np.ndarray]:
    """Apply d regular then D seasonal differences, keeping every level."""
    levels = [np.asarray(y, dtype=float)]
    for _ in range(order.d):
        w = levels[-1]
        if len(w) < 2:
            raise TrainingError("series too short to difference", length=len(w))
        levels.append(w[1:] - w[:-1])
    for _ in range(order.D):
        w = levels[-1]
        if len(w) <= order.s:
            raise TrainingError("series too short for seasonal differencing",
                                length=len(w), season=order.s)
        levels.append(w[order.s:] - w[:-order.s])
    return levels


def _lagged(x: np.ndarray, lags: list[int]) -> np.ndarray:
    """Columns ``x[t - lag]`` for every ``t``, zero where ``t < lag``: one
    layout that the exact fits and every screened candidate read rows of."""
    out = np.zeros((len(x), len(lags)))
    for j, lag in enumerate(lags):
        out[lag:, j] = x[:max(len(x) - lag, 0)]
    return out


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
    design = np.column_stack([_lagged(w, list(range(1, h + 1)))[h:],
                              np.ones(len(w) - h)])
    coef, _, rank, _ = np.linalg.lstsq(design, w[h:], rcond=None)
    # The long AR is a nuisance fit: collinear lags (constant series, exact
    # periodicity) are fine, lstsq already returns the minimum-norm solution.
    resid = w[h:] - design @ coef
    e = np.zeros(len(w))
    e[h:] = resid
    return e


def _regression_rows(order: ArimaOrder, n_w: int) -> tuple[int, int]:
    """Long-AR order (0 without MA terms) and first stage-two row of ``order``
    on a working series of ``n_w`` samples; ``TrainingError`` if too short."""
    if n_w < 10 * (order.p + order.q + 1):
        raise TrainingError("differenced series shorter than 10*(p+q+1)",
                            length=n_w, order=order.label())
    if order.is_seasonal and n_w < 2 * order.s:
        raise TrainingError("differenced series shorter than two seasons",
                            length=n_w, season=order.s)
    max_ar = max(order.ar_lags(), default=0)
    max_ma = max(order.ma_lags(), default=0)
    h, t0 = 0, max_ar
    if max_ma:
        h = _long_ar_order(n_w, max(max_ar, max_ma))
        if h + max_ma + order.k + 1 >= n_w:
            raise TrainingError("training window too short for long-AR stage",
                                length=n_w, long_ar=h, order=order.label())
        t0 = max(max_ar, h + max_ma)
    if n_w - t0 <= order.k:
        raise TrainingError("not enough regression rows", rows=n_w - t0,
                            order=order.label())
    return h, t0


def _fit_core(levels: list[np.ndarray], order: ArimaOrder,
              stage1_cache: dict) -> FittedArima:
    """Fit ``order`` on the deepest differencing level.

    ``stage1_cache`` maps a long-AR order to its innovations on that level,
    so candidates sharing a differencing share the stage-one fit.
    """
    w = levels[-1]
    n_w = len(w)
    h, t0 = _regression_rows(order, n_w)
    if h:
        if h not in stage1_cache:
            stage1_cache[h] = _stage1_innovations(w, h)
        e = stage1_cache[h]
    else:
        e = np.zeros(n_w)

    design = np.column_stack([
        _lagged(w, order.ar_lags())[t0:],
        _lagged(e, order.ma_lags())[t0:],
        np.ones(n_w - t0),
    ])
    coef, resid = _ols(design, w[t0:])

    sse = float(resid @ resid)
    if not np.isfinite(sse):
        raise DivergenceError("non-finite residual sum of squares",
                              order=order.label())
    n_obs = n_w - t0
    aic = float("-inf") if sse <= 0.0 else n_obs * np.log(sse / n_obs) + 2 * order.k

    innovations = np.zeros(n_w)
    innovations[t0:] = resid
    n_ar = order.p + order.P
    n_ma = order.q + order.Q
    return FittedArima(
        order=order, ar=coef[:order.p], sar=coef[order.p:n_ar],
        ma=coef[n_ar:n_ar + order.q], sma=coef[n_ar + order.q:n_ar + n_ma],
        intercept=float(coef[-1]), sigma2=sse / n_obs, sse=sse,
        aic=float(aic), n_obs=n_obs, innovations=innovations,
        _levels=levels)


def fit_arima(train: TimeSeries, order: ArimaOrder) -> FittedArima:
    """Estimate the given order on a fully observed training series."""
    if not train.observed.all():
        raise TrainingWindowError("training window contains missing values")
    return _fit_core(_difference_levels(train.values, order), order, {})


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
    lags = [1] * order.d + [order.s] * order.D
    for level, lag in zip(reversed(fitted._levels[:-1]), reversed(lags)):
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


def _normal_solve(gram: np.ndarray, n_rows: np.ndarray, col_err=0.0):
    """Solve a stack of least-squares problems from their Gram matrices.

    ``gram[i]`` is the Gram matrix of ``[X y]``, the target last.
    ``col_err[i, j]`` bounds how far column j of X lies from the column the
    exact fit uses.  Columns are scaled to unit norm.  Returns the scaled
    coefficients, the scaled SSE ``1 - 2 b'g + b'Gb`` (never below the
    minimum for any b, so solve errors enter it only squared), the inverse
    scaled ``X'X``, the column norms and ``sigma``: a lower bound on the
    smallest singular value of the exact fit's scaled design, nan unless it
    also certifies that ``lstsq`` finds that design of full rank.
    """
    c = gram.shape[-1] - 1
    norms = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    usable = np.all(norms > 0, axis=1) & np.all(np.isfinite(gram), axis=(1, 2))
    norms = np.where(usable[:, None], norms, 1.0)
    scaled = np.where(usable[:, None, None],
                      gram / (norms[:, :, None] * norms[:, None, :]), np.eye(c + 1))
    G, g = scaled[:, :c, :c], scaled[:, :c, c]
    rhs = np.concatenate([g[:, :, None], np.broadcast_to(np.eye(c), G.shape)], axis=2)
    try:
        sol = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:  # an exactly singular matrix in the stack
        sol = np.full(rhs.shape, np.nan)
        for i in range(len(G)):
            try:
                sol[i] = np.linalg.solve(G[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    beta, inv = sol[:, :, 0], sol[:, :, 1:]
    sse = 1.0 - 2.0 * np.einsum("mi,mi->m", beta, g) \
        + np.einsum("mi,mij,mj->m", beta, G, beta)
    # trace(inv) >= 1 / lambda_min; a perturbation of the columns moves the
    # smallest singular value by at most its spectral norm.
    sigma = 1.0 / np.sqrt(np.trace(inv, axis1=1, axis2=2)) \
        - np.sqrt(np.sum((col_err / norms[:, :c]) ** 2, axis=1))
    # lstsq drops singular values below eps * max(rows, cols) of the largest
    rcond = np.finfo(float).eps * np.maximum(n_rows, c)
    full_rank = sigma * norms[:, :c].min(axis=1) \
        > 100.0 * rcond * np.sqrt(np.sum(norms[:, :c] ** 2, axis=1))
    sigma = np.where(usable & full_rank, sigma, np.nan)
    return beta, sse, inv, norms, sigma


def _rounding(n_rows, c: int):
    """Relative rounding bound for Gram products and residuals over
    ``n_rows`` rows of ``c`` columns (a scalar or an array, as n_rows)."""
    return 4.0 * (n_rows + c) * np.finfo(float).eps


def _screen_innovations(ws: list[np.ndarray], h: int
                        ) -> list[tuple[np.ndarray, float] | None]:
    """Long-AR innovations of each working series from the normal equations,
    solved in one batch, and a bound on their distance from
    ``_stage1_innovations(w, h)``; None where not certified."""
    def design(w):
        # columns: the intercept, lags h..1, then the target
        return np.column_stack([np.ones(len(w) - h),
                                np.lib.stride_tricks.sliding_window_view(w, h + 1)])

    grams = [z.T @ z for z in map(design, ws)]
    beta, sse, inv, norms, sigma = _normal_solve(np.array(grams),
                                                 np.array([len(w) - h for w in ws]))
    out = []
    for i, w in enumerate(ws):
        if not np.isfinite(sigma[i]):
            out.append(None)
            continue
        z = design(w)
        resid = z[:, -1] - z[:, :-1] @ (beta[i] * norms[i, -1] / norms[i, :-1])
        # The exact residual is orthogonal to the design; what lies along it
        # is the solve's error.  Add the rounding of that projection and of
        # both residual evaluations (relative to the target's norm throughout).
        proj = (z[:, :-1].T @ resid) / (norms[i, :-1] * norms[i, -1])
        gam = _rounding(len(z), h + 1)
        t = 1.0 + np.abs(beta[i]).sum()
        dist = np.sqrt(max(proj @ inv[i] @ proj, 0.0)) \
            + 2.0 * gam * np.sqrt((h + 1) * max(sse[i], 0.0)) / sigma[i] + 3.0 * gam * t
        e = np.zeros(len(w))
        e[h:] = resid
        out.append((e, float(dist * norms[i, -1])))
    return out


@np.errstate(all="ignore")
def _screen(values: np.ndarray, orders: list[ArimaOrder],
            levels: dict) -> list[tuple[ArimaOrder, float, bool]]:
    """Screened AIC of every candidate that passes the length checks, and
    whether its error bound lies within ``MARGIN / 2`` of the exact AIC.

    Candidates sharing (d, D, long-AR order) share one lag matrix of the
    working series and one of the innovations; each distinct first row gets
    one Gram matrix, and a candidate's normal equations are an index subset
    of it.  The innovations come from a long AR solved the same way; where
    that solve is not certified, the group is left to the exact fits.
    """
    groups: dict[tuple[int, int, int], list] = {}
    for order in orders:
        key = (order.d, order.D)
        try:
            if key not in levels:
                levels[key] = _difference_levels(values, order)
            h, t0 = _regression_rows(order, len(levels[key][-1]))
        except TrainingError:
            continue  # the exact fit fails the same check
        groups.setdefault((order.d, order.D, h), []).append((order, t0))

    # One column layout for every group: all AR lags, all MA lags, the
    # intercept and the target.
    shapes = {(o.p, o.q, o.P, o.Q, o.s): o for o in orders}.values()
    ar_all = sorted({lag for o in shapes for lag in o.ar_lags()})
    ma_all = sorted({lag for o in shapes for lag in o.ma_lags()})
    columns = {(o.p, o.q, o.P, o.Q, o.s):
               [ar_all.index(lag) for lag in o.ar_lags()]
               + [len(ar_all) + ma_all.index(lag) for lag in o.ma_lags()]
               + [len(ar_all) + len(ma_all), len(ar_all) + len(ma_all) + 1]
               for o in shapes}
    is_ma = np.array([False] * len(ar_all) + [True] * len(ma_all) + [False, False])
    innovations = {}  # (d, D, h) -> screened innovations and their error
    for h in {h for _, _, h in groups} - {0}:
        keys = [key for key in groups if key[2] == h]
        innovations.update(zip(keys, _screen_innovations(
            [levels[key[:2]][-1] for key in keys], h)))

    out, grams, batches = [], [], {}
    for (d, D, h), members in groups.items():
        w = levels[(d, D)][-1]
        e, e_err = np.zeros(len(w)), 0.0
        if h:
            if innovations[d, D, h] is None:
                out.extend((order, np.nan, False) for order, _ in members)
                continue
            e, e_err = innovations[d, D, h]
        z = np.column_stack([_lagged(w, ar_all), _lagged(e, ma_all),
                             np.ones(len(w)), w])
        # the rows every member regresses on, then each first row's extra rows
        last = max(t0 for _, t0 in members)
        common = z[last:].T @ z[last:]
        first = {}
        for order, t0 in members:
            if t0 not in first:
                first[t0] = len(grams)
                grams.append(common + z[t0:last].T @ z[t0:last])
            batches.setdefault(order.k, []).append(
                (order, first[t0], len(w) - t0, e_err,
                 columns[order.p, order.q, order.P, order.Q, order.s]))

    grams = np.array(grams)
    for k, batch in batches.items():
        orders_k, gid, n_obs, e_err, cols = zip(*batch)
        gid, n_obs, cols = np.array(gid), np.array(n_obs), np.array(cols)
        col_err = np.array(e_err)[:, None] * is_ma[cols[:, :k]]
        beta, sse, _, norms, sigma = _normal_solve(
            grams[gid[:, None, None], cols[:, :, None], cols[:, None, :]],
            n_obs, col_err)
        gam = _rounding(n_obs, k)
        t = 1.0 + np.abs(beta).sum(axis=1)
        # rounding of the Gram matrix and of the SSE, the solve error
        # (second order), and the screened innovations' distance from the
        # exact ones: (1 + rho)^2 - 1 <= 3 rho of the SSE.
        err = gam * t * (t + 2.0) + ((k + 1) * gam * t / sigma) ** 2 \
            + 3.0 * np.sqrt(sse) * np.sum(np.abs(beta) * col_err / norms[:, :k], axis=1)
        aic = n_obs * np.log(sse * norms[:, k] ** 2 / n_obs) + 2 * k
        # |ln(1 + x)| <= 2|x| for |x| <= 1/2
        sure = np.isfinite(sigma) & (sse > 0) & (2.0 * n_obs * err / sse <= MARGIN / 2)
        out.extend(zip(orders_k, aic.tolist(), sure.tolist()))
    return out


def _fit_best(values: np.ndarray, orders, levels: dict, stage1: dict
              ) -> tuple[FittedArima | None, dict[str, str]]:
    """Fit each order exactly; the best by (AIC, parameters, differences,
    order) and the reason each failed fit was rejected."""
    failures: dict[str, str] = {}
    best = None
    for order in orders:
        key = (order.d, order.D)
        try:
            if key not in levels:
                levels[key] = _difference_levels(values, order)
            fitted = _fit_core(levels[key], order, stage1.setdefault(key, {}))
        except (GapgaugeError, np.linalg.LinAlgError) as exc:
            # A typed fit failure rejects this candidate; anything else is a bug.
            failures[order.label()] = str(exc)
            continue
        rank = (fitted.aic, order.n_params, order.d + order.D,
                (order.p, order.d, order.q, order.P, order.D, order.Q))
        if best is None or rank < best[0]:
            best = (rank, fitted)
    return (None if best is None else best[1]), failures


def _select_and_fit(train: TimeSeries, p_max: int, d_max: int, q_max: int,
                    seasonal: tuple[int, int, int, int] | None = None
                    ) -> FittedArima:
    if not train.observed.all():
        raise TrainingWindowError("training window contains missing values")
    orders = list(_candidate_orders(p_max, d_max, q_max, seasonal))
    # Differencing levels per (d, D), shared by the screen and the exact
    # fits; exact stage-one innovations per (d, D) and long-AR order.
    levels: dict[tuple[int, int], list] = {}
    stage1: dict[tuple[int, int], dict] = {}
    screened = _screen(train.values, orders, levels)
    best = min((aic for _, aic, sure in screened if sure), default=np.inf)
    confirm = [order for order, aic, sure in screened
               if not sure or aic <= best + MARGIN]
    fitted, _ = _fit_best(train.values, confirm, levels, stage1)
    if fitted is None:
        # Nothing confirmed: fit every candidate, so the error names each.
        fitted, failures = _fit_best(train.values, orders, levels, stage1)
        if fitted is None:
            raise SelectionError("no candidate order could be fitted",
                                 failures=failures)
    return fitted


def select_order(train: TimeSeries, p_max: int, d_max: int, q_max: int,
                 seasonal: tuple[int, int, int, int] | None = None) -> ArimaOrder:
    """AIC minimization over the bounded order lattice.

    Ties break toward fewer AR+MA parameters, then fewer differences, then
    lexicographically smaller orders.  ``seasonal`` is ``None`` or a tuple
    ``(P_max, D_max, Q_max, s)``.  Every candidate is screened from Gram
    matrices and those the screen cannot rule out are refitted exactly, so
    the order is the one an exhaustive grid of exact fits selects.
    """
    return _select_and_fit(train, p_max, d_max, q_max, seasonal).order


def arima_fill(masked: TimeSeries, gap: GapSpec, params: dict, seed: int) -> np.ndarray:
    """Select, fit and forecast over the gap from the window preceding it.

    The ``train_span`` samples immediately before the gap must exist and be
    fully observed.  A ``season`` parameter (sarima) adds the seasonal bounds.
    """
    seasonal = None
    if "season" in params:
        seasonal = (params["P_max"], params["D_max"], params["Q_max"], params["season"])
    span = params["train_span"]
    train = slice_series(masked, training_window_start(masked, gap, span), span)
    fitted = _select_and_fit(train, params["p_max"], params["d_max"], params["q_max"], seasonal)
    return forecast(fitted, gap.length)
