"""Independent reference computations the implementation is checked against.

Nothing here may share code with the library paths under test: the
transport cost is solved as a coupling problem (permutation enumeration for
equal sizes, an explicit linear program otherwise), divergences by direct
summation, forecasts by a hand-rolled recursion, seasonal-naive fills one
position at a time, synthetic series by the generator that popped each
parameter with its default in turn, and the checks of a run's settings,
gap requests and histogram parameters by hand-written rules.  The one
exception is
ARIMA order selection: the exhaustive grid reuses the library's
per-candidate fit, because what it checks is which candidate gets picked.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np
from scipy.optimize import linprog

from gapgauge.errors import (CapacityError, ConfigError, GapgaugeError,
                             InvalidParameterError, SeasonalReferenceError, SelectionError)
from gapgauge.gaps import GapSet, GapSpec, philox_generator
from gapgauge.imputers import arima


def transport_cost_bruteforce(p, q) -> float:
    """Minimum-cost coupling between two equal-mass empirical distributions.

    Equal sizes: enumerate every assignment (n! couplings) and take the
    cheapest.  Unequal sizes: solve the transport linear program over the
    full coupling polytope with atom masses 1/n and 1/m.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n, m = len(p), len(q)
    if n == m:
        best = math.inf
        for perm in itertools.permutations(range(n)):
            cost = sum(abs(p[i] - q[perm[i]]) for i in range(n)) / n
            best = min(best, cost)
        return best

    cost = np.abs(p[:, None] - q[None, :]).ravel()
    # Row-sum and column-sum constraints on the n*m coupling variables.
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m, 1.0 / m)])
    result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.success, result.message
    return float(result.fun)


def kl_direct(p_mass, q_mass) -> float:
    """Relative entropy in bits by direct summation."""
    total = 0.0
    for pi, qi in zip(p_mass, q_mass):
        if pi > 0:
            total += pi * math.log2(pi / qi)
    return total


def jsd_direct(p_mass, q_mass) -> float:
    """Jensen-Shannon divergence in bits by direct summation."""
    mix = [(pi + qi) / 2.0 for pi, qi in zip(p_mass, q_mass)]
    return 0.5 * kl_direct(p_mass, mix) + 0.5 * kl_direct(q_mass, mix)


# Per-pair scoring: the one-pair-at-a-time code the library ran before its
# metrics took row batches, with the narrow-range widening scaled to the
# data's magnitude.  The batched metrics must equal it bit for bit.

def _pair_values(sample) -> np.ndarray:
    return np.asarray(getattr(sample, "values", sample), dtype=float).ravel()


def wasserstein_pair(p, q) -> float:
    pv = np.sort(_pair_values(p))
    qv = np.sort(_pair_values(q))
    if len(pv) == len(qv):
        return float(np.mean(np.abs(pv - qv)))
    support = np.sort(np.concatenate([pv, qv]))
    widths = np.diff(support)
    cdf_p = np.searchsorted(pv, support[:-1], side="right") / len(pv)
    cdf_q = np.searchsorted(qv, support[:-1], side="right") / len(qv)
    return float(np.sum(np.abs(cdf_p - cdf_q) * widths))


def shared_edges_pair(lo: float, hi: float, bins: int) -> np.ndarray:
    scale = max(1.0, abs(lo), abs(hi))
    if hi - lo <= scale * 1e-9:
        mid = (lo + hi) / 2.0
        width = max(1.0, 1e-6 * scale)
        half_bin = 0.5 / bins
        lo = mid - 0.5 * width + half_bin * width
        hi = mid + 0.5 * width + half_bin * width
    return np.linspace(lo, hi, bins + 1)


def _smoothed_mass_pair(counts, epsilon: float) -> np.ndarray:
    mass = counts / counts.sum() + epsilon
    return mass / mass.sum()


def _sorted_counts_pair(sorted_values, edges) -> np.ndarray:
    cumulative = np.concatenate((sorted_values.searchsorted(edges[:-1], "left"),
                                 sorted_values.searchsorted(edges[-1:], "right")))
    return np.diff(cumulative)


def _jsd_masses_pair(p_mass, q_mass) -> float:
    mixture = (p_mass + q_mass) / 2.0

    def against_mixture(mass):
        support = mass > 0
        return float(np.sum(mass[support] * np.log2(mass[support] / mixture[support])))

    return 0.5 * against_mixture(p_mass) + 0.5 * against_mixture(q_mass)


def jsd_pair(p, q, bins: int = 10, epsilon: float = 1e-6) -> float:
    ps = np.sort(_pair_values(p))
    qs = np.sort(_pair_values(q))
    edges = shared_edges_pair(min(ps[0], qs[0]), max(ps[-1], qs[-1]), bins)
    return _jsd_masses_pair(_smoothed_mass_pair(_sorted_counts_pair(ps, edges), epsilon),
                            _smoothed_mass_pair(_sorted_counts_pair(qs, edges), epsilon))


def rmse_pair(imputed, truth) -> float:
    a, b = _pair_values(imputed), _pair_values(truth)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def mae_pair(imputed, truth) -> float:
    a, b = _pair_values(imputed), _pair_values(truth)
    return float(np.mean(np.abs(a - b)))


def seasonal_naive_walk(masked, gap, season: int) -> np.ndarray:
    """Seasonal-naive fill one position at a time: each gap position walks
    back a season at a time to its first observed ancestor, and the first
    position with none raises ``SeasonalReferenceError`` naming it."""
    filled = np.empty(gap.length)
    for offset, i in enumerate(range(gap.start_index, gap.end_index)):
        j = i - season
        while j >= 0 and not masked.observed[j]:
            j -= season
        if j < 0:
            raise SeasonalReferenceError(
                "no observed value a whole number of seasons earlier",
                index=i, season=season)
        filled[offset] = masked.values[j]
    return filled


def arima_forecast_by_hand(fitted, steps: int) -> np.ndarray:
    """Re-run the forecast recursion from the fitted coefficients alone.

    Independently re-derives the differenced series from the training
    values, steps the additive seasonal ARMA recursion with zero future
    innovations, then un-differences by explicit back-substitution.
    """
    order = fitted.order
    levels = [np.asarray(fitted._levels[0], dtype=float)]
    for _ in range(order.d):
        levels.append(np.diff(levels[-1]))
    for _ in range(order.D):
        levels.append(levels[-1][order.s:] - levels[-1][:-order.s])

    w = list(levels[-1])
    e = list(fitted.innovations)
    forecasts = []
    for _ in range(steps):
        value = fitted.intercept
        for lag in range(1, order.p + 1):
            value += fitted.ar[lag - 1] * w[-lag]
        for j in range(1, order.P + 1):
            value += fitted.sar[j - 1] * w[-j * order.s]
        for lag in range(1, order.q + 1):
            value += fitted.ma[lag - 1] * e[-lag]
        for j in range(1, order.Q + 1):
            value += fitted.sma[j - 1] * e[-j * order.s]
        w.append(value)
        e.append(0.0)
        forecasts.append(value)

    lags = [1] * order.d + [order.s] * order.D
    ext = forecasts
    for depth in range(len(lags) - 1, -1, -1):
        parent = list(levels[depth])
        undone = []
        for value in ext:
            restored = value + parent[-lags[depth]]
            undone.append(restored)
            parent.append(restored)
        ext = undone
    return np.asarray(ext)


def best_single_split_sse(x, y) -> float:
    """Exhaustive search over thresholds for the best one-split regressor."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def sse(values):
        return float(np.sum((values - values.mean()) ** 2)) if len(values) else 0.0

    best = sse(y)
    for threshold in np.unique(x):
        left = y[x <= threshold]
        right = y[x > threshold]
        if len(left) and len(right):
            best = min(best, sse(left) + sse(right))
    return best


class ReferenceTree:
    """The regression tree as first written: a stable argsort of every
    feature at every node, a boolean mask per split and a per-row predict.

    The library's presorted tree must build the same node arrays."""

    def __init__(self, max_depth: int = 4, min_samples_leaf: int = 1):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._grow(X, y, np.arange(len(y)), 0)
        return self

    def _grow(self, X, y, idx, depth):
        node = len(self.value)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(y[idx].mean()))
        if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
            return node
        split = self._best_split(X, y, idx)
        if split is None:
            return node
        feature, threshold = split
        mask = X[idx, feature] <= threshold
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = self._grow(X, y, idx[mask], depth + 1)
        self.right[node] = self._grow(X, y, idx[~mask], depth + 1)
        return node

    def _best_split(self, X, y, idx):
        best_gain = 0.0
        best = None
        total = float(y[idx].sum())
        n = len(idx)
        for feature in range(X.shape[1]):
            xs = X[idx, feature]
            order = np.argsort(xs, kind="stable")
            xs_sorted = xs[order]
            ys_sorted = y[idx][order]
            left_sum = np.cumsum(ys_sorted)[:-1]
            left_n = np.arange(1, n)
            right_sum = total - left_sum
            right_n = n - left_n
            gain = (left_sum ** 2 / left_n + right_sum ** 2 / right_n
                    - total ** 2 / n)
            valid = (xs_sorted[1:] > xs_sorted[:-1]) \
                & (left_n >= self.min_samples_leaf) \
                & (right_n >= self.min_samples_leaf)
            gain = np.where(valid, gain, -np.inf)
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain:
                best_gain = float(gain[pos])
                lower, upper = xs_sorted[pos], xs_sorted[pos + 1]
                mid = (lower + upper) / 2.0
                # a midpoint that rounds up to the upper value falls back to
                # the lower one, so the split still separates the two
                best = (feature, float(mid if mid < upper else lower))
        return best

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = 0
            while self.feature[node] >= 0:
                if row[self.feature[node]] <= self.threshold[node]:
                    node = self.left[node]
                else:
                    node = self.right[node]
            out[i] = self.value[node]
        return out


def causal_features_on_numpy_scalars(values, hours, sma_window, ewma_alpha):
    """GBT's causal features with the EWMA recursion stepped on numpy
    float64 scalars in an array, as first written.  Returns (X, y)."""
    n = len(values)
    csum = np.concatenate([[0.0], np.cumsum(values)])
    t = np.arange(1, n)
    lo = np.maximum(t - sma_window, 0)
    sma = (csum[t] - csum[lo]) / (t - lo)
    ewma = np.empty(n)
    ewma[1] = values[0]
    for i in range(2, n):
        ewma[i] = ewma_alpha * values[i - 1] + (1.0 - ewma_alpha) * ewma[i - 1]
    X = np.column_stack([sma, ewma[1:], hours[1:].astype(float)])
    return X, values[1:].copy()


def reference_boosting(X, y, trees, max_depth, learning_rate, subsample=1.0,
                       rng=None):
    """Stagewise boosting that updates the residuals with a full predict of
    each new tree.  Returns (base, stage trees, training MSE per stage)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    base = float(y.mean())
    current = np.full(len(y), base)
    stages, training_mse = [], []
    for _ in range(trees):
        residuals = y - current
        if subsample < 1.0:
            size = max(1, int(round(subsample * len(y))))
            rows = np.sort(rng.choice(len(y), size=size, replace=False))
        else:
            rows = slice(None)
        tree = ReferenceTree(max_depth).fit(X[rows], residuals[rows])
        current = current + learning_rate * tree.predict(X)
        stages.append(tree)
        training_mse.append(float(np.mean((y - current) ** 2)))
    return base, stages, training_mse


def reference_gap_placement(series_length, n_gaps, min_len, max_len, seed,
                            min_start=0):
    """Gap placement as first written: every draw scans all accepted
    extended intervals for an overlap.

    Only the draw loop is kept; callers pass requests that clear the
    library's feasibility precheck.  The library's bisect over sorted
    intervals must place the same gaps, or fail after the same draws."""
    rng = philox_generator(seed)
    occupied, placed = [], []
    max_attempts = 10_000 * n_gaps
    attempts = 0
    while len(placed) < n_gaps:
        if attempts >= max_attempts:
            raise CapacityError("could not place all gaps disjointly",
                                placed=len(placed), requested=n_gaps,
                                series_length=series_length, attempts=attempts)
        attempts += 1
        length = int(rng.integers(min_len, max_len + 1))
        lo = max(length, min_start)
        hi = series_length - length
        if hi < lo:
            continue
        gap = GapSpec(int(rng.integers(lo, hi + 1)), length)
        a, b = gap.start_index - length, gap.end_index
        if any(a < y and x < b for x, y in occupied):
            continue
        occupied.append((a, b))
        placed.append(gap)
    placed.sort(key=lambda g: g.start_index)
    return GapSet(gaps=tuple(placed), seed=int(seed), source_length=series_length)


def exhaustive_select_and_fit(train, p_max, d_max, q_max, seasonal=None):
    """ARIMA order selection as first written: fit every candidate of the
    lattice with the exact least-squares path and keep the best rank tuple.

    Returns the fitted model and the reason each rejected candidate failed.
    The library's screened selection must return the same fitted model."""
    failures: dict[str, str] = {}
    best = None
    level_cache: dict[tuple[int, int], list] = {}
    stage1_caches: dict[tuple[int, int], dict] = {}
    for order in arima._candidate_orders(p_max, d_max, q_max, seasonal):
        key = (order.d, order.D)
        try:
            if key not in level_cache:
                level_cache[key] = arima._difference_levels(train.values, order)
            fitted = arima._fit_core(level_cache[key], order,
                                     stage1_caches.setdefault(key, {}))
        except (GapgaugeError, np.linalg.LinAlgError) as exc:
            failures[order.label()] = str(exc)
            continue
        rank = (fitted.aic, order.n_params, order.d + order.D,
                (order.p, order.d, order.q, order.P, order.D, order.Q))
        if best is None or rank < best[0]:
            best = (rank, fitted)
    if best is None:
        raise SelectionError("no candidate order could be fitted",
                             failures=failures)
    return best[1], failures


def _pop_noise_sd(params: dict, default: float) -> float:
    noise_sd = float(params.pop("noise_sd", default))
    if not noise_sd >= 0:
        raise InvalidParameterError("noise_sd must be >= 0", noise_sd=noise_sd)
    return noise_sd


def synthesized_values_by_pops(kind, length, params=None, seed=0, step=3600.0,
                               start_time=1_609_459_200) -> np.ndarray:
    """The values of ``synthesize_series`` as first written: each default
    and range check in a chain of ``params.pop`` calls, and an unknown key
    reported only after the values were generated.  Its check of lengths
    beyond memory is left out."""
    if length < 1:
        raise InvalidParameterError("length must be >= 1", length=length)
    for key, value in {**(params or {}), "start_time": start_time, "step": step}.items():
        if not np.isfinite(value):
            raise InvalidParameterError(f"{key} must be finite", value=value)
    if not step > 0:
        raise InvalidParameterError("step must be > 0", step=step)
    params = dict(params or {})
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
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
        raise ConfigError(f"unknown series kind {kind!r}")

    if params:
        raise ConfigError(f"unknown parameters for kind {kind!r}", unknown=sorted(params))
    return values


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def eval_config_checks(imputers, n_gaps=100, min_len=2, max_len=48, seed=0, bins=10,
                       epsilon=1e-6, aggregation="exact") -> None:
    """``EvalConfig.__post_init__`` as first written: each rule by hand, in
    this order.  A non-number ``epsilon`` reaches ``0 < epsilon`` and raises
    ``TypeError``; a numpy ``bins`` adds 1 in numpy's integer arithmetic."""
    for name, value in dict(n_gaps=n_gaps, min_len=min_len, max_len=max_len,
                            seed=seed, bins=bins).items():
        if not _is_integer(value):
            raise ConfigError(f"{name} must be an integer", **{name: value})
    if n_gaps < 1:
        raise ConfigError("n_gaps must be >= 1", n_gaps=n_gaps)
    if not 1 <= min_len <= max_len:
        raise ConfigError("need 1 <= min_len <= max_len", min_len=min_len, max_len=max_len)
    if not imputers:
        raise ConfigError("need at least one imputer")
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit an unsigned 64-bit integer", seed=seed)
    if not 2 <= bins < 2**63:
        raise ConfigError("bins must be >= 2 and fit a signed 64-bit integer", bins=bins)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not (bins + 1) * 8 <= memory:
        raise ConfigError("bins + 1 histogram edges exceed physical memory", bins=bins)
    if isinstance(epsilon, bool) or not 0 < epsilon < np.inf:
        raise ConfigError("epsilon must be finite and > 0", epsilon=epsilon)
    if aggregation not in ("exact", "quartile"):
        raise ConfigError("unknown aggregation rule", aggregation=aggregation)


def gap_request_checks(series_length, n_gaps, min_len, max_len, seed, min_start=0) -> None:
    """The checks of ``generate_gaps`` as first written, then those of the
    seed, which ``philox_generator`` made before any draw."""
    for name, value in dict(series_length=series_length, n_gaps=n_gaps, min_len=min_len,
                            max_len=max_len, min_start=min_start).items():
        if not _is_integer(value):
            raise InvalidParameterError(f"{name} must be an integer", **{name: value})
    if not (1 <= min_len <= max_len):
        raise InvalidParameterError("need 1 <= min_len <= max_len",
                                    min_len=min_len, max_len=max_len)
    if n_gaps < 1:
        raise InvalidParameterError("n_gaps must be >= 1", n_gaps=n_gaps)
    if min_start < 0:
        raise InvalidParameterError("min_start must be >= 0", min_start=min_start)
    if not (_is_integer(seed) and 0 <= seed < 2**64):
        raise InvalidParameterError("seed must fit an unsigned 64-bit integer", seed=seed)


def histogram_parameter_checks(bins, epsilon) -> None:
    """The checks ``jsd`` and ``shared_histogram`` made as first written.  A
    ``bool`` epsilon passes; a non-number one raises ``TypeError``."""
    if not _is_integer(bins):
        raise InvalidParameterError("bins must be an integer", bins=bins)
    if bins < 2:
        raise InvalidParameterError("bins must be >= 2", bins=bins)
    if not 0 < epsilon < np.inf:
        raise InvalidParameterError("epsilon must be finite and > 0", epsilon=epsilon)
