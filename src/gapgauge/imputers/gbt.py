"""Least-squares gradient-boosted regression trees over causal features.

Each position is described by three features computed strictly from earlier
values: a trailing simple moving average, an exponentially weighted moving
average, and the hour of day.  Inside a gap there is no observed history, so
the fill is recursive: each prediction is appended to the history that
feeds the next position's features.
"""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError, InvalidParameterError, TrainingError
from ..gaps import GapSpec, philox_generator, training_window_start
from ..series import TimeSeries

DEFAULT_TRAIN_SPAN = 8760  # one year of hourly samples


class RegressionTree:
    """Depth-limited CART regression tree minimizing squared error.

    Splits are midpoints between adjacent distinct feature values; ties in
    gain resolve to the first feature and the lowest threshold, so fitting
    is deterministic.

    The split search is the exact-greedy presorted column layout of XGBoost
    (Chen & Guestrin, KDD 2016, sections 3.1 and 4.1): every feature column
    is sorted once per fit, and each node owns one contiguous segment of
    every sorted column.  A split partitions each segment stably, so a node
    reads its rows in the order a stable sort of its own values would give.
    """

    def __init__(self, max_depth: int = 4):
        if max_depth < 1:
            raise InvalidParameterError("max_depth must be >= 1", max_depth=max_depth)
        self.max_depth = max_depth
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[float] = []

    def fit(self, X, y, order=None, out=None) -> "RegressionTree":
        """Grow the tree on ``X``, ``y``.

        ``order`` is ``np.argsort(X, axis=0, kind="stable")``; a caller that
        fits many trees on one ``X`` passes it to skip the sort, and it is
        not modified.  When ``out`` is given, each training row's leaf value
        is written to it, which equals ``self.predict(X)``.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise TrainingError("need a non-empty aligned training set",
                                rows=len(y))
        if order is None:
            order = np.argsort(X, axis=0, kind="stable")
        # One row of row indices per feature, plus the identity as the last
        # row: it stays ascending under stable partitions, and means and sums
        # over ascending rows keep the summation order of a plain y[idx].
        block = np.vstack([np.asarray(order).T, np.arange(len(y))])
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self._grow(X.T, y, block, 0, len(y), 0, out)
        return self

    def _new_node(self, value: float) -> int:
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(value)
        return len(self._value) - 1

    def _grow(self, cols, y, block, start, end, depth, out) -> int:
        rows = block[-1, start:end]
        # The floats of y[rows].mean() and y[rows].sum(), from one sum.
        total = y[rows].sum()
        node = self._new_node(float(total / len(rows)))
        split = None
        if depth < self.max_depth and end - start >= 2:
            split = self._best_split(cols, y, block[:-1, start:end], float(total))
        if split is None:
            if out is not None:
                out[rows] = self._value[node]
            return node
        feature, threshold = split
        goes_left = np.empty(len(y), dtype=bool)
        goes_left[rows] = cols[feature][rows] <= threshold
        # Partition each sorted row of the segment stably, one at a time so
        # that the temporaries stay the size of one row.
        for seg in block[:, start:end]:
            side = goes_left[seg]
            left, right = seg[side], seg[~side]
            n_left = len(left)
            seg[:n_left] = left
            seg[n_left:] = right
        self._feature[node] = feature
        self._threshold[node] = threshold
        self._left[node] = self._grow(cols, y, block, start, start + n_left,
                                      depth + 1, out)
        self._right[node] = self._grow(cols, y, block, start + n_left, end,
                                       depth + 1, out)
        return node

    def _best_split(self, cols, y, sorted_rows, total):
        best_gain = 0.0
        best = None
        n = sorted_rows.shape[1]
        left_n = np.arange(1.0, n)
        right_n = n - left_n
        parent = total ** 2 / n
        for feature, seg in enumerate(sorted_rows):
            xs_sorted = cols[feature][seg]
            left_sum = np.cumsum(y[seg])[:-1]
            right_sum = total - left_sum
            # Gain in SSE reduction; the sum-of-squares term cancels.
            gain = left_sum ** 2 / left_n + right_sum ** 2 / right_n - parent
            gain[~(xs_sorted[1:] > xs_sorted[:-1])] = -np.inf
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain:
                best_gain = float(gain[pos])
                lower, upper = xs_sorted[pos], xs_sorted[pos + 1]
                mid = (lower + upper) / 2.0
                # For adjacent doubles the midpoint can round up to the upper
                # value, which would send every row left.
                best = (feature, float(mid if mid < upper else lower))
        return best

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        for i, row in enumerate(X):
            node = 0
            while self._feature[node] >= 0:
                if row[self._feature[node]] <= self._threshold[node]:
                    node = self._left[node]
                else:
                    node = self._right[node]
            out[i] = self._value[node]
        return out


class GradientBoostedTrees:
    """Stagewise least-squares boosting: start from the target mean, then
    repeatedly fit a tree to the residuals and step by ``learning_rate``."""

    def __init__(self, trees: int = 100, max_depth: int = 4,
                 learning_rate: float = 0.1, subsample: float = 1.0,
                 rng: np.random.Generator | None = None):
        if trees < 1:
            raise InvalidParameterError("trees must be >= 1", trees=trees)
        if not 0.0 < learning_rate <= 1.0:
            raise InvalidParameterError("learning_rate must lie in (0, 1]",
                                        learning_rate=learning_rate)
        if not 0.0 < subsample <= 1.0:
            raise InvalidParameterError("subsample must lie in (0, 1]",
                                        subsample=subsample)
        self.trees = trees
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.subsample = subsample
        self.rng = rng
        self.base = 0.0
        self.stages: list[RegressionTree] = []
        self.training_mse: list[float] = []

    def fit(self, X, y) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(y) == 0:
            raise TrainingError("empty training set")
        self.base = float(y.mean())
        current = np.full(len(y), self.base)
        self.stages = []
        self.training_mse = []
        # The features are the same for every stage, so sort them once.
        order = np.argsort(X, axis=0, kind="stable")
        step = np.empty(len(y))
        for _ in range(self.trees):
            residuals = y - current
            if self.subsample < 1.0:
                if self.rng is None:
                    raise InvalidParameterError("subsample < 1 requires an rng")
                size = max(1, int(round(self.subsample * len(y))))
                rows = np.sort(self.rng.choice(len(y), size=size, replace=False))
                tree = RegressionTree(max_depth=self.max_depth).fit(X[rows], residuals[rows])
                step = tree.predict(X)
            else:
                # The growing tree writes each row's leaf value into step.
                tree = RegressionTree(max_depth=self.max_depth).fit(
                    X, residuals, order=order, out=step)
            current = current + self.learning_rate * step
            self.stages.append(tree)
            self.training_mse.append(float(np.mean((y - current) ** 2)))
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.full(len(X), self.base)
        for tree in self.stages:
            out += self.learning_rate * tree.predict(X)
        return out


def causal_features(values: np.ndarray, hours: np.ndarray,
                    sma_window: int, ewma_alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows and targets for positions 1..n-1 of a value array.

    Position t sees the trailing mean of up to ``sma_window`` earlier values
    and an EWMA carried over all earlier values, so features never look at
    the target or anything after it.
    """
    n = len(values)
    if n < 2:
        raise TrainingError("need at least two values to build features", rows=n)
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


class _FeatureTracker:
    """Carries the SMA window and EWMA state across recursive gap fills."""

    def __init__(self, history: np.ndarray, last_row: np.ndarray,
                 sma_window: int, ewma_alpha: float):
        self.window = sma_window
        self.alpha = ewma_alpha
        self.recent = list(history[-sma_window:])
        # last_row[1] is the EWMA of history[:-1]; one more step takes in history[-1].
        self.ewma = float(ewma_alpha * history[-1] + (1.0 - ewma_alpha) * last_row[1])

    def row(self, hour: int) -> np.ndarray:
        return np.array([sum(self.recent) / len(self.recent), self.ewma, float(hour)])

    def push(self, value: float) -> None:
        self.ewma = self.alpha * value + (1.0 - self.alpha) * self.ewma
        self.recent.append(value)
        if len(self.recent) > self.window:
            self.recent.pop(0)


def gbt_fill(masked: TimeSeries, gap: GapSpec, train_span: int = DEFAULT_TRAIN_SPAN,
             trees: int = 100, max_depth: int = 4, learning_rate: float = 0.1,
             subsample: float = 1.0, sma_window: int = 24, ewma_alpha: float = 0.3,
             seed: int = 0) -> np.ndarray:
    """Train on the window before the gap, then fill it recursively."""
    if sma_window < 1:
        raise InvalidParameterError("sma_window must be >= 1", sma_window=sma_window)
    if not 0.0 < ewma_alpha <= 1.0:
        raise InvalidParameterError("ewma_alpha must lie in (0, 1]",
                                    ewma_alpha=ewma_alpha)
    lo = training_window_start(masked, gap, train_span)

    values = masked.values[lo:gap.start_index]
    # The float operations of TimeSeries.hour_of_day, over the window and the gap.
    hours = ((masked.start_time + np.arange(lo, gap.end_index) * masked.step)
             % 86400.0 // 3600.0).astype(int)
    X, y = causal_features(values, hours[:len(values)], sma_window, ewma_alpha)
    rng = philox_generator(seed)
    model = GradientBoostedTrees(trees=trees, max_depth=max_depth,
                                 learning_rate=learning_rate,
                                 subsample=subsample, rng=rng).fit(X, y)

    tracker = _FeatureTracker(values, X[-1], sma_window, ewma_alpha)
    filled = np.empty(gap.length)
    for offset, hour in enumerate(hours[len(values):]):
        prediction = float(model.predict(tracker.row(hour)[None, :])[0])
        if not np.isfinite(prediction):
            raise DivergenceError("gradient boosting produced a non-finite fill",
                                  index=gap.start_index + offset)
        filled[offset] = prediction
        tracker.push(prediction)
    return filled
