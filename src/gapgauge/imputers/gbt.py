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

    Only work whose result a split reads is done:

    * A column whose sorted values hold no tie (a NaN counts as one) is
      strictly increasing in every node's segment, so every cut of it is
      valid and its search reads no feature values but the two around the
      best cut.  A column with ties scores only the cuts between distinct
      values.
    * The split column's segment is sorted, so it is already left-first.
      Children at ``max_depth`` are leaves and read only the row indices.
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
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        # The scratch is local to this call, so a fitted tree keeps only
        # max_depth and its node lists.
        self._grow(_FitScratch(X, y, np.asarray(order), out), 0, len(y), 0)
        return self

    def _new_node(self, value: float) -> int:
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(value)
        return len(self._value) - 1

    def _grow(self, scratch, start, end, depth) -> int:
        rows = scratch.block[-1, start:end]
        # The floats of y[rows].mean() and y[rows].sum(), from one sum.
        total = scratch.y[rows].sum()
        node = self._new_node(float(total / len(rows)))
        split = None
        if depth < self.max_depth and end - start >= 2:
            split = self._best_split(scratch, start, end, float(total))
        if split is None:
            if scratch.out is not None:
                scratch.out[rows] = self._value[node]
            return node
        feature, threshold, n_left = split
        self._partition(scratch, start, end, feature, threshold, n_left,
                        depth + 1 < self.max_depth)
        self._feature[node] = feature
        self._threshold[node] = threshold
        self._left[node] = self._grow(scratch, start, start + n_left, depth + 1)
        self._right[node] = self._grow(scratch, start + n_left, end, depth + 1)
        return node

    @staticmethod
    def _best_split(scratch, start, end, total):
        """(feature, threshold, rows left of it), or None when no cut gains."""
        y, cols = scratch.y, scratch.cols
        n = end - start
        parent = total ** 2 / n
        best_gain = 0.0
        best = None
        for feature, seg in enumerate(scratch.block[:-1, start:end]):
            col = cols[feature]
            # The prefix sums of y[seg]; the last one is never a cut.
            left_sum = np.cumsum(y[seg[:-1]], out=scratch.left_gain[:n - 1])
            if scratch.tied[feature]:
                xs = col[seg]
                cuts = np.flatnonzero(xs[1:] > xs[:-1])
                if not len(cuts):
                    continue
                cut_n = cuts + 1.0
                gain = _split_gain(left_sum[cuts], cut_n, n - cut_n, total, parent,
                                   scratch.right_gain[:len(cuts)])
                k = int(np.argmax(gain))
                pos, value = int(cuts[k]), gain[k]
            else:
                counts = scratch.counts
                gain = _split_gain(left_sum, counts[:n - 1], counts[n - 2::-1],
                                   total, parent, scratch.right_gain[:n - 1])
                pos = int(np.argmax(gain))
                value = gain[pos]
            if value > best_gain:
                best_gain = float(value)
                lower, upper = col[seg[pos]], col[seg[pos + 1]]
                mid = (lower + upper) / 2.0
                # For adjacent doubles the midpoint can round up to the upper
                # value, which would send every row left.
                best = (feature, float(mid if mid < upper else lower), pos + 1)
        return best

    @staticmethod
    def _partition(scratch, start, end, feature, threshold, n_left, children_split):
        """Split each segment the children read again, stably."""
        rows = scratch.block[-1, start:end]
        in_left = scratch.cols[feature][rows] <= threshold
        if children_split:
            goes_left = scratch.goes_left
            goes_left[rows] = in_left
            for other, seg in enumerate(scratch.block[:-1, start:end]):
                if other != feature:
                    side = goes_left[seg]
                    left, right = seg.compress(side), seg.compress(~side)
                    seg[:n_left] = left
                    seg[n_left:] = right
        left, right = rows.compress(in_left), rows.compress(~in_left)
        rows[:n_left] = left
        rows[n_left:] = right

    def predict(self, X) -> np.ndarray:
        feature, threshold = self._feature, self._threshold
        left, right, value = self._left, self._right, self._value
        out = []
        # Python floats compare exactly as the float64 cells they came from.
        for row in np.asarray(X, dtype=float).tolist():
            node = 0
            while feature[node] >= 0:
                node = left[node] if row[feature[node]] <= threshold[node] else right[node]
            out.append(value[node])
        return np.array(out, dtype=float)


def _split_gain(left_sum, left_n, right_n, total, parent, right):
    """SSE reduction of each cut, written over ``left_sum`` and returned.

    ``right`` is scratch of the same length.  The sum-of-squares term of the
    parent cancels, leaving left_sum**2/left_n + right_sum**2/right_n - parent.
    """
    np.subtract(total, left_sum, out=right)
    np.square(left_sum, out=left_sum)
    np.divide(left_sum, left_n, out=left_sum)
    np.square(right, out=right)
    np.divide(right, right_n, out=right)
    np.add(left_sum, right, out=left_sum)
    return np.subtract(left_sum, parent, out=left_sum)


class _FitScratch:
    """The arrays of one ``RegressionTree.fit``, dropped when it returns."""

    def __init__(self, X, y, order, out):
        n = len(y)
        self.cols = X.T
        self.y = y
        self.out = out
        # One row of row indices per feature, plus the identity as the last
        # row: it stays ascending under stable partitions, and means and sums
        # over ascending rows keep the summation order of a plain y[idx].
        self.block = np.empty((X.shape[1] + 1, n), dtype=np.intp)
        self.block[:-1] = order.T
        self.block[-1] = np.arange(n)
        self.tied = []
        for col, rows in zip(self.cols, self.block):
            xs = col[rows]
            self.tied.append(not (xs[1:] > xs[:-1]).all())
        # Left counts 1..n-1 of any node; its right counts are a reversed view.
        self.counts = np.arange(1.0, n)
        self.left_gain = np.empty(n - 1)
        self.right_gain = np.empty(n - 1)
        self.goes_left = np.empty(n, dtype=bool)


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
    # The recursion runs on Python floats: the same double operations in the
    # same order as on numpy scalars, without their per-operation overhead.
    keep = 1.0 - ewma_alpha
    ewma = [float(values[0])]
    for value in values[1:-1].tolist():
        ewma.append(ewma_alpha * value + keep * ewma[-1])
    X = np.column_stack([sma, ewma, hours[1:].astype(float)])
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


def gbt_fill(masked: TimeSeries, gap: GapSpec, params: dict, seed: int) -> np.ndarray:
    """Train on the ``params["train_span"]`` samples before the gap, then
    fill it recursively."""
    sma_window, ewma_alpha = params["sma_window"], params["ewma_alpha"]
    lo = training_window_start(masked, gap, params["train_span"])

    values = masked.values[lo:gap.start_index]
    hours = masked.hour_of_day(np.arange(lo, gap.end_index))
    X, y = causal_features(values, hours[:len(values)], sma_window, ewma_alpha)
    rng = philox_generator(seed)
    model = GradientBoostedTrees(trees=params["trees"], max_depth=params["max_depth"],
                                 learning_rate=params["learning_rate"],
                                 subsample=params["subsample"], rng=rng).fit(X, y)

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
