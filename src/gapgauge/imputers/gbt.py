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
from ..series import ParamSpec, TimeSeries

PARAMS = (ParamSpec("train_span", int, 8760, low=2, hours=True),
          ParamSpec("trees", int, 100, low=1),
          ParamSpec("max_depth", int, 4, low=1),
          ParamSpec("learning_rate", float, 0.1, low=0.0, high=1.0, low_open=True),
          ParamSpec("subsample", float, 1.0, low=0.0, high=1.0, low_open=True),
          ParamSpec("sma_window", int, 24, low=1, hours=True),
          ParamSpec("ewma_alpha", float, 0.3, low=0.0, high=1.0, low_open=True))
_SPEC = {spec.name: spec for spec in PARAMS}


class RegressionTree:
    """Depth-limited CART regression tree minimizing squared error.

    Splits are midpoints between adjacent distinct feature values; ties in
    gain resolve to the first feature and the lowest threshold, so fitting
    is deterministic.

    The split search is the exact-greedy presorted column layout of XGBoost
    (Chen & Guestrin, KDD 2016, sections 3.1 and 4.1): every feature column
    is sorted once per ``X`` (see ``_Layout``), and each node owns one
    contiguous segment of every sorted column.  A split partitions each
    segment stably, so a node reads its rows in the order a stable sort of
    its own values would give.

    Only work whose result a split reads is done:

    * A column whose sorted values hold no tie (a NaN counts as one) is
      strictly increasing in every node's segment, so every cut of it is
      valid and its search reads no feature values but the two around the
      best cut.  A column with ties scores only the cuts between distinct
      values.
    * The split column's segment is sorted, so it is already left-first.
      Children at ``max_depth`` are leaves and read only the row indices.
    """

    def __init__(self, max_depth: int = _SPEC["max_depth"].default):
        self.max_depth = _SPEC["max_depth"].normalize(max_depth)
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[float] = []

    def fit(self, X, y, layout=None, out=None) -> "RegressionTree":
        """Grow the tree on ``X``, ``y``.

        ``layout`` is ``_Layout(X)``; a caller that fits many trees on one
        ``X`` builds it once and passes it to each fit, which leaves its
        presorted rows as they were.  When ``out`` is given, each training
        row's leaf value is written to it, which equals ``self.predict(X)``.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
            raise TrainingError("need a non-empty aligned training set",
                                rows=len(y))
        if layout is None:
            layout = _Layout(X)
        elif layout.sorted_rows.shape[1] != len(y):
            raise TrainingError("layout and training set differ in rows",
                                rows=len(y), layout_rows=layout.sorted_rows.shape[1])
        layout.block[...] = layout.sorted_rows
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        # The layout is local to the caller, so a fitted tree keeps only
        # max_depth and its node lists.
        self._grow(layout, y, out, 0, len(y), 0)
        return self

    def _new_node(self, value: float) -> int:
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(value)
        return len(self._value) - 1

    def _grow(self, layout, y, out, start, end, depth) -> int:
        rows = layout.block[-1, start:end]
        # The floats of y[rows].mean() and y[rows].sum(), from one sum.
        total = y.take(rows).sum()
        node = self._new_node(float(total / len(rows)))
        split = None
        if depth < self.max_depth and end - start >= 2:
            split = self._best_split(layout, y, start, end, float(total))
        if split is None:
            if out is not None:
                out[rows] = self._value[node]
            return node
        feature, threshold, n_left = split
        self._partition(layout, start, end, feature, threshold, n_left,
                        depth + 1 < self.max_depth)
        self._feature[node] = feature
        self._threshold[node] = threshold
        self._left[node] = self._grow(layout, y, out, start, start + n_left, depth + 1)
        self._right[node] = self._grow(layout, y, out, start + n_left, end, depth + 1)
        return node

    @staticmethod
    def _best_split(layout, y, start, end, total):
        """(feature, threshold, rows left of it), or None when no cut gains."""
        n = end - start
        parent = total ** 2 / n
        best_gain = 0.0
        best = None
        for feature, col in enumerate(layout.cols):
            seg = layout.block[feature, start:end]
            # The prefix sums of y[seg]; the last one is never a cut.
            left_sum = y.take(seg[:-1]).cumsum()
            if layout.tied[feature]:
                xs = col.take(seg)
                cuts = (xs[1:] > xs[:-1]).nonzero()[0]
                if not len(cuts):
                    continue
                cut_n = cuts + 1.0
                gain = _split_gain(left_sum.take(cuts), cut_n, n - cut_n, total, parent)
                k = gain.argmax()
                pos, value = int(cuts[k]), gain[k]
            else:
                counts = layout.counts
                gain = _split_gain(left_sum, counts[:n - 1], counts[n - 2::-1], total, parent)
                pos = int(gain.argmax())
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
    def _partition(layout, start, end, feature, threshold, n_left, children_split):
        """Split each segment the children read again, stably."""
        rows = layout.block[-1, start:end]
        in_left = layout.cols[feature].take(rows) <= threshold
        if children_split:
            goes_left = layout.goes_left
            goes_left[rows] = in_left
            for other, seg in enumerate(layout.block[:-1, start:end]):
                if other != feature:
                    side = goes_left.take(seg)
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


def _split_gain(left_sum, left_n, right_n, total, parent):
    """SSE reduction of each cut: the sum-of-squares term of the parent
    cancels, leaving left_sum**2/left_n + right_sum**2/right_n - parent."""
    return np.square(left_sum) / left_n + np.square(total - left_sum) / right_n - parent


class _Layout:
    """The arrays of a tree fit that depend only on ``X``.

    A boosting fit builds one and shares it with all its trees; each fit
    copies ``sorted_rows`` into ``block`` and partitions only ``block``.
    """

    def __init__(self, X):
        n = len(X)
        # Contiguous columns, so gathering from them reads adjacent cells.
        self.cols = list(X.T.copy())
        # One row of row indices per feature, plus the identity as the last
        # row: it stays ascending under stable partitions, and means and sums
        # over ascending rows keep the summation order of a plain y[idx].
        self.sorted_rows = np.empty((len(self.cols) + 1, n), dtype=np.intp)
        self.sorted_rows[:-1] = np.argsort(X, axis=0, kind="stable").T
        self.sorted_rows[-1] = np.arange(n)
        self.tied = []
        for col, rows in zip(self.cols, self.sorted_rows):
            xs = col.take(rows)
            self.tied.append(not (xs[1:] > xs[:-1]).all())
        self.block = np.empty_like(self.sorted_rows)
        # Left counts 1..n-1 of any node; its right counts are a reversed view.
        self.counts = np.arange(1.0, n)
        self.goes_left = np.empty(n, dtype=bool)


class GradientBoostedTrees:
    """Stagewise least-squares boosting: start from the target mean, then
    repeatedly fit a tree to the residuals and step by ``learning_rate``."""

    def __init__(self, trees: int = _SPEC["trees"].default,
                 max_depth: int = _SPEC["max_depth"].default,
                 learning_rate: float = _SPEC["learning_rate"].default,
                 subsample: float = _SPEC["subsample"].default,
                 rng: np.random.Generator | None = None):
        self.trees = _SPEC["trees"].normalize(trees)
        self.max_depth = _SPEC["max_depth"].normalize(max_depth)
        self.learning_rate = _SPEC["learning_rate"].normalize(learning_rate)
        self.subsample = _SPEC["subsample"].normalize(subsample)
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
        # The features are the same for every stage, so lay them out once.
        layout = _Layout(X) if self.subsample == 1.0 else None
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
                    X, residuals, layout=layout, out=step)
            current = current + self.learning_rate * step
            self.stages.append(tree)
            self.training_mse.append(float(np.mean((y - current) ** 2)))
        return self

    def predict(self, X) -> np.ndarray:
        """``base`` plus ``learning_rate`` times each tree's prediction, each
        row summed in tree order through a ``(trees + 1) × rows`` array."""
        X = np.asarray(X, dtype=float)
        terms = np.stack([np.full(len(X), self.base), *(t.predict(X) for t in self.stages)])
        terms[1:] *= self.learning_rate
        return np.add.accumulate(terms)[-1].copy()


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

    # Each step's row is the last row causal_features would build on the
    # window plus the predictions so far: the same prefix-sum SMA, and the
    # EWMA carried one step past X[-1, 1] to take in values[-1].
    csum = [0.0] + np.cumsum(values).tolist()
    keep = 1.0 - ewma_alpha
    ewma = ewma_alpha * float(values[-1]) + keep * float(X[-1, 1])
    filled = np.empty(gap.length)
    for offset, hour in enumerate(hours[len(values):].tolist()):
        t = len(csum) - 1
        first = max(t - sma_window, 0)
        row = [(csum[t] - csum[first]) / (t - first), ewma, float(hour)]
        prediction = float(model.predict([row])[0])
        if not np.isfinite(prediction):
            raise DivergenceError("gradient boosting produced a non-finite fill",
                                  index=gap.start_index + offset)
        filled[offset] = prediction
        csum.append(csum[-1] + prediction)
        ewma = ewma_alpha * prediction + keep * ewma
    return filled
