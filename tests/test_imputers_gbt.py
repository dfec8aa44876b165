"""Regression trees, boosting, causal features, recursive gap fill."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapgauge import (GapSpec, GradientBoostedTrees, ImputerConfig,
                      RegressionTree, TimeSeries, impute, synthesize_series)
from gapgauge.errors import (InvalidParameterError, TrainingError,
                             TrainingWindowError)
from gapgauge.imputers import causal_features, gbt

from _oracles import (ReferenceTree, best_single_split_sse,
                      causal_features_on_numpy_scalars, reference_boosting)


def gbt_fill(masked, gap, **params):
    """The gbt kind run through the library entry, with keyword params."""
    return impute(masked, gap, ImputerConfig("gbt", params))


class TestRegressionTree:
    def test_single_split_matches_exhaustive_threshold_search(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            x = rng.integers(0, 24, size=120).astype(float)
            y = rng.normal(size=120) + (x > rng.integers(1, 23)) * 5.0
            tree = RegressionTree(max_depth=1).fit(x[:, None], y)
            sse = float(np.sum((y - tree.predict(x[:, None])) ** 2))
            assert sse == pytest.approx(best_single_split_sse(x, y), abs=1e-8)

    def test_depth_one_on_alternating_hours(self):
        # 0 at even hours, 10 at odd: no threshold separates the classes.
        # The SSE-optimal stump peels off the pure hour-0 bin and predicts
        # 120/23 elsewhere, so the worst per-point error is 120/23 (~5.22)
        # and the stump's SSE equals the exhaustive-search optimum.
        hours = np.arange(240.0) % 24
        y = np.where(hours.astype(int) % 2 == 0, 0.0, 10.0)
        tree = RegressionTree(max_depth=1).fit(hours[:, None], y)
        predictions = tree.predict(hours[:, None])
        sse = float(np.sum((y - predictions) ** 2))
        assert sse == pytest.approx(best_single_split_sse(hours, y), abs=1e-8)
        assert np.max(np.abs(predictions - y)) <= 120.0 / 23.0 + 1e-9
        assert np.mean(np.abs(predictions - y)) <= 5.0

    def test_deep_tree_fits_training_data(self):
        # depth >= n guarantees every split chain can isolate each point
        rng = np.random.default_rng(32)
        x = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        tree = RegressionTree(max_depth=40).fit(x, y)
        assert np.allclose(tree.predict(x), y, atol=1e-12)

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingError):
            RegressionTree().fit(np.empty((0, 2)), np.empty(0))

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        a = RegressionTree(max_depth=4).fit(x, y).predict(x)
        b = RegressionTree(max_depth=4).fit(x, y).predict(x)
        assert np.array_equal(a, b)


def assert_same_tree(tree, reference):
    # == on lists of Python floats: equal bits, not merely close values
    assert (tree._feature, tree._threshold, tree._left, tree._right,
            tree._value) == (reference.feature, reference.threshold,
                             reference.left, reference.right, reference.value)


def training_sets():
    """(X, y) pairs: tied values and an hour column, a constant column, all
    columns constant, and a constant target."""
    rng = np.random.default_rng(41)
    n = 300
    hours = (np.arange(n) % 24).astype(float)
    smooth = np.round(rng.normal(size=n), 1)
    y = np.sin(hours / 4.0) + smooth + 0.1 * rng.normal(size=n)
    yield np.column_stack([smooth, rng.normal(size=n), hours]), y
    yield np.column_stack([np.full(n, 2.5), smooth, hours]), y
    yield np.ones((n, 3)), y
    yield np.column_stack([smooth, hours]), np.full(n, 4.0)


def _split_search_cases():
    rng = np.random.default_rng(43)
    n = 240
    y = rng.normal(size=n)
    one_tie = rng.permutation(np.arange(n, dtype=float))
    one_tie[one_tie == 7.0] = 6.0  # exactly one tied pair, at 6.0
    hours = (np.arange(n) % 24).astype(float)
    # Sorted by x, y steps up between the two rows at 3.0.
    tie_at_best = np.array([[0.0], [1.0], [2.0], [3.0], [3.0], [4.0], [5.0], [6.0]])
    return {
        "tie-free columns": (rng.normal(size=(n, 3)), y),
        "one tied pair": (np.column_stack([one_tie, rng.normal(size=n)]), y),
        "24-valued hour": (hours[:, None], np.sin(hours / 4.0) + 0.1 * y),
        "hour beside tie-free": (np.column_stack([rng.normal(size=n), hours]), y),
        "tie at the best cut": (tie_at_best,
                                np.array([0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0])),
        "root of two rows": (np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([3.0, -1.0])),
        "root of two tied rows": (np.array([[1.0], [1.0]]), np.array([3.0, -1.0])),
    }


SPLIT_SEARCH_CASES = _split_search_cases()


class TestPresortedTreeEqualsReference:
    """The presorted split search builds the tree the per-node sort built,
    float for float, so the fills and every CSV stay byte-identical."""

    @pytest.mark.parametrize("max_depth", [1, 4, 6])
    def test_node_arrays_and_predictions(self, max_depth):
        for X, y in training_sets():
            tree = RegressionTree(max_depth).fit(X, y)
            reference = ReferenceTree(max_depth).fit(X, y)
            assert_same_tree(tree, reference)
            assert np.array_equal(tree.predict(X), reference.predict(X))

    def test_leaf_values_written_for_the_training_rows(self):
        for X, y in training_sets():
            leaves = np.full(len(y), np.nan)
            tree = RegressionTree(max_depth=4).fit(X, y, out=leaves)
            assert np.array_equal(leaves, tree.predict(X))

    def test_midpoint_that_rounds_up_to_the_upper_value(self):
        # (a + b) / 2 rounds to b for these adjacent doubles; the split then
        # uses a, so the rows at a go left and the row at b goes right
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        X = np.array([[a], [b], [a]])
        y = np.array([0.0, 5.0, 0.0])
        leaves = np.full(3, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tree = RegressionTree(max_depth=2).fit(X, y, out=leaves)
            reference = ReferenceTree(max_depth=2).fit(X, y)
        assert (tree._feature, tree._threshold, tree._left, tree._right) == \
            ([0, -1, -1], [a, 0.0, 0.0], [1, -1, -1], [2, -1, -1])
        assert tree._value == [5.0 / 3.0, 0.0, 5.0]
        assert np.array_equal(leaves, [0.0, 5.0, 0.0])
        assert np.array_equal(tree.predict(np.array([[b + 1.0]])), [5.0])
        assert (tree._feature, tree._threshold, tree._left, tree._right,
                tree._value) == (reference.feature, reference.threshold,
                                 reference.left, reference.right, reference.value)
        assert np.array_equal(leaves, reference.predict(X))

    def test_one_layout_serves_fits_on_several_targets(self):
        X, y = next(training_sets())
        layout = gbt._Layout(X)
        kept = layout.sorted_rows.copy()
        rng = np.random.default_rng(44)
        for target in (y, rng.normal(size=len(y)), np.round(y, 0), -y):
            leaves = np.full(len(y), np.nan)
            tree = RegressionTree(max_depth=4).fit(X, target, layout=layout, out=leaves)
            fresh = RegressionTree(max_depth=4).fit(X, target)
            assert (tree._feature, tree._threshold, tree._left, tree._right,
                    tree._value) == (fresh._feature, fresh._threshold, fresh._left,
                                     fresh._right, fresh._value)
            assert_same_tree(tree, ReferenceTree(max_depth=4).fit(X, target))
            assert np.array_equal(leaves, tree.predict(X))
            assert np.array_equal(layout.sorted_rows, kept)

    def test_layout_of_other_length_rejected(self):
        X, y = next(training_sets())
        layout = gbt._Layout(X[:-1])
        with pytest.raises(TrainingError):
            RegressionTree(max_depth=4).fit(X, y, layout=layout)

    @pytest.mark.parametrize("max_depth", range(1, 7))
    @pytest.mark.parametrize("case", list(SPLIT_SEARCH_CASES))
    def test_split_search_cases(self, case, max_depth):
        X, y = SPLIT_SEARCH_CASES[case]
        leaves = np.full(len(y), np.nan)
        tree = RegressionTree(max_depth).fit(X, y, out=leaves)
        assert_same_tree(tree, ReferenceTree(max_depth).fit(X, y))
        assert np.array_equal(leaves, tree.predict(X))

    def test_tie_at_the_best_cut_is_skipped(self):
        # Scoring every cut of the sorted column, tied or not, would put the
        # best one between the two rows at 3.0.
        X, y = SPLIT_SEARCH_CASES["tie at the best cut"]
        left_sum = np.cumsum(y)[:-1]
        left_n = np.arange(1.0, len(y))
        gain = left_sum ** 2 / left_n + (y.sum() - left_sum) ** 2 / (len(y) - left_n)
        pos = int(np.argmax(gain))
        assert X[pos, 0] == X[pos + 1, 0] == 3.0
        tree = RegressionTree(max_depth=1).fit(X, y)
        assert tree._threshold[0] in (2.5, 3.5)

    def test_fitted_tree_keeps_only_its_nodes(self):
        # Per-fit scratch kept on a tree would be held once per boosting stage.
        X, y = next(training_sets())
        expected = {"max_depth", "_feature", "_threshold", "_left", "_right", "_value"}
        assert set(vars(RegressionTree(max_depth=3).fit(X, y))) == expected
        model = GradientBoostedTrees(trees=3, max_depth=3).fit(X, y)
        for tree in model.stages:
            assert set(vars(tree)) == expected
        # Nor is the layout the stages shared kept on the model.
        assert not any(isinstance(value, gbt._Layout) for value in vars(model).values())
        assert set(vars(model)) == {"trees", "max_depth", "learning_rate", "subsample",
                                    "rng", "base", "stages", "training_mse"}

    def test_layout_holds_no_gain_buffers(self):
        # The layout holds what depends only on X, plus the partition's lookup
        # table; the split gains are temporaries of each search.
        X, _ = next(training_sets())
        assert set(vars(gbt._Layout(X))) == {"cols", "sorted_rows", "tied", "block",
                                             "counts", "goes_left"}

    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    def test_boosting_matches_predict_in_fit(self, subsample):
        for X, y in training_sets():
            model = GradientBoostedTrees(
                trees=15, max_depth=3, learning_rate=0.3, subsample=subsample,
                rng=np.random.Generator(np.random.Philox(key=np.uint64(5)))).fit(X, y)
            base, stages, mse = reference_boosting(
                X, y, 15, 3, 0.3, subsample,
                np.random.Generator(np.random.Philox(key=np.uint64(5))))
            assert model.base == base
            assert model.training_mse == mse
            for tree, reference in zip(model.stages, stages, strict=True):
                assert_same_tree(tree, reference)
            expected = np.full(len(y), base)
            for reference in stages:
                expected += 0.3 * reference.predict(X)
            assert np.array_equal(model.predict(X), expected)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 80), st.integers(1, 3),
           st.integers(0, 2), st.integers(1, 6))
    def test_rounded_random_inputs(self, seed, n, n_features, decimals, max_depth):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, n_features)), decimals)
        y = np.round(rng.normal(size=n), 2)
        tree = RegressionTree(max_depth).fit(X, y)
        reference = ReferenceTree(max_depth).fit(X, y)
        assert_same_tree(tree, reference)
        model = GradientBoostedTrees(trees=4, max_depth=max_depth).fit(X, y)
        _, stages, mse = reference_boosting(X, y, 4, max_depth, 0.1)
        assert model.training_mse == mse
        for tree, reference in zip(model.stages, stages, strict=True):
            assert_same_tree(tree, reference)


class TestConstructorsCheckTheGbtTable:
    @pytest.mark.parametrize("make", [
        lambda: RegressionTree(max_depth=1.5), lambda: RegressionTree(max_depth=True),
        lambda: RegressionTree(max_depth=0), lambda: GradientBoostedTrees(trees=2.5),
        lambda: GradientBoostedTrees(max_depth=np.float64(3)),
        lambda: GradientBoostedTrees(learning_rate="0.1"),
        lambda: GradientBoostedTrees(subsample=1.5)],
        ids=["depth-1.5", "depth-True", "depth-0", "trees-2.5", "depth-float64",
             "rate-str", "subsample-1.5"])
    def test_bad_parameter_rejected_when_constructed(self, make):
        with pytest.raises(InvalidParameterError):
            make()

    def test_defaults_and_values_are_the_tables(self):
        table = {spec.name: spec.default for spec in gbt.PARAMS}
        model = GradientBoostedTrees(trees=np.int64(3), learning_rate=1)
        assert (model.trees, model.learning_rate) == (3, 1.0)
        assert type(model.trees) is int and type(model.learning_rate) is float
        default = GradientBoostedTrees()
        assert [default.trees, default.max_depth, default.learning_rate, default.subsample] \
            == [table["trees"], table["max_depth"], table["learning_rate"], table["subsample"]]
        assert RegressionTree().max_depth == table["max_depth"]


class TestBoosting:
    def test_one_tree_full_rate_equals_single_tree(self):
        rng = np.random.default_rng(34)
        x = rng.normal(size=(150, 2))
        y = rng.normal(size=150) + 3.0 * (x[:, 0] > 0)
        boosted = GradientBoostedTrees(trees=1, learning_rate=1.0,
                                       max_depth=3).fit(x, y)
        single = RegressionTree(max_depth=3).fit(x, y)
        assert np.allclose(boosted.predict(x), single.predict(x), atol=1e-9)

    def test_training_mse_non_increasing(self):
        rng = np.random.default_rng(35)
        x = rng.normal(size=(300, 3))
        y = np.sin(x[:, 0]) + 0.5 * x[:, 1] + 0.1 * rng.normal(size=300)
        model = GradientBoostedTrees(trees=40, max_depth=3,
                                     learning_rate=0.2).fit(x, y)
        mse = np.array(model.training_mse)
        assert len(mse) == 40
        assert np.all(np.diff(mse) <= 1e-12)

    def test_constant_target(self):
        x = np.arange(50.0)[:, None]
        model = GradientBoostedTrees(trees=5).fit(x, np.full(50, 7.0))
        assert np.allclose(model.predict(x), 7.0, atol=1e-9)

    def test_subsample_requires_rng_and_is_seeded(self):
        rng = np.random.default_rng(36)
        x = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        with pytest.raises(InvalidParameterError):
            GradientBoostedTrees(trees=3, subsample=0.5).fit(x, y)
        a = GradientBoostedTrees(
            trees=5, subsample=0.5,
            rng=np.random.Generator(np.random.Philox(key=np.uint64(9)))).fit(x, y)
        b = GradientBoostedTrees(
            trees=5, subsample=0.5,
            rng=np.random.Generator(np.random.Philox(key=np.uint64(9)))).fit(x, y)
        assert np.array_equal(a.predict(x), b.predict(x))

    @pytest.mark.parametrize("rows", [0, 1, 7, 500])
    @pytest.mark.parametrize("trees,learning_rate,subsample", [
        (1, 1.0, 1.0), (13, 0.1, 1.0), (40, 0.37, 0.6)])
    def test_predict_equals_the_per_tree_sum(self, rows, trees, learning_rate, subsample):
        rng = np.random.default_rng(trees)
        x = rng.normal(size=(200, 3))
        y = 40.0 * np.sin(x[:, 0]) + x[:, 1] ** 3 + rng.normal(size=200)
        model = GradientBoostedTrees(
            trees=trees, max_depth=3, learning_rate=learning_rate, subsample=subsample,
            rng=np.random.Generator(np.random.Philox(key=np.uint64(5)))).fit(x, y)
        z = rng.normal(size=(rows, 3)) * 2.0
        expected = np.full(rows, model.base)
        for tree in model.stages:
            expected += model.learning_rate * tree.predict(z)
        predicted = model.predict(z)
        assert predicted.shape == (rows,)
        assert predicted.tobytes() == expected.tobytes()
        assert predicted.base is None  # owns its values, keeps no buffer alive

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            GradientBoostedTrees(trees=0)
        with pytest.raises(InvalidParameterError):
            GradientBoostedTrees(learning_rate=1.0001)
        with pytest.raises(InvalidParameterError):
            GradientBoostedTrees(subsample=0.0)


class TestCausalFeatures:
    def test_features_never_see_the_target(self):
        values = np.arange(10.0)
        hours = np.arange(10) % 24
        X, y = causal_features(values, hours, sma_window=3, ewma_alpha=0.5)
        assert len(y) == 9
        # Row for position t must equal features computed from values[:t].
        for row, t in zip(X, range(1, 10)):
            history = values[:t]
            assert row[0] == pytest.approx(history[-3:].mean())
            ewma = history[0]
            for v in history[1:]:
                ewma = 0.5 * v + 0.5 * ewma
            assert row[1] == pytest.approx(ewma)
            assert row[2] == hours[t]

    def test_needs_two_values(self):
        with pytest.raises(TrainingError):
            causal_features(np.array([1.0]), np.array([0]), 3, 0.5)

    @pytest.mark.parametrize("window", ["protocol", "default_config"])
    def test_features_equal_the_numpy_scalar_recursion(self, window):
        # The last training window of each bench workload's gbt: 2,000 rows
        # of the acceptance-protocol series, 8,760 of configs/default.json's.
        if window == "protocol":
            params = {"daily_amplitude": 50.0, "weekly_amplitude": 4.0,
                      "yearly_amplitude": 40.0, "harmonic2": 0.30,
                      "harmonic3": 0.08, "noise_sd": 3.0}
            series = synthesize_series("seasonal", 21_000, params, seed=20210601)
            span = 2000
        else:
            series = synthesize_series("seasonal", 20_000, {}, seed=20210601)
            span = 8760
        values = series.values[-span - 1:]
        hours = series.hour_of_day(np.arange(len(series) - span - 1, len(series)))
        X, y = causal_features(values, hours, 24, 0.3)
        X_ref, y_ref = causal_features_on_numpy_scalars(values, hours, 24, 0.3)
        assert X.tobytes() == X_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 50, 2001, 8761])
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0])
    def test_fill_rows_are_the_training_features(self, n, alpha, monkeypatch):
        # Each row the fill predicts on is, bit for bit, the last row that
        # causal_features builds on the window plus the predictions so far
        # plus one value for the position being filled.
        sma_window, length = 24, 30
        values = np.random.default_rng(n).normal(50.0, 10.0, size=n + length)
        observed = np.arange(n + length) < n
        masked = TimeSeries(0.0, 3600.0, values, observed)
        rows = []
        predict = GradientBoostedTrees.predict

        def recording_predict(model, X):
            rows.append(np.array(X, dtype=float))
            return predict(model, X)

        monkeypatch.setattr(GradientBoostedTrees, "predict", recording_predict)
        fill = gbt_fill(masked, GapSpec(n, length), train_span=n, trees=2,
                        max_depth=2, sma_window=sma_window, ewma_alpha=alpha)
        assert len(rows) == length
        hours = masked.hour_of_day(np.arange(n + length))
        for step, row in enumerate(rows):
            history = np.concatenate([values[:n], fill[:step], [0.0]])
            X, _ = causal_features(history, hours[:len(history)], sma_window, alpha)
            assert row.tobytes() == X[-1:].tobytes()


class TestGbtFill:
    def test_constant_series(self):
        series = synthesize_series("constant", 500, {"value": 7.0}, seed=0)
        gap = GapSpec(400, 12)
        view = series.copy()
        view.observed[400:412] = False
        fill = gbt_fill(view, gap, train_span=300, trees=20, max_depth=2)
        assert np.allclose(fill, 7.0, atol=1e-6)

    def test_fill_length_and_finiteness(self):
        series = synthesize_series("seasonal", 3000, {"noise_sd": 5.0}, seed=2)
        gap = GapSpec(2600, 48)
        view = series.copy()
        view.observed[2600:2648] = False
        fill = gbt_fill(view, gap, train_span=1500, trees=30)
        assert len(fill) == 48 and np.all(np.isfinite(fill))

    def test_learns_daily_profile(self):
        series = synthesize_series("seasonal", 4000, {"noise_sd": 2.0}, seed=3)
        gap = GapSpec(3500, 24)
        view = series.copy()
        view.observed[3500:3524] = False
        fill = gbt_fill(view, gap, train_span=2000, trees=80, max_depth=4)
        truth = series.values[3500:3524]
        baseline = np.sqrt(np.mean((truth - truth.mean()) ** 2))
        assert np.sqrt(np.mean((fill - truth) ** 2)) < 0.5 * baseline

    def test_training_window_checks(self):
        series = synthesize_series("constant", 500, {}, seed=0)
        with pytest.raises(TrainingWindowError):
            gbt_fill(series, GapSpec(100, 5), train_span=300)
        series.observed[200] = False
        with pytest.raises(TrainingWindowError):
            gbt_fill(series, GapSpec(400, 5), train_span=300)

    @pytest.mark.parametrize("step", [900.0, 1800.0, 3600.0, 5400.0])
    def test_training_hours_equal_hour_of_day(self, step, monkeypatch):
        seen = []

        def recording_features(values, hours, sma_window, ewma_alpha):
            seen.append(hours)
            return causal_features(values, hours, sma_window, ewma_alpha)

        monkeypatch.setattr(gbt, "causal_features", recording_features)
        series = synthesize_series("seasonal", 600, {}, seed=4)
        series.start_time = 1_600_000_000.0 + 1234.5  # not at midnight
        series.step = step
        gap = GapSpec(500, 6)
        gbt_fill(series, gap, train_span=400, trees=2, max_depth=2)
        (hours,) = seen
        assert hours.dtype.kind == "i"
        assert hours.tolist() == [series.hour_of_day(i) for i in range(100, 500)]
