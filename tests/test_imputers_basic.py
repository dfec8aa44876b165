"""Polynomial and seasonal-naive imputers, config plumbing."""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapgauge import (GapSpec, ImputerConfig, TimeSeries, impute,
                      register_imputer, synthesize_series)
from gapgauge.errors import (ConfigError, ContextError, DivergenceError, GapgaugeError,
                             InvalidParameterError, NumericalError,
                             SeasonalReferenceError, ShapeError)
from gapgauge.imputers import kind_spec

from _oracles import seasonal_naive_walk


def masked_series(values, gap):
    series = TimeSeries.fully_observed(0.0, 3600.0, np.asarray(values, dtype=float))
    series.observed[gap.start_index:gap.end_index] = False
    return series


# The built-in kinds run through the library entry, with keyword params.
def polynomial_fill(masked, gap, **params):
    return impute(masked, gap, ImputerConfig("polynomial", params))


def seasonal_naive_fill(masked, gap, **params):
    return impute(masked, gap, ImputerConfig("seasonal_naive", params))


class TestPolynomial:
    def test_exact_on_line(self):
        gap = GapSpec(10, 3)
        series = masked_series(2.0 * np.arange(30.0), gap)
        fill = polynomial_fill(series, gap, order=1)
        assert np.allclose(fill, 2.0 * np.arange(10, 13), atol=1e-9)

    def test_constant_series(self):
        gap = GapSpec(6, 2)
        fill = polynomial_fill(masked_series(np.full(20, 5.0), gap), gap, order=1)
        assert np.allclose(fill, 5.0, atol=1e-9)

    def test_exact_on_parabola(self):
        gap = GapSpec(12, 4)
        idx = np.arange(40.0)
        fill = polynomial_fill(masked_series(idx**2, gap), gap, order=2, context=6)
        assert np.max(np.abs(fill - np.arange(12.0, 16.0)**2)) < 1e-9

    def test_reproduces_degree_k_signals(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            order = int(rng.integers(1, 5))
            coeffs = rng.uniform(-1, 1, size=order + 1)
            idx = np.arange(120.0)
            signal = np.polynomial.polynomial.polyval(idx / 100.0, coeffs)
            start = int(rng.integers(20, 80))
            gap = GapSpec(start, int(rng.integers(1, 8)))
            fill = polynomial_fill(masked_series(signal, gap), gap,
                                   order=order, context=12)
            truth = signal[gap.start_index:gap.end_index]
            assert np.max(np.abs(fill - truth)) < 1e-9

    def test_extrapolates_at_series_end(self):
        gap = GapSpec(26, 4)
        series = masked_series(3.0 * np.arange(30.0) + 1.0, gap)
        fill = polynomial_fill(series, gap, order=1, context=10)
        assert np.allclose(fill, 3.0 * np.arange(26, 30) + 1.0, atol=1e-6)

    def test_insufficient_context_names_counts(self):
        gap = GapSpec(4, 2)
        series = masked_series(np.arange(20.0), gap)
        series.observed[:4] = False
        with pytest.raises(ContextError) as err:
            polynomial_fill(series, gap, order=3)
        assert "needed" in str(err.value) and "found" in str(err.value)

    def test_series_end_cutting_right_window_extrapolates(self):
        # two samples after the gap cannot support order 3 on the right
        gap = GapSpec(30, 8)
        values = np.sin(np.arange(40.0) / 5.0)
        fill = polynomial_fill(masked_series(values, gap), gap, order=3)
        left_only = polynomial_fill(masked_series(values[:38], gap), gap, order=3)
        assert np.array_equal(fill, left_only)

    @pytest.mark.parametrize("length", [30, 31])
    def test_right_window_ending_at_series_end_is_not_cut(self, length):
        # the right window [12, 30) is whole in both series, so its one
        # observed point is an error, not a reason to extrapolate
        gap = GapSpec(10, 2)
        series = masked_series(np.arange(float(length)), gap)
        series.observed[13:30] = False
        with pytest.raises(ContextError, match="right of gap") as err:
            polynomial_fill(series, gap, order=1, context=18)
        assert err.value.context == {"needed": 2, "found": 1}

    def test_masked_right_context_mid_series_still_errors(self):
        gap = GapSpec(10, 3)
        series = masked_series(np.arange(60.0), gap)
        series.observed[13:20] = False
        with pytest.raises(ContextError, match="right of gap"):
            polynomial_fill(series, gap, order=3, context=6)

    def test_default_context_scales_with_gap(self):
        gap = GapSpec(30, 10)
        series = masked_series(np.sin(np.arange(80.0)), gap)
        fill = polynomial_fill(series, gap, order=3)
        assert len(fill) == 10 and np.all(np.isfinite(fill))

    @settings(max_examples=200, deadline=None)
    @given(order=st.integers(1, 6), spare=st.integers(0, 30), gap_len=st.integers(1, 12),
           tail=st.integers(0, 45), offset=st.integers(0, 10**6),
           exponent=st.integers(-3, 6), dropout=st.sampled_from([0.0, 0.1, 0.3]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_numpy_polynomial_fit_bit_for_bit(self, order, spare, gap_len, tail,
                                                     offset, exponent, dropout, seed):
        rng = np.random.default_rng(seed)
        context = order + 1 + spare
        gap = GapSpec(offset + context, gap_len)
        values = np.zeros(gap.end_index + tail)  # a short tail cuts the right window
        local = np.arange(len(values) - offset) / context
        values[offset:] = 10.0 ** exponent * (np.sin(local) + rng.standard_normal(len(local)))
        series = masked_series(values, gap)
        series.observed[offset:][rng.random(len(local)) < dropout] = False
        observed = np.flatnonzero(series.observed[offset:]) + offset
        left = observed[observed < gap.start_index]
        right = observed[(observed >= gap.end_index) & (observed < gap.end_index + context)]
        uses_right = len(right) > order
        assume(len(left) > order and (uses_right or gap.end_index + context > len(values)))
        idx = np.concatenate([left, right]) if uses_right else left
        grid = np.arange(gap.start_index, gap.end_index, dtype=float)
        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            expected = np.polynomial.Polynomial.fit(idx, values[idx], deg=order)(grid)
        with warnings.catch_warnings(record=True) as fill_warnings:
            warnings.simplefilter("always")
            fill = polynomial_fill(series, gap, order=order, context=context)
        assert fill.tobytes() == expected.tobytes()
        assert [w.category for w in fill_warnings] == [w.category for w in expected_warnings]

    def test_rank_deficient_fit_warns_as_numpy_does(self):
        order = 40
        gap = GapSpec(order + 1, 5)
        values = np.sin(np.arange(2 * order + 7) / 9.0)
        idx = np.r_[0:gap.start_index, gap.end_index:len(values)]
        grid = np.arange(gap.start_index, gap.end_index, dtype=float)
        with pytest.warns(np.exceptions.RankWarning):
            expected = np.polynomial.Polynomial.fit(idx, values[idx], deg=order)(grid)
        with pytest.warns(np.exceptions.RankWarning):
            fill = polynomial_fill(masked_series(values, gap), gap, order=order,
                                   context=order + 1)
        assert fill.tobytes() == expected.tobytes()


@st.composite
def _row_cases(draw):
    """A series with some positions masked and gaps anywhere in it, the
    series ends included; gaps may overlap one another."""
    n = draw(st.integers(6, 160))
    gaps = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, min(48, n)))
        start = draw(st.one_of(st.just(0), st.just(n - length), st.integers(0, n - length)))
        gaps.append(GapSpec(start, length))
    params = {"order": draw(st.integers(1, 5)),
              "context": draw(st.one_of(st.none(), st.integers(1, 12)))}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = TimeSeries.fully_observed(
        0.0, 3600.0, 10.0 * np.sin(np.arange(n) / 7.0) + rng.standard_normal(n))
    series.observed[rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.2]))] = False
    series.values[~series.observed] = np.nan
    return series, gaps, ImputerConfig("polynomial", params)


def _one_gap_outcome(series, gap, config):
    """``impute`` on a copy of ``series`` with ``gap`` masked too: the fill,
    or the error it raised."""
    view = series.copy()
    view.values[gap.start_index:gap.end_index] = np.nan
    view.observed[gap.start_index:gap.end_index] = False
    try:
        return impute(view, gap, config)
    except GapgaugeError as exc:
        return exc


def _same_outcome(a, b) -> bool:
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.tobytes() == b.tobytes()
    return type(a) is type(b) and str(a) == str(b)


class TestPolynomialRows:
    """The row form, ``impute(series, gaps, config)``, of the polynomial kind."""

    @settings(max_examples=200, deadline=None)
    @given(case=_row_cases())
    def test_each_row_equals_the_one_gap_fill(self, case):
        series, gaps, config = case
        with warnings.catch_warnings(record=True) as row_warnings:
            warnings.simplefilter("always")
            rows = impute(series, gaps, config)
        with warnings.catch_warnings(record=True) as one_warnings:
            warnings.simplefilter("always")
            ones = [_one_gap_outcome(series, gap, config) for gap in gaps]
        assert len(rows) == len(gaps)
        assert all(_same_outcome(row, one) for row, one in zip(rows, ones))
        assert ([w.category for w in row_warnings] ==
                [w.category for w in one_warnings])

    @settings(max_examples=60, deadline=None)
    @given(case=_row_cases(), poison=st.sampled_from([np.nan, 1e300]))
    def test_a_gap_own_values_are_never_read(self, case, poison):
        series, gaps, config = case
        clean = impute(series, gaps, config)
        for gi, gap in enumerate(gaps):
            poisoned = series.copy()
            poisoned.values[gap.start_index:gap.end_index] = poison
            poisoned.observed[gap.start_index:gap.end_index] = True
            assert _same_outcome(impute(poisoned, gaps, config)[gi], clean[gi])

    def test_errors_are_returned_per_gap(self, monkeypatch):
        values = np.sin(np.arange(120.0) / 9.0)
        values[60] = np.nan  # an observed NaN: that fit is not finite
        series = TimeSeries.fully_observed(0.0, 3600.0, values)
        series.observed[95:105] = False
        gaps = [GapSpec(1, 3), GapSpec(20, 4), GapSpec(56, 3), GapSpec(90, 5),
                GapSpec(40, 2)]
        lstsq = np.linalg.lstsq

        def failing_on_the_last(a, b, rcond):
            if b[0] == values[36]:  # the first left point of gap (40, 2)
                raise np.linalg.LinAlgError("SVD did not converge")
            return lstsq(a, b, rcond)

        monkeypatch.setattr(np.linalg, "lstsq", failing_on_the_last)
        config = ImputerConfig("polynomial", {"order": 2, "context": 4})
        rows = impute(series, gaps, config)
        assert isinstance(rows[1], np.ndarray) and len(rows[1]) == 4
        assert isinstance(rows[0], ContextError) and "left of gap" in str(rows[0])
        assert isinstance(rows[2], DivergenceError)
        assert isinstance(rows[3], ContextError) and "right of gap" in str(rows[3])
        assert isinstance(rows[4], NumericalError)
        assert str(rows[4]) == "[numerical] LinAlgError: SVD did not converge (kind='polynomial')"
        assert isinstance(rows[4].__cause__, np.linalg.LinAlgError)
        for gap, row in zip(gaps, rows):
            assert _same_outcome(row, _one_gap_outcome(series, gap, config))

    def test_rank_deficient_rows_warn_once_each(self):
        order = 40
        values = np.sin(np.arange(300.0) / 9.0)
        series = TimeSeries.fully_observed(0.0, 3600.0, values)
        gaps = [GapSpec(order + 1, 5), GapSpec(150, 2), GapSpec(200, 5)]
        config = ImputerConfig("polynomial", {"order": order, "context": order + 1})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = impute(series, gaps, config)
        with warnings.catch_warnings(record=True) as one_caught:
            warnings.simplefilter("always")
            ones = [_one_gap_outcome(series, gap, config) for gap in gaps]
        ranks = [w for w in caught if w.category is np.exceptions.RankWarning]
        assert len(ranks) == len(one_caught) == 3
        assert all(_same_outcome(row, one) for row, one in zip(rows, ones))

    def test_no_gaps_no_outcomes(self):
        series = synthesize_series("seasonal", 300, {}, seed=1)
        assert impute(series, [], ImputerConfig("polynomial", {})) == []

    def test_row_form_of_a_kind_without_one_rejected(self):
        series = synthesize_series("seasonal", 3000, {}, seed=1)
        with pytest.raises(ConfigError, match="one gap per call"):
            impute(series, [GapSpec(2500, 5)], ImputerConfig("gbt", {}))


class TestSeasonalNaive:
    def test_exact_on_periodic_signal(self):
        gap = GapSpec(100, 30)
        periodic = np.tile(np.arange(24.0), 10)
        fill = seasonal_naive_fill(masked_series(periodic, gap), gap, season=24)
        assert np.array_equal(fill, periodic[100:130])

    def test_constant_fill(self):
        gap = GapSpec(50, 5)
        fill = seasonal_naive_fill(masked_series(np.full(80, 3.0), gap), gap, season=24)
        assert np.all(fill == 3.0)

    def test_skips_masked_ancestors_inside_gap(self):
        gap = GapSpec(30, 10)  # positions 30..39; ancestors of 36+ at lag 6 sit in-gap
        values = np.tile(np.arange(6.0), 10)
        fill = seasonal_naive_fill(masked_series(values, gap), gap, season=6)
        assert np.array_equal(fill, values[30:40])

    def test_no_ancestor_errors(self):
        gap = GapSpec(2, 2)
        with pytest.raises(SeasonalReferenceError):
            seasonal_naive_fill(masked_series(np.arange(30.0), gap), gap, season=24)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 200), season=st.integers(2, 30), length=st.integers(1, 90),
           start=st.integers(0, 199), dropout=st.sampled_from([0.0, 0.2, 0.6]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_per_position_walk(self, n, season, length, start, dropout, seed):
        length = min(length, n)
        gap = GapSpec(min(start, n - length), length)
        rng = np.random.default_rng(seed)
        series = masked_series(rng.standard_normal(n), gap)
        series.observed[rng.random(n) < dropout] = False
        try:
            expected = seasonal_naive_walk(series, gap, season)
        except SeasonalReferenceError as exc:
            with pytest.raises(SeasonalReferenceError) as err:
                seasonal_naive_fill(series, gap, season=season)
            assert err.value.context == exc.context
        else:
            assert seasonal_naive_fill(series, gap, season=season).tobytes() == \
                expected.tobytes()


class TestImputerConfig:
    def test_defaults_applied_and_id_stable(self):
        a = ImputerConfig("gbt", {})
        b = ImputerConfig("gbt", {"trees": 100})
        assert a.params["trees"] == 100
        assert a.imputer_id == b.imputer_id
        assert a.imputer_id.startswith("gbt-")

    def test_default_ids_pinned(self):
        # Each table moved into its kind's module; every default id stays.
        assert {kind: ImputerConfig(kind).imputer_id for kind in (
            "polynomial", "seasonal_naive", "arima", "sarima", "gbt")} == {
            "polynomial": "polynomial-2e5479fc", "seasonal_naive": "seasonal_naive-2bcdc8c9",
            "arima": "arima-d3e7b32f", "sarima": "sarima-dbfc0f22", "gbt": "gbt-ada7b7b9"}

    @pytest.mark.parametrize("kind", ["polynomial", "gbt"])
    def test_none_params_are_no_params(self, kind):
        assert ImputerConfig(kind, None) == ImputerConfig(kind, {})

    def test_different_params_different_id(self):
        assert ImputerConfig("gbt", {"trees": 50}).imputer_id != \
            ImputerConfig("gbt", {"trees": 100}).imputer_id

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ImputerConfig("lstm", {})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            ImputerConfig("polynomial", {"degree": 3})

    def test_parameter_ranges_enforced(self):
        with pytest.raises(InvalidParameterError):
            ImputerConfig("gbt", {"learning_rate": 0.0})
        with pytest.raises(InvalidParameterError):
            ImputerConfig("gbt", {"learning_rate": 1.5})
        with pytest.raises(InvalidParameterError):
            ImputerConfig("seasonal_naive", {"season": 1})
        with pytest.raises(InvalidParameterError):
            ImputerConfig("polynomial", {"order": 0})
        with pytest.raises(InvalidParameterError):
            ImputerConfig("gbt", {"sma_window": 0})
        with pytest.raises(InvalidParameterError):
            ImputerConfig("gbt", {"ewma_alpha": 0.0})
        with pytest.raises(InvalidParameterError, match="finite"):
            ImputerConfig("gbt", {"learning_rate": 10**400})

    def test_builtin_kinds_registered(self):
        for kind in ("polynomial", "seasonal_naive", "arima", "sarima", "gbt"):
            assert kind_spec(kind).params

    @pytest.mark.parametrize("kind", ["polynomial", "seasonal_naive", "arima",
                                      "sarima", "gbt"])
    def test_builtin_fill_takes_the_plugin_signature(self, kind):
        # Defaults and ranges live only in the kind's ParamSpec table: the
        # fill reads normalized params and declares no keyword defaults.
        parameters = inspect.signature(kind_spec(kind).fill).parameters
        assert list(parameters) == ["masked", "gap", "params", "seed"]
        assert all(p.default is inspect.Parameter.empty and
                   p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                   for p in parameters.values())

    def test_registry_extension_seam(self):
        register_imputer("always_zero",
                         lambda masked, gap, params, seed: np.zeros(gap.length))
        try:
            gap = GapSpec(5, 3)
            series = masked_series(np.arange(20.0), gap)
            filled = impute(series, gap, ImputerConfig("always_zero", {}))
            assert np.array_equal(filled, np.zeros(3))
        finally:
            from gapgauge.imputers import _REGISTRY
            _REGISTRY.pop("always_zero")

    @pytest.mark.parametrize("fill", [np.zeros(2), np.array([0.0, np.nan, 0.0])],
                             ids=["short", "nan"])
    def test_impute_rejects_wrong_length_or_non_finite_fill(self, fill):
        register_imputer("fixed", lambda masked, gap, params, seed: fill)
        try:
            gap = GapSpec(5, 3)
            with pytest.raises(ShapeError):
                impute(masked_series(np.arange(20.0), gap), gap,
                       ImputerConfig("fixed", {}))
        finally:
            from gapgauge.imputers import _REGISTRY
            _REGISTRY.pop("fixed")

    def test_impute_results_have_gap_length_and_finite_values(self):
        series = synthesize_series("seasonal", 3000, {"noise_sd": 5.0}, seed=1)
        gap = GapSpec(2500, 30)
        view = series.copy()
        view.observed[2500:2530] = False
        for kind, params in [("polynomial", {}), ("seasonal_naive", {}),
                             ("arima", {"train_span": 400, "p_max": 1, "d_max": 1, "q_max": 1}),
                             ("gbt", {"train_span": 500, "trees": 10})]:
            filled = impute(view, gap, ImputerConfig(kind, params), seed=3)
            assert len(filled) == 30
            assert np.all(np.isfinite(filled))

    def test_imputers_deterministic_given_seed(self):
        series = synthesize_series("seasonal", 3000, {"noise_sd": 5.0}, seed=1)
        gap = GapSpec(2500, 24)
        view = series.copy()
        view.observed[2500:2524] = False
        config = ImputerConfig("gbt", {"train_span": 600, "trees": 20,
                                       "subsample": 0.7})
        first = impute(view, gap, config, seed=11)
        second = impute(view, gap, config, seed=11)
        assert np.array_equal(first, second)
