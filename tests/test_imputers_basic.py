"""Polynomial and seasonal-naive imputers, config plumbing."""

import inspect
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gapgauge import (GapSpec, ImputerConfig, TimeSeries, arima_fill, gbt_fill,
                      impute, polynomial_fill, register_imputer,
                      seasonal_naive_fill, synthesize_series)
from gapgauge.errors import (ConfigError, ContextError, InvalidParameterError,
                             SeasonalReferenceError, ShapeError)
from gapgauge.imputers import kind_spec


def masked_series(values, gap):
    series = TimeSeries.fully_observed(0.0, 3600.0, np.asarray(values, dtype=float))
    series.observed[gap.start_index:gap.end_index] = False
    return series


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

    def test_order_lower_bound(self):
        gap = GapSpec(10, 2)
        with pytest.raises(InvalidParameterError, match="order"):
            polynomial_fill(masked_series(np.arange(30.0), gap), gap, order=0)

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
        assume(len(left) > order and (uses_right or gap.end_index + context >= len(values)))
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

    def test_season_lower_bound(self):
        gap = GapSpec(10, 2)
        with pytest.raises(InvalidParameterError):
            seasonal_naive_fill(masked_series(np.arange(30.0), gap), gap, season=1)


class TestImputerConfig:
    def test_defaults_applied_and_id_stable(self):
        a = ImputerConfig("gbt", {})
        b = ImputerConfig("gbt", {"trees": 100})
        assert a.params["trees"] == 100
        assert a.imputer_id == b.imputer_id
        assert a.imputer_id.startswith("gbt-")

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

    def test_builtin_kinds_registered(self):
        for kind in ("polynomial", "seasonal_naive", "arima", "sarima", "gbt"):
            assert kind_spec(kind).params

    @pytest.mark.parametrize("kind, fill", [
        ("polynomial", polynomial_fill), ("seasonal_naive", seasonal_naive_fill),
        ("arima", arima_fill), ("sarima", arima_fill), ("gbt", gbt_fill)])
    def test_param_defaults_equal_fill_keyword_defaults(self, kind, fill):
        # A config default and the library default are two copies of one
        # fact: both must give the same fill.
        keywords = inspect.signature(fill).parameters
        specs = [spec for spec in kind_spec(kind).params if spec.name in keywords]
        assert specs
        assert [(spec.name, spec.default) for spec in specs] == \
            [(spec.name, keywords[spec.name].default) for spec in specs]

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
