"""ARIMA estimation, AIC order selection, forecasting, gap filling."""

import numpy as np
import pytest

from gapgauge import (ArimaOrder, GapSpec, ImputerConfig, TimeSeries, fit_arima,
                      forecast, impute, select_order, slice_series,
                      synthesize_series)
from gapgauge.errors import (InvalidParameterError, RankDeficiencyError,
                             SelectionError, TrainingWindowError)
from gapgauge.imputers import arima

from _oracles import arima_forecast_by_hand, exhaustive_select_and_fit


def arima_fill(masked, gap, kind="arima", **params):
    """An arima or sarima kind run through the library entry."""
    return impute(masked, gap, ImputerConfig(kind, params))


def ar_series(coeffs, n, seed, noise_sd=1.0, intercept=0.0):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    noise = noise_sd * rng.standard_normal(n + 200)
    values = np.zeros(n + 200)
    for t in range(len(coeffs), n + 200):
        values[t] = intercept + noise[t] + sum(
            c * values[t - i - 1] for i, c in enumerate(coeffs))
    return TimeSeries.fully_observed(0.0, 3600.0, values[200:])


class TestArimaOrder:
    def test_degenerate_rejected(self):
        with pytest.raises(InvalidParameterError):
            ArimaOrder(0, 0, 0)

    def test_seasonal_requires_period(self):
        with pytest.raises(InvalidParameterError):
            ArimaOrder(1, 0, 0, P=1, s=0)

    def test_label(self):
        assert ArimaOrder(2, 1, 1).label() == "(2,1,1)"
        assert ArimaOrder(1, 0, 0, 1, 1, 0, 24).label() == "(1,0,0)(1,1,0)[24]"

    def test_aic_penalty_counts_seasonal_terms(self):
        assert ArimaOrder(2, 0, 1).k == 4
        assert ArimaOrder(2, 0, 1, 1, 0, 1, 24).k == 6


class TestFit:
    def test_ar1_coefficient_recovery(self):
        series = ar_series([0.8], 1000, seed=3)
        fitted = fit_arima(series, ArimaOrder(1, 0, 0))
        assert abs(fitted.ar[0] - 0.8) < 0.1

    def test_constant_series_random_walk(self):
        series = synthesize_series("constant", 300, {"value": 5.0}, seed=0)
        fitted = fit_arima(series, ArimaOrder(0, 1, 0))
        assert np.allclose(fitted.working_series, 0.0)
        assert np.allclose(forecast(fitted, 6), 5.0, atol=1e-12)
        assert fitted.aic == -np.inf

    def test_constant_series_ar_terms_are_rank_deficient(self):
        series = synthesize_series("constant", 300, {"value": 5.0}, seed=0)
        with pytest.raises(RankDeficiencyError):
            fit_arima(series, ArimaOrder(1, 0, 0))

    def test_unobserved_training_window_rejected(self):
        series = synthesize_series("constant", 300, {}, seed=0)
        series.observed[10] = False
        with pytest.raises(TrainingWindowError):
            fit_arima(series, ArimaOrder(0, 1, 0))

    def test_arma_fit_has_finite_stats(self):
        series = ar_series([0.6], 800, seed=4)
        fitted = fit_arima(series, ArimaOrder(1, 0, 1))
        assert np.isfinite(fitted.aic)
        assert fitted.sigma2 > 0
        assert fitted.n_obs > 700

    def test_white_noise_aic_does_not_favor_overfit_majority(self):
        # (1,0,0) should carry the lower AIC more often than (3,0,2) on
        # pure noise: the SSE gain of the big model rarely beats its
        # four-parameter penalty.
        small_wins = 0
        for seed in range(100):
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            series = TimeSeries.fully_observed(0.0, 3600.0,
                                               rng.standard_normal(400))
            aic_small = fit_arima(series, ArimaOrder(1, 0, 0)).aic
            aic_big = fit_arima(series, ArimaOrder(3, 0, 2)).aic
            if aic_small <= aic_big:
                small_wins += 1
        assert small_wins > 50


class TestSelectOrder:
    def test_ar2_recovered_in_majority_of_replicates(self):
        hits = 0
        for seed in range(100):
            series = ar_series([1.2, -0.5], 1000, seed=seed)
            order = select_order(series, p_max=3, d_max=1, q_max=2)
            if order.p == 2:
                hits += 1
        assert hits > 50

    def test_constant_series_selects_zero_residual_model(self):
        series = synthesize_series("constant", 300, {"value": 2.0}, seed=0)
        order = select_order(series, p_max=2, d_max=1, q_max=2)
        assert order.d >= 1
        assert fit_arima(series, order).sse == pytest.approx(0.0, abs=1e-18)

    def test_empty_lattice_is_selection_error(self):
        series = ar_series([0.5], 300, seed=1)
        with pytest.raises(SelectionError):
            select_order(series, p_max=0, d_max=0, q_max=0)

    def test_failure_reasons_carried(self):
        # Some candidates fail the length checks, the rest are rank deficient
        # on a constant window: the error names each candidate of the lattice.
        series = synthesize_series("constant", 80, {}, seed=0)
        with pytest.raises(SelectionError) as err:
            select_order(slice_series(series, 0, 25), p_max=3, d_max=0, q_max=3)
        failures = err.value.context["failures"]
        assert set(failures) == {order.label() for order in
                                 arima._candidate_orders(3, 0, 3, None)}
        assert len(failures) == 15
        assert any("rank-deficiency" in reason for reason in failures.values())
        assert any("[training]" in reason for reason in failures.values())

    def test_program_error_in_a_candidate_propagates(self, monkeypatch):
        def broken_fit(*args, **kwargs):
            raise TypeError("bug in the candidate fit")

        monkeypatch.setattr(arima, "_fit_core", broken_fit)
        series = ar_series([0.5], 300, seed=1)
        with pytest.raises(TypeError, match="bug in the candidate fit"):
            select_order(series, p_max=1, d_max=0, q_max=1)

    @pytest.mark.parametrize("seasonal", [None, (1, 1, 1, 24)])
    def test_fit_arima_equals_the_selected_model(self, seasonal):
        # a 1008-sample window of the acceptance protocol's series
        series = synthesize_series(
            "seasonal", 2000, {"daily_amplitude": 50.0, "weekly_amplitude": 4.0,
                               "yearly_amplitude": 40.0, "harmonic2": 0.30,
                               "harmonic3": 0.08, "noise_sd": 3.0}, seed=20210601)
        train = slice_series(series, 900, 1008)
        selected = arima._select_and_fit(train, 3, 2, 3, seasonal)
        assert selected.order == select_order(train, 3, 2, 3, seasonal)
        assert selected.order.q + selected.order.Q > 0  # uses stage one
        refit = fit_arima(train, selected.order)
        for name in ("ar", "sar", "ma", "sma", "innovations", "working_series"):
            assert np.array_equal(getattr(refit, name), getattr(selected, name)), name
        assert (refit.intercept, refit.sse, refit.aic) == \
            (selected.intercept, selected.sse, selected.aic)
        assert_same_fit(selected, exhaustive_select_and_fit(train, 3, 2, 3, seasonal)[0])


def assert_same_fit(screened, exhaustive):
    assert screened.order == exhaustive.order
    for name in ("ar", "sar", "ma", "sma", "innovations"):
        assert np.array_equal(getattr(screened, name), getattr(exhaustive, name)), name
    assert (screened.intercept, screened.sse, screened.aic) == \
        (exhaustive.intercept, exhaustive.sse, exhaustive.aic)


def training_windows(kind):
    """52 training windows of one kind, 72 to 240 samples long."""
    for seed in range(52):
        length = (72, 120, 168, 240)[seed % 4]
        if kind == "seasonal":
            series = synthesize_series(
                "seasonal", 2000, {"noise_sd": 0.5 + seed % 5, "harmonic2": 0.3,
                                   "weekly_amplitude": 4.0}, seed=seed)
        elif kind == "ar2":
            series = ar_series([1.2, -0.5], 2000, seed=seed)
        elif kind == "random_walk":
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            series = TimeSeries.fully_observed(
                0.0, 3600.0, np.cumsum(rng.standard_normal(2000)))
        else:
            series = synthesize_series("constant", 2000,
                                       {"value": float(seed % 7 - 3)}, seed=seed)
        yield slice_series(series, 30 * seed, length)


class TestScreenedSelectionEqualsExhaustive:
    """The screen refits exactly every candidate it cannot rule out, so the
    selected model must be bit-equal to the exhaustive grid's."""

    BOUNDS = {"arima": (3, 2, 3, None), "sarima": (2, 1, 2, (1, 1, 1, 24))}

    @pytest.mark.parametrize("kind", ["seasonal", "ar2", "random_walk", "constant"])
    def test_same_model_as_the_exhaustive_grid(self, kind):
        reasons, aics = [], []
        for i, train in enumerate(training_windows(kind)):
            bounds = self.BOUNDS["sarima" if i % 2 else "arima"]
            exhaustive, failures = exhaustive_select_and_fit(train, *bounds)
            assert_same_fit(arima._select_and_fit(train, *bounds), exhaustive)
            reasons.extend(failures.values())
            aics.append(exhaustive.aic)
        if kind == "constant":
            # rank-deficient candidates and zero-SSE winners both occur
            assert any("rank-deficiency" in reason for reason in reasons)
            assert all(aic == -np.inf for aic in aics)
        else:
            assert np.all(np.isfinite(aics))

    def test_screen_errors_within_the_allowance_keep_the_model(self, monkeypatch):
        # white noise whose two best candidates lie 0.0008 AIC apart
        rng = np.random.Generator(np.random.Philox(key=np.uint64(33)))
        train = TimeSeries.fully_observed(0.0, 3600.0, rng.standard_normal(120))
        exhaustive, _ = exhaustive_select_and_fit(train, 2, 1, 2)
        screen = arima._screen

        def against_the_best(values, orders, levels):
            # nearly the largest error the screen may make unrefitted,
            # every candidate's in the direction that hides the exact best
            shift = 0.45 * arima.MARGIN
            return [(order, aic + (shift if order == exhaustive.order else -shift), sure)
                    for order, aic, sure in screen(values, orders, levels)]

        monkeypatch.setattr(arima, "_screen", against_the_best)
        assert_same_fit(arima._select_and_fit(train, 2, 1, 2), exhaustive)


class TestForecast:
    def test_one_step_ar1_matches_hand_recursion(self):
        series = ar_series([0.8], 1000, seed=7)
        fitted = fit_arima(series, ArimaOrder(1, 0, 0))
        hand = fitted.intercept + fitted.ar[0] * fitted.working_series[-1]
        assert forecast(fitted, 1)[0] == pytest.approx(hand, abs=1e-9)

    def test_recursion_matches_oracle_arma(self):
        series = ar_series([0.7, -0.2], 900, seed=8)
        fitted = fit_arima(series, ArimaOrder(2, 0, 1))
        assert np.max(np.abs(forecast(fitted, 20)
                             - arima_forecast_by_hand(fitted, 20))) < 1e-9

    def test_recursion_matches_oracle_with_differencing(self):
        series = synthesize_series("seasonal", 1500, {"noise_sd": 5.0}, seed=9)
        fitted = fit_arima(series, ArimaOrder(1, 1, 1))
        assert np.max(np.abs(forecast(fitted, 30)
                             - arima_forecast_by_hand(fitted, 30))) < 1e-9

    def test_recursion_matches_oracle_seasonal(self):
        series = synthesize_series("seasonal", 1500, {"noise_sd": 5.0}, seed=10)
        fitted = fit_arima(series, ArimaOrder(1, 0, 1, 1, 1, 1, 24))
        assert np.max(np.abs(forecast(fitted, 48)
                             - arima_forecast_by_hand(fitted, 48))) < 1e-9

    def test_step_validation(self):
        series = ar_series([0.5], 400, seed=11)
        fitted = fit_arima(series, ArimaOrder(1, 0, 0))
        with pytest.raises(InvalidParameterError):
            forecast(fitted, 0)


class TestArimaFill:
    def test_constant_fill(self):
        series = synthesize_series("constant", 600, {"value": 9.0}, seed=0)
        gap = GapSpec(500, 10)
        view = series.copy()
        view.observed[500:510] = False
        fill = arima_fill(view, gap, train_span=300, p_max=1, d_max=1, q_max=1)
        assert np.allclose(fill, 9.0, atol=1e-9)

    def test_training_window_underflow(self):
        series = synthesize_series("constant", 600, {}, seed=0)
        gap = GapSpec(100, 10)
        with pytest.raises(TrainingWindowError):
            arima_fill(series, gap, train_span=300)

    def test_training_window_overlapping_missing_data(self):
        series = synthesize_series("constant", 600, {}, seed=0)
        series.observed[350] = False
        gap = GapSpec(500, 10)
        with pytest.raises(TrainingWindowError):
            arima_fill(series, gap, train_span=300)

    def test_seasonal_beats_plain_on_seasonal_signal(self):
        # Paired comparison over 20 seeded gaps, one day or longer each:
        # the seasonal grid should reconstruct the daily cycle better.
        series = synthesize_series(
            "seasonal", 6000,
            {"noise_sd": 3.0, "harmonic2": 0.3, "harmonic3": 0.08,
             "weekly_amplitude": 4.0}, seed=13)
        rng = np.random.default_rng(14)
        plain_rmse, seasonal_rmse = [], []
        for _ in range(20):
            start = int(rng.integers(1200, 5900 - 30))
            gap = GapSpec(start, int(rng.integers(24, 31)))
            view = series.copy()
            view.observed[gap.start_index:gap.end_index] = False
            truth = series.values[gap.start_index:gap.end_index]
            plain = arima_fill(view, gap, train_span=1008,
                               p_max=2, d_max=1, q_max=2)
            seasonal = arima_fill(view, gap, "sarima", train_span=1008,
                                  p_max=2, d_max=1, q_max=2,
                                  P_max=1, D_max=1, Q_max=1, season=24)
            plain_rmse.append(np.sqrt(np.mean((plain - truth) ** 2)))
            seasonal_rmse.append(np.sqrt(np.mean((seasonal - truth) ** 2)))
        assert np.mean(seasonal_rmse) < np.mean(plain_rmse)
