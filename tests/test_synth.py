import numpy as np
import pytest

from gapgauge import synthesize_series, validate
from gapgauge.errors import ConfigError, InvalidParameterError


class TestSynthesizeSeries:
    def test_constant(self):
        series = synthesize_series("constant", 50, {"value": 5.0}, seed=0)
        assert np.all(series.values == 5.0)
        assert series.observed.all()

    def test_sine_matches_closed_form_without_noise(self):
        series = synthesize_series(
            "sine", 200, {"amplitude": 2.0, "period": 24.0, "phase": 0.5,
                          "offset": 10.0, "noise_sd": 0.0}, seed=7)
        idx = np.arange(200.0)
        expected = 10.0 + 2.0 * np.sin(2.0 * np.pi * idx / 24.0 + 0.5)
        assert np.max(np.abs(series.values - expected)) < 1e-12

    def test_ar1_lag1_autocorrelation(self):
        series = synthesize_series("ar1", 10_000, {"coefficient": 0.8}, seed=3)
        x = series.values
        x = x - x.mean()
        autocorr = np.dot(x[1:], x[:-1]) / np.dot(x, x)
        assert abs(autocorr - 0.8) < 0.05

    def test_seasonal_has_daily_structure(self):
        series = synthesize_series("seasonal", 24 * 200, {"noise_sd": 0.0}, seed=1)
        by_hour = series.values.reshape(-1, 24).mean(axis=0)
        assert by_hour.max() - by_hour.min() > 30.0

    def test_deterministic_per_seed(self):
        a = synthesize_series("seasonal", 500, {}, seed=5)
        b = synthesize_series("seasonal", 500, {}, seed=5)
        c = synthesize_series("seasonal", 500, {}, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_output_validates(self):
        for kind in ("constant", "sine", "ar1", "seasonal"):
            series = synthesize_series(kind, 100, {}, seed=2)
            assert validate(series) == []
            assert len(series) == 100

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            synthesize_series("brownian", 100, {}, seed=0)

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            synthesize_series("constant", 100, {"amplitude": 2.0}, seed=0)

    @pytest.mark.parametrize("kind,params,kwargs", [
        ("sine", {"noise_sd": np.nan}, {}),
        ("sine", {"amplitude": np.nan}, {}),
        ("seasonal", {"daily_amplitude": np.inf}, {}),
        ("constant", {"value": -np.inf}, {}),
        ("seasonal", {}, {"step": 0.0}),
        ("seasonal", {}, {"step": -5.0}),
        ("seasonal", {}, {"step": np.nan}),
        ("seasonal", {}, {"start_time": np.nan}),
        ("sine", {"period": 0.0}, {}),
        ("sine", {"period": -24.0}, {}),
        ("sine", {"noise_sd": -1.0}, {}),
        ("ar1", {"noise_sd": -1.0}, {}),
        ("seasonal", {"noise_sd": -0.5}, {}),
    ])
    def test_bad_parameter_values_rejected(self, kind, params, kwargs):
        with pytest.raises(InvalidParameterError):
            synthesize_series(kind, 50, params, **kwargs)

    def test_length_validation(self):
        with pytest.raises(InvalidParameterError):
            synthesize_series("constant", 0, {}, seed=0)

    def test_length_beyond_memory_rejected_without_allocating(self):
        # 1e11 samples would be 745 GiB of values alone
        with pytest.raises(InvalidParameterError, match="fits in memory"):
            synthesize_series("constant", 100_000_000_000, {}, seed=0)

    def test_step_scales_daily_period(self):
        series = synthesize_series("seasonal", 96 * 50, {"noise_sd": 0.0},
                                   seed=1, step=900.0)
        by_slot = series.values.reshape(-1, 96).mean(axis=0)
        assert by_slot.max() - by_slot.min() > 30.0
