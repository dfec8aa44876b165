import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapgauge import SERIES_KINDS, synthesize_series, validate
from gapgauge.errors import ConfigError, GapgaugeError, InvalidParameterError

from _oracles import synthesized_values_by_pops


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


_KEYS = {
    "constant": ("value",),
    "sine": ("amplitude", "period", "phase", "offset", "noise_sd"),
    "ar1": ("coefficient", "intercept", "noise_sd"),
    "seasonal": ("base", "daily_amplitude", "weekly_amplitude", "yearly_amplitude",
                 "harmonic2", "harmonic3", "noise_sd"),
}
_PARAM_VALUES = st.one_of(
    st.floats(-50.0, 50.0), st.integers(-3, 3),
    st.sampled_from([0.0, -1.0, 1.0, -1.5, np.float64(0.5), np.nan, np.inf, -np.inf]))


@st.composite
def _synth_calls(draw):
    kind = draw(st.sampled_from(SERIES_KINDS))
    keys = draw(st.lists(st.sampled_from(_KEYS[kind]), unique=True))
    params = {key: draw(_PARAM_VALUES) for key in keys}
    kwargs = dict(seed=draw(st.integers(0, 2**64 - 1)),
                  step=draw(st.sampled_from([3600.0, 900.0, 60, 0.0, -5.0, np.nan])),
                  start_time=draw(st.sampled_from([1_609_459_200, 0.0, -7.5, np.nan, np.inf])))
    return kind, draw(st.integers(-2, 120)), params, kwargs


class TestAgainstThePoppingGenerator:
    @settings(max_examples=400, deadline=None)
    @given(_synth_calls())
    def test_values_bit_identical_and_bad_values_rejected_alike(self, call):
        kind, length, params, kwargs = call
        try:
            expected = synthesized_values_by_pops(kind, length, params, **kwargs)
        # A RuntimeWarning (an error under the suite's filter): a period so
        # small that 2*pi*i/period overflows, which both generators divide.
        except (GapgaugeError, RuntimeWarning) as exc:
            with pytest.raises(type(exc)):
                synthesize_series(kind, length, params, **kwargs)
            return
        series = synthesize_series(kind, length, params, **kwargs)
        assert series.values.tobytes() == expected.tobytes()
        assert series.start_time is kwargs["start_time"]
        assert series.step is kwargs["step"]

    def test_defaults_and_protocol_parameters_bit_identical(self):
        protocol = {"daily_amplitude": 50.0, "weekly_amplitude": 4.0, "yearly_amplitude": 40.0,
                    "harmonic2": 0.30, "harmonic3": 0.08, "noise_sd": 3.0}
        for kind, params in [*((kind, {}) for kind in SERIES_KINDS), ("seasonal", protocol)]:
            series = synthesize_series(kind, 5_000, params, seed=3)
            expected = synthesized_values_by_pops(kind, 5_000, params, seed=3)
            assert series.values.tobytes() == expected.tobytes()

    def test_default_start_time_kept_as_an_integer(self):
        # report.json's provenance prints the series' start_time as given
        assert repr(synthesize_series("constant", 3).start_time) == "1609459200"


class TestParameterTables:
    def test_kinds_are_the_table_keys_in_order(self):
        assert SERIES_KINDS == ("constant", "sine", "ar1", "seasonal")

    def test_unknown_key_reported_before_range_checks(self):
        # the popping generator raised InvalidParameterError for the period
        with pytest.raises(ConfigError, match="unknown parameters for kind 'sine'"):
            synthesize_series("sine", 50, {"period": -1.0, "bogus": 1.0})

    def test_unknown_kind_reported_before_argument_checks(self):
        with pytest.raises(ConfigError, match="unknown series kind"):
            synthesize_series("brownian", 0, {}, seed=-1)

    @pytest.mark.parametrize("params", [{"value": True}, {"value": "5"}, {"value": None}])
    def test_parameter_that_is_not_a_number_rejected(self, params):
        with pytest.raises(InvalidParameterError, match="value must be a finite number"):
            synthesize_series("constant", 10, params)

    @pytest.mark.parametrize("coefficient", [1.0, -1.0, 1.5, -2.0])
    def test_ar1_coefficient_outside_the_open_interval_rejected(self, coefficient):
        with pytest.raises(InvalidParameterError):
            synthesize_series("ar1", 10, {"coefficient": coefficient})

    @pytest.mark.parametrize("length", [10.5, 10.0, np.float64(10), True, "10"])
    def test_length_that_is_not_an_integer_rejected(self, length):
        with pytest.raises(InvalidParameterError, match="length must be an integer"):
            synthesize_series("seasonal", length)

    def test_none_params_are_the_defaults(self):
        none, empty = (synthesize_series("sine", 30, params, seed=2) for params in (None, {}))
        assert none.values.tobytes() == empty.values.tobytes()

    def test_numpy_integer_length_accepted(self):
        assert len(synthesize_series("seasonal", np.int64(12))) == 12

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, -1, 2**64, "1"])
    def test_seed_that_is_not_a_64_bit_unsigned_integer_rejected(self, seed):
        with pytest.raises(InvalidParameterError, match="seed (must be an integer|out of range)"):
            synthesize_series("seasonal", 10, seed=seed)

    @pytest.mark.parametrize("kwargs", [{"step": "3600"}, {"step": True},
                                        {"start_time": None}, {"start_time": 1e400}])
    def test_step_and_start_time_must_be_finite_numbers(self, kwargs):
        with pytest.raises(InvalidParameterError):
            synthesize_series("seasonal", 10, **kwargs)
