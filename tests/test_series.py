import numpy as np
import pytest

from gapgauge import TimeSeries, slice_series, validate
from gapgauge.errors import RangeError
from gapgauge.series import is_integer


def hourly(values, observed=None, start=0.0, step=3600.0):
    values = np.asarray(values, dtype=float)
    if observed is None:
        observed = np.ones(len(values), dtype=bool)
    return TimeSeries(start, step, values, np.asarray(observed, dtype=bool))


class TestValidate:
    def test_clean_series_is_ok(self):
        assert validate(hourly(np.arange(10.0))) == []

    def test_zero_step_reported(self):
        violations = validate(hourly([1.0, 2.0], step=0.0))
        assert any("step" in v for v in violations)

    def test_length_mismatch_reported(self):
        series = TimeSeries(0.0, 3600.0, np.array([1.0, 2.0, 3.0]),
                            np.array([True, True]))
        assert any("length mismatch" in v for v in validate(series))

    def test_nan_at_observed_position_reported(self):
        assert validate(hourly([1.0, np.nan, 3.0]))

    def test_nan_at_masked_position_allowed(self):
        assert validate(hourly([1.0, np.nan, 3.0], observed=[True, False, True])) == []

    def test_never_mutates(self):
        series = hourly([1.0, 2.0], step=0.0)
        before = series.values.copy()
        validate(series)
        assert np.array_equal(series.values, before)


class TestHourOfDay:
    @pytest.mark.parametrize("start, step", [
        (1_600_000_000.0 + 1234.5, 3600.0),  # not at midnight
        (1_600_000_000.0 + 1234.5, 900.0),
        (-1_000_000_007.25, 900.0),          # a negative epoch
        (-86_400.0 * 3 - 1234.5, 5400.0),
    ])
    def test_index_array_equals_scalar_per_index(self, start, step):
        series = hourly(np.zeros(1000), start=start, step=step)
        hours = series.hour_of_day(np.arange(1000))
        assert hours.dtype.kind == "i"
        scalars = [series.hour_of_day(i) for i in range(1000)]
        assert all(type(h) is int for h in scalars)
        assert hours.tolist() == scalars


class TestSlice:
    def test_identity_slice(self):
        series = hourly(np.arange(10.0))
        out = slice_series(series, 0, 10)
        assert out.start_time == series.start_time
        assert np.array_equal(out.values, series.values)

    def test_offset_shifts_start_time(self):
        series = hourly(np.arange(10.0))
        out = slice_series(series, 3, 4)
        assert len(out) == 4
        assert out.start_time == series.start_time + 3 * series.step
        assert np.array_equal(out.values, [3.0, 4.0, 5.0, 6.0])

    def test_out_of_bounds_names_the_bound(self):
        with pytest.raises(RangeError) as err:
            slice_series(hourly(np.arange(10.0)), 8, 5)
        assert "exceeds series length" in str(err.value)

    def test_slice_copies(self):
        series = hourly(np.arange(10.0))
        out = slice_series(series, 0, 10)
        out.values[0] = 99.0
        assert series.values[0] == 0.0

    def test_composition(self):
        rng = np.random.default_rng(5)
        series = hourly(rng.normal(size=50))
        for _ in range(200):
            a = int(rng.integers(0, 30))
            n = int(rng.integers(5, 50 - a + 1))
            b = int(rng.integers(0, n - 1))
            m = int(rng.integers(1, n - b + 1))
            direct = slice_series(series, a + b, m)
            nested = slice_series(slice_series(series, a, n), b, m)
            assert direct.start_time == nested.start_time
            assert np.array_equal(direct.values, nested.values)
            assert np.array_equal(direct.observed, nested.observed)



class TestIsInteger:
    @pytest.mark.parametrize("value", [0, -3, 2**70, np.int64(5), np.uint64(2**64 - 1),
                                       np.int8(-1)])
    def test_integers_pass(self, value):
        assert is_integer(value)

    @pytest.mark.parametrize("value", [True, False, np.True_, 1.0, 2.5, np.float64(1),
                                       "1", None, np.array(1)])
    def test_bools_floats_and_others_fail(self, value):
        assert not is_integer(value)
