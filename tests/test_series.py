import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapgauge import (EvalConfig, ImputerConfig, TimeSeries, gaps, generate_gaps, jsd,
                      metrics, shared_histogram, slice_series, validate)
from gapgauge.errors import ConfigError, InvalidParameterError, RangeError
from gapgauge.series import is_integer

from _oracles import eval_config_checks, gap_request_checks, histogram_parameter_checks


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


# Values that probe a checked number: bools, numpy integers and floats,
# strings, None, NaN and +-inf, and huge, fractional and negative values.
AWKWARD = st.one_of(
    st.booleans(), st.sampled_from([np.True_, np.False_, None, "", "3", "1e-6"]),
    st.integers(-5, 100), st.integers(-2**70, 2**70),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**400, -10**400]),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8), st.floats(), st.floats().map(np.float64),
    st.floats(width=32).map(np.float32), st.sampled_from([0.5, 2.0, -1.5, 1e-6, 1e308]))
SETTINGS = {"n_gaps": st.integers(1, 500), "min_len": st.integers(1, 12),
            "max_len": st.integers(6, 60), "seed": st.integers(0, 2**64 - 1),
            "bins": st.integers(2, 100), "epsilon": st.floats(1e-12, 1.0)}
GAP_REQUEST = {"series_length": st.integers(0, 10**6), "n_gaps": SETTINGS["n_gaps"],
               "min_len": SETTINGS["min_len"], "max_len": SETTINGS["max_len"],
               "seed": SETTINGS["seed"], "min_start": st.integers(0, 10**4)}
DEFAULTS = dict(n_gaps=100, min_len=2, max_len=48, seed=0, bins=10, epsilon=1e-6)


@st.composite
def probed(draw, valid):
    """Valid values for every name, then awkward ones for up to two names."""
    values = {name: draw(strategy) for name, strategy in valid.items()}
    for name in draw(st.lists(st.sampled_from(list(valid)), max_size=2, unique=True)):
        values[name] = draw(AWKWARD)
    return values


def raised(call):
    """The class of the exception ``call`` raises, or None if it returns."""
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


def epsilon_fault(epsilon) -> bool:
    """A numpy bool, or an integer beyond the float range: the hand-written
    checks let both through to scoring (a numpy bool ran as 0 or 1, the
    integer failed its float conversion; ``load_config`` probed for it)."""
    if isinstance(epsilon, np.bool_):
        return True
    try:
        float(epsilon)
    except (OverflowError, TypeError, ValueError):
        return is_integer(epsilon)
    return False


class _Accepted(Exception):
    """Raised in place of the work that follows a call's checks."""


class TestSpecsAgainstTheHandWrittenChecks:
    """Each setting's spec accepts what the hand-written checks it replaced
    accepted and otherwise raises the same class, except for the faults
    those checks let through, which now raise the module's typed error."""

    @settings(max_examples=400, deadline=None)
    @given(probed(SETTINGS))
    @example({**DEFAULTS, "epsilon": "x"}).via("the TypeError fault")
    @example({**DEFAULTS, "epsilon": None}).via("the TypeError fault")
    @example({**DEFAULTS, "epsilon": np.True_}).via("the numpy bool fault")
    @example({**DEFAULTS, "epsilon": 10**400}).via("the float probe's case")
    @example({**DEFAULTS, "bins": np.int64(2**63 - 1)}).via("numpy's overflow")
    @example({**DEFAULTS, "bins": np.int8(15)}).via("numpy's overflow")
    @example({**DEFAULTS, "seed": np.int64(3), "n_gaps": np.uint64(5)}).via("numpy integers")
    def test_eval_config(self, values):
        imputers = [ImputerConfig("polynomial")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's integer overflow raises
            old = raised(lambda: eval_config_checks(imputers, **values))
        if old is RuntimeWarning:
            # The memory check of a numpy bins wrapped round in numpy's
            # integers (and passed); the spec hands it on as a Python int.
            old = raised(lambda: eval_config_checks(
                imputers, **{**values, "bins": int(values["bins"])}))
        new = raised(lambda: EvalConfig(imputers, **values))
        if old is TypeError:  # a non-number epsilon compared with 0
            assert new is ConfigError
        elif old is None and epsilon_fault(values["epsilon"]):
            assert new is ConfigError
        else:
            assert new is old
        if new is None:
            config = EvalConfig(imputers, **values)
            for name, value in values.items():
                kind = float if name == "epsilon" else int
                assert getattr(config, name) == kind(value)
                assert type(getattr(config, name)) is kind

    @settings(max_examples=400, deadline=None)
    @given(probed(GAP_REQUEST))
    def test_generate_gaps(self, values):
        old = raised(lambda: gap_request_checks(**values))

        def checked_generator(seed):  # stop once the seed has been checked
            gaps.SEED.normalize(seed)
            raise _Accepted

        with mock.patch.object(gaps, "philox_generator", checked_generator):
            new = raised(lambda: generate_gaps(**values))
        assert new is (_Accepted if old is None else old)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(SETTINGS["bins"], AWKWARD), st.one_of(SETTINGS["epsilon"], AWKWARD),
           st.sampled_from([jsd, shared_histogram]))
    @example(10, True, jsd).via("the bool fault")
    @example(10, "x", shared_histogram).via("the TypeError fault")
    @example(10, 10**400, jsd).via("the float probe's case")
    @example(2**63, 1e-6, jsd).via("bins beyond 64 bits")
    def test_histogram_parameters(self, bins, epsilon, call):
        old = raised(lambda: histogram_parameter_checks(bins, epsilon))
        with mock.patch.object(metrics, "_sample_values", side_effect=_Accepted):
            new = raised(lambda: call([1.0], [2.0], bins=bins, epsilon=epsilon))
        if old is TypeError:  # a non-number epsilon compared with 0
            assert new is InvalidParameterError
        elif old is None and (isinstance(epsilon, (bool, np.bool_)) or epsilon_fault(epsilon)
                              or is_integer(bins) and bins >= 2**63):
            # a bool epsilon ran as 0 or 1; bins beyond 64 bits failed in numpy
            assert new is InvalidParameterError
        else:
            assert new is (_Accepted if old is None else old)
