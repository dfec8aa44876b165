import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapgauge import (GapSet, GapSpec, TimeSeries, apply_gaps,
                      generate_gaps, pre_gap_window)
from gapgauge.errors import (CapacityError, GapConflictError, InvalidParameterError,
                             RangeError, ReferenceWindowError)
from gapgauge.gaps import philox_generator

from _oracles import reference_gap_placement


def series_1_to_10():
    return TimeSeries.fully_observed(0.0, 3600.0, np.arange(1.0, 11.0))


def extended_intervals_disjoint(gap_set):
    intervals = sorted(g.extended_interval() for g in gap_set)
    return all(intervals[i][1] <= intervals[i + 1][0]
               for i in range(len(intervals) - 1))


class TestGenerateGaps:
    def test_paper_scale_generation_is_reproducible(self):
        first = generate_gaps(100_000, 100, 2, 48, seed=7)
        second = generate_gaps(100_000, 100, 2, 48, seed=7)
        assert first == second
        assert len(first) == 100
        assert extended_intervals_disjoint(first)

    @pytest.mark.parametrize("kwargs", [
        {"min_len": 2.5}, {"max_len": 48.0}, {"n_gaps": 3.5}, {"n_gaps": True},
        {"min_start": 1.5}, {"series_length": 1000.0}])
    def test_count_that_is_not_an_integer_rejected(self, kwargs):
        args = dict(series_length=1000, n_gaps=3, min_len=2, max_len=48, seed=0)
        name, = kwargs
        with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
            generate_gaps(**{**args, **kwargs})

    @pytest.mark.parametrize("seed", [True, 1.5, -1, 2**64])
    def test_seed_outside_64_unsigned_bits_rejected(self, seed):
        with pytest.raises(InvalidParameterError, match="seed must fit"):
            generate_gaps(1000, 3, 2, 48, seed=seed)

    def test_bad_seed_reported_before_an_infeasible_request(self):
        with pytest.raises(InvalidParameterError, match="seed must fit"):
            generate_gaps(10, 30, 20, 24, seed=-1)

    def test_single_gap_bounds(self):
        gap_set = generate_gaps(10, 1, 2, 2, seed=1)
        (gap,) = gap_set.gaps
        assert gap.length == 2
        assert 2 <= gap.start_index <= 8

    def test_infeasible_packing_reports_placed_count(self):
        with pytest.raises(CapacityError) as err:
            generate_gaps(8, 3, 4, 4, seed=0)
        assert "placed" in str(err.value)

    def test_provably_infeasible_request_fails_before_drawing(self):
        # 30 windows of at least 40 samples cannot fit in 1000
        with pytest.raises(CapacityError) as err:
            generate_gaps(1000, 30, 20, 24, seed=0)
        assert err.value.context["placed"] == 0
        assert err.value.context["requested"] == 30
        assert err.value.context["series_length"] == 1000
        assert "attempts" not in err.value.context

    def test_request_that_exactly_fits_is_placed(self):
        # min_start 96 lets the window start at 92: 8 samples of room, one
        # window of 8; a sample less of room is infeasible
        (gap,) = generate_gaps(100, 1, 4, 4, seed=0, min_start=96).gaps
        assert gap == GapSpec(96, 4)
        with pytest.raises(CapacityError) as err:
            generate_gaps(100, 1, 4, 4, seed=0, min_start=97)
        assert "attempts" not in err.value.context

    def test_lengths_within_bounds_and_window_room(self):
        for seed in range(8):
            gap_set = generate_gaps(5_000, 40, 2, 48, seed=seed)
            assert extended_intervals_disjoint(gap_set)
            for gap in gap_set:
                assert 2 <= gap.length <= 48
                assert gap.start_index >= gap.length
                assert gap.end_index <= 5_000

    def test_min_start_reserves_history(self):
        gap_set = generate_gaps(3_000, 10, 2, 10, seed=3, min_start=1_000)
        assert all(g.start_index >= 1_000 for g in gap_set)

    def test_different_seeds_differ(self):
        assert generate_gaps(5_000, 10, 2, 48, seed=1) != \
            generate_gaps(5_000, 10, 2, 48, seed=2)

    def test_json_round_trip_is_byte_stable(self):
        gap_set = generate_gaps(500, 4, 2, 10, seed=11)
        text = json.dumps(gap_set.to_json_dict())
        assert text.startswith('{"seed": 11, "source_length": 500, "gaps": [')
        assert json.loads(text)["gaps"] == [
            {"start": g.start_index, "len": g.length} for g in gap_set]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 200), st.integers(1, 24),
           st.integers(0, 24), st.integers(0, 500), st.integers(0, 2_000))
    def test_placement_equals_linear_scan(self, seed, n_gaps, min_len, spread,
                                          min_start, slack):
        # at most half the series is covered, so the request always packs
        max_len = min_len + spread
        length = min_start + 4 * n_gaps * max_len + slack
        args = (length, n_gaps, min_len, max_len, seed)
        assert generate_gaps(*args, min_start=min_start) == \
            reference_gap_placement(*args, min_start=min_start)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 60), st.integers(1, 24),
           st.integers(0, 24), st.integers(0, 300), st.integers(0, 400))
    def test_gap_plus_window_intervals_disjoint(self, seed, n_gaps, min_len,
                                                spread, min_start, slack):
        max_len = min_len + spread
        length = min_start + 4 * n_gaps * max_len + slack
        gap_set = generate_gaps(length, n_gaps, min_len, max_len, seed,
                                min_start=min_start)
        assert len(gap_set) == n_gaps
        assert extended_intervals_disjoint(gap_set)
        for gap in gap_set:
            lo, hi = gap.extended_interval()
            assert min_start <= gap.start_index and 0 <= lo and hi <= length
            assert min_len <= gap.length <= max_len

    @pytest.mark.parametrize("args", [(40, 3, 5, 8, 1), (30, 2, 6, 9, 1),
                                      (60, 4, 5, 9, 2)])
    def test_unpackable_request_fails_like_linear_scan(self, args):
        # each passes the precheck, then jams with one gap short
        with pytest.raises(CapacityError) as ours:
            generate_gaps(*args)
        with pytest.raises(CapacityError) as reference:
            reference_gap_placement(*args)
        assert ours.value.context == reference.value.context
        assert ours.value.context["placed"] == args[1] - 1
        assert ours.value.context["attempts"] == 10_000 * args[1]


class TestApplyGaps:
    def test_masks_exactly_the_gap_and_keeps_truth(self):
        gap = GapSpec(4, 2)
        masked, truth = apply_gaps(series_1_to_10(),
                                   GapSet((gap,), seed=0, source_length=10))
        assert np.array_equal(masked.observed,
                              [1, 1, 1, 1, 0, 0, 1, 1, 1, 1])
        assert np.array_equal(truth[gap], [5.0, 6.0])

    def test_empty_gap_set_is_identity(self):
        series = series_1_to_10()
        masked, truth = apply_gaps(series, GapSet((), seed=0, source_length=10))
        assert np.array_equal(masked.observed, series.observed)
        assert np.array_equal(masked.values, series.values)
        assert truth == {}

    def test_pre_masked_position_conflicts(self):
        series = series_1_to_10()
        series.observed[5] = False
        with pytest.raises(GapConflictError):
            apply_gaps(series, GapSet((GapSpec(4, 2),), seed=0, source_length=10))

    def test_out_of_range_gap(self):
        with pytest.raises(RangeError):
            apply_gaps(series_1_to_10(),
                       GapSet((GapSpec(9, 5),), seed=0, source_length=10))

    def test_round_trip_restores_original(self):
        rng = np.random.default_rng(2)
        series = TimeSeries.fully_observed(0.0, 3600.0, rng.normal(size=4_000))
        gap_set = generate_gaps(4_000, 25, 2, 48, seed=9)
        masked, truth = apply_gaps(series, gap_set)
        restored = masked.copy()
        for gap, values in truth.items():
            restored.values[gap.start_index:gap.end_index] = values
            restored.observed[gap.start_index:gap.end_index] = True
        assert np.array_equal(restored.values, series.values)
        assert np.array_equal(restored.observed, series.observed)

    def test_original_untouched(self):
        series = series_1_to_10()
        apply_gaps(series, GapSet((GapSpec(4, 2),), seed=0, source_length=10))
        assert series.observed.all()


class TestPreGapWindow:
    def test_window_precedes_gap(self):
        masked, _ = apply_gaps(series_1_to_10(),
                               GapSet((GapSpec(4, 2),), seed=0, source_length=10))
        sample = pre_gap_window(masked, GapSpec(4, 2))
        assert np.array_equal(sample, [3.0, 4.0])

    def test_window_at_series_start(self):
        sample = pre_gap_window(series_1_to_10(), GapSpec(2, 2))
        assert np.array_equal(sample, [1.0, 2.0])

    def test_window_is_a_float_copy(self):
        series = series_1_to_10()
        sample = pre_gap_window(series, GapSpec(4, 2))
        assert sample.dtype == np.float64
        sample[:] = -1.0
        assert np.array_equal(series.values[2:4], [3.0, 4.0])

    def test_underflow_errors(self):
        with pytest.raises(ReferenceWindowError):
            pre_gap_window(series_1_to_10(), GapSpec(1, 2))

    def test_unobserved_window_errors(self):
        series = series_1_to_10()
        series.observed[3] = False
        with pytest.raises(ReferenceWindowError):
            pre_gap_window(series, GapSpec(4, 2))

    def test_window_length_matches_gap_for_generated_sets(self):
        series = TimeSeries.fully_observed(0.0, 3600.0, np.arange(6_000.0))
        gap_set = generate_gaps(6_000, 30, 2, 48, seed=4)
        masked, _ = apply_gaps(series, gap_set)
        for gap in gap_set:
            assert len(pre_gap_window(masked, gap)) == gap.length


class TestPhiloxGenerator:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(7), np.int64(7)])
    def test_every_64_bit_unsigned_integer_keys_a_generator(self, seed):
        expected = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        assert philox_generator(seed).integers(2**63) == expected.integers(2**63)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 1.0, True, np.float64(3), "3", None])
    def test_other_seeds_rejected(self, seed):
        with pytest.raises(InvalidParameterError, match="seed must fit"):
            philox_generator(seed)
