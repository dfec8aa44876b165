import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapgauge import (GapSet, GapSpec, TimeSeries, apply_gaps,
                      generate_gaps, pre_gap_window)
from gapgauge.errors import (CapacityError, GapConflictError, InvalidParameterError,
                             RangeError, ReferenceWindowError)
from gapgauge.gaps import _bounded_integers, philox_generator

from _oracles import scalar_draw_gap_placement

SEED_REJECTED = "seed (must be an integer|out of range)"


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
        with pytest.raises(InvalidParameterError, match=SEED_REJECTED):
            generate_gaps(1000, 3, 2, 48, seed=seed)

    def test_bad_seed_reported_before_an_infeasible_request(self):
        with pytest.raises(InvalidParameterError, match="seed out of range"):
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
            scalar_draw_gap_placement(*args, min_start=min_start)

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
            scalar_draw_gap_placement(*args)
        assert ours.value.context == reference.value.context
        assert ours.value.context["placed"] == args[1] - 1
        assert ours.value.context["attempts"] == 10_000 * args[1]


class TestBlockDrawnPlacement:
    """Placement reads raw Philox words in blocks and applies numpy's
    bounded-integer rule itself; every draw, and so every gap, must equal
    what ``Generator.integers`` returns on the same stream."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.lists(st.tuples(
        st.integers(0, 2**62),
        st.one_of(st.just(0), st.integers(1, 60), st.integers(2**32 - 3, 2**32 + 3),
                  st.integers(3 * 2**30, 2**32 - 1), st.integers(0, 2**62),
                  st.sampled_from([3 * 2**61 + 5, 2**62 + 1, 2**63 - 1]))),
        min_size=1, max_size=600))
    @example(0, [(5, 0)] * 3 + [(0, 46)]).via("one-value ranges draw nothing")
    @example(1, [(0, 2**32 - 1), (0, 46), (0, 2**32), (0, 46)]).via("the 32-bit edge")
    @example(2, [(0, 3 * 2**61 + 5)] * 20).via("64-bit redraws, about one in four")
    @example(3, [(0, 3 * 2**30 + 7)] * 20).via("32-bit redraws, about one in four")
    def test_draws_equal_numpy_integers(self, seed, ranges):
        ranges = [(low, min(low + span, 2**63 - 1)) for low, span in ranges]
        expected = philox_generator(seed)
        draw = _bounded_integers(philox_generator(seed).bit_generator)
        assert [draw(low, high) for low, high in ranges] == \
            [int(expected.integers(low, high + 1)) for low, high in ranges]

    def test_a_one_value_range_reads_no_word(self):
        # a word read for it would shift the 32-bit halves of every later draw
        draw = _bounded_integers(philox_generator(5).bit_generator)
        expected = philox_generator(5)
        assert [draw(7, 7), draw(0, 9), draw(3, 3), draw(0, 9)] == \
            [7, int(expected.integers(0, 10)), 3, int(expected.integers(0, 10))]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**64 - 1),
           st.one_of(st.integers(1, 5_000), st.integers(2**32 - 100, 2**32 + 100),
                     st.integers(2**63 - 1_000, 2**63)),
           st.integers(1, 4), st.integers(1, 50),
           st.one_of(st.integers(0, 50), st.integers(0, 2**40), st.integers(0, 2**63)),
           st.one_of(st.just(0), st.integers(0, 5_000)))
    @example(7, 1_000, 3, 5, 0, 0).via("min_len == max_len")
    @example(7, 100, 1, 4, 0, 96).via("a one-value start range")
    @example(7, 20, 4, 1, 14, 10).via("candidates with hi < lo")
    @example(1, 40, 3, 5, 3, 0).via("a near-capacity request that jams")
    @example(7, 2**32 + 1, 3, 1, 2**32, 0).via("a series near 2^32")
    @example(7, 2**63, 3, 1, 2**63, 0).via("a series of 2^63")
    def test_placement_equals_scalar_draws(self, seed, series_length, n_gaps, min_len,
                                           spread, min_start):
        max_len = min(min_len + spread, 2**63 - 1)
        args = (series_length, n_gaps, min_len, max_len, seed)
        try:
            expected = scalar_draw_gap_placement(*args, min_start=min_start)
        except CapacityError as exc:
            with pytest.raises(CapacityError) as ours:
                generate_gaps(*args, min_start=min_start)
            assert ours.value.context == exc.context
        else:
            assert generate_gaps(*args, min_start=min_start) == expected

    @pytest.mark.parametrize("args, name", [((2**64, 1, 1, 2), "series_length"),
                                            ((2**63 + 1, 1, 1, 2), "series_length"),
                                            ((2**62, 1, 1, 2**63), "max_len")])
    def test_request_beyond_int64_draws_rejected(self, args, name):
        with pytest.raises(InvalidParameterError, match=f"{name} out of range"):
            generate_gaps(*args, seed=0)

    def test_largest_request_int64_draws_take_is_placed(self):
        (gap,) = generate_gaps(2**63, 1, 1, 2**63 - 1, seed=0).gaps
        assert gap.length <= gap.start_index <= 2**63 - gap.length
        assert generate_gaps(2**63, 1, 1, 2**63 - 1, seed=0) == \
            scalar_draw_gap_placement(2**63, 1, 1, 2**63 - 1, 0)


NOT_INTEGER_GAPS = [GapSpec(4.0, 2), GapSpec(4, 2.5), GapSpec(4, True), GapSpec(True, 2),
                    GapSpec(np.float64(4), 2), GapSpec("4", 2)]


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

    @pytest.mark.parametrize("gap", NOT_INTEGER_GAPS)
    def test_gap_field_that_is_not_an_integer_rejected(self, gap):
        gap_set = GapSet((GapSpec(1, 1), gap), seed=0, source_length=10)
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            apply_gaps(series_1_to_10(), gap_set)

    @pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32])
    def test_numpy_integer_fields_accepted(self, kind):
        plain = GapSet((GapSpec(1, 1), GapSpec(4, 2)), seed=0, source_length=10)
        numpy = GapSet((GapSpec(1, 1), GapSpec(kind(4), kind(2))), seed=0, source_length=10)
        masked, truth = apply_gaps(series_1_to_10(), plain)
        masked_np, truth_np = apply_gaps(series_1_to_10(), numpy)
        assert np.array_equal(masked.observed, masked_np.observed)
        assert [v.tolist() for v in truth.values()] == [v.tolist() for v in truth_np.values()]

    def test_first_conflicting_gap_named(self):
        series = series_1_to_10()
        series.observed[[5, 8]] = False
        gap_set = GapSet((GapSpec(1, 1), GapSpec(8, 2), GapSpec(4, 2)), seed=0,
                         source_length=10)
        with pytest.raises(GapConflictError) as err:
            apply_gaps(series, gap_set)
        assert err.value.context == {"start": 8, "length": 2}

    def test_truth_equals_the_one_gap_calls(self):
        rng = np.random.default_rng(3)
        series = TimeSeries.fully_observed(0.0, 3600.0, rng.normal(size=3_000))
        gap_set = generate_gaps(3_000, 30, 1, 20, seed=2)
        _, truth = apply_gaps(series, gap_set)
        assert list(truth) == list(gap_set.gaps)
        for gap in gap_set:
            (alone,) = apply_gaps(series, GapSet((gap,), 2, 3_000))[1].values()
            assert np.array_equal(truth[gap], alone)
            assert np.array_equal(alone, series.values[gap.start_index:gap.end_index])


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

    def test_gap_outside_the_series_raises_range_error(self):
        with pytest.raises(RangeError, match="window end exceeds series length"):
            pre_gap_window(series_1_to_10(), GapSpec(9, 2))

    @pytest.mark.parametrize("rows", [False, True], ids=["one-gap", "row"])
    @pytest.mark.parametrize("gap", NOT_INTEGER_GAPS)
    def test_gap_field_that_is_not_an_integer_rejected(self, gap, rows):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            pre_gap_window(series_1_to_10(), [GapSpec(6, 2), gap] if rows else gap)

    @pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32])
    def test_numpy_integer_fields_accepted(self, kind):
        gaps = [GapSpec(kind(4), kind(2)), GapSpec(7, 2)]
        assert pre_gap_window(series_1_to_10(), gaps).tolist() == [[3.0, 4.0], [6.0, 7.0]]
        assert pre_gap_window(series_1_to_10(), gaps[0]).tolist() == [3.0, 4.0]

    def test_rows_are_the_one_gap_windows(self):
        series = TimeSeries.fully_observed(0.0, 3600.0, np.arange(6_000.0) ** 1.5)
        gap_set = generate_gaps(6_000, 60, 2, 6, seed=4)
        masked, _ = apply_gaps(series, gap_set)
        for length in {gap.length for gap in gap_set}:
            group = [gap for gap in gap_set if gap.length == length]
            rows = pre_gap_window(masked, group)
            assert rows.shape == (len(group), length) and rows.dtype == np.float64
            assert np.array_equal(rows, [pre_gap_window(masked, gap) for gap in group])
            assert not np.shares_memory(rows, masked.values)

    @pytest.mark.parametrize("bad", [GapSpec(1, 2), GapSpec(5, 2)],
                             ids=["underflow", "unobserved"])
    def test_row_form_raises_the_first_failing_gaps_error(self, bad):
        series = series_1_to_10()
        series.observed[3] = False
        gaps = [GapSpec(8, 2), bad, GapSpec(1, 2), GapSpec(4, 2)]
        with pytest.raises(ReferenceWindowError) as alone:
            pre_gap_window(series, bad)
        with pytest.raises(ReferenceWindowError) as rows:
            pre_gap_window(series, gaps)
        assert (rows.value.message, rows.value.context) == \
            (alone.value.message, alone.value.context)

    def test_row_form_takes_gaps_of_one_length(self):
        with pytest.raises(InvalidParameterError, match="gaps of one length") as err:
            pre_gap_window(series_1_to_10(), [GapSpec(4, 2), GapSpec(8, 1), GapSpec(6, 2)])
        assert err.value.context == {"lengths": [1, 2]}
        with pytest.raises(InvalidParameterError, match="one or more gaps") as err:
            pre_gap_window(series_1_to_10(), [])
        assert err.value.context == {"lengths": []}

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
        with pytest.raises(InvalidParameterError, match=SEED_REJECTED):
            philox_generator(seed)
