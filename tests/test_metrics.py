import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapgauge import (Histogram, MetricRecord, jsd, jsd_histograms, mae,
                      rmse, shared_histogram, wasserstein_1d)
from gapgauge.errors import (EmptySampleError, InvalidParameterError,
                             InvalidSampleError, ShapeError)
from gapgauge.metrics import _bin_counts, _shared_edges

from _oracles import (jsd_direct, jsd_pair, mae_pair, rmse_pair,
                      transport_cost_bruteforce, wasserstein_pair)


def random_sample(rng, max_size=12):
    size = int(rng.integers(1, max_size + 1))
    return rng.normal(scale=rng.uniform(0.5, 5.0), size=size)


_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_samples = st.one_of(
    st.lists(_finite, min_size=1, max_size=48),
    # heavy ties
    st.lists(st.sampled_from([-2.5, -0.0, 0.0, 0.1, 0.3, 1.0, 7.0]),
             min_size=1, max_size=48),
    # constant samples, a single value among them
    st.builds(lambda value, size: [value] * size, _finite, st.integers(1, 48)),
)


class TestWasserstein:
    def test_identical_samples(self):
        assert wasserstein_1d([1, 2, 3], [1, 2, 3]) == 0.0

    def test_unit_translation(self):
        assert wasserstein_1d([0, 1], [1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_unequal_sizes_hand_value(self):
        # CDFs differ by 0.5 over [0, 4]; the coupling LP agrees.
        assert wasserstein_1d([0, 0, 0, 0], [0, 4]) == pytest.approx(2.0, abs=1e-12)
        assert transport_cost_bruteforce([0, 0, 0, 0], [0, 4]) == pytest.approx(2.0, abs=1e-9)

    def test_equal_size_equals_sorted_mean_abs_diff(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            p, q = rng.normal(size=n), rng.normal(size=n)
            direct = np.mean(np.abs(np.sort(p) - np.sort(q)))
            assert wasserstein_1d(p, q) == pytest.approx(direct, abs=1e-12)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p, q = random_sample(rng), random_sample(rng)
            d = wasserstein_1d(p, q)
            assert d >= 0.0
            assert d == pytest.approx(wasserstein_1d(q, p), abs=1e-12)

    def test_zero_iff_equal_multisets(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_sample(rng)
            shuffled = rng.permutation(p)
            assert wasserstein_1d(p, shuffled) == pytest.approx(0.0, abs=1e-12)
            assert wasserstein_1d(p, p + 0.37) > 0.1

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = random_sample(rng)
            q = random_sample(rng)
            c = float(rng.normal(scale=10))
            assert wasserstein_1d(p, p + c) == pytest.approx(abs(c), abs=1e-9)
            assert wasserstein_1d(p + c, q + c) == pytest.approx(
                wasserstein_1d(p, q), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b, c = (random_sample(rng) for _ in range(3))
            assert wasserstein_1d(a, c) <= \
                wasserstein_1d(a, b) + wasserstein_1d(b, c) + 1e-9

    def test_matches_bruteforce_coupling_small_sizes(self):
        rng = np.random.default_rng(6)
        for n in range(1, 7):
            for m in range(1, 7):
                for _ in range(4):
                    p = rng.normal(size=n)
                    q = rng.normal(size=m)
                    assert wasserstein_1d(p, q) == pytest.approx(
                        transport_cost_bruteforce(p, q), abs=1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySampleError):
            wasserstein_1d([], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidSampleError):
            wasserstein_1d([np.nan], [1.0])


class TestSharedHistogram:
    def test_identical_samples_identical_histograms(self):
        hp, hq = shared_histogram([1, 2, 2, 3], [1, 2, 2, 3], bins=5)
        assert np.array_equal(hp.edges, hq.edges)
        assert np.allclose(hp.mass, hq.mass)

    def test_separated_points_land_in_separate_bins(self):
        hp, hq = shared_histogram([0.0], [10.0], bins=2, epsilon=1e-9)
        assert hp.mass[0] > 0.99 and hq.mass[1] > 0.99

    def test_masses_normalized(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            hp, hq = shared_histogram(random_sample(rng), random_sample(rng))
            assert hp.mass.sum() == pytest.approx(1.0, abs=1e-9)
            assert hq.mass.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(hp.mass > 0) and np.all(hq.mass > 0)

    def test_degenerate_range_widened(self):
        hp, hq = shared_histogram([5.0, 5.0], [5.0], bins=4)
        assert hp.edges[-1] - hp.edges[0] == pytest.approx(1.0)
        # the shared value must sit strictly inside a bin, not on an edge
        assert not np.any(np.isclose(hp.edges, 5.0))
        assert np.allclose(hp.mass, hq.mass)

    def test_nearly_identical_samples_do_not_straddle_edges(self):
        base = np.full(12, 6.0)
        wiggled = base + 3e-15
        assert jsd(base, wiggled) <= 1e-6

    @pytest.mark.parametrize("bins", [10.5, 10.0, True])
    def test_bins_that_is_not_an_integer_rejected(self, bins):
        with pytest.raises(InvalidParameterError, match="bins must be an integer"):
            shared_histogram([1.0, 3.0], [2.0], bins=bins)
        with pytest.raises(InvalidParameterError, match="bins must be an integer"):
            jsd([1.0, 3.0], [2.0], bins=bins)

    @pytest.mark.parametrize("call", [jsd, shared_histogram])
    @pytest.mark.parametrize("epsilon", [True, np.True_, "x", None, 10**400])
    def test_epsilon_that_is_not_a_finite_number_rejected(self, call, epsilon):
        with pytest.raises(InvalidParameterError, match="epsilon must be a finite number"):
            call([1.0, 2.0], [1.5], epsilon=epsilon)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            shared_histogram([1.0], [2.0], bins=1)
        for epsilon in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidParameterError):
                shared_histogram([1.0], [2.0], epsilon=epsilon)
            with pytest.raises(InvalidParameterError):
                jsd([1.0], [2.0], epsilon=epsilon)


class TestJSD:
    def test_identical_samples_near_zero(self):
        rng = np.random.default_rng(9)
        sample = rng.normal(size=50)
        assert jsd(sample, sample) <= 1e-6

    def test_disjoint_supports_near_one(self):
        assert jsd(np.zeros(40), np.full(40, 10.0),
                   epsilon=1e-12) == pytest.approx(1.0, abs=1e-6)

    def test_histogram_hand_value(self):
        p = Histogram(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0]))
        q = Histogram(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]))
        expected = jsd_direct([1.0, 0.0], [0.5, 0.5])
        assert expected == pytest.approx(0.3112781244591328, abs=1e-12)
        assert jsd_histograms(p, q) == pytest.approx(expected, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            p, q = random_sample(rng), random_sample(rng)
            d = jsd(p, q)
            assert 0.0 <= d <= 1.0
            assert d == jsd(q, p)

    def test_matches_direct_summation_on_histograms(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p, q = random_sample(rng), random_sample(rng)
            hp, hq = shared_histogram(p, q, bins=8)
            assert jsd_histograms(hp, hq) == pytest.approx(
                jsd_direct(hp.mass, hq.mass), abs=1e-12)

    @settings(max_examples=400, deadline=None)
    @given(_samples, _samples, st.integers(2, 32),
           st.sampled_from([1e-12, 1e-6, 1e-2]), st.data())
    def test_equals_the_histogram_path_exactly(self, p, q, bins, epsilon, data):
        hp, _ = shared_histogram(p, q, bins=bins, epsilon=epsilon)
        # values lying exactly on the bin edges of the pair
        on_edges = data.draw(st.lists(st.sampled_from(hp.edges.tolist()),
                                      max_size=8))
        for pp, qq in ((p, q), (p + on_edges, q + on_edges[::-1])):
            assert jsd(pp, qq, bins, epsilon) == jsd_histograms(
                *shared_histogram(pp, qq, bins, epsilon))


class TestAxioms:
    """Metric axioms over generated samples, ties and constant samples included."""

    @settings(max_examples=300, deadline=None)
    @given(_samples, _samples, _finite)
    def test_wasserstein(self, p, q, shift):
        scale = 1.0 + max(map(abs, [*p, *q, shift]))
        d = wasserstein_1d(p, q)
        assert d >= 0.0
        assert d == pytest.approx(wasserstein_1d(q, p), abs=1e-12 * scale)
        assert wasserstein_1d(p, p[::-1]) == 0.0
        assert wasserstein_1d(np.add(p, shift), np.add(q, shift)) == \
            pytest.approx(d, abs=1e-9 * scale)

    @settings(max_examples=300, deadline=None)
    @given(_samples, _samples, st.integers(2, 32))
    def test_jsd(self, p, q, bins):
        d = jsd(p, q, bins)
        assert 0.0 <= d <= 1.0
        assert d == jsd(q, p, bins)
        assert jsd(p, p[::-1], bins) == 0.0


class TestPointwiseErrors:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_values(self):
        assert rmse([0, 0], [3, 4]) == pytest.approx(np.sqrt(12.5), abs=1e-12)
        assert mae([0, 0], [3, 4]) == pytest.approx(3.5, abs=1e-12)

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            a, b = rng.normal(size=n), rng.normal(size=n)
            assert mae(a, b) <= rmse(a, b) + 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(ShapeError):
            mae([], [])


class TestMetricRecord:
    def test_success_record_requires_finite_metrics(self):
        with pytest.raises(ShapeError):
            MetricRecord(gap_id="g", imputer_id="m", gap_len=2,
                         wd=1.0, jsd=0.1, rmse=np.inf, mae=1.0)

    @pytest.mark.parametrize("bad", [None, math.inf, -math.inf, math.nan,
                                     np.float64(np.inf), np.float64(np.nan)])
    @pytest.mark.parametrize("name", ["wd", "jsd", "rmse", "mae"])
    def test_missing_or_non_finite_metric_rejected(self, name, bad):
        metrics = dict(wd=1.0, jsd=np.float64(0.1), rmse=2.0, mae=np.float64(1.5))
        metrics[name] = bad
        with pytest.raises(ShapeError, match=f"metric {name} must be finite"):
            MetricRecord(gap_id="g", imputer_id="m", gap_len=2, **metrics)
        assert not MetricRecord(gap_id="g", imputer_id="m", gap_len=2,
                                wd=1.0, jsd=np.float64(0.1), rmse=2.0, mae=1.5).failed

    def test_error_record_carries_no_metrics(self):
        record = MetricRecord(gap_id="g", imputer_id="m", gap_len=2,
                              error="context: not enough points")
        assert record.failed and record.wd is None


# Rows for the batched metrics: each row pair shares a regime, so narrow and
# large-magnitude pooled ranges really occur.
_TIE_VALUES = [-2.5, -0.0, 0.0, 0.1, 0.3, 1.0, 7.0]
_LARGE_BASES = [1e9, -3e12, 1e12, 1e15, -1e17, 1e17, 2.0**60]


@st.composite
def _row_pair(draw, length):
    regime = draw(st.sampled_from(["any", "ties", "constant", "narrow", "large"]))

    def row():
        if regime == "any":
            return draw(st.lists(_finite, min_size=length, max_size=length))
        if regime == "ties":
            return draw(st.lists(st.sampled_from(_TIE_VALUES),
                                 min_size=length, max_size=length))
        if regime == "constant":
            return [draw(_finite)] * length
        offsets = draw(st.lists(st.integers(-1000, 1000), min_size=length,
                                max_size=length))
        if regime == "narrow":
            return [base + k * tiny for k in offsets]
        return [base + k for k in offsets]

    base = draw(_finite if regime == "narrow" else st.sampled_from(_LARGE_BASES))
    tiny = draw(st.sampled_from([1e-15, 1e-12, 1e-10]))
    return row(), row()


@st.composite
def _batches(draw):
    length = draw(st.integers(1, 48))
    pairs = draw(st.lists(_row_pair(length), min_size=1, max_size=6))
    return (np.array([p for p, _ in pairs], dtype=float),
            np.array([q for _, q in pairs], dtype=float))


class TestRowBatches:
    """Each row of a batched call equals the per-pair oracle exactly."""

    @settings(max_examples=400, deadline=None)
    @given(_batches(), st.integers(2, 32),
           st.sampled_from([1e-12, 1e-9, 1e-6, 1e-4, 1e-2]))
    def test_each_row_equals_the_per_pair_oracle(self, batch, bins, epsilon):
        p, q = batch
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wd = wasserstein_1d(p, q)
            js = jsd(p, q, bins, epsilon)
            rm, ma = rmse(p, q), mae(p, q)
        for out in (wd, js, rm, ma):
            assert isinstance(out, np.ndarray) and out.dtype == np.float64
            assert out.shape == (len(p),)
        for i in range(len(p)):
            assert wd[i] == wasserstein_pair(p[i], q[i])
            assert js[i] == jsd_pair(p[i], q[i], bins, epsilon)
            assert rm[i] == rmse_pair(p[i], q[i])
            assert ma[i] == mae_pair(p[i], q[i])
        one = (p[:1], q[:1])
        assert wasserstein_1d(*one)[0] == wasserstein_1d(p[0], q[0])
        assert jsd(*one, bins, epsilon)[0] == jsd(p[0], q[0], bins, epsilon)
        assert rmse(*one)[0] == rmse(p[0], q[0])
        assert mae(*one)[0] == mae(p[0], q[0])

    @settings(max_examples=300, deadline=None)
    @given(_samples, _samples, st.integers(2, 32))
    def test_one_pair_of_any_sizes_equals_the_oracle(self, p, q, bins):
        result = wasserstein_1d(p, q)
        assert type(result) is float and result == wasserstein_pair(p, q)
        result = jsd(p, q, bins)
        assert type(result) is float and result == jsd_pair(p, q, bins)

    @pytest.mark.parametrize("metric", [wasserstein_1d, jsd, rmse, mae])
    def test_shape_mismatch_rejected(self, metric):
        with pytest.raises(ShapeError):
            metric(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            metric(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            metric(np.zeros((1, 3)), np.zeros(3))
        with pytest.raises(ShapeError):
            metric(np.zeros((1, 1, 3)), np.zeros((1, 1, 3)))

    @pytest.mark.parametrize("metric", [wasserstein_1d, jsd])
    def test_empty_or_non_finite_rows_rejected(self, metric):
        with pytest.raises(EmptySampleError):
            metric(np.zeros((2, 0)), np.zeros((2, 0)))
        for bad in (np.nan, np.inf):
            rows = np.zeros((3, 4))
            rows[2, 1] = bad
            with pytest.raises(InvalidSampleError):
                metric(rows, np.zeros((3, 4)))
            with pytest.raises(InvalidSampleError):
                metric(np.zeros((3, 4)), rows)

    @pytest.mark.parametrize("metric", [rmse, mae])
    def test_empty_rows_misalign(self, metric):
        with pytest.raises(ShapeError):
            metric(np.zeros((2, 0)), np.zeros((2, 0)))


class TestRangeWidening:
    """A narrow range far from zero is widened in proportion to its scale."""

    @pytest.mark.parametrize("p, q", [
        ([1e12, 1e12 + 500], [1e12 + 250, 1e12]),
        ([1e12, 1e12 + 500], [1e12 + 600, 1e12 + 100]),
        ([1e17, 1e17 + 64], [1e17 + 32, 1e17]),
    ])
    def test_widened_edges_hold_every_value(self, p, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hp, hq = shared_histogram(p, q, bins=10, epsilon=1e-12)
            divergence = jsd(p, q)
        assert hp.edges[0] <= min(p + q) and max(p + q) <= hp.edges[-1]
        assert np.all(np.isfinite(hp.mass)) and np.all(np.isfinite(hq.mass))
        # every value falls into one bin of the widened range
        assert hp.mass.max() == hq.mass.max() > 0.99
        assert divergence == 0.0

    def test_small_magnitudes_keep_the_unit_range(self):
        hp, _ = shared_histogram([1e6, 1e6], [1e6], bins=4)
        assert hp.edges[-1] - hp.edges[0] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(_batches(), st.integers(2, 32))
    def test_counts_sum_to_each_sample_size(self, batch, bins):
        p, q = batch
        lo = np.minimum(p.min(axis=-1), q.min(axis=-1))
        hi = np.maximum(p.max(axis=-1), q.max(axis=-1))
        edges = _shared_edges(lo, hi, bins)
        assert np.all(np.diff(edges, axis=-1) > 0)
        for rows, counts in zip((p, q), _bin_counts(p, q, edges)):
            assert np.all(counts.sum(axis=-1) == rows.shape[-1])
            for row, row_edges, row_counts in zip(rows, edges, counts):
                assert np.array_equal(row_counts, np.histogram(row, row_edges)[0])
