import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gapgauge import average_ranks, kendall, spearman
from gapgauge.errors import InvalidSampleError, ShapeError


class TestAverageRanks:
    def test_plain_ordering(self):
        assert np.array_equal(average_ranks([10.0, 30.0, 20.0]), [1.0, 3.0, 2.0])

    def test_ties_averaged(self):
        assert np.array_equal(average_ranks([5.0, 1.0, 5.0]), [2.5, 1.0, 2.5])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300]),
                    min_size=1, max_size=40))
    def test_equals_scipy_rankdata_on_tie_heavy_vectors(self, scores):
        assert np.array_equal(average_ranks(scores),
                              stats.rankdata(scores, method="average"))


class TestNonFiniteScores:
    @pytest.mark.parametrize("rank", [average_ranks, lambda s: spearman(s, [1.0, 2.0, 3.0]),
                                      lambda s: kendall([1.0, 2.0, 3.0], s)],
                             ids=["average_ranks", "spearman", "kendall"])
    def test_nan_has_no_rank(self, rank):
        with pytest.raises(InvalidSampleError):
            rank([1.0, np.nan, 3.0])

    def test_infinities_keep_their_order(self):
        scores = [-np.inf, 0.0, np.inf]
        assert np.array_equal(average_ranks(scores), [1.0, 2.0, 3.0])
        assert spearman(scores, [1.0, 2.0, 3.0]) == kendall(scores, [1.0, 2.0, 3.0]) == 1.0


class TestSpearman:
    def test_identical_rankings(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed_rankings(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_single_swap_hand_value(self):
        # d^2 = 2 over n=4: rho = 1 - 6*2/60 = 0.8, exactly.
        assert spearman([1, 2, 3, 4], [1, 2, 4, 3]) == 0.8

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            x, y = rng.normal(size=n), rng.normal(size=n)
            expected = stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            x = rng.integers(0, 4, size=n).astype(float)
            y = rng.integers(0, 4, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            expected = stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expected, abs=1e-12)

    def test_needs_two_items(self):
        with pytest.raises(ShapeError):
            spearman([1.0], [2.0])


class TestKendall:
    def test_identical_and_reversed(self):
        assert kendall([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
        assert kendall([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_matches_scipy_tau_b(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            expected = stats.kendalltau(x, y).statistic
            assert kendall(x, y) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            kendall([1.0, 2.0], [1.0, 2.0, 3.0])
