"""Unit and property tests for repro.utils.topk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ConfigError
from repro.utils.topk import bottom_k_indices, rank_of, top_k_indices


class TestTopK:
    def test_basic_order(self):
        np.testing.assert_array_equal(top_k_indices(np.array([1.0, 3.0, 2.0]), 2), [1, 2])

    def test_ties_break_by_index(self):
        np.testing.assert_array_equal(top_k_indices(np.array([1.0, 1.0, 1.0]), 3), [0, 1, 2])

    def test_k_larger_than_array(self):
        assert top_k_indices(np.array([1.0, 2.0]), 10).size == 2

    def test_nan_sorts_last(self):
        out = top_k_indices(np.array([np.nan, 1.0, 2.0]), 3)
        np.testing.assert_array_equal(out, [2, 1, 0])

    def test_neg_inf_sorts_last(self):
        out = top_k_indices(np.array([-np.inf, 0.0]), 2)
        np.testing.assert_array_equal(out, [1, 0])

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            top_k_indices(np.array([1.0]), 0)


class TestBottomK:
    def test_basic(self):
        np.testing.assert_array_equal(bottom_k_indices(np.array([3.0, 1.0, 2.0]), 2), [1, 2])

    def test_nan_sorts_last(self):
        out = bottom_k_indices(np.array([np.nan, 5.0, 1.0]), 3)
        np.testing.assert_array_equal(out, [2, 1, 0])

    def test_inf_sorts_last(self):
        out = bottom_k_indices(np.array([np.inf, 2.0]), 2)
        np.testing.assert_array_equal(out, [1, 0])


class TestRankOf:
    def test_best_is_rank_zero(self):
        assert rank_of(np.array([5.0, 1.0]), 0) == 0

    def test_ties_respect_index_order(self):
        scores = np.array([1.0, 1.0, 1.0])
        assert rank_of(scores, 0) == 0
        assert rank_of(scores, 1) == 1
        assert rank_of(scores, 2) == 2

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            rank_of(np.array([1.0]), 1)

    @given(arrays(np.float64, st.integers(min_value=1, max_value=40),
                  elements=st.floats(min_value=-100, max_value=100)),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_rank_consistent_with_topk(self, scores, data):
        """rank_of(x, i) == position of i in the full top-k ordering."""
        index = data.draw(st.integers(min_value=0, max_value=scores.size - 1))
        full_order = top_k_indices(scores, scores.size)
        assert rank_of(scores, index) == int(np.flatnonzero(full_order == index)[0])


def _lexsort_top_k(scores, k):
    """Oracle: the full lexsort ranking (descending score, then index)."""
    clean = np.where(np.isnan(scores), -np.inf, scores)
    return np.lexsort((np.arange(clean.size), -clean))[:k]


class TestTopKMatchesFullSort:
    """The partition preselection returns exactly the full sort's prefix."""

    @given(arrays(np.float64, st.integers(min_value=1, max_value=60),
                  elements=st.sampled_from(
                      [0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf])
                  | st.floats(allow_nan=True, allow_infinity=True)),
           st.integers(min_value=1, max_value=80))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_ties_nan_inf_and_signed_zero(self, scores, k):
        np.testing.assert_array_equal(top_k_indices(scores, k),
                                      _lexsort_top_k(scores, k))

    @pytest.mark.parametrize("row", [
        np.full(50, -np.inf), np.full(50, 3.0), np.full(50, np.nan),
        np.r_[np.zeros(25), -np.zeros(25)],
    ], ids=["all-neg-inf", "all-equal", "all-nan", "signed-zeros"])
    @pytest.mark.parametrize("k", [1, 10, 50, 60])
    def test_degenerate_rows(self, row, k):
        np.testing.assert_array_equal(top_k_indices(row, k),
                                      _lexsort_top_k(row, k))
