"""Tests for register-liveness accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.masking import live_counts_from_intervals


class TestLiveCounts:
    def test_single_interval(self):
        counts = live_counts_from_intervals([(2, 5)], 8)
        np.testing.assert_array_equal(counts, [0, 0, 1, 1, 1, 0, 0, 0])

    def test_overlapping_intervals(self):
        counts = live_counts_from_intervals([(0, 4), (2, 6)], 6)
        np.testing.assert_array_equal(counts, [1, 1, 2, 2, 1, 1])

    def test_clipping(self):
        counts = live_counts_from_intervals([(-5, 2), (4, 100)], 6)
        np.testing.assert_array_equal(counts, [1, 1, 0, 0, 1, 1])

    def test_empty_and_degenerate_intervals_ignored(self):
        counts = live_counts_from_intervals([(3, 3), (5, 4)], 6)
        assert counts.sum() == 0

    def test_rejects_bad_cycle_count(self):
        with pytest.raises(TraceError):
            live_counts_from_intervals([], 0)


def _loop_live_counts(intervals, n_cycles):
    """The per-interval difference-array loop: the vectorized oracle."""
    diff = np.zeros(n_cycles + 1, dtype=np.int64)
    for start, end in intervals:
        if end <= start:
            continue
        start = max(int(start), 0)
        end = min(int(end), n_cycles)
        if start >= n_cycles or end <= 0:
            continue
        diff[start] += 1
        diff[end] -= 1
    return np.cumsum(diff[:-1])


class TestLiveCountsMatchLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        intervals=st.lists(
            st.tuples(
                st.integers(-50, 150), st.integers(-50, 150)
            ),
            max_size=40,
        ),
        n_cycles=st.integers(1, 100),
    )
    def test_equals_loop(self, intervals, n_cycles):
        # Covers empty lists, reversed/empty intervals and intervals
        # partly or wholly outside the window.
        expected = _loop_live_counts(intervals, n_cycles)
        got = live_counts_from_intervals(intervals, n_cycles)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
        array_input = np.asarray(intervals, dtype=np.int64).reshape(-1, 2)
        np.testing.assert_array_equal(
            live_counts_from_intervals(array_input, n_cycles), expected
        )

    def test_generator_input(self):
        counts = live_counts_from_intervals(((i, i + 2) for i in range(3)), 5)
        np.testing.assert_array_equal(counts, [1, 2, 2, 1, 0])
