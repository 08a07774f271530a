"""Tests for the Monte-Carlo statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import wilson_interval


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.3 < high

    def test_degenerate_extremes_are_bounded(self):
        low, high = wilson_interval(0, 50)
        assert low <= 1e-12 and 0 < high < 0.15
        low, high = wilson_interval(50, 50)
        assert 0.85 < low < 1 and high >= 1.0 - 1e-12

    def test_shrinks_with_trials(self):
        narrow = wilson_interval(300, 1000)
        wide = wilson_interval(30, 100)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    @given(
        trials=st.integers(min_value=1, max_value=10_000),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_interval_is_ordered_and_in_unit_range(self, trials, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        low, high = wilson_interval(successes, trials)
        estimate = successes / trials
        assert 0.0 <= low <= high <= 1.0
        assert low - 1e-12 <= estimate <= high + 1e-12

    def test_is_the_95_percent_interval(self):
        """z is the 95 % two-sided quantile, z = 1.96: 50 of 200 reads
        [0.1951, 0.3143] (a 99.5 % z of 2.81 would read [0.1746, 0.3443])."""
        low, high = wilson_interval(50, 200)
        assert (round(low, 4), round(high, 4)) == (0.1951, 0.3143)

    def test_negative_successes_rejected(self):
        with pytest.raises(ValueError, match="successes"):
            wilson_interval(-1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
