"""Tests for the Monte-Carlo statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    SequentialEstimate,
    wilson_interval,
)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)


class TestSequentialEstimate:
    def test_starts_undecided_with_vacuous_interval(self):
        estimate = SequentialEstimate(bound=0.25)
        assert estimate.interval == (0.0, 1.0)
        assert estimate.width == 1.0
        assert estimate.status == "undecided"
        assert not estimate.decided
        assert estimate.accepted  # no evidence of violation yet

    def test_separates_below_the_bound(self):
        estimate = SequentialEstimate(bound=0.5)
        estimate.update(5, 100)  # rate 0.05, interval well under 0.5
        assert estimate.status == "below"
        assert estimate.decided
        assert estimate.accepted

    def test_separates_above_the_bound(self):
        estimate = SequentialEstimate(bound=0.05)
        estimate.update(50, 100)  # rate 0.5, interval well over 0.05
        assert estimate.status == "above"
        assert estimate.decided
        assert not estimate.accepted

    def test_confidently_contains_the_tight_bound(self):
        # The straddle-adversary case: the measured rate realizes the
        # bound exactly, so exclusion never happens — only containment
        # (bound inside a sufficiently narrow interval) can decide.
        estimate = SequentialEstimate(bound=0.25)
        estimate.update(50, 200)
        low, high = estimate.interval
        assert low <= 0.25 <= high
        assert high - low <= estimate.bound  # the width the rule asks for
        assert estimate.status == "contained"
        assert estimate.accepted

    def test_min_trials_gates_every_decision(self):
        estimate = SequentialEstimate(bound=0.5)
        estimate.update(0, 31)  # would be a clear "below" otherwise
        _low, high = estimate.interval
        assert high < estimate.bound
        assert estimate.status == "undecided"
        assert estimate.accepted
        estimate.observe(False)
        assert estimate.status == "below"

    def test_batching_is_irrelevant(self):
        batched = SequentialEstimate(bound=0.25)
        batched.update(30, 120)
        streamed = SequentialEstimate(bound=0.25)
        for index in range(120):
            streamed.observe(index % 4 == 0)
        assert streamed.hits == batched.hits
        assert streamed.trials == batched.trials
        assert streamed.interval == batched.interval
        assert streamed.status == batched.status

    def test_min_hits_gates_rare_event_violation_claims(self):
        # Three failures clustered in the first 50 trials of a
        # bound=2^-8 config push the Wilson low end over the bound, but
        # with fewer than five occurrences that must not read as a
        # proven violation (the prefix-clustering artifact: the same
        # config at 3/300 is comfortably accepted).
        estimate = SequentialEstimate(bound=2.0 ** -8)
        estimate.update(3, 50)
        low, _high = estimate.interval
        assert low > estimate.bound  # interval alone would exclude
        assert estimate.status == "undecided"
        assert estimate.accepted
        # More evidence at the same rate does cross the floor.
        estimate.update(3, 50)
        assert estimate.hits >= 5
        assert estimate.status == "above"
        assert not estimate.accepted

    def test_width_is_the_noise_ranking_key(self):
        noisy = SequentialEstimate(bound=0.25)
        noisy.update(10, 40)
        settled = SequentialEstimate(bound=0.25)
        settled.update(100, 400)
        assert noisy.width > settled.width

    def test_validation(self):
        with pytest.raises(ValueError, match="bound"):
            SequentialEstimate(bound=1.5)
        estimate = SequentialEstimate(bound=0.5)
        with pytest.raises(ValueError, match="hits"):
            estimate.update(5, 3)
        with pytest.raises(ValueError, match="hits"):
            estimate.update(-1, 3)
