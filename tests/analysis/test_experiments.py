"""Monte-Carlo plans through the engine: what the experiments rest on."""

import pytest

from repro.analysis import disagreement_rate
from repro.engine import ParallelRunner, TrialPlan
from repro.proxcensus.base import slot_index


def monte_carlo(protocol, inputs, trials, seed=0, **config):
    plan = TrialPlan.monte_carlo(
        "experiment", protocol, inputs, 1, trials, seed=seed, **config
    )
    return ParallelRunner().run(plan).results


def ba(inputs, trials, seed=0):
    return monte_carlo("ba_one_third", inputs, trials, seed, params={"kappa": 4})


def prox5_positions(inputs, trials, **config):
    """Honest slot positions of each 2-round ``Prox_5`` execution."""
    results = monte_carlo(
        "prox_one_third", inputs, trials, params={"rounds": 2}, **config
    )
    return [
        [slot_index(o.value, o.grade, 5) for o in result.honest_outputs.values()]
        for result in results
    ]


class TestRunTrials:
    def test_trials_are_distinct_executions(self):
        results = ba([0, 1, 0, 1], trials=6)
        assert len(results) == 6
        # Coins differ across trials (distinct sessions), so outputs vary
        # across enough trials.
        outcomes = {tuple(sorted(r.outputs.items())) for r in results}
        assert len(outcomes) >= 2

    def test_deterministic_given_seed(self):
        a = ba([0, 1, 0, 1], trials=3, seed=5)
        b = ba([0, 1, 0, 1], trials=3, seed=5)
        assert [r.outputs for r in a] == [r.outputs for r in b]


class TestDisagreementRate:
    def test_zero_for_validity_runs(self):
        assert disagreement_rate(ba([1, 1, 1, 1], trials=5)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            disagreement_rate([])


class TestMeasureExecution:
    def test_reports_all_metrics(self):
        (result,) = ba([0, 1, 0, 1], trials=1)
        assert result.metrics.rounds == 5  # kappa + 1
        assert result.metrics.honest_messages > 0
        assert result.metrics.total_signatures >= result.metrics.honest_signatures


class TestSlotOccupancy:
    def test_pre_agreement_occupies_one_extremal_slot(self):
        positions = prox5_positions([1, 1, 1, 1], trials=4)
        assert {p for trial in positions for p in trial} == {4}  # rightmost

    def test_adversarial_runs_stay_adjacent_per_execution(self):
        positions = prox5_positions(
            [0, 0, 1, 1], trials=8,
            adversary="two_face", adversary_params={"victims": (3,)},
        )
        assert [len(trial) for trial in positions] == [3] * 8  # 3 honest each
        assert all(max(trial) - min(trial) <= 1 for trial in positions)
