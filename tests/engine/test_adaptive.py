"""AdaptiveRunner: determinism vs ParallelRunner, early stopping, budget.

The two pinned guarantees:

* against a bound of 0 on a plan with no disagreement no config ever
  decides, so every trial runs, and the adaptive runner is
  **byte-identical** to ``ParallelRunner`` on the same plan, for any
  worker count;
* otherwise it reaches the same accept/reject verdict per config while
  spending measurably fewer trials.
"""

import pytest

from repro.analysis.stats import SequentialEstimate
from repro.engine import AdaptiveRunner, ParallelRunner, TrialPlan


def _sweep_plan(kappas=(1, 2), trials=60, adversary="straddle13"):
    return TrialPlan.concat(
        "adaptive-test",
        [
            TrialPlan.monte_carlo(
                name=f"one_third-k{kappa}",
                protocol="ba_one_third",
                inputs=(0, 0, 1, 1),
                max_faulty=1,
                trials=trials,
                params={"kappa": kappa},
                adversary=adversary,
                adversary_params={"victims": (3,)} if adversary else None,
                seed=kappa,
                collect_signatures=False,
            )
            for kappa in kappas
        ],
    )


def _undecidable_plan():
    """Honest runs never disagree, and against a bound of 0 an estimate
    with no hits stays undecided however many trials it sees: every
    trial runs, two 25-trial allocation rounds and a 10-trial one per
    config."""
    return _sweep_plan(adversary=None)


def _bounds(kappas=(1, 2)):
    return {f"one_third-k{kappa}": 2.0 ** -kappa for kappa in kappas}


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="worker"):
            AdaptiveRunner(workers=0)

    def test_rejects_missing_bound(self):
        plan = _sweep_plan()
        with pytest.raises(KeyError, match="one_third-k1"):
            AdaptiveRunner().run(plan, {"some-other-config": 0.5})

    def test_rejects_empty_plan(self):
        with pytest.raises(ValueError, match="no trials"):
            AdaptiveRunner().run(TrialPlan(name="empty"), 0.5)


class TestFixedBudgetDeterminism:
    def test_byte_identical_to_parallel_runner_serial(self):
        plan = _undecidable_plan()
        fixed = ParallelRunner(workers=1).run(plan)
        adaptive = AdaptiveRunner(workers=1).run(plan, 0.0)
        assert adaptive.spent == len(plan)
        assert not any(o.stopped_early for o in adaptive.configs.values())
        assert adaptive.results == fixed.results  # byte-identical, no Nones

    def test_byte_identical_across_worker_counts(self):
        plan = _undecidable_plan()
        fixed = ParallelRunner(workers=1).run(plan)
        for workers in (2, 3):
            adaptive = AdaptiveRunner(workers=workers).run(plan, 0.0)
            assert adaptive.results == fixed.results

    def test_early_stopped_results_are_a_prefix_subset(self):
        # Whatever trials the adaptive runner does execute must be the
        # very same executions the fixed runner produces at those plan
        # indices — early stopping skips work, never changes it.
        plan = _sweep_plan()
        fixed = ParallelRunner(workers=1).run(plan)
        adaptive = AdaptiveRunner(workers=1).run(plan, _bounds())
        ran = 0
        for index, result in enumerate(adaptive.results):
            if result is not None:
                assert result == fixed.results[index]
                ran += 1
        assert ran == adaptive.spent

    def test_adaptive_rerun_is_bit_identical(self):
        plan = _sweep_plan()
        runner = AdaptiveRunner(workers=1)
        first = runner.run(plan, _bounds())
        second = runner.run(plan, _bounds())
        assert first.results == second.results
        assert first.spent == second.spent
        assert [o.estimate.status for o in first.configs.values()] == [
            o.estimate.status for o in second.configs.values()
        ]


class TestEarlyStopping:
    def test_clear_separation_stops_a_config_early(self):
        # k=1 vs an absurd bound 0.999: the measured rate (~0.5) is
        # proven below it almost immediately.
        plan = _sweep_plan(kappas=(1,), trials=60)
        adaptive = AdaptiveRunner(workers=1).run(plan, {"one_third-k1": 0.999})
        outcome = adaptive.configs["one_third-k1"]
        assert outcome.estimate.status == "below"
        assert outcome.stopped_early
        assert outcome.estimate.trials < len(plan)
        assert adaptive.spent == outcome.estimate.trials < adaptive.budget

    def test_violated_bound_is_rejected(self):
        # k=1 (rate ~0.5) against a bound of 0.01: proven above.
        plan = _sweep_plan(kappas=(1,), trials=60)
        adaptive = AdaptiveRunner(workers=1).run(plan, {"one_third-k1": 0.01})
        outcome = adaptive.configs["one_third-k1"]
        assert outcome.estimate.status == "above"
        assert not outcome.estimate.accepted

    def test_same_verdicts_as_fixed_budget_with_fewer_trials(self):
        plan = _sweep_plan(kappas=(1, 2), trials=200)
        fixed = ParallelRunner(workers=1).run(plan)
        adaptive = AdaptiveRunner(workers=1).run(plan, _bounds())
        assert adaptive.spent < len(plan)
        for name, indices in plan.configs().items():
            fixed_estimate = SequentialEstimate(_bounds()[name])
            fixed_estimate.update(
                sum(
                    1
                    for index in indices
                    if not fixed.results[index].honest_agree()
                ),
                len(indices),
            )
            estimate = adaptive.configs[name].estimate
            assert estimate.accepted == fixed_estimate.accepted

    def test_freed_budget_reallocates_to_widest_interval(self):
        # Give the sweep less budget than the plan: after k=1 settles
        # (vs a generous bound), the remainder must flow to k=4 — the
        # one still undecided — rather than being split evenly.
        plan = _sweep_plan(kappas=(1, 4), trials=100)
        adaptive = AdaptiveRunner(workers=1).run(
            plan, {"one_third-k1": 0.999, "one_third-k4": 0.0625}, budget=150
        )
        k1, k4 = (
            adaptive.configs["one_third-k1"],
            adaptive.configs["one_third-k4"],
        )
        assert k1.stopped_early
        assert k4.estimate.trials > 75  # got more than an even split
        assert adaptive.spent <= 150

    def test_budget_caps_total_trials(self):
        plan = _sweep_plan(kappas=(4,), trials=100)  # stays undecided
        adaptive = AdaptiveRunner(workers=1).run(
            plan, _bounds(kappas=(4,)), budget=30
        )
        assert adaptive.spent == 30  # a 25-trial round, then the last 5
        assert adaptive.configs["one_third-k4"].estimate.trials == 30


class TestResultSurface:
    def test_scalar_bound_applies_to_every_config(self):
        plan = _sweep_plan(kappas=(1, 2), trials=40)
        adaptive = AdaptiveRunner(workers=1).run(plan, 0.999)
        assert all(
            outcome.estimate.bound == 0.999
            for outcome in adaptive.configs.values()
        )


class TestVectorFallbackTelemetry:
    def test_inline_vector_fallbacks_reach_the_rollup(self, tmp_path):
        """adaptive + vector batches every supported trial, and the
        ``vector_batch`` spans carry the genuine fallbacks into
        ``fallback_reasons``."""
        import json

        from repro.obs import TelemetryWriter, summarize_telemetry

        faulted = TrialPlan.monte_carlo(
            name="faulted", protocol="ba_one_third", inputs=(0, 0, 1, 1),
            max_faulty=1, trials=4, params={"kappa": 1}, seed=9,
            faults="lossy",
        )
        supported = _sweep_plan(kappas=(1,), trials=12)
        plan = TrialPlan.concat("adaptive-vector", [supported, faulted])
        path = str(tmp_path / "adaptive-vector.jsonl")
        with TelemetryWriter(path) as telemetry:
            # Neither config reaches the 32 trials a verdict needs.
            adaptive = AdaptiveRunner(
                workers=1, backend="vector", telemetry=telemetry
            ).run(plan, 0.5)
        assert adaptive.spent == len(plan)
        summary = summarize_telemetry(path)
        assert summary["fallback_reasons"] == {
            "fault injection ('lossy') is not vectorizable": len(faulted)
        }
        spans = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if '"vector_batch"' in line
        ]
        assert sum(span["batched"] for span in spans) == len(supported)
        assert sum(span["fallback"] for span in spans) == len(faulted)
