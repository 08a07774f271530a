"""AdaptiveRunner: determinism vs ParallelRunner, early stopping, budget.

The two pinned guarantees:

* with a fixed budget and early stopping disabled, the adaptive runner
  is **byte-identical** to ``ParallelRunner`` on the same plan, for any
  worker count;
* with early stopping enabled it reaches the same accept/reject verdict
  per config while spending measurably fewer trials.
"""

import pytest

from repro.engine import AdaptiveRunner, ParallelRunner, TrialPlan


def _sweep_plan(kappas=(1, 2), trials=60):
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
                adversary="straddle13",
                adversary_params={"victims": (3,)},
                seed=kappa,
                collect_signatures=False,
            )
            for kappa in kappas
        ],
    )


def _bounds(kappas=(1, 2)):
    return {f"one_third-k{kappa}": 2.0 ** -kappa for kappa in kappas}


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="worker"):
            AdaptiveRunner(workers=0)

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            AdaptiveRunner(batch_size=0)

    def test_rejects_missing_bound(self):
        plan = _sweep_plan()
        with pytest.raises(KeyError, match="one_third-k1"):
            AdaptiveRunner().run(plan, {"some-other-config": 0.5})

    def test_rejects_empty_plan(self):
        with pytest.raises(ValueError, match="no trials"):
            AdaptiveRunner().run(TrialPlan(name="empty"), 0.5)


class TestFixedBudgetDeterminism:
    def test_byte_identical_to_parallel_runner_serial(self):
        plan = _sweep_plan()
        fixed = ParallelRunner(workers=1).run(plan)
        adaptive = AdaptiveRunner(
            workers=1, early_stop=False, batch_size=7
        ).run(plan, _bounds())
        assert adaptive.spent == len(plan)
        assert adaptive.results == fixed.results  # byte-identical, no Nones

    def test_byte_identical_across_worker_counts(self):
        plan = _sweep_plan()
        fixed = ParallelRunner(workers=1).run(plan)
        for workers in (2, 3):
            adaptive = AdaptiveRunner(
                workers=workers, early_stop=False, batch_size=7
            ).run(plan, _bounds())
            assert adaptive.results == fixed.results

    def test_early_stopped_results_are_a_prefix_subset(self):
        # Whatever trials the adaptive runner does execute must be the
        # very same executions the fixed runner produces at those plan
        # indices — early stopping skips work, never changes it.
        plan = _sweep_plan()
        fixed = ParallelRunner(workers=1).run(plan)
        adaptive = AdaptiveRunner(workers=1, batch_size=10).run(plan, _bounds())
        ran = 0
        for index, result in enumerate(adaptive.results):
            if result is not None:
                assert result == fixed.results[index]
                ran += 1
        assert ran == adaptive.spent

    def test_adaptive_rerun_is_bit_identical(self):
        plan = _sweep_plan()
        runner = AdaptiveRunner(workers=1, batch_size=10)
        first = runner.run(plan, _bounds())
        second = runner.run(plan, _bounds())
        assert first.results == second.results
        assert first.spent == second.spent
        assert [o.status for o in first.configs.values()] == [
            o.status for o in second.configs.values()
        ]


class TestEarlyStopping:
    def test_clear_separation_stops_a_config_early(self):
        # k=1 vs an absurd bound 0.999: the measured rate (~0.5) is
        # proven below it almost immediately.
        plan = _sweep_plan(kappas=(1,), trials=60)
        adaptive = AdaptiveRunner(workers=1, batch_size=10).run(
            plan, {"one_third-k1": 0.999}
        )
        outcome = adaptive.configs["one_third-k1"]
        assert outcome.status == "below"
        assert outcome.stopped_early
        assert outcome.executed < len(plan)
        assert adaptive.spent == outcome.executed
        assert adaptive.saved > 0

    def test_violated_bound_is_rejected(self):
        # k=1 (rate ~0.5) against a bound of 0.01: proven above.
        plan = _sweep_plan(kappas=(1,), trials=60)
        adaptive = AdaptiveRunner(workers=1, batch_size=10).run(
            plan, {"one_third-k1": 0.01}
        )
        outcome = adaptive.configs["one_third-k1"]
        assert outcome.status == "above"
        assert not outcome.accepted
        assert adaptive.verdicts() == {"one_third-k1": False}

    def test_same_verdicts_as_fixed_budget_with_fewer_trials(self):
        plan = _sweep_plan(kappas=(1, 2), trials=200)
        fixed = ParallelRunner(workers=1).run(plan)
        runner = AdaptiveRunner(workers=1, batch_size=25)
        adaptive = runner.run(plan, _bounds())
        assert adaptive.spent < len(plan)
        for name, indices in plan.configs().items():
            fixed_estimate = runner.estimate_for(name, _bounds())
            fixed_estimate.update(
                sum(
                    1
                    for index in indices
                    if not fixed.results[index].honest_agree()
                ),
                len(indices),
            )
            assert adaptive.configs[name].accepted == fixed_estimate.accepted

    def test_freed_budget_reallocates_to_widest_interval(self):
        # Give the sweep less budget than the plan: after k=1 settles
        # (vs a generous bound), the remainder must flow to k=2 — the
        # one with the wider interval — rather than being split evenly.
        plan = _sweep_plan(kappas=(1, 2), trials=100)
        adaptive = AdaptiveRunner(workers=1, batch_size=10).run(
            plan, {"one_third-k1": 0.999, "one_third-k2": 0.25}, budget=100
        )
        k1, k2 = (
            adaptive.configs["one_third-k1"],
            adaptive.configs["one_third-k2"],
        )
        assert k1.stopped_early
        assert k2.executed > 50  # got more than an even split
        assert adaptive.spent <= 100

    def test_budget_caps_total_trials(self):
        plan = _sweep_plan(kappas=(4,), trials=100)  # stays undecided
        adaptive = AdaptiveRunner(workers=1, batch_size=10).run(
            plan, _bounds(kappas=(4,)), budget=30
        )
        assert adaptive.spent == 30
        assert adaptive.configs["one_third-k4"].executed == 30

    def test_disable_early_stop_runs_everything(self):
        plan = _sweep_plan(kappas=(1,), trials=50)
        adaptive = AdaptiveRunner(workers=1, early_stop=False).run(
            plan, {"one_third-k1": 0.999}
        )
        assert adaptive.spent == len(plan)
        assert not adaptive.configs["one_third-k1"].stopped_early
        assert all(result is not None for result in adaptive.results)


class TestResultSurface:
    def test_executed_results_preserve_plan_order(self):
        plan = _sweep_plan()
        adaptive = AdaptiveRunner(workers=1, batch_size=10).run(plan, _bounds())
        executed = adaptive.executed_results()
        assert len(executed) == adaptive.spent
        indexed = [
            result for result in adaptive.results if result is not None
        ]
        assert executed == indexed

    def test_scalar_bound_applies_to_every_config(self):
        plan = _sweep_plan(kappas=(1, 2), trials=40)
        adaptive = AdaptiveRunner(workers=1, batch_size=10).run(plan, 0.999)
        assert all(
            outcome.bound == 0.999 for outcome in adaptive.configs.values()
        )


class TestVectorFallbackTelemetry:
    def test_inline_vector_fallbacks_reach_the_rollup(self, tmp_path):
        """adaptive + vector + metrics batches every supported trial —
        metrics are no fallback reason — and the ``vector_batch`` spans
        carry the genuine fallbacks into ``fallback_reasons``."""
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
            adaptive = AdaptiveRunner(
                workers=1, batch_size=4, early_stop=False, backend="vector",
                metrics=True, telemetry=telemetry,
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
