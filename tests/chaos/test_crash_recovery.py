"""Crash-recover determinism through the engine, any worker count.

The acceptance bar for the fault layer: same seed + same fault plan ⇒
byte-identical results no matter how the trials are executed — serial,
pooled across processes (where each worker rebuilds the plan from the
spec's registry name), or through the vector backend (which must fall
back per-spec, since faulted specs are never vectorizable).
"""

from __future__ import annotations

import pytest

from repro.engine import ParallelRunner, TrialPlan, run_trial, vector_unsupported_reason

CRASH_PARAMS = {"crashes": ((1, 2, 4), (3, 1, 3))}


def _crash_plan(trials=12, seed=29):
    return TrialPlan.monte_carlo(
        name="chaos-crash",
        protocol="ba_one_third",
        inputs=(1, 0, 1, 0, 1),
        max_faulty=1,
        trials=trials,
        params={"kappa": 3},
        seed=seed,
        faults="crash_recover",
        fault_params=CRASH_PARAMS,
    )


class TestCrashRecoverDeterminism:
    def test_serial_and_pooled_results_are_byte_identical(self):
        plan = _crash_plan()
        serial = ParallelRunner(workers=1).run(plan)
        pooled = ParallelRunner(workers=2).run(plan)
        assert serial.results == pooled.results
        for mine, theirs in zip(serial.results, pooled.results):
            # RunMetrics equality is row for row, in round order: the
            # rows are what cross the pool.
            assert mine.metrics == theirs.metrics
            assert list(mine.outputs) == list(theirs.outputs)
            assert mine.finish_rounds == theirs.finish_rounds

    def test_vector_backend_falls_back_per_spec_identically(self):
        plan = _crash_plan(trials=6)
        assert vector_unsupported_reason(plan.trials[0]) is not None
        vector = ParallelRunner(workers=1, backend="vector").run(plan)
        obj = ParallelRunner(workers=1).run(plan)
        assert vector.results == obj.results

    def test_faulted_spec_is_never_vectorizable(self):
        spec = _crash_plan(trials=1).trials[0]
        assert vector_unsupported_reason(spec) == (
            "fault injection ('crash_recover') is not vectorizable"
        )

    def test_crash_actually_bites(self):
        # Guard against a silently inert scenario: the plan must change
        # at least one trial relative to the fault-free baseline.
        faulty = _crash_plan(trials=6)
        clean = TrialPlan.monte_carlo(
            name="chaos-clean",
            protocol="ba_one_third",
            inputs=(1, 0, 1, 0, 1),
            max_faulty=1,
            trials=6,
            params={"kappa": 3},
            seed=29,
        )
        faulty_results = ParallelRunner(workers=1).run(faulty).results
        clean_results = ParallelRunner(workers=1).run(clean).results
        assert any(
            mine.metrics != theirs.metrics
            for mine, theirs in zip(faulty_results, clean_results)
        )

    @pytest.mark.parametrize("scenario, params", [
        ("lossy", {"rate": 0.2}),
        ("delaying", {"rate": 0.2, "max_delay": 2}),
        ("partitioned", {"groups": ((0, 1),), "start": 1, "heal": 3}),
        ("rotating_membership", {"epoch_length": 2, "disabled": ((0,), (4,))}),
        ("degraded", {"rate": 0.1, "split": (0, 1), "heal": 4}),
    ])
    def test_every_registered_scenario_replays_identically(
        self, scenario, params
    ):
        plan = TrialPlan.monte_carlo(
            name=f"chaos-{scenario}",
            protocol="ba_one_third",
            inputs=(1, 0, 1, 0, 1),
            max_faulty=1,
            trials=4,
            params={"kappa": 3},
            seed=31,
            faults=scenario,
            fault_params=params,
        )
        spec = plan.trials[0]
        assert run_trial(spec) == run_trial(spec)
        serial = ParallelRunner(workers=1).run(plan)
        pooled = ParallelRunner(workers=2).run(plan)
        assert serial.results == pooled.results
