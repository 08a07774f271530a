"""Engine threading of ``repro-metrics/1`` collection.

The acceptance contract: for the same ``(seed, plan)`` the metrics
artifact is byte-identical whether trials ran serially, pooled across
workers, or on the vector backend (which falls back per-spec, audited
under the ``"metrics collection requested"`` reason) — and turning
collection *off* leaves execution byte-identical to a runner that never
heard of metrics.  Profiling rides the same seam: per-chunk ``cProfile``
dumps must attribute at least 90% of telemetry busy seconds.
"""

import json
import os

import pytest

from repro.engine import (
    AdaptiveRunner,
    ChunkSummary,
    ParallelRunner,
    TrialPlan,
    run_measured_trial,
)
from repro.engine.vectorized import execute_chunk
from repro.obs import (
    METRICS_SCHEMA,
    MetricsRegistry,
    TelemetryWriter,
    load_profile_summary,
    summarize_telemetry,
    validate_metrics_payload,
)


def _plan(trials=8, seed=17, kappa=2, name="metrics-engine"):
    return TrialPlan.monte_carlo(
        name=name,
        protocol="ba_one_third",
        inputs=(0, 0, 1, 1),
        max_faulty=1,
        trials=trials,
        params={"kappa": kappa},
        adversary="straddle13",
        adversary_params={"victims": (3,)},
        seed=seed,
    )


def _artifact_bytes(result):
    return json.dumps(result.metrics_payload(), sort_keys=True).encode()


class TestBackendIdentity:
    def test_serial_pooled_vector_artifacts_identical(self):
        plan = _plan()
        serial = ParallelRunner(workers=1, metrics=True).run(plan)
        pooled = ParallelRunner(workers=2, chunk_size=3, metrics=True).run(plan)
        vector = ParallelRunner(workers=1, backend="vector", metrics=True).run(plan)
        vecpool = ParallelRunner(
            workers=2, chunk_size=3, backend="vector", metrics=True
        ).run(plan)
        reference = _artifact_bytes(serial)
        assert _artifact_bytes(pooled) == reference
        assert _artifact_bytes(vector) == reference
        assert _artifact_bytes(vecpool) == reference
        assert serial.results == pooled.results == vector.results

    def test_artifact_validates_and_counts_trials(self):
        plan = _plan()
        result = ParallelRunner(workers=1, metrics=True).run(plan)
        payload = result.metrics_payload()
        assert payload["schema"] == METRICS_SCHEMA
        assert validate_metrics_payload(payload) == []
        totals = MetricsRegistry.from_payload(payload["totals"])
        assert totals.counter_total("trials") == len(plan)

    def test_metrics_off_is_byte_identical_to_pre_metrics_runner(self):
        plan = _plan()
        plain = ParallelRunner(workers=1).run(plan)
        collected = ParallelRunner(workers=1, metrics=True).run(plan)
        assert plain.results == collected.results
        assert plain.trial_metrics is None
        assert len(collected.trial_metrics) == len(plan)

    def test_metrics_registry_raises_without_collection(self):
        result = ParallelRunner(workers=1).run(_plan(trials=2))
        with pytest.raises(ValueError, match="metrics"):
            result.metrics_registry()


class TestRunnerValidation:
    def test_run_iter_requires_a_sink_when_collecting(self):
        runner = ParallelRunner(workers=1, metrics=True)
        with pytest.raises(ValueError, match="sink"):
            next(runner.run_iter(_plan(trials=2)))


class TestVectorFallbackAccounting:
    def test_metrics_forces_object_fallback_with_reason(self):
        chunk = list(enumerate(_plan(trials=3).trials))
        sink = {}
        results, stats = execute_chunk(chunk, metrics=sink)
        assert len(results) == len(chunk)
        assert stats["batched"] == 0
        assert stats["fallback"] == len(chunk)
        assert stats["fallback_reasons"] == {
            "metrics collection requested": len(chunk)
        }
        assert sorted(sink) == [0, 1, 2]
        bare, _ = execute_chunk(chunk)
        assert [r for _, r in bare] == [r for _, r in results]


class TestChunkSummaryTransport:
    def test_metrics_blobs_roundtrip(self):
        specs = _plan(trials=3).trials
        pairs = []
        registries = {}
        for index, spec in enumerate(specs):
            result, registry = run_measured_trial(spec, index=index)
            pairs.append((index, result))
            registries[index] = registry
        summary = ChunkSummary.pack(pairs, metrics=registries)
        rebuilt = summary.unpack_metrics()
        assert rebuilt == registries

    def test_metrics_field_defaults_empty(self):
        specs = _plan(trials=2).trials
        pairs = [
            (i, run_measured_trial(s, index=i)[0]) for i, s in enumerate(specs)
        ]
        summary = ChunkSummary.pack(pairs)
        assert summary.metrics == ()
        assert summary.unpack_metrics() == {}


class TestAdaptiveMetrics:
    def test_serial_and_pooled_merges_match_fixed_runner(self):
        plan = _plan(trials=8, name="adaptive-metrics")
        serial = AdaptiveRunner(
            workers=1, metrics=True, batch_size=4, early_stop=False
        ).run(plan, 0.25)
        pooled = AdaptiveRunner(
            workers=2, metrics=True, batch_size=4, early_stop=False
        ).run(plan, 0.25)
        assert serial.trial_metrics is not None
        merged_serial = serial.metrics_registry()
        merged_pooled = pooled.metrics_registry()
        assert merged_serial == merged_pooled
        # With early stopping off the adaptive run executes every trial,
        # so its merge must equal the fixed runner's.
        fixed = ParallelRunner(workers=1, metrics=True).run(plan)
        assert merged_serial == fixed.metrics_registry()


class TestProfiling:
    def test_profile_attributes_most_of_busy_time(self, tmp_path):
        # A realistic (not micro) workload: cProfile's tracing overhead
        # on tiny chunks would sink the ratio for reasons that have
        # nothing to do with attribution correctness.
        plan = TrialPlan.monte_carlo(
            name="profiled",
            protocol="ba_one_third",
            inputs=(0, 0, 1, 1, 1, 1, 1),
            max_faulty=2,
            trials=60,
            params={"kappa": 4},
            adversary="straddle13",
            adversary_params={"victims": (5,)},
            seed=23,
        )
        profile_dir = str(tmp_path / "prof")
        tele_path = str(tmp_path / "telemetry.jsonl")
        tele = TelemetryWriter(tele_path)
        runner = ParallelRunner(
            workers=2, chunk_size=10, profile_dir=profile_dir, telemetry=tele
        )
        result = runner.run(plan)
        tele.close()
        assert len(result) == len(plan)
        summary = summarize_telemetry(tele_path)
        profile = load_profile_summary(profile_dir)
        assert profile is not None
        dumps = [n for n in os.listdir(profile_dir) if n.endswith(".pstats")]
        assert dumps
        busy = summary["busy_seconds"]
        if busy > 0:
            assert profile["total_seconds"] / busy >= 0.90

    def test_inline_profile_written_for_serial_runner(self, tmp_path):
        profile_dir = str(tmp_path / "prof")
        runner = ParallelRunner(workers=1, profile_dir=profile_dir)
        runner.run(_plan(trials=4, name="inline-prof"))
        profile = load_profile_summary(profile_dir)
        assert profile is not None and profile["files"] == 1
        assert profile["functions"]
