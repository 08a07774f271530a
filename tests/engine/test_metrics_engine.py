"""Engine threading of ``repro-metrics/1`` collection.

The acceptance contract: for the same ``(seed, plan)`` the metrics
artifact is byte-identical whether trials ran serially, pooled across
workers, or on the vector backend (which composes each trial's registry
from its cached probes' deliveries — no fallback) — and turning
collection *off* leaves execution byte-identical to a runner that never
heard of metrics.  Profiling rides the same seam: per-chunk ``cProfile``
dumps must attribute at least 90% of telemetry busy seconds.
"""

import json
import os

import pytest

from repro.engine import (
    ChunkSummary,
    ParallelRunner,
    TrialPlan,
    clear_probe_cache,
    probe_cache_stats,
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


def _set_counter(registry, _):
    registry.counters["trials", ""] = 5


#: Every way to change a registry; each raises on a finalized one.  The
#: merges precede the deliveries: a registry whose tally holds deliveries
#: refuses to be merged until it is finalized.
_MUTATIONS = (
    lambda registry, _: registry.inc("trials"),
    lambda registry, _: registry.inc("messages", "bool", 1000),
    lambda registry, _: registry.observe("rounds_to_decision", 99),
    lambda registry, _: registry.observe("slot_occupancy", 7),
    lambda registry, _: registry.merge(MetricsRegistry()),
    lambda registry, _: registry.merge(registry.copy()),
    lambda registry, _: registry.on_message(1, 0, 1, True, sender_honest=True),
    lambda registry, _: registry.observe_delivery(1, "True", 0, True),
    _set_counter,
    lambda registry, _: registry.histograms["rounds_to_decision"].observe(1),
    lambda registry, result: registry.finalize_trial(result),  # last: it freezes
)


class TestBackendIdentity:
    def test_serial_pooled_vector_artifacts_identical(self):
        plan = _plan()
        serial = ParallelRunner(workers=1, metrics=True).run(plan)
        pooled = ParallelRunner(workers=2, metrics=True).run(plan)
        vector = ParallelRunner(workers=1, backend="vector", metrics=True).run(plan)
        vecpool = ParallelRunner(workers=2, backend="vector", metrics=True).run(plan)
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
            result.metrics_payload()


class TestRunnerValidation:
    def test_run_iter_requires_a_sink_when_collecting(self):
        runner = ParallelRunner(workers=1, metrics=True)
        with pytest.raises(ValueError, match="sink"):
            next(runner.run_iter(_plan(trials=2)))


class TestVectorNativeMetrics:
    def test_metrics_batch_without_fallback(self):
        chunk = list(enumerate(_plan(trials=3).trials))
        sink = {}
        results, stats = execute_chunk(chunk, metrics=sink)
        assert len(results) == len(chunk)
        assert stats["batched"] == len(chunk)
        assert stats["fallback"] == 0
        assert stats["fallback_reasons"] == {}
        assert sorted(sink) == [0, 1, 2]
        bare, _ = execute_chunk(chunk)
        assert [r for _, r in bare] == [r for _, r in results]

    def test_pooled_vector_artifact_bytes_equal_serial_object(self):
        plan = TrialPlan.concat(
            "pooled-vector-metrics",
            [
                _plan(trials=7, name="k2"),
                TrialPlan.monte_carlo(
                    "half", "ba_one_half", (0, 0, 1, 1, 1), 2, trials=9,
                    params={"kappa": 4}, adversary="straddle12",
                    adversary_params={"victims": (3, 4)}, seed=5,
                ),
            ],
        )
        serial = ParallelRunner(workers=1, metrics=True).run(plan)
        pooled = ParallelRunner(workers=2, backend="vector", metrics=True).run(plan)
        assert _artifact_bytes(pooled) == _artifact_bytes(serial)
        assert pooled.trial_metrics == serial.trial_metrics

    def test_trial_registries_are_read_only_and_shared_by_class(self):
        """The reference is the object path, never another vector run:
        comparing against one lets a registry corrupted through a trial,
        through the class its leaf keeps or through blob interning — the
        same corrupted object on both sides — pass.  Each such mutation
        raises instead."""
        clear_probe_cache()
        plan = _plan(trials=6)
        chunk = list(enumerate(plan.trials))
        reference = [run_measured_trial(spec)[1] for spec in plan.trials]
        sink = {}
        pairs, _ = execute_chunk(chunk, metrics=sink)
        pooled = ChunkSummary.pack(pairs, metrics=sink).unpack_metrics()
        # Trials of one class share one object; a blob decodes to one object.
        assert len({id(registry) for registry in sink.values()}) < len(chunk)
        assert len({id(registry) for registry in pooled.values()}) == len(
            {registry.pack() for registry in pooled.values()}
        )
        for shared in (sink, pooled):
            for mutate in _MUTATIONS:
                with pytest.raises(TypeError):
                    mutate(shared[0], pairs[0][1])
            assert [shared[index] for index in range(len(chunk))] == reference
        # ...and neither the cached probes nor the cached classes changed.
        again = {}
        execute_chunk(chunk, metrics=again)
        assert [again[index] for index in range(len(chunk))] == reference
        packed = ChunkSummary.pack(pairs, metrics=again)
        assert [blob for _, blob in packed.metrics] == [
            registry.pack() for registry in reference
        ]

    def test_vector_model_error_collects_on_the_object_path(self, monkeypatch):
        from repro.engine.vectorized import VectorModelError
        from tests.conftest import swap_vector_model

        plan = _plan(trials=4)

        def broken(specs):
            raise VectorModelError("probe invariant failed")

        swap_vector_model(monkeypatch, "ba_one_third", "straddle13", batch=broken)
        chunk = list(enumerate(plan.trials))
        sink = {}
        results, stats = execute_chunk(chunk, metrics=sink)
        assert stats["batched"] == 0 and stats["fallback"] == len(chunk)
        assert stats["fallback_reasons"] == {
            "vector model error: probe invariant failed": len(chunk)
        }
        for index, spec in chunk:
            result, registry = run_measured_trial(spec)
            assert results[index] == (index, result)
            assert sink[index] == registry

    def test_trace_dir_collects_on_the_object_path(self, tmp_path):
        plan = _plan(trials=3)
        chunk = list(enumerate(plan.trials))
        sink = {}
        _, stats = execute_chunk(chunk, str(tmp_path), metrics=sink)
        assert stats["fallback_reasons"] == {
            "trace collection requested": len(chunk)
        }
        assert len(os.listdir(tmp_path)) == len(chunk)
        for index, spec in chunk:
            assert sink[index] == run_measured_trial(spec)[1]

    def test_evicted_probe_reruns_to_the_same_contribution(self, monkeypatch):
        """Evicting a configuration drops its probes, rows and registries
        together; coming back re-runs its probe to an equal contribution
        and recomposes equal registries."""
        from repro.engine import vectorized

        plan = _plan(trials=3)
        chunk = list(enumerate(plan.trials))

        def contributions():
            return [
                probe.delivery.contribution
                for table in vectorized._TABLES.values()
                for probe in table.probes.values()
            ]

        clear_probe_cache()
        first = {}
        execute_chunk(chunk, metrics=first)
        before = contributions()
        (table,) = vectorized._TABLES.values()
        assert table.rows and table.top is not None
        # A one-entry LRU: a different configuration evicts the whole table.
        monkeypatch.setattr(vectorized, "_TABLE_LIMIT", 1)
        execute_chunk(list(enumerate(_plan(trials=2, kappa=3).trials)))
        assert contributions() != before
        assert table not in vectorized._TABLES.values()
        misses = probe_cache_stats()["misses"]
        second = {}
        execute_chunk(chunk, metrics=second)
        assert probe_cache_stats()["misses"] == misses + 1
        assert contributions() == before
        assert second == first
        assert [r.pack() for r in second.values()] == [r.pack() for r in first.values()]
        clear_probe_cache()


class TestChunkSummaryTransport:
    def test_metrics_blobs_roundtrip(self):
        specs = _plan(trials=3).trials
        pairs = []
        registries = {}
        for index, spec in enumerate(specs):
            result, registry = run_measured_trial(spec)
            pairs.append((index, result))
            registries[index] = registry
        summary = ChunkSummary.pack(pairs, metrics=registries)
        rebuilt = summary.unpack_metrics()
        assert rebuilt == registries

    def test_metrics_field_defaults_empty(self):
        specs = _plan(trials=2).trials
        pairs = [(i, run_measured_trial(s)[0]) for i, s in enumerate(specs)]
        summary = ChunkSummary.pack(pairs)
        assert summary.metrics == ()
        assert summary.unpack_metrics() == {}


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
        runner = ParallelRunner(workers=2, profile_dir=profile_dir, telemetry=tele)
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_path_writes_one_dump_and_one_span_per_chunk(
        self, tmp_path, workers
    ):
        """``run_iter`` profiles like ``run``, pooled and inline."""
        plan = _plan(trials=4, name="prof-paths")
        expected = 1 if workers == 1 else 4
        profile_dir = str(tmp_path / "prof")
        tele_path = str(tmp_path / "streamed.jsonl")
        with TelemetryWriter(tele_path) as tele:
            runner = ParallelRunner(
                workers=workers, profile_dir=profile_dir, telemetry=tele
            )
            assert sorted(runner.run_iter(plan)) == list(
                enumerate(ParallelRunner(workers=1).run(plan).results)
            )
        names = [f"chunk-{number:05d}.pstats" for number in range(expected)]
        assert sorted(os.listdir(profile_dir)) == names
        assert load_profile_summary(profile_dir)["files"] == expected
        summary = summarize_telemetry(tele_path)
        assert summary["consistent"] is True
        assert sorted(summary["profiles"]) == [
            os.path.join(profile_dir, name) for name in names
        ]
        spans = [json.loads(line) for line in open(tele_path, encoding="utf-8")]
        for span in (s for s in spans if s["t"] == "profile"):
            assert set(span) == {"t", "at", "chunk", "path", "seconds"}


class TestReadOnlyRegistries:
    """A finalized registry, wherever it comes from, refuses every
    mutation; its ``copy()`` is writable and deep."""

    @staticmethod
    def _finalized(source):
        plan = _plan(trials=3)
        chunk = list(enumerate(plan.trials))
        if source == "finalize_trial":
            result, registry = run_measured_trial(plan.trials[0])
            return registry, result
        sink = {}
        pairs, stats = execute_chunk(chunk, metrics=sink)
        assert stats["fallback"] == 0  # composed, not collected
        result = pairs[0][1]
        if source == "unpack_metrics":
            return ChunkSummary.pack(pairs, metrics=sink).unpack_metrics()[0], result
        if source == "unpack":
            return MetricsRegistry.unpack(sink[0].pack()), result
        return sink[0], result

    @pytest.mark.parametrize(
        "source", ["_compose_registries", "unpack_metrics", "finalize_trial", "unpack"]
    )
    def test_every_mutation_raises_and_copy_is_writable(self, source):
        registry, result = self._finalized(source)
        reference = run_measured_trial(_plan(trials=3).trials[0])[1]
        assert registry.read_only and registry == reference
        blob = registry.pack()
        for mutate in _MUTATIONS:
            with pytest.raises(TypeError):
                mutate(registry, result)
            assert registry.pack() == blob and registry == reference
        dup = registry.copy()
        assert not dup.read_only and dup == registry
        for mutate in _MUTATIONS:
            mutate(dup, result)
        assert dup != registry and dup.read_only  # finalize_trial froze it
        assert registry.pack() == blob and registry == reference
