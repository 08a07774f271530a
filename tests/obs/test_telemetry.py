"""Engine telemetry: writer format, span consistency, runner plumbing.

The span-consistency invariant is the load-bearing part: chunk busy-time
is measured *inside* the worker (``_run_chunk``), so summed busy
seconds can never exceed a pooled run's ``wall × workers`` capacity —
``summarize_telemetry`` flags any file where they do, and ``repro
error-sweep --telemetry`` turns that flag into a nonzero exit.
"""

import json
import os
import re

import pytest

from repro.engine import AdaptiveRunner, ParallelRunner, PlanResult, TrialPlan
from repro.obs import (
    TELEMETRY_SCHEMA,
    ObsFormatError,
    TelemetryWriter,
    summarize_telemetry,
)


def _records(path):
    return [json.loads(l) for l in open(path, encoding="utf-8")]


class TestWriter:
    def test_header_records_footer(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetryWriter(path, meta={"run": "x"}) as tele:
            tele.emit("run_start", label="demo", mode="inline", workers=1)
            tele.emit("run_complete", label="demo")
        lines = _records(path)
        assert [r["t"] for r in lines] == [
            "telemetry", "run_start", "run_complete", "end",
        ]
        assert lines[0]["schema"] == TELEMETRY_SCHEMA
        assert lines[0]["meta"] == {"run": "x"}
        assert lines[-1]["records"] == 2

    def test_at_stamps_are_monotone(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TelemetryWriter(path) as tele:
            for _ in range(20):
                tele.emit("tick")
        stamps = [r["at"] for r in _records(path)[1:-1]]
        assert stamps == sorted(stamps)
        assert all(at >= 0 for at in stamps)

    def test_emit_after_close_raises(self, tmp_path):
        tele = TelemetryWriter(str(tmp_path / "t.jsonl"))
        tele.close()
        tele.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            tele.emit("tick")


def _write_file(tmp_path, name, records, footer_count=None):
    path = str(tmp_path / name)
    body = [{"t": "telemetry", "schema": TELEMETRY_SCHEMA}, *records]
    count = len(records) if footer_count is None else footer_count
    body.append({"t": "end", "records": count})
    with open(path, "w", encoding="utf-8") as handle:
        for record in body:
            handle.write(json.dumps(record) + "\n")
    return path


class TestSummarize:
    def test_consistent_pooled_run(self, tmp_path):
        path = _write_file(tmp_path, "ok.jsonl", [
            {"t": "run_start", "at": 0.0, "label": "r", "mode": "pool",
             "workers": 2, "trials": 8},
            {"t": "chunk_dispatch", "at": 0.0, "chunk": 0, "trials": 4},
            {"t": "chunk_dispatch", "at": 0.0, "chunk": 1, "trials": 4},
            {"t": "chunk_complete", "at": 0.9, "chunk": 0, "seconds": 0.8,
             "span": 0.9, "payload_bytes": 100},
            {"t": "chunk_complete", "at": 1.0, "chunk": 1, "seconds": 0.9,
             "span": 1.0, "payload_bytes": 150},
            {"t": "run_complete", "at": 1.0, "label": "r"},
        ])
        summary = summarize_telemetry(path)
        assert summary["consistent"] is True
        assert summary["chunks"] == 2
        assert summary["busy_seconds"] == pytest.approx(1.7)
        assert summary["payload_bytes"] == 250
        assert summary["trials"] == 8
        assert summary["pooled_runs"] == 1
        (run,) = summary["runs"]
        assert run["wall_seconds"] == pytest.approx(1.0)
        assert run["utilization"] == pytest.approx(0.85)

    def test_busy_exceeding_pool_capacity_is_inconsistent(self, tmp_path):
        # 2 workers, 1s wall, but 3s of claimed in-worker busy time:
        # physically impossible, must be flagged.
        path = _write_file(tmp_path, "over.jsonl", [
            {"t": "run_start", "at": 0.0, "label": "r", "mode": "pool",
             "workers": 2},
            {"t": "chunk_complete", "at": 1.0, "chunk": 0, "seconds": 3.0},
            {"t": "run_complete", "at": 1.0, "label": "r"},
        ])
        assert summarize_telemetry(path)["consistent"] is False

    def test_run_start_without_complete_is_inconsistent(self, tmp_path):
        path = _write_file(tmp_path, "dangling.jsonl", [
            {"t": "run_start", "at": 0.0, "label": "r", "mode": "pool",
             "workers": 2},
        ])
        assert summarize_telemetry(path)["consistent"] is False

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "trunc.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"t": "telemetry", "schema": TELEMETRY_SCHEMA}) + "\n")
            handle.write(json.dumps({"t": "run_start", "at": 0.0}) + "\n")
        with pytest.raises(ObsFormatError, match="truncated"):
            summarize_telemetry(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = str(tmp_path / "v9.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"t": "telemetry", "schema": "repro-telemetry/9"}) + "\n")
            handle.write(json.dumps({"t": "end", "records": 0}) + "\n")
        with pytest.raises(ObsFormatError, match="schema"):
            summarize_telemetry(path)

    def test_lying_footer_rejected(self, tmp_path):
        path = _write_file(tmp_path, "lie.jsonl", [
            {"t": "run_start", "at": 0.0},
        ], footer_count=5)
        with pytest.raises(ObsFormatError, match="disagrees"):
            summarize_telemetry(path)

    @pytest.mark.parametrize("record, problem", [
        ({"t": "run_start"}, "'run_start' record has no 'at' field"),
        ({"t": "run_complete", "label": "r"}, "'run_complete' record has no 'at'"),
        ({"t": "chunk_dispatch", "chunk": 0}, "'chunk_dispatch' record has no 'at'"),
        ({"t": "chunk_complete", "seconds": 1}, "'chunk_complete' record has no 'at'"),
        ({"t": "run_start", "at": "0.0"}, "field 'at' must be a finite number"),
        ({"t": "chunk_complete", "at": 1, "seconds": "1"},
         "field 'seconds' must be a finite number"),
        ({"t": "run_start", "at": 0, "workers": True}, "'workers' must be a count"),
        ({"t": "chunk_dispatch", "at": 0, "chunk": [0]}, "'chunk' must be a chunk id"),
        ({"t": "chunk_dispatch", "at": 10 ** 400}, "'at' must be a finite number"),
        ({"t": "vector_batch", "fallback_reasons": {"r": "6"}},
         "'fallback_reasons' must be an object of counts"),
        ({"t": 7}, "string 't' field"),
    ])
    def test_a_malformed_record_names_its_file_and_line(
        self, tmp_path, record, problem
    ):
        path = _write_file(tmp_path, "bad.jsonl", [
            {"t": "run_start", "at": 0.0, "label": "r"}, record,
        ])
        with pytest.raises(ObsFormatError) as caught:
            summarize_telemetry(path)
        assert str(caught.value).startswith(f"{path}:3: ")
        assert problem in str(caught.value)

    def test_a_malformed_record_is_exit_2_from_report(self, tmp_path, capsys):
        from repro import cli

        path = _write_file(tmp_path, "bad.jsonl", [{"t": "run_complete"}])
        assert cli.main(["report", "--telemetry", path, "--check"]) == 2
        assert "bad.jsonl:2: 'run_complete' record has no 'at'" in capsys.readouterr().err


def _plan(trials=12, seed=7):
    return TrialPlan.monte_carlo(
        name="tele",
        protocol="ba_one_third",
        inputs=(0, 0, 1, 1),
        max_faulty=1,
        trials=trials,
        params={"kappa": 2},
        adversary="straddle13",
        adversary_params={"victims": (3,)},
        seed=seed,
    )


class TestRunnerTelemetry:
    def test_pooled_run_emits_consistent_spans(self, tmp_path):
        path = str(tmp_path / "pool.jsonl")
        plan = _plan()
        with TelemetryWriter(path) as tele:
            observed = ParallelRunner(
                workers=2, chunk_size=3, telemetry=tele
            ).run(plan)
        plain = ParallelRunner(workers=2, chunk_size=3).run(plan)
        # Observability is off the results path: identical output.
        assert observed.results == plain.results

        summary = summarize_telemetry(path)
        assert summary["consistent"] is True
        assert summary["pooled_runs"] == 1
        assert summary["chunks"] == 4  # 12 trials / chunk_size 3
        assert summary["trials"] == 12
        assert summary["payload_bytes"] > 0
        kinds = [r["t"] for r in _records(path)]
        assert kinds[:2] == ["telemetry", "run_start"]
        # Ideal-backend suites are dealt in the workers, so no predeal
        # span is emitted (it only covers the threshold-RSA bottleneck).
        assert "predeal" not in kinds
        assert kinds.count("chunk_dispatch") == 4
        assert kinds.count("chunk_complete") == 4
        assert "run_complete" in kinds

    def test_pooled_vector_run_relays_each_chunks_batching_spans(self, tmp_path):
        """Workers hold no writer: a chunk's ``vector_batch`` and
        ``probe_cache`` spans come back with its payload, so the
        fallback audit and the coin count see pooled runs too."""
        path = str(tmp_path / "pool-vector.jsonl")
        plan = _plan()
        with TelemetryWriter(path) as tele:
            ParallelRunner(
                workers=2, chunk_size=3, backend="vector", telemetry=tele
            ).run(plan)
        records = _records(path)
        batches = [r for r in records if r["t"] == "vector_batch"]
        assert [(r["batched"], r["fallback"], r["coins"]) for r in batches] == [
            (3, 0, 3)
        ] * 4
        assert sum(r["t"] == "probe_cache" for r in records) == 4
        summary = summarize_telemetry(path)
        assert summary["consistent"] is True
        assert (summary["chunks"], summary["pooled_runs"]) == (4, 1)
        assert (
            summary["vector_batched"], summary["vector_fallback"], summary["coins"]
        ) == (12, 0, 12)
        assert summary["probe_cache_hits"] + summary["probe_cache_misses"] == 4

    def test_inline_run_emits_start_and_complete(self, tmp_path):
        path = str(tmp_path / "inline.jsonl")
        with TelemetryWriter(path) as tele:
            ParallelRunner(workers=1, telemetry=tele).run(_plan(trials=4))
        summary = summarize_telemetry(path)
        assert summary["consistent"] is True
        kinds = [r["t"] for r in _records(path)]
        assert "run_start" in kinds and "run_complete" in kinds
        start = next(r for r in _records(path) if r["t"] == "run_start")
        assert start["mode"] == "inline"

    @pytest.mark.parametrize("backend", ["object", "vector"])
    @pytest.mark.parametrize("streamed", [False, True], ids=["run", "run_iter"])
    def test_inline_run_is_one_chunk_span(self, tmp_path, backend, streamed):
        """The pooled span vocabulary on the inline path: one dispatch /
        complete pair, busy seconds measured in-process, no payload."""
        path = str(tmp_path / "inline.jsonl")
        plan = _plan(trials=40)
        with TelemetryWriter(path) as tele:
            runner = ParallelRunner(workers=1, backend=backend, telemetry=tele)
            if streamed:
                assert len(list(runner.run_iter(plan))) == len(plan)
            else:
                runner.run(plan)
        records = _records(path)
        kinds = [r["t"] for r in records[1:-1]]
        assert (kinds[:2], kinds[-2:]) == (
            ["run_start", "chunk_dispatch"], ["chunk_complete", "run_complete"],
        )
        # Two emits per run, nothing per trial.
        assert len(kinds) == (6 if backend == "vector" else 4)
        dispatch, complete = records[2], records[-3]
        assert (dispatch["chunk"], dispatch["trials"]) == (0, len(plan))
        assert complete["chunk"] == 0 and "payload_bytes" not in complete
        summary = summarize_telemetry(path)
        assert summary["consistent"] is True
        assert (summary["chunks"], summary["trials"]) == (1, len(plan))
        assert summary["payload_bytes"] == 0 and summary["pooled_runs"] == 0
        run = summary["runs"][0]
        assert (run["mode"], run["chunks"]) == ("inline", 1)
        assert 0 < summary["busy_seconds"] <= run["wall_seconds"]
        assert "utilization" not in run  # the capacity check is pool-only

    def test_adaptive_inline_batches_are_numbered_chunk_spans(self, tmp_path):
        path = str(tmp_path / "adaptive-inline.jsonl")
        plan = _plan(trials=12)
        with TelemetryWriter(path) as tele:
            AdaptiveRunner(
                workers=1, batch_size=4, early_stop=False, telemetry=tele
            ).run(plan, 0.5)
        records = _records(path)
        dispatched = [r for r in records if r["t"] == "chunk_dispatch"]
        completed = [r for r in records if r["t"] == "chunk_complete"]
        assert [r["chunk"] for r in dispatched] == [0, 1, 2]
        assert [r["chunk"] for r in completed] == [0, 1, 2]
        assert [r["trials"] for r in dispatched] == [4, 4, 4]
        summary = summarize_telemetry(path)
        assert summary["consistent"] is True
        assert (summary["chunks"], summary["trials"]) == (3, 12)
        assert summary["busy_seconds"] > 0

    def test_adaptive_run_emits_allocation_audit_trail(self, tmp_path):
        path = str(tmp_path / "adaptive.jsonl")
        plan = _plan(trials=12)
        with TelemetryWriter(path) as tele:
            observed = AdaptiveRunner(
                workers=2, batch_size=4, early_stop=False, telemetry=tele
            ).run(plan, 0.5)
        plain = AdaptiveRunner(workers=2, batch_size=4, early_stop=False).run(
            plan, 0.5
        )
        assert observed.results == plain.results

        summary = summarize_telemetry(path)
        assert summary["consistent"] is True
        assert summary["adaptive_rounds"] >= 1
        records = _records(path)
        rounds = [r for r in records if r["t"] == "adaptive_round"]
        for record in rounds:
            for allocation in record["allocations"]:
                assert set(allocation) == {"config", "trials", "width"}
        complete = next(r for r in records if r["t"] == "adaptive_complete")
        assert complete["spent"] <= complete["budget"]
        assert complete["allocation_rounds"] == len(rounds)


class TestForwardCompatibility:
    """Unknown span types warn-and-skip; the rest of the digest survives.

    A ``repro-telemetry/1`` file written by a newer engine may carry
    span types this reader predates — losing the whole summary over one
    of them would make the format version-locked in practice.
    """

    def test_unknown_span_type_warns_and_skips(self, tmp_path):
        path = _write_file(tmp_path, "future.jsonl", [
            {"t": "run_start", "at": 0.0, "label": "r", "mode": "pool",
             "workers": 2, "trials": 4},
            {"t": "chunk_dispatch", "at": 0.0, "chunk": 0, "trials": 4},
            {"t": "quantum_leap", "at": 0.1, "entangled": True},
            {"t": "chunk_complete", "at": 0.5, "chunk": 0, "seconds": 0.4,
             "payload_bytes": 64},
            {"t": "quantum_leap", "at": 0.6},
            {"t": "run_complete", "at": 0.7, "label": "r"},
        ])
        with pytest.warns(UserWarning, match="quantum_leap"):
            summary = summarize_telemetry(path)
        # The known spans still digest in full.
        assert summary["chunks"] == 1
        assert summary["trials"] == 4
        assert summary["consistent"] is True
        assert summary["unknown_types"] == {"quantum_leap": 2}

    def test_file_from_an_older_tree_still_digests_consistent(self, tmp_path):
        """The two span types the deleted bench command emitted around
        its runs left the vocabulary with it; files that carry them are
        still read.  (Spelled in halves so a grep for the retired names
        over the tree stays empty.)"""
        setup, complete = "real_" "setup", "bench_" "complete"
        path = _write_file(tmp_path, "older.jsonl", [
            {"t": setup, "at": 0.0, "suites": 1, "serial_seconds": 0.2,
             "parallel_seconds": 0.2},
            {"t": "run_start", "at": 0.4, "label": "r", "mode": "inline",
             "workers": 1, "trials": 4},
            {"t": "chunk_dispatch", "at": 0.4, "chunk": 0, "trials": 4},
            {"t": "chunk_complete", "at": 0.8, "chunk": 0, "seconds": 0.4},
            {"t": "run_complete", "at": 0.8, "label": "r", "trials": 4},
            {"t": complete, "at": 0.9, "serial_seconds": 0.4,
             "parallel_seconds": None, "vector_seconds": None},
        ])
        with pytest.warns(UserWarning, match=setup):
            summary = summarize_telemetry(path)
        assert summary["consistent"] is True
        assert summary["unknown_types"] == {setup: 1, complete: 1}
        assert summary["chunks"] == 1 and summary["trials"] == 4

    def test_known_types_do_not_warn(self, tmp_path, recwarn):
        path = _write_file(tmp_path, "known.jsonl", [
            {"t": "run_start", "at": 0.0, "label": "r", "mode": "inline",
             "workers": 1},
            {"t": "run_complete", "at": 0.1, "label": "r"},
        ])
        summary = summarize_telemetry(path)
        assert summary["unknown_types"] == {}
        assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]


class TestProfileSpans:
    def test_profile_spans_digest_into_totals(self, tmp_path):
        path = _write_file(tmp_path, "prof.jsonl", [
            {"t": "run_start", "at": 0.0, "label": "r", "mode": "pool",
             "workers": 1},
            {"t": "profile", "at": 0.5, "chunk": 0,
             "path": "prof/chunk-00000.pstats", "seconds": 0.4},
            {"t": "profile", "at": 0.9, "chunk": 1,
             "path": "prof/chunk-00001.pstats", "seconds": 0.3},
            {"t": "run_complete", "at": 1.0, "label": "r"},
        ])
        summary = summarize_telemetry(path)
        assert summary["profile_seconds"] == pytest.approx(0.7)
        assert summary["profiles"] == [
            "prof/chunk-00000.pstats", "prof/chunk-00001.pstats",
        ]


def _grid_plan(faults=None):
    """Two configurations, so an adaptive round dispatches two batches."""
    return TrialPlan.concat(
        "grid",
        [
            TrialPlan.monte_carlo(
                name=f"grid-k{kappa}",
                protocol="ba_one_third",
                inputs=(0, 0, 1, 1),
                max_faulty=1,
                trials=6,
                params={"kappa": kappa},
                adversary="straddle13",
                adversary_params={"victims": (3,)},
                seed=kappa,
                faults=faults,
            )
            for kappa in (1, 2)
        ],
    )


def _drive(kind, workers, backend, tele, plan, trace_dir=None):
    """One run of ``plan`` by ``kind``; ``(results, trial_metrics)`` in
    plan order.  Three-trial chunks throughout: four per run."""
    if kind == "adaptive":
        outcome = AdaptiveRunner(
            workers=workers, batch_size=3, early_stop=False, backend=backend,
            metrics=True, telemetry=tele,
        ).run(plan, 0.5)
        return outcome.results, outcome.trial_metrics
    runner = ParallelRunner(
        workers=workers, chunk_size=3, backend=backend, metrics=True,
        telemetry=tele, trace_dir=trace_dir,
    )
    if kind == "run":
        outcome = runner.run(plan)
        return outcome.results, outcome.trial_metrics
    sink = {}
    collected = dict(runner.run_iter(plan, sink))
    indices = range(len(plan))
    return [collected[i] for i in indices], [sink[i] for i in indices]


def _metrics_bytes(plan, results, trial_metrics):
    return json.dumps(
        PlanResult(
            plan=plan, results=results, workers=1, wall_seconds=0.0,
            trial_metrics=trial_metrics,
        ).metrics_payload(),
        sort_keys=True,
    ).encode()


_CODES = {
    "run_start": "S", "run_complete": "E", "chunk_dispatch": "D",
    "chunk_complete": "C", "vector_batch": "V", "probe_cache": "P",
    "adaptive_round": "R", "adaptive_complete": "A",
}
_RUN_START = {"t", "at", "label", "mode", "workers", "trials", "backend"}
_EXTRAS = {
    "fixed": {"chunks", "chunk_size"},
    "adaptive": {"configs", "budget", "batch_size"},
}
_KINDS = ["run", "run_iter", "adaptive"]


class TestOneShapeOnEveryPath:
    """``run``, ``run_iter`` and ``AdaptiveRunner`` share one session and
    one chunk stream, so they write one span vocabulary — and compute
    one set of results."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        plan = _grid_plan()
        trace_dir = str(tmp_path_factory.mktemp("reference-traces"))
        result = ParallelRunner(
            workers=1, metrics=True, trace_dir=trace_dir
        ).run(plan)
        return plan, result, trace_dir

    @pytest.mark.parametrize("backend", ["object", "vector"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_grid(self, tmp_path, reference, kind, workers, backend):
        plan, serial, serial_traces = reference
        pooled = workers > 1
        fixed = kind != "adaptive"
        # Tracing makes the vector backend fall back, which would change
        # its batching spans; AdaptiveRunner takes no trace_dir.
        trace_dir = None
        if fixed and backend == "object":
            trace_dir = str(tmp_path / "traces")
        path = str(tmp_path / "grid.jsonl")
        with TelemetryWriter(path) as tele:
            results, trial_metrics = _drive(
                kind, workers, backend, tele, plan, trace_dir
            )

        # Equal results, registries, artifact bytes and trace bytes.
        assert results == serial.results
        assert trial_metrics == serial.trial_metrics
        assert _metrics_bytes(plan, results, trial_metrics) == _metrics_bytes(
            plan, serial.results, serial.trial_metrics
        )
        if trace_dir is not None:
            names = sorted(os.listdir(serial_traces))
            assert sorted(os.listdir(trace_dir)) == names and len(names) == 12
            for name in names:
                with open(os.path.join(trace_dir, name), "rb") as ours, open(
                    os.path.join(serial_traces, name), "rb"
                ) as theirs:
                    assert ours.read() == theirs.read(), name

        # The order of event types.
        records = _records(path)[1:-1]
        group = "VPC" if backend == "vector" else "C"
        if fixed and not pooled:  # the whole plan is one chunk
            shape = f"SD{group}E"
        elif fixed:
            shape = f"SD{{4}}({group}){{4}}E"
        elif not pooled:
            shape = f"S(R(D{group}){{2}}){{2}}AE"
        else:
            shape = f"S(RDD({group}){{2}}){{2}}AE"
        order = "".join(_CODES[r["t"]] for r in records)
        assert re.fullmatch(shape, order), order

        # One field set per event type.
        fields = {}
        for record in records:
            assert fields.setdefault(record["t"], set(record)) == set(record)
        extras = set()
        if not fixed:
            extras = _EXTRAS["adaptive"]
        elif pooled:
            extras = _EXTRAS["fixed"]
        assert fields["run_start"] == _RUN_START | extras
        assert fields["run_complete"] == {"t", "at", "label", "trials"}
        pipe = {"first_index"} if pooled else set()
        assert fields["chunk_dispatch"] == {"t", "at", "chunk", "trials"} | pipe
        pipe = {"span", "payload_bytes"} if pooled else set()
        assert fields["chunk_complete"] == {"t", "at", "chunk", "seconds"} | pipe
        if backend == "vector":
            assert fields["vector_batch"] == {
                "t", "at", "label", "batched", "fallback", "coins",
                "batches", "seconds", "fallback_reasons",
            }
            assert fields["probe_cache"] == {"t", "at", "label", "hits", "misses"}
        start = records[0]
        assert (start["mode"], start["workers"], start["backend"]) == (
            "pool" if pooled else "inline", workers, backend
        )
        labelled = ("run_start", "run_complete", "vector_batch", "probe_cache")
        assert {r["label"] for r in records if r["t"] in labelled} == {"grid"}

        # Every dispatch is closed; chunks number 0..k-1 within the run.
        dispatched = [r["chunk"] for r in records if r["t"] == "chunk_dispatch"]
        completed = [r["chunk"] for r in records if r["t"] == "chunk_complete"]
        chunks = 1 if fixed and not pooled else 4
        assert dispatched == list(range(chunks))
        assert sorted(completed) == dispatched
        summary = summarize_telemetry(path)
        assert summary["consistent"] is True
        assert (summary["chunks"], summary["trials"]) == (chunks, 12)
        assert records[-1]["trials"] == 12

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_run_start_names_the_fault_scenarios(self, tmp_path, kind, workers):
        path = str(tmp_path / "faulted.jsonl")
        with TelemetryWriter(path) as tele:
            _drive(kind, workers, "object", tele, _grid_plan(faults="lossy"))
        start = _records(path)[1]
        assert (start["t"], start["faults"]) == ("run_start", ["lossy"])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_adaptive_runner_numbers_every_run_from_zero(self, tmp_path, workers):
        path = str(tmp_path / "twice.jsonl")
        plan = _grid_plan()
        with TelemetryWriter(path) as tele:
            runner = AdaptiveRunner(
                workers=workers, batch_size=3, early_stop=False, telemetry=tele
            )
            first = runner.run(plan, 0.5)
            second = runner.run(plan, 0.5)
        assert first.results == second.results
        numbers = [r["chunk"] for r in _records(path) if r["t"] == "chunk_dispatch"]
        assert numbers == [0, 1, 2, 3, 0, 1, 2, 3]
