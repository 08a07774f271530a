"""Streaming trace sinks: file format, bounded memory, engine plumbing.

Three suites:

* ``JsonlTraceSink`` writes the canonical schema-versioned JSONL shape
  (header → records in delivery order → footer), closes idempotently,
  and refuses writes after close;
* bounded memory is *pinned*: the streaming sink holds no event list,
  and asking a streaming ``Tracer`` for its in-memory transcript raises
  ``AttributeError`` instead of silently accumulating;
* a traced 1000-trial plan streams one file per trial through
  ``ParallelRunner(trace_dir=...)``, and serial vs pooled runs produce
  byte-identical trace files (observability inherits the determinism
  contract).
"""

import json
import os

import pytest

from repro.engine import (
    ParallelRunner,
    TrialExecutionError,
    TrialPlan,
    register_protocol,
    run_traced_trial,
)
from repro.network.trace import TraceEvent, Tracer
from repro.obs import (
    TRACE_SCHEMA,
    JsonlTraceSink,
    load_trace,
    trace_filename,
)


def _echo_program(ctx, value):
    yield ctx.broadcast({"v": value})
    return value


def _echo_builder():
    return _echo_program


register_protocol("_test_obs_echo", _echo_builder)


def _event(round_index=1, sender=0, recipient=1, summary="{v=1}",
           honest=True, signatures=0):
    return TraceEvent(
        round_index=round_index, sender=sender, recipient=recipient,
        summary=summary, sender_honest=honest, signatures=signatures,
    )


class TestJsonlFormat:
    def test_header_records_footer_in_order(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlTraceSink(path, meta={"protocol": "echo", "seed": 7})
        sink.record_event(_event(signatures=2))
        sink.record_corruption(1, 3)
        sink.record_event(_event(round_index=2, honest=False))
        sink.close()

        lines = [json.loads(l) for l in open(path, encoding="utf-8")]
        assert [r["t"] for r in lines] == ["trace", "msg", "corr", "msg", "end"]
        assert lines[0]["schema"] == TRACE_SCHEMA
        assert lines[0]["meta"] == {"protocol": "echo", "seed": 7}
        assert lines[1] == {
            "t": "msg", "r": 1, "s": 0, "d": 1, "h": 1, "g": 2, "p": "{v=1}",
        }
        assert lines[2] == {"t": "corr", "r": 1, "pid": 3}
        assert lines[3]["h"] == 0
        assert lines[4] == {"t": "end", "events": 2, "corruptions": 1}

    def test_records_are_canonical_compact_json(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceSink(path) as sink:
            sink.record_event(_event())
        raw = open(path, encoding="utf-8").read().splitlines()
        for line in raw:
            # sorted keys, no whitespace: one byte sequence per record
            assert line == json.dumps(
                json.loads(line), sort_keys=True, ensure_ascii=False,
                separators=(",", ":"),
            )

    def test_close_is_idempotent_and_context_managed(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlTraceSink(path)
        sink.close()
        sink.close()  # no double footer
        lines = open(path, encoding="utf-8").read().splitlines()
        assert sum('"end"' in l for l in lines) == 1

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.record_event(_event())

    def test_trace_filename_is_sortable(self):
        assert trace_filename(0) == "trial-00000.trace.jsonl"
        assert trace_filename(123) == "trial-00123.trace.jsonl"
        assert sorted([trace_filename(10), trace_filename(2)]) == [
            trace_filename(2), trace_filename(10),
        ]


class TestBoundedMemory:
    """The whole point of streaming: nothing accumulates per event."""

    def test_streaming_sink_holds_no_event_list(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "t.jsonl"))
        for index in range(500):
            sink.record_event(_event(round_index=index))
        assert not hasattr(sink, "events")
        assert not hasattr(sink, "corruptions")
        sink.close()

    def test_streaming_tracer_refuses_transcript_accessors(self, tmp_path):
        tracer = Tracer(JsonlTraceSink(str(tmp_path / "t.jsonl")))
        tracer.on_message(1, 0, 1, {"v": 1}, True)
        with pytest.raises(AttributeError):
            tracer.events
        with pytest.raises(AttributeError):
            tracer.corruptions
        with pytest.raises(AttributeError):
            tracer.rounds
        with pytest.raises(AttributeError):
            tracer.render()
        tracer.close()


def _echo_plan(trials, seed=21):
    return TrialPlan.monte_carlo(
        name="obs-echo",
        protocol="_test_obs_echo",
        inputs=(1, 2, 3, 4),
        max_faulty=1,
        trials=trials,
        seed=seed,
    )


class TestEngineStreaming:
    def test_thousand_trial_plan_streams_one_file_per_trial(self, tmp_path):
        trace_dir = str(tmp_path / "run")
        plan = _echo_plan(1000)
        result = ParallelRunner(workers=1, trace_dir=trace_dir).run(plan)
        files = sorted(os.listdir(trace_dir))
        assert len(files) == 1000
        assert files[0] == trace_filename(0)
        assert files[-1] == trace_filename(999)
        # Spot-check: each file is complete (footer present) and carries
        # the trial's identity in its header meta.
        for index in (0, 499, 999):
            loaded = load_trace(os.path.join(trace_dir, trace_filename(index)))
            assert loaded.meta["index"] == index
            assert loaded.meta["protocol"] == "_test_obs_echo"
            assert loaded.events == 16  # 4 senders x 4 recipients, 1 round
        # Untraced results are unchanged by tracing.
        plain = ParallelRunner(workers=1).run(plan)
        assert plain.results == result.results

    def test_serial_and_pooled_trace_files_are_byte_identical(self, tmp_path):
        plan = _echo_plan(40, seed=5)
        dir_serial = str(tmp_path / "serial")
        dir_pooled = str(tmp_path / "pooled")
        serial = ParallelRunner(workers=1, trace_dir=dir_serial).run(plan)
        pooled = ParallelRunner(workers=2, trace_dir=dir_pooled).run(plan)
        assert serial.results == pooled.results
        assert sorted(os.listdir(dir_serial)) == sorted(os.listdir(dir_pooled))
        for name in sorted(os.listdir(dir_serial)):
            with open(os.path.join(dir_serial, name), "rb") as handle:
                serial_bytes = handle.read()
            with open(os.path.join(dir_pooled, name), "rb") as handle:
                pooled_bytes = handle.read()
            assert serial_bytes == pooled_bytes, name

    def test_run_traced_trial_closes_sink_on_failure(self, tmp_path):
        import dataclasses

        spec = _echo_plan(1).trials[0]
        bad = dataclasses.replace(spec, protocol="_no_such_protocol")
        with pytest.raises(TrialExecutionError) as raised:
            run_traced_trial(bad, str(tmp_path), 0)
        assert isinstance(raised.value.__cause__, KeyError)
        # The sink was closed AND the half-written file was removed: a
        # failed trial must not leave an orphaned, footer-less JSONL
        # behind for `repro trace` to choke on.
        assert not os.path.exists(os.path.join(str(tmp_path), trace_filename(0)))
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mid_chunk_failure_leaves_no_orphan_trace_files(
        self, tmp_path, workers
    ):
        import dataclasses

        # Trial 2 of 24 dies mid-plan: trials that completed before the
        # failure keep their (footer-terminated) traces, and the failed
        # trial leaves nothing behind — every surviving file replays.
        plan = _echo_plan(24)  # three-trial chunks on 2 workers
        trials = list(plan.trials)
        trials[2] = dataclasses.replace(trials[2], protocol="_no_such_protocol")
        broken = dataclasses.replace(plan, trials=tuple(trials))
        trace_dir = str(tmp_path / "run")
        runner = ParallelRunner(workers=workers, trace_dir=trace_dir)
        with pytest.raises(TrialExecutionError) as raised:
            runner.run(broken)
        assert (raised.value.index, raised.value.spec) == (2, trials[2])
        survivors = sorted(os.listdir(trace_dir))
        assert trace_filename(2) not in survivors
        for name in survivors:
            loaded = load_trace(os.path.join(trace_dir, name))
            assert loaded.events == 16  # complete: header, body, footer
