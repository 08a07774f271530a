"""Tests for execution tracing."""

import random

from repro.crypto.ideal import IdealThresholdScheme
from repro.network.messages import PARALLEL_KEY
from repro.network.simulator import SyncSimulator
from repro.network.trace import Tracer, summarize_payload

from ..conftest import ideal_suite


def traced_run(factory, inputs, max_faulty, adversary=None, seed=0):
    tracer = Tracer()
    simulator = SyncSimulator(
        num_parties=len(inputs),
        max_faulty=max_faulty,
        crypto=ideal_suite(len(inputs), max_faulty),
        adversary=adversary,
        seed=seed,
        session="tr",
        observers=(tracer,),
    )
    result = simulator.run(factory, inputs)
    return result, tracer


def two_round_echo(ctx, value):
    yield ctx.broadcast({"v": value})
    yield ctx.broadcast({"v": value + 1})
    return value


class TestSummarizePayload:
    def test_scalars(self):
        assert summarize_payload(None) == "∅"
        assert summarize_payload(5) == "5"
        assert summarize_payload(True) == "True"
        assert summarize_payload(2 ** 80) == "int(81b)"
        assert summarize_payload("hello") == "'hello'"
        assert "..." in summarize_payload("a-very-long-string-indeed")
        assert summarize_payload(b"\x00" * 7) == "bytes[7]"

    def test_signature_objects_are_marked(self):
        scheme = IdealThresholdScheme(3, 2, random.Random(1))
        share = scheme.sign_share(0, "m")
        assert summarize_payload(share) == "<IdealShare>"

    def test_dicts_and_sequences_are_bounded(self):
        big = {f"k{i}": i for i in range(10)}
        summary = summarize_payload(big)
        assert "…" in summary and len(summary) < 120
        assert summarize_payload((1, 2, 3, 4, 5)).endswith(", …)")

    def test_parallel_envelope_rendering(self):
        payload = {PARALLEL_KEY: {"prox": {"v": 1}, "coin": None}}
        summary = summarize_payload(payload)
        assert summary.startswith("∥{") and "prox" in summary and "coin" in summary

    def test_depth_bound(self):
        nested = {"a": {"b": {"c": {"d": {"e": 1}}}}}
        assert "…" in summarize_payload(nested)

    def test_sets_render_sorted_and_deterministically(self):
        # Sets iterate in hash order, which varies with PYTHONHASHSEED
        # for strings — the summary must sort, not echo iteration order.
        assert summarize_payload({"echoes": {"pk2", "pk0", "pk1"}}) == (
            "{echoes={'pk0', 'pk1', 'pk2'}}"
        )
        assert summarize_payload(frozenset([3, 1, 2])) == "{1, 2, 3}"
        big = summarize_payload({9, 8, 7, 6, 5})
        assert big == "{5, 6, 7, …}"
        # Pin exact equality across distinct set objects with different
        # insertion histories.
        forward = {f"k{i}" for i in range(6)}
        backward = {f"k{i}" for i in reversed(range(6))}
        assert summarize_payload(forward) == summarize_payload(backward)


class TestTracer:
    def test_records_all_messages(self):
        result, tracer = traced_run(two_round_echo, [1, 2, 3], 0)
        assert tracer.rounds == 2
        assert len(tracer.events_in_round(1)) == 9  # 3 senders x 3 recipients
        assert len(tracer.events) == 18

    def test_records_corruptions_with_round(self):
        from repro.adversary.base import Adversary, RoundDecision

        class Strike(Adversary):
            def decide(self, view):
                if view.round_index == 2:
                    return RoundDecision(corrupt={0: None})
                return RoundDecision()

        _result, tracer = traced_run(two_round_echo, [1, 2, 3], 1, adversary=Strike())
        assert tracer.corruptions == [(2, 0)]

    def test_honesty_flag(self):
        from repro.adversary.strategies import CrashAdversary

        _result, tracer = traced_run(
            two_round_echo, [1, 2, 3], 1,
            adversary=CrashAdversary(victims=[2], crash_round=2),
        )
        round1 = tracer.events_in_round(1)
        assert any(not e.sender_honest for e in round1 if e.sender == 2)
        # Crashed in round 2: no messages from party 2 at all.
        assert all(e.sender != 2 for e in tracer.events_in_round(2))

    def test_render_contains_rounds_and_corruption_markers(self):
        from repro.adversary.base import Adversary, RoundDecision

        class Strike(Adversary):
            def decide(self, view):
                if view.round_index == 1:
                    return RoundDecision(corrupt={1: None})
                return RoundDecision()

        _result, tracer = traced_run(two_round_echo, [1, 2, 3], 1, adversary=Strike())
        rendered = tracer.render()
        assert "── round 1" in rendered and "── round 2" in rendered
        assert "⚡ corrupted: P1" in rendered
        assert "P0" in rendered

    def test_tracing_a_real_protocol(self):
        from repro.core.ba import ba_one_half_program

        result, tracer = traced_run(
            lambda c, b: ba_one_half_program(c, b, kappa=2), [1, 0, 1, 0, 1], 2
        )
        assert result.honest_agree()
        assert tracer.rounds == 3
        rendered = tracer.render()
        # round 3 carries the parallel prox ∥ coin envelope
        assert "∥{" in rendered

    def test_signature_counts_are_stamped_on_events(self):
        from repro.core.ba import ba_one_third_program

        _result, tracer = traced_run(
            lambda c, b: ba_one_third_program(c, b, kappa=2), [1, 0, 1, 0], 1
        )
        assert any(e.signatures > 0 for e in tracer.events)


class _CountingEvents(list):
    """A list that counts full iterations — the quadratic-scan detector."""

    def __init__(self, items):
        super().__init__(items)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestRenderPerfShape:
    def test_render_never_rescans_the_full_event_list(self):
        """The old renderer filtered ``self.events`` once per round — an
        O(rounds × events) scan.  Events are now bucketed by round at
        record time, so ``render()`` must not iterate the flat event list
        at all, regardless of round count."""
        from repro.network.trace import MemoryTraceSink, TraceEvent

        sink = MemoryTraceSink()
        for round_index in range(1, 201):
            for sender in range(4):
                for recipient in range(4):
                    sink.record_event(TraceEvent(
                        round_index=round_index, sender=sender,
                        recipient=recipient, summary="{v=1}",
                        sender_honest=True,
                    ))
        counter = _CountingEvents(sink.events)
        sink.events = counter
        rendered = sink.render()
        assert "── round 200" in rendered
        assert counter.iterations == 0

    def test_events_in_round_is_indexed_not_scanned(self):
        from repro.network.trace import MemoryTraceSink, TraceEvent

        sink = MemoryTraceSink()
        for round_index in (1, 5, 9):
            sink.record_event(TraceEvent(
                round_index=round_index, sender=0, recipient=1,
                summary="x", sender_honest=True,
            ))
        counter = _CountingEvents(sink.events)
        sink.events = counter
        assert len(sink.events_in_round(5)) == 1
        assert sink.events_in_round(7) == []
        assert sink.rounds == 9
        assert counter.iterations == 0
