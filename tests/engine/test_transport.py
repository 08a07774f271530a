"""The compact wire format is lossless — and actually smaller.

Four regression suites:

* ``TrialSummary``/``ChunkSummary`` pack→unpack round-trips equal the
  original ``ExecutionResult`` field for field, for **every** registered
  protocol × adversary combination (incompatible combos must fail
  identically on both paths, i.e. before packing is ever reached);
* pooled results (rebuilt from ``ChunkSummary``) equal serial ones
  through both runners, including the pickled fallback lane;
* the compact payload is ≥3x smaller than the full pickle on a
  signature-heavy plan, and non-terminating parties stay *absent* from
  ``finish_rounds`` (never ``None``) through the compact path;
* the tallies being shipped equal a per-message
  ``count_signatures_reference`` walk done by an observer, on both
  delivery loops (clean and faulted).
"""

import pytest

from ..conftest import PROTOCOL_SHAPES
from ..oracles import count_signatures_reference
from repro.network.metrics import RunMetrics
from repro.engine import (
    ChunkSummary,
    ParallelRunner,
    TrialPlan,
    TrialSpec,
    TrialSummary,
    adversary_names,
    measure_payload_bytes,
    protocol_names,
    register_protocol,
    run_trial,
)


def _stubborn_program(ctx, value):
    """Party 3 never finishes; everyone else decides after one round.

    With party 3 corrupted, the simulator stops as soon as the honest
    parties are done and the stuck shadow is simply *absent* from
    ``outputs``/``finish_rounds`` — the non-terminating-trial shape the
    transport must preserve exactly (absent, never ``None``).
    """
    if ctx.party_id == 3:
        while True:
            yield {}
    yield {}
    return value


def _stubborn_builder():
    return _stubborn_program


register_protocol("_test_stubborn", _stubborn_builder)


def _lone_sender_program(ctx, value):
    """Party 0 sends party 1 one message in round 1; nobody else sends.

    Under total loss that round delivers nothing, yet its outbox was
    non-empty, so it keeps an all-zero tally row.
    """
    yield {1: value} if ctx.party_id == 0 else {}
    return value


def _lone_sender_builder():
    return _lone_sender_program


register_protocol("_test_lone_sender", _lone_sender_builder)

# Per-protocol sweep shapes: (inputs, max_faulty, params) — shared with
# the trace round-trip property in tests/obs/test_replay.py.
_PROTOCOL_SHAPES = PROTOCOL_SHAPES

# Per-adversary victim sets sized to each regime's corruption budget.
def _adversary_params(adversary, max_faulty, num_parties):
    victims = tuple(range(num_parties - max_faulty, num_parties))
    if adversary == "grade_split":
        return {"victims": victims, "target": 0, "boost_value": 0}
    return {"victims": victims}


def _spec(protocol, adversary, seed=3, **overrides):
    inputs, max_faulty, params = _PROTOCOL_SHAPES[protocol]
    return TrialSpec(
        protocol=protocol,
        inputs=inputs,
        max_faulty=max_faulty,
        params=params,
        adversary=adversary,
        adversary_params=(
            _adversary_params(adversary, max_faulty, len(inputs))
            if adversary
            else ()
        ),
        seed=seed,
        session=f"wire-{protocol}-{adversary}",
        max_rounds=64,
        **overrides,
    )


def _assert_lossless(result, spec):
    """Round-trip one result through both wire layers and compare."""
    rebuilt = TrialSummary.pack(result).unpack(spec)
    assert rebuilt == result
    # Dict *iteration order* is not part of ==; downstream consumers
    # iterate these, so insertion order must survive too.
    assert list(rebuilt.outputs) == list(result.outputs)
    assert list(rebuilt.finish_rounds) == list(result.finish_rounds)
    (index, chunk_rebuilt), = ChunkSummary.pack([(7, result)]).unpack(
        [spec] * 8
    )
    assert index == 7 and chunk_rebuilt == result


class TestEveryRegisteredPair:
    def test_shapes_cover_every_stock_protocol(self):
        # The registry is global and other test modules register their
        # own protocols, so assert coverage, not exact equality: every
        # shape names a registered protocol, and every *stock* protocol
        # (registered by repro.engine.registry itself, no test_ prefix)
        # has a shape.
        registered = set(protocol_names())
        assert set(_PROTOCOL_SHAPES) <= registered
        stock = {
            name
            for name in registered
            if not name.startswith(("test_", "_test"))
        }
        assert stock == set(_PROTOCOL_SHAPES)

    def test_pack_unpack_roundtrips_every_pair(self):
        """Every protocol × adversary combo either runs and round-trips
        losslessly, or fails before transport is reached (in which case
        there is no payload whose fidelity could differ)."""
        survived = []
        for protocol in _PROTOCOL_SHAPES:
            for adversary in [None] + adversary_names():
                spec = _spec(protocol, adversary)
                try:
                    result = run_trial(spec)
                except Exception:
                    continue  # incompatible combo: fails pre-transport
                _assert_lossless(result, spec)
                survived.append((protocol, adversary))
        # The compatibility matrix must not silently collapse: at the
        # very least every protocol runs adversary-free.
        assert len(survived) >= len(protocol_names())

    def test_non_integer_outputs_use_fallback(self):
        spec = _spec("fm_probabilistic", None)
        result = run_trial(spec)
        summary = TrialSummary.pack(result)
        assert summary.outputs is not None  # FMDecision objects
        assert summary.unpack(spec) == result

    def test_integer_outputs_pack_into_blob(self):
        spec = _spec("ba_one_third", "straddle13")
        result = run_trial(spec)
        summary = TrialSummary.pack(result)
        assert summary.outputs is None  # bit decisions ride the blob
        assert summary.unpack(spec) == result


def _mixed_plan(trials=4):
    return TrialPlan.concat(
        "wire-mixed",
        [
            TrialPlan.monte_carlo(
                name="one_third",
                protocol="ba_one_third",
                inputs=(0, 0, 1, 1),
                max_faulty=1,
                trials=trials,
                params={"kappa": 2},
                adversary="straddle13",
                adversary_params={"victims": (3,)},
                seed=11,
            ),
            # Non-integer outputs: exercises the pickled fallback lane.
            TrialPlan.monte_carlo(
                name="lasvegas",
                protocol="fm_probabilistic",
                inputs=(0, 1, 0, 1),
                max_faulty=1,
                trials=trials,
                seed=13,
            ),
        ],
    )


class TestTransportEquivalence:
    def test_compact_equals_serial(self):
        plan = _mixed_plan(trials=12)  # three-trial chunks, one mixed
        serial = ParallelRunner(workers=1).run(plan)
        compact = ParallelRunner(workers=2).run(plan)
        assert compact.results == serial.results

    def test_streamed_compact_equals_serial(self):
        """``run_iter`` unpacks each chunk as it lands: the same pairs."""
        plan = _mixed_plan(trials=12)
        serial = ParallelRunner(workers=1).run(plan)
        streamed = dict(ParallelRunner(workers=2).run_iter(plan))
        assert [streamed[i] for i in range(len(plan))] == serial.results


class TestPayloadReduction:
    def test_signature_heavy_plan_shrinks_3x(self):
        """The compact chunk against pickled ``(index, ExecutionResult)``
        pairs, whose ``RunMetrics`` pickles as a tuple of int rows: 9 296
        against 2 828 bytes (the chunk bytes are pinned by
        :class:`TestWireBytesPin`)."""
        plan = TrialPlan.monte_carlo(
            name="payload",
            protocol="ba_one_third",
            inputs=(0, 0, 1, 1),
            max_faulty=1,
            trials=40,
            params={"kappa": 8},
            adversary="straddle13",
            adversary_params={"victims": (3,)},
            seed=8,
            collect_signatures=True,
        )
        results = ParallelRunner(workers=1).run(plan).results
        full, compact = measure_payload_bytes(
            list(enumerate(results)), chunk_size=10
        )
        assert full / compact >= 3.0, (full, compact)


class TestNonTerminatingFinishRounds:
    """Satellite regression: a party that never finishes is *absent*
    from ``finish_rounds`` — never mapped to ``None`` — and the compact
    path preserves that exactly."""

    def _stuck_spec(self):
        return TrialSpec(
            protocol="_test_stubborn",
            inputs=(1, 0, 1, 1),
            max_faulty=1,
            adversary="crash",
            adversary_params={"victims": (3,), "crash_round": 2},
            seed=5,
            session="wire-stuck",
            max_rounds=64,
        )

    def test_absent_parties_stay_absent(self):
        spec = self._stuck_spec()
        result = run_trial(spec)
        assert 3 in result.corrupted
        assert 3 not in result.finish_rounds
        assert 3 not in result.outputs
        assert None not in result.finish_rounds.values()
        assert sorted(result.finish_rounds) == [0, 1, 2]
        rebuilt = TrialSummary.pack(result).unpack(spec)
        assert rebuilt == result
        assert 3 not in rebuilt.finish_rounds
        assert None not in rebuilt.finish_rounds.values()


class _ReferenceTally:
    """Observer that re-tallies every delivery with the reference walk."""

    def __init__(self):
        self.totals = {}  # round → [honest, corrupt messages, signatures]

    def metrics(self, rounds):
        return RunMetrics(rounds, tuple(
            (index, *self.totals[index]) for index in sorted(self.totals)
        ))

    def on_corruptions(self, round_index, corrupted):
        pass

    def on_message(self, round_index, sender, recipient, payload, sender_honest):
        total = self.totals.setdefault(round_index, [0, 0, 0, 0])
        split = 0 if sender_honest else 1
        total[split] += 1
        total[2 + split] += count_signatures_reference(payload)

    def on_fault(self, round_index, kind, sender, recipient, detail=None):
        pass


class TestReferenceTallies:
    """Both delivery loops tally exactly what a per-message reference
    walk over the delivered messages tallies — the deduplicated cached
    walk is an optimization, never a different count."""

    @pytest.mark.parametrize(
        "faults",
        [
            {},
            {"faults": "lossy", "fault_params": {"rate": 0.0}},  # no-op plan
            {"faults": "degraded", "fault_params": {"rate": 0.2}},
        ],
        ids=["clean", "noop-plan", "lossy-delaying"],
    )
    def test_every_pair_matches_the_reference_walk(self, faults):
        survived = 0
        for protocol in _PROTOCOL_SHAPES:
            for adversary in [None] + adversary_names():
                spec = _spec(protocol, adversary, **faults)
                reference = _ReferenceTally()
                try:
                    result = run_trial(spec, observers=(reference,))
                except Exception:
                    continue  # incompatible combo, or broken by the faults
                assert reference.metrics(result.metrics.rounds) == result.metrics, (
                    protocol, adversary
                )
                survived += 1
        assert survived >= len(_PROTOCOL_SHAPES)


class TestTruncatedPayloads:
    """Corrupted blobs fail with ``TransportError``, never ``IndexError``.

    A half-written pipe or a bit-rotted cache hands ``unpack`` a prefix
    of a valid payload.  Every such prefix must surface as the one
    well-named transport failure — these tests cut real packed payloads
    at *every* byte boundary and assert the decoder never leaks a bare
    ``IndexError`` (the pre-hardening behavior for e.g.
    ``ChunkSummary(blob=b'\\x05\\x01')``).
    """

    def _packed_chunk(self):
        spec = _spec("ba_one_third", "straddle13")
        result = run_trial(spec)
        return ChunkSummary.pack([(0, result)]), spec

    def test_transport_error_is_a_value_error(self):
        from repro.engine import TransportError

        assert issubclass(TransportError, ValueError)

    def test_regression_bare_index_error(self):
        # The original report: a two-byte blob declaring five trials.
        from repro.engine import TransportError

        with pytest.raises(TransportError, match="truncated"):
            ChunkSummary(blob=b"\x05\x01").unpack([])

    def test_mid_varint_truncation(self):
        # A multi-byte varint cut after its continuation byte: the
        # decoder must notice the missing tail, not run off the end.
        from repro.engine import TransportError

        with pytest.raises(TransportError, match="truncated varint"):
            ChunkSummary(blob=b"\x80").unpack([])

    def test_every_trial_summary_prefix_raises_transport_error(self):
        from repro.engine import TransportError

        spec = _spec("ba_one_third", "straddle13")
        summary = TrialSummary.pack(run_trial(spec))
        assert summary.unpack(spec)  # the full blob still decodes
        for cut in range(len(summary.blob)):
            with pytest.raises(TransportError):
                TrialSummary(blob=summary.blob[:cut]).unpack(spec)

    def test_every_chunk_prefix_raises_transport_error(self):
        from repro.engine import TransportError

        chunk, spec = self._packed_chunk()
        assert chunk.unpack([spec])  # the full blob still decodes
        for cut in range(len(chunk.blob)):
            truncated = ChunkSummary(
                blob=chunk.blob[:cut], fallbacks=chunk.fallbacks
            )
            with pytest.raises(TransportError):
                truncated.unpack([spec])

    def test_a_corrupt_metrics_blob_names_its_plan_index(self):
        """A registry blob that cannot decode — cut short, or a byte that
        breaks a label's UTF-8 — is a ``TransportError`` naming the plan
        index carrying it and chaining the codec's own named error."""
        from repro.engine import TransportError, run_measured_trial
        from repro.obs import ObsFormatError

        spec = _spec("ba_one_third", "straddle13")
        result, registry = run_measured_trial(spec)
        chunk = ChunkSummary.pack([(7, result)], metrics={7: registry})
        ((index, blob),) = chunk.metrics
        assert chunk.unpack_metrics() == {7: registry}
        label = blob.index(b"messages")  # a counter name's first byte
        for corrupt in (blob[:-1], blob[:label] + b"\xff" + blob[label + 1:]):
            broken = chunk._replace(metrics=((index, corrupt),))
            with pytest.raises(TransportError, match="plan index 7") as raised:
                broken.unpack_metrics()
            assert isinstance(raised.value.__cause__, ObsFormatError)

    def test_a_plan_index_the_lookup_lacks_is_a_transport_error(self):
        from repro.engine import TransportError

        chunk, spec = self._packed_chunk()
        with pytest.raises(TransportError, match="plan index 0"):
            chunk.unpack([])

    def test_trailing_bytes_are_a_transport_error(self):
        from repro.engine import TransportError

        chunk, spec = self._packed_chunk()
        with pytest.raises(TransportError, match="chunk payload has 1 trailing"):
            chunk._replace(blob=chunk.blob + b"\x00").unpack([spec])
        summary = TrialSummary.pack(run_trial(spec))
        with pytest.raises(TransportError, match="trial summary has 1 trailing"):
            TrialSummary(blob=summary.blob + b"\x00").unpack(spec)

    def test_every_corruption_unpacks_or_raises_transport_error(self):
        """Every prefix and every single-byte corruption of a six-trial
        chunk — bytes 0x00, 0x7F, 0x80, 0xFF and one flipped bit at each
        offset — yields results or raises ``TransportError``."""
        from repro.engine import TransportError

        specs = [_spec("ba_one_third", "straddle13", seed=seed) for seed in range(6)]
        chunk = ChunkSummary.pack(
            [(index, run_trial(spec)) for index, spec in enumerate(specs)]
        )
        blob = chunk.blob
        corruptions = [blob[:cut] for cut in range(len(blob))]
        for at, byte in enumerate(blob):
            for value in (0x00, 0x7F, 0x80, 0xFF, byte ^ (1 << at % 8)):
                corruptions.append(blob[:at] + bytes([value]) + blob[at + 1:])
        for corrupt in corruptions:
            try:
                chunk._replace(blob=corrupt).unpack(specs)
            except TransportError:
                pass


def _pinned_plan():
    """A small plan that reaches every lane of the wire format: vector
    batches and object fallbacks, ``lossy`` and ``crash_recover`` faults,
    a round that keeps its row although every message was lost, and a
    protocol whose outputs ride the pickled fallback."""
    return TrialPlan.concat(
        "wire-pin",
        [
            TrialPlan.monte_carlo(
                name="vector", protocol="ba_one_third", inputs=(0, 0, 1, 1),
                max_faulty=1, trials=3, params={"kappa": 3},
                adversary="straddle13", adversary_params={"victims": (3,)},
                seed=21,
            ),
            TrialPlan.monte_carlo(
                name="lossy", protocol="ba_one_third", inputs=(0, 1, 1, 1),
                max_faulty=1, trials=3, params={"kappa": 2}, seed=22,
                faults="lossy", fault_params={"rate": 0.4},
            ),
            TrialPlan.monte_carlo(
                name="crash", protocol="ba_one_half", inputs=(0, 0, 1, 1, 1),
                max_faulty=2, trials=2, params={"kappa": 2}, seed=23,
                faults="crash_recover", fault_params={"crashes": [[4, 1, 3]]},
            ),
            TrialPlan.monte_carlo(
                name="all-lost", protocol="_test_lone_sender",
                inputs=(1, 0, 1, 1), max_faulty=1, trials=1, seed=25,
                faults="lossy", fault_params={"rate": 1.0},
            ),
            TrialPlan.monte_carlo(
                name="fallback", protocol="fm_probabilistic",
                inputs=(0, 1, 0, 1), max_faulty=1, trials=2, seed=24,
            ),
        ],
    )


class TestWireBytesPin:
    """The bytes a pool worker ships for a fixed plan are pinned across
    commits: the chunk blob, ``repr`` of its fallbacks and every packed
    registry, hashed in that order (perfbench's result digest recipe),
    on the object and the vector backend alike."""

    DIGEST = "039e14bb933cc37086600ec700107140ff70e9963d3f686a6a4248b012173001"

    @pytest.mark.parametrize("backend", ["object", "vector"])
    def test_chunk_summary_bytes_are_pinned(self, backend):
        import hashlib

        result = ParallelRunner(workers=1, backend=backend, metrics=True).run(
            _pinned_plan()
        )
        summary = ChunkSummary.pack(
            list(enumerate(result.results)),
            metrics=dict(enumerate(result.trial_metrics)),
        )
        assert summary.fallbacks  # the pickled lane is exercised
        digest = hashlib.sha256(summary.blob)
        digest.update(repr(summary.fallbacks).encode("utf-8"))
        for _, blob in summary.metrics:
            digest.update(blob)
        assert digest.hexdigest() == self.DIGEST
