"""Tests for execution metrics and signature counting."""

import pickle
import random
from dataclasses import dataclass

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.ideal import IdealSignatureScheme, IdealThresholdScheme
from repro.network.metrics import (
    RoundStats,
    RunMetrics,
    count_signatures,
    count_signatures_reference,
)


class TestCountSignatures:
    def setup_method(self):
        self.plain = IdealSignatureScheme(3, random.Random(1))
        self.threshold = IdealThresholdScheme(3, 2, random.Random(2))

    def test_counts_plain_and_shares_and_combined(self):
        sig = self.plain.sign(0, "m")
        share = self.threshold.sign_share(0, "m")
        combined = self.threshold.combine(
            [(i, self.threshold.sign_share(i, "m")) for i in range(2)], "m"
        )
        assert count_signatures(sig) == 1
        assert count_signatures(share) == 1
        assert count_signatures(combined) == 1

    def test_counts_nested_structures(self):
        sig = self.plain.sign(0, "m")
        payload = {
            "a": [(0, sig), (1, sig)],
            "b": {"inner": (sig, sig)},
            "c": 123,
            "d": "text",
        }
        assert count_signatures(payload) == 4

    def test_plain_data_counts_zero(self):
        assert count_signatures(None) == 0
        assert count_signatures({"v": 1, "g": [2, 3]}) == 0
        assert count_signatures((1, "x", b"y")) == 0


class TestCachedMatchesReference:
    """The type-dispatch cache must agree with the reference walk exactly."""

    def setup_method(self):
        self.plain = IdealSignatureScheme(3, random.Random(1))
        self.threshold = IdealThresholdScheme(3, 2, random.Random(2))

    def _payloads(self):
        sig = self.plain.sign(0, "m")
        share = self.threshold.sign_share(1, "m")
        combined = self.threshold.combine(
            [(i, self.threshold.sign_share(i, "m")) for i in range(2)], "m"
        )
        return [
            None,
            0,
            True,
            "text",
            b"bytes",
            3.5,
            sig,
            share,
            combined,
            (sig, share),
            [sig, [share, [combined]]],
            {"vote": (1, sig), "echo": {"deep": [share]}},
            {"mixed": [0, None, "x", sig, (b"y", combined)]},
            [],
            {},
            (),
            [[], {}, ()],
        ]

    def test_cached_equals_reference_on_every_payload(self):
        for payload in self._payloads():
            assert count_signatures(payload) == count_signatures_reference(
                payload
            ), payload

    def test_unknown_container_types_count_zero(self):
        """Documented limitation: generators, iterators and custom
        non-dataclass classes holding signatures count 0 in BOTH
        implementations — simulator payloads are always built from the
        traversed containers (dict/list/tuple/set/frozenset/dataclass),
        so the walk never consumes or guesses at opaque objects."""
        sig = self.plain.sign(0, "m")

        class Opaque:
            def __init__(self, inner):
                self.inner = inner

        for payload in (Opaque(sig), (s for s in [sig]), iter([sig])):
            assert count_signatures_reference(payload) == 0
            assert count_signatures(payload) == 0

    def test_sets_and_foreign_dataclasses_are_traversed(self):
        """Sets/frozensets and non-crypto dataclasses are recognized
        containers: the walk recurses into them rather than counting them
        as signatures themselves."""
        sig = self.plain.sign(0, "m")

        @dataclass(frozen=True)
        class Envelope:
            payload: object
            label: str = "x"

        for payload, expected in (
            ({sig}, 1),
            (frozenset({sig}), 1),
            (Envelope(sig), 1),
            (Envelope((sig, {sig})), 2),
            (Envelope("no signatures here"), 0),
        ):
            assert count_signatures_reference(payload) == expected, payload
            assert count_signatures(payload) == expected, payload

    def test_cache_is_stable_across_repeats(self):
        sig = self.plain.sign(0, "m")
        payload = {"a": [(0, sig), (1, sig)], "b": {"inner": (sig, sig)}}
        first = count_signatures(payload)
        assert all(count_signatures(payload) == first for _ in range(5))
        assert first == count_signatures_reference(payload) == 4


class TestRunMetrics:
    def test_honest_corrupt_split(self):
        metrics = RunMetrics()
        metrics.record(1, honest=True, signature_count=2)
        metrics.record(1, honest=False, signature_count=3)
        metrics.record(2, honest=True, signature_count=0)
        assert metrics.honest_messages == 2
        assert metrics.corrupt_messages == 1
        assert metrics.total_messages == 3
        assert metrics.honest_signatures == 2
        assert metrics.total_signatures == 5

    def test_per_round_breakdown(self):
        metrics = RunMetrics()
        metrics.record(1, True, 1)
        metrics.record(2, True, 1)
        metrics.record(2, True, 1)
        assert metrics.per_round[1].honest_messages == 1
        assert metrics.per_round[2].honest_messages == 2

    def test_round_stats_returns_live_tally(self):
        metrics = RunMetrics()
        stats = metrics.round_stats(3)
        stats.honest_messages += 2
        stats.honest_signatures += 5
        assert metrics.per_round[3].honest_messages == 2
        assert metrics.honest_signatures == 5
        assert metrics.round_stats(3) is stats

    def test_merge_accumulates_rounds_and_per_round(self):
        a = RunMetrics()
        a.record(1, True, 2)
        a.rounds = 3
        b = RunMetrics()
        b.record(1, False, 1)
        b.record(2, True, 0)
        b.rounds = 2
        a.merge(b)
        assert a.rounds == 5
        assert a.per_round[1].honest_messages == 1
        assert a.per_round[1].corrupt_messages == 1
        assert a.per_round[2].honest_messages == 1
        assert a.total_signatures == 3

    def test_merged_of_empty_iterable_is_zero(self):
        merged = RunMetrics.merged([])
        assert merged.rounds == 0
        assert merged.total_messages == 0


# Randomized metrics shapes for the tally round-trip properties: up to a
# dozen rounds with arbitrary (possibly non-contiguous, unsorted) round
# indices and arbitrary tallies, plus a free-standing rounds total.
_count = st.integers(min_value=0, max_value=1 << 20)
_round_entry = st.tuples(
    st.integers(min_value=0, max_value=4096), _count, _count, _count, _count
)
_metrics_shape = st.tuples(
    st.lists(_round_entry, max_size=12, unique_by=lambda entry: entry[0]),
    st.integers(min_value=0, max_value=4096),
)


def _build(shape) -> RunMetrics:
    entries, rounds = shape
    metrics = RunMetrics(rounds=rounds)
    for round_index, hm, cm, hs, cs in entries:
        metrics.per_round[round_index] = RoundStats(
            honest_messages=hm,
            corrupt_messages=cm,
            honest_signatures=hs,
            corrupt_signatures=cs,
        )
    return metrics


class TestTallyRoundTrip:
    """``from_tallies(rounds, as_tallies())`` is the exact inverse, and
    merging commutes with the round trip — the properties the engine's
    compact result transport stands on."""

    @given(_metrics_shape)
    def test_pack_unpack_is_identity(self, shape):
        metrics = _build(shape)
        rebuilt = RunMetrics.from_tallies(metrics.rounds, metrics.as_tallies())
        assert rebuilt == metrics
        # Equality ignores dict order; transport fidelity must not.
        assert list(rebuilt.per_round) == list(metrics.per_round)

    @given(_metrics_shape, _metrics_shape)
    def test_merge_after_roundtrip_equals_direct_merge(self, a_shape, b_shape):
        direct = _build(a_shape)
        direct.merge(_build(b_shape))
        via_wire = RunMetrics.merged(
            RunMetrics.from_tallies(m.rounds, m.as_tallies())
            for m in (_build(a_shape), _build(b_shape))
        )
        assert via_wire == direct

    def test_empty_metrics_roundtrip(self):
        empty = RunMetrics()
        assert RunMetrics.from_tallies(empty.rounds, empty.as_tallies()) == empty
        assert empty.as_tallies() == ()

    def test_single_round_roundtrip(self):
        metrics = RunMetrics()
        metrics.record(1, honest=True, signature_count=3)
        metrics.rounds = 1
        rebuilt = RunMetrics.from_tallies(metrics.rounds, metrics.as_tallies())
        assert rebuilt == metrics
        assert rebuilt.total_signatures == 3

    def test_ragged_tallies_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="multiple of 5"):
            RunMetrics.from_tallies(1, (1, 2, 3))


def _view(shape) -> RunMetrics:
    """``_build(shape)``, row-held: stamped from a frozen row tuple."""
    entries, rounds = shape
    return RunMetrics.from_round_tallies(rounds, tuple(entries))


class TestRowsOrDict:
    """``from_round_tallies`` keeps its rows until ``per_round`` is first
    touched; nothing observable tells the two states apart, and no two
    objects stamped from one tuple share mutable state."""

    @given(_metrics_shape)
    def test_view_equals_the_eagerly_built_object(self, shape):
        eager = _build(shape)
        assert _view(shape) == eager and eager == _view(shape)
        assert repr(_view(shape)) == repr(eager)
        assert pickle.dumps(_view(shape)) == pickle.dumps(eager)
        assert pickle.loads(pickle.dumps(_view(shape))) == eager
        assert _view(shape).as_tallies() == eager.as_tallies()
        assert _view(shape).round_tallies() == eager.round_tallies()
        assert list(_view(shape).per_round) == list(eager.per_round)
        for name in (
            "honest_messages", "corrupt_messages", "total_messages",
            "honest_signatures", "total_signatures",
        ):
            assert getattr(_view(shape), name) == getattr(eager, name)
        assert _view(shape) != RunMetrics(rounds=eager.rounds + 1)

    def test_rows_are_held_as_given_until_per_round_is_touched(self):
        rows = ((1, 4, 0, 8, 0), (2, 3, 1, 6, 2))
        metrics = RunMetrics.from_round_tallies(2, rows)
        assert metrics.round_tallies() is rows  # reading copies nothing
        assert metrics.as_tallies() == (1, 4, 0, 8, 0, 2, 3, 1, 6, 2)
        assert metrics.round_tallies() is rows
        metrics.per_round  # first touch: rows become the dict ...
        assert metrics.round_tallies() == rows
        assert metrics.round_tallies() is not rows  # ... and are dropped
        # Any iterable of rows is accepted; a non-tuple is frozen once.
        assert RunMetrics.from_round_tallies(2, iter(rows)) == metrics

    def test_two_results_stamped_from_one_path_stay_independent(self):
        rows = ((1, 4, 0, 8, 0), (2, 3, 1, 6, 2))
        first = RunMetrics.from_round_tallies(2, rows)
        second = RunMetrics.from_round_tallies(2, rows)
        first.round_stats(2).honest_messages += 1
        first.record(3, honest=False, signature_count=5)
        assert first.as_tallies() == (1, 4, 0, 8, 0, 2, 4, 1, 6, 2, 3, 0, 1, 0, 5)
        assert second.as_tallies() == (1, 4, 0, 8, 0, 2, 3, 1, 6, 2)
        assert second == RunMetrics.from_round_tallies(2, rows) != first
        assert rows == ((1, 4, 0, 8, 0), (2, 3, 1, 6, 2))

    @given(st.lists(st.tuples(_metrics_shape, st.booleans()), max_size=5))
    def test_merged_over_mixed_row_held_and_dict_held_inputs(self, shapes):
        mixed = [_view(shape) if held else _build(shape) for shape, held in shapes]
        merged = RunMetrics.merged(mixed)
        assert merged == RunMetrics.merged(_build(shape) for shape, _ in shapes)
        # Merging reads; it must not change (or materialise) its inputs.
        for metrics, (shape, held) in zip(mixed, shapes):
            assert metrics == _build(shape)
        # A row-held aggregate target materialises and accumulates.
        for shape, _ in shapes[:1]:
            target = _view(shape)
            target.merge(_view(shape))
            doubled = _build(shape)
            doubled.merge(_build(shape))
            assert target == doubled

    #: Few round indices, so drawn inputs overlap in differing orders.
    _rows = st.lists(
        st.tuples(st.integers(0, 5), _count, _count, _count, _count),
        max_size=5, unique_by=lambda row: row[0],
    ).map(tuple)

    @given(
        st.lists(_rows, min_size=1, max_size=4),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["shared", "equal", "touched", "dict"]),
                st.integers(0, 64),
            ),
            max_size=12,
        ),
    )
    def test_merged_adds_each_shared_row_tuple_once_scaled(self, bases, picks):
        """``merged`` equals the left fold of ``merge`` — value, ``rounds``
        and first-seen round order — however its inputs hold their rows."""
        inputs = []
        for at, kind, rounds in picks:
            rows = bases[at % len(bases)]
            if kind == "dict":
                inputs.append(RunMetrics.from_tallies(rounds, sum(rows, ())))
                continue
            # "equal" rows are a distinct tuple object: nothing is shared.
            metrics = RunMetrics.from_round_tallies(
                rounds, rows if kind != "equal" else tuple(list(rows))
            )
            if kind == "touched":
                metrics.per_round
            inputs.append(metrics)
        before = [(metrics.rounds, metrics.as_tallies()) for metrics in inputs]
        fold = RunMetrics()
        for metrics in inputs:
            fold.merge(metrics)
        for merged in (RunMetrics.merged(inputs), RunMetrics.merged(iter(inputs))):
            assert merged == fold
            assert merged.rounds == fold.rounds
            assert merged.as_tallies() == fold.as_tallies()
            assert list(merged.per_round) == list(fold.per_round)
        assert [(m.rounds, m.as_tallies()) for m in inputs] == before

