"""Tests for execution metrics and signature counting."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.ideal import IdealSignatureScheme, IdealThresholdScheme
from repro.network.metrics import RunMetrics, count_signatures
from tests.oracles import count_signatures_reference


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
        metrics = RunMetrics(2, ((1, 1, 1, 2, 3), (2, 1, 0, 0, 0)))
        assert metrics.honest_messages == 2
        assert metrics.corrupt_messages == 1
        assert metrics.total_messages == 3
        assert metrics.honest_signatures == 2
        assert metrics.total_signatures == 5

    def test_per_round_breakdown(self):
        """The simulator's rows are one per round that sent, ascending."""
        from repro.engine import TrialSpec, run_trial

        result = run_trial(TrialSpec(
            protocol="ba_one_third", inputs=(0, 0, 1, 1), max_faulty=1,
            params={"kappa": 2},
        ))
        rows = result.metrics.rows
        assert [row[0] for row in rows] == list(range(1, result.metrics.rounds + 1))
        assert all(len(row) == 5 for row in rows)
        assert result.metrics.total_messages == sum(row[1] + row[2] for row in rows)

    def test_fields_cannot_be_assigned(self):
        """One ``RunMetrics`` is shared by every vector result stamped
        from a leaf, so no result can change what another reads."""
        rows = ((1, 4, 0, 8, 0), (2, 3, 1, 6, 2))
        shared = RunMetrics(2, rows)
        for name, value in (("rounds", 3), ("rows", ())):
            with pytest.raises(AttributeError):
                setattr(shared, name, value)
        assert shared == RunMetrics(2, ((1, 4, 0, 8, 0), (2, 3, 1, 6, 2)))
        assert shared.rows is rows

    def test_merge_accumulates_rounds_and_per_round(self):
        a = RunMetrics(3, ((1, 1, 0, 2, 0),))
        b = RunMetrics(2, ((1, 0, 1, 0, 1), (2, 1, 0, 0, 0)))
        merged = RunMetrics.merged([b, a])
        assert merged == RunMetrics(5, ((1, 1, 1, 2, 1), (2, 1, 0, 0, 0)))
        assert merged.total_signatures == 3

    def test_merged_of_empty_iterable_is_zero(self):
        merged = RunMetrics.merged([])
        assert merged == RunMetrics() == (0, ())
        assert merged.total_messages == 0


# Randomized rows for the properties below: up to a dozen rounds with
# arbitrary (possibly non-contiguous) ascending round indices and
# arbitrary tallies, plus a free-standing rounds total.
_count = st.integers(min_value=0, max_value=1 << 20)
_round_entry = st.tuples(
    st.integers(min_value=0, max_value=4096), _count, _count, _count, _count
)
_metrics = st.builds(
    lambda entries, rounds: RunMetrics(rounds, tuple(sorted(entries))),
    st.lists(_round_entry, max_size=12, unique_by=lambda entry: entry[0]),
    st.integers(min_value=0, max_value=4096),
)


def _wire(metrics: RunMetrics) -> RunMetrics:
    """``metrics`` through the pool's wire form and back."""
    from types import SimpleNamespace

    from repro.engine import TrialSummary
    from repro.network.simulator import ExecutionResult

    result = ExecutionResult(
        outputs={}, corrupted=set(), metrics=metrics, inputs={}, finish_rounds={}
    )
    return TrialSummary.pack(result).unpack(SimpleNamespace(inputs=())).metrics


def _fold(metrics_list) -> RunMetrics:
    """The specification ``merged`` must meet: add round by round."""
    rounds, totals = 0, {}
    for metrics in metrics_list:
        rounds += metrics.rounds
        for index, *counts in metrics.rows:
            total = totals.setdefault(index, [0, 0, 0, 0])
            for at, count in enumerate(counts):
                total[at] += count
    return RunMetrics(rounds, tuple((i, *totals[i]) for i in sorted(totals)))


class TestTallyRoundTrip:
    """``TrialSummary`` ships ``rows`` as varints and rebuilds them
    exactly, and merging commutes with the round trip — the properties
    the engine's compact result transport stands on."""

    @given(_metrics)
    def test_pack_unpack_is_identity(self, metrics):
        assert _wire(metrics) == metrics

    @given(_metrics, _metrics)
    def test_merge_after_roundtrip_equals_direct_merge(self, a, b):
        assert RunMetrics.merged(map(_wire, (a, b))) == RunMetrics.merged((a, b))

    def test_empty_metrics_roundtrip(self):
        assert _wire(RunMetrics()) == RunMetrics()

    def test_single_round_roundtrip(self):
        metrics = RunMetrics(1, ((1, 1, 0, 3, 0),))
        rebuilt = _wire(metrics)
        assert rebuilt == metrics
        assert rebuilt.total_signatures == 3

    def test_ragged_tallies_rejected(self):
        """A row cut short of its five counts is a ``TransportError``."""
        from repro.engine import TransportError, TrialSummary

        # rounds 1, no finishers, no corruptions, one row of four counts.
        ragged = TrialSummary(blob=bytes([1, 0, 0, 1, 1, 4, 0, 8]))
        with pytest.raises(TransportError):
            ragged.unpack(None)


class TestMerged:
    #: Few round indices, so drawn inputs overlap.
    _rows = st.lists(
        st.tuples(st.integers(0, 5), _count, _count, _count, _count),
        max_size=5, unique_by=lambda row: row[0],
    ).map(lambda rows: tuple(sorted(rows)))

    @given(
        st.lists(_rows, min_size=1, max_size=4),
        st.lists(
            st.tuples(
                st.integers(0, 3), st.sampled_from(["shared", "equal"]),
                st.integers(0, 64), st.integers(1, 4),
            ),
            max_size=12,
        ),
    )
    def test_merged_adds_each_shared_row_tuple_once_scaled(self, bases, picks):
        """``merged`` equals the round-by-round sum — value, ``rounds``
        and ascending round order — whether its inputs share one row
        tuple (a vector leaf's stamps, in runs or interleaved) or hold
        equal copies."""
        inputs = []
        for at, kind, rounds, repeat in picks:
            rows = bases[at % len(bases)]
            for _ in range(repeat):
                # "equal" rows are a distinct tuple object: nothing is shared.
                shared = rows if kind == "shared" else tuple(list(rows))
                inputs.append(RunMetrics(rounds, shared))
        for merged in (RunMetrics.merged(inputs), RunMetrics.merged(iter(inputs))):
            assert merged == _fold(inputs)
            assert [row[0] for row in merged.rows] == sorted(
                {row[0] for metrics in inputs for row in metrics.rows}
            )
