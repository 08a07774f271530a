"""The object path's round, pinned: the signature screen, the delivery
tallies, the count of honest parties still running, and what one round
and one quorum cost in walks and memo lookups."""

import random
from dataclasses import dataclass
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.base import Adversary, RoundDecision
from repro.crypto import ideal
from repro.crypto.ideal import (
    IdealSignatureScheme,
    IdealThresholdScheme,
    set_tag_memoization,
)
from repro.crypto.keys import CryptoSuite
from repro.network import FaultPlan, SyncSimulator
from repro.network import simulator as simulator_module
from repro.network.metrics import count_signatures
from tests.crypto.test_tag_memo import garbage_grid
from tests.oracles import count_signatures_reference


class _Level(IntEnum):
    LOW = 0
    HIGH = 1


class _Name(str):
    pass


@dataclass(frozen=True)
class _Box:
    """A non-crypto dataclass: the walk recurses into its field."""

    item: object


_PLAIN = IdealSignatureScheme(3, random.Random(1))
_QUORUM = IdealThresholdScheme(3, 2, random.Random(2))
_CRYPTO = (
    _PLAIN.sign(0, "m"),
    _QUORUM.sign_share(1, "m"),
    _QUORUM.combine([(i, _QUORUM.sign_share(i, "m")) for i in range(2)], "m"),
)

_HASHABLE = st.one_of(
    st.integers(-3, 300),
    st.text(max_size=2),
    st.binary(max_size=2),
    st.booleans(),
    st.floats(allow_nan=False, width=16),
    st.none(),
    st.sampled_from(list(_Level)),
    st.builds(_Name, st.text(max_size=2)),
    st.sampled_from(_CRYPTO),
)
_PAYLOADS = st.recursive(
    _HASHABLE,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_HASHABLE, children, max_size=4),
        st.frozensets(_HASHABLE, max_size=4),
        st.sets(_HASHABLE, max_size=4),
        st.builds(_Box, children),
    ),
    max_leaves=12,
)


class TestScalarScreen:
    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    def test_the_screened_walk_equals_the_reference(self, payload):
        assert count_signatures(payload) == count_signatures_reference(payload)


# ── delivery tallies ─────────────────────────────────────────────────────

_ROUNDS = 3


def _signed(tag):
    return {"tag": tag, "shares": (_CRYPTO[1], _CRYPTO[1]), "sig": _CRYPTO[0]}


def _broadcaster(ctx, value):
    payload = _signed(ctx.party_id)
    for _ in range(_ROUNDS):
        yield ctx.broadcast(payload)
    return value


class _ReplayingAdversary(Adversary):
    """Corrupts party 3 from the start and sends ``outbox`` for it."""

    def __init__(self, outbox):
        self.outbox = outbox

    def initial_corruptions(self):
        return {3}

    def decide(self, view):
        return RoundDecision(replace={3: dict(self.outbox)})


class _Recorder:
    """Per-message reference tallies, from the observer seam."""

    def __init__(self):
        self.rows = {}

    def on_corruptions(self, round_index, corrupted):
        pass

    def on_fault(self, round_index, kind, sender, recipient, detail=None):
        pass

    def on_message(self, round_index, sender, recipient, payload, sender_honest):
        row = self.rows.setdefault(round_index, [0, 0, 0, 0])
        row[0 if sender_honest else 1] += 1
        row[2 if sender_honest else 3] += count_signatures_reference(payload)


_A, _B = _signed("a"), (_CRYPTO[2], [_CRYPTO[0]])
_OUTBOXES = {
    "alternating": {0: _A, 1: _B, 2: _A, 3: _B},
    "one object": dict.fromkeys(range(4), _A),
}


class TestDeliveryTallies:
    @pytest.mark.parametrize(
        "faults", [None, FaultPlan(), FaultPlan(loss=0.3, delay=0.3, max_delay=2)],
        ids=["clean", "no-op plan", "lossy"],
    )
    @pytest.mark.parametrize("outbox", sorted(_OUTBOXES))
    def test_rows_equal_a_per_message_walk(self, outbox, faults):
        recorder = _Recorder()
        simulator = SyncSimulator(
            4, 1, CryptoSuite.ideal(4, 1, random.Random(5)),
            adversary=_ReplayingAdversary(_OUTBOXES[outbox]), seed=9,
            observers=[recorder], faults=faults,
        )
        rows = simulator.run(_broadcaster, [0] * 4).metrics.rows
        tallied = {row[0]: list(row[1:]) for row in rows if any(row[1:])}
        assert tallied == recorder.rows
        # Party 3 sent something every round, so every round has corrupt
        # signatures unless the fault layer dropped them all.
        if faults is None:
            assert all(row[4] > 0 for row in rows)


# ── the unfinished count ─────────────────────────────────────────────────

#: Rounds each party's program runs before it returns its id.
_LENGTHS = (1, 2, 4, 5)


def _staggered(ctx, value):
    for round_index in range(1, _LENGTHS[ctx.party_id] + 1):
        yield ctx.broadcast(round_index)
        if ctx.party_id == value == round_index:  # the breaking shadow
            raise RuntimeError("shadow program breaks")
    return ctx.party_id


class _CorruptAt(Adversary):
    """Corrupts ``pid`` mid-round at round ``at``, dropping its message."""

    def __init__(self, pid, at):
        self.pid, self.at = pid, at

    def decide(self, view):
        if view.round_index == self.at:
            return RoundDecision(corrupt={self.pid: None})
        return RoundDecision()


class TestUnfinishedCount:
    """Rounds, finish rounds and outputs equal the per-round scan's: the
    run ends once every party never corrupted has returned."""

    def _run(self, adversary, inputs=(0, 0, 0, 0)):
        simulator = SyncSimulator(
            4, 1, CryptoSuite.ideal(4, 1, random.Random(3)), adversary=adversary,
            seed=4,
        )
        result = simulator.run(_staggered, list(inputs))
        return result.metrics.rounds, result.finish_rounds, result.outputs, result.corrupted

    def test_corrupting_a_finished_party_leaves_the_count(self):
        rounds, finished, outputs, corrupted = self._run(_CorruptAt(0, 3))
        assert corrupted == {0}
        assert rounds == 5
        assert finished == {0: 1, 1: 2, 2: 4, 3: 5}
        assert outputs == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_corrupting_a_running_party_mid_round_ends_the_run_sooner(self):
        rounds, finished, outputs, corrupted = self._run(_CorruptAt(3, 2))
        assert corrupted == {3}
        assert rounds == 4
        assert finished == {0: 1, 1: 2, 2: 4}
        assert outputs == {0: 0, 1: 1, 2: 2}

    def test_a_corrupted_shadow_that_raises_goes_silent(self):
        # Party 3's program raises at round 3, after its corruption.
        rounds, finished, outputs, corrupted = self._run(
            _CorruptAt(3, 2), inputs=(0, 0, 0, 3)
        )
        assert corrupted == {3}
        assert rounds == 4
        assert finished == {0: 1, 1: 2, 2: 4}
        assert outputs == {0: 0, 1: 1, 2: 2}

    def test_an_honest_program_that_raises_still_raises(self):
        with pytest.raises(RuntimeError, match="shadow program breaks"):
            self._run(_CorruptAt(3, 5), inputs=(0, 0, 0, 3))


# ── what a round and a quorum cost ───────────────────────────────────────


class TestRoundCounts:
    """Pinned by count rather than by clock."""

    @pytest.mark.parametrize("faults", [None, FaultPlan()], ids=["clean", "no-op plan"])
    def test_a_broadcast_round_walks_each_payload_once(self, monkeypatch, faults):
        walks = []
        monkeypatch.setattr(
            simulator_module, "count_signatures",
            lambda payload: (walks.append(payload), count_signatures(payload))[1],
        )
        simulator = SyncSimulator(
            4, 1, CryptoSuite.ideal(4, 1, random.Random(5)), seed=2, faults=faults,
        )
        result = simulator.run(_broadcaster, [0] * 4)
        assert len(walks) == 4 * _ROUNDS
        assert result.metrics.total_signatures == 4 * _ROUNDS * 4 * 3

    @pytest.mark.parametrize("memo", [True, False])
    def test_a_quorum_resolves_its_message_once(self, monkeypatch, memo):
        scheme = IdealThresholdScheme(7, 3, random.Random(6))
        message = ("quorum", "session", 1)
        shares = [(signer, scheme.sign_share(signer, message)) for signer in range(7)]
        resolved, recorded, verified = [], [], []
        memo_class = ideal._TagMemo
        for name, calls in (("resolve", resolved), ("_record", recorded)):
            original = getattr(memo_class, name)
            monkeypatch.setattr(
                memo_class, name,
                lambda memo, term, _o=original, _c=calls: (_c.append(term), _o(memo, term))[1],
            )
        verify = IdealThresholdScheme.verify_share
        monkeypatch.setattr(
            IdealThresholdScheme, "verify_share",
            lambda *args: (verified.append(args), verify(*args))[1],
        )
        previous = set_tag_memoization(memo)
        try:
            signature = scheme.try_combine(shares, message)
        finally:
            set_tag_memoization(previous)
        assert signature is not None
        assert (len(resolved), len(recorded), len(verified)) == (1, int(memo), 0)


class TestCombineAgainstPerShareReference:
    """``try_combine`` equals a per-share ``verify_share`` reference: the
    quorum forms exactly when ``threshold`` distinct in-range int signers
    verify, and then reads the unique combined signature."""

    @staticmethod
    def reference(scheme, indexed, message):
        valid = set()
        for signer, share in indexed:
            if not isinstance(signer, int) or not 0 <= signer < scheme.num_parties:
                continue
            if signer not in valid and scheme.verify_share(signer, share, message):
                valid.add(signer)
        if len(valid) < scheme.threshold:
            return None
        return scheme.combined_bytes(message)

    @pytest.mark.parametrize("memo", [True, False])
    @pytest.mark.parametrize("n,threshold", [(5, 3), (4, 2), (3, 3), (2, 1)])
    def test_over_the_garbage_grid(self, n, threshold, memo):
        scheme = IdealThresholdScheme(n, threshold, random.Random(21))
        foreign = IdealThresholdScheme(n, threshold, random.Random(22))
        previous = set_tag_memoization(memo)
        try:
            for label, indexed, message in garbage_grid(scheme, foreign):
                expected = self.reference(scheme, indexed, message)
                got = scheme.try_combine(indexed, message)
                if expected is None:
                    assert got is None, label
                else:
                    assert scheme.signature_bytes(got) == expected, label
        finally:
            set_tag_memoization(previous)

    def test_a_clear_mid_quorum_changes_no_result(self, monkeypatch):
        """With a tiny bound the memo clears while a quorum holds its
        record; the quorum's tags and verdict stay the same."""
        monkeypatch.setattr(ideal, "_MEMO_LIMIT", 2)
        scheme = IdealThresholdScheme(5, 3, random.Random(21))
        foreign = IdealThresholdScheme(5, 3, random.Random(22))
        for label, indexed, message in garbage_grid(scheme, foreign):
            scheme.forget()
            expected = self.reference(scheme, indexed, message)
            scheme.forget()
            got = scheme.try_combine(indexed, message)
            assert (got is None) == (expected is None), label
            if got is not None:
                assert scheme.signature_bytes(got) == expected, label
            assert len(scheme._tags) <= ideal._MEMO_LIMIT, label
