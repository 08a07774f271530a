"""The tag-memoization layer must be invisible: identical tags, no cross-talk.

Regression tests for the caching added with the experiment engine — in
particular the key-injectivity hazards of Python dict keys (``0 == False
== 0.0`` as keys, while :func:`repro.crypto.random_oracle.encode_term`
distinguishes them).
"""

import copy
import random

import pytest

from repro.crypto.ideal import (
    IdealSignatureScheme,
    IdealThresholdScheme,
    set_tag_memoization,
)
from repro.crypto import ideal
from repro.crypto.interfaces import ThresholdSignatureScheme
from repro.crypto.keys import CryptoSuite
from repro.crypto.random_oracle import encode_term, exact_key
from repro.engine.registry import build_protocol_factory
from repro.network.simulator import run_protocol
from tests.crypto.test_exact_key import _Level, _Name


@pytest.fixture
def plain():
    return IdealSignatureScheme(3, random.Random(7))


@pytest.fixture
def threshold():
    return IdealThresholdScheme(3, 2, random.Random(8))


class TestMemoTransparency:
    def test_memoized_tags_equal_unmemoized(self, plain, threshold):
        messages = [
            "m",
            0,
            False,
            (0, "vote", (1, 2)),
            b"raw",
            ("nested", ("deep", 3)),
        ]
        previous = set_tag_memoization(False)
        try:
            cold_plain = [plain.sign(1, m).tag for m in messages]
            cold_share = [threshold.sign_share(2, m).tag for m in messages]
            cold_combined = [threshold.combined_bytes(m) for m in messages]
        finally:
            set_tag_memoization(previous)
        warm_plain = [plain.sign(1, m).tag for m in messages]
        warm_share = [threshold.sign_share(2, m).tag for m in messages]
        warm_combined = [threshold.combined_bytes(m) for m in messages]
        assert warm_plain == cold_plain
        assert warm_share == cold_share
        assert warm_combined == cold_combined
        # The memo-free taggers on pre-encoded messages, however the
        # encoding is split into head + middle + tail: same bytes.
        held = len(threshold._tags), len(plain._tags)
        for cut in (0, 1, 3):
            split = [
                (e[:cut], e[cut:-1], e[max(cut, len(e) - 1):])
                for e in map(encode_term, messages)
            ]
            assert cold_combined == [
                threshold.fresh_combined_tagger(head, tail)(middle)
                for head, middle, tail in split
            ]
            assert cold_plain == [
                plain.fresh_tagger(1, head, tail)(middle)
                for head, middle, tail in split
            ]
        assert (len(threshold._tags), len(plain._tags)) == held

    def test_repeat_sign_hits_memo_and_stays_stable(self, plain):
        message = ("echo", 4, (0, 1))
        first = plain.sign(0, message)
        for _ in range(5):
            assert plain.sign(0, message) == first
            assert plain.verify(0, first, message)

    def test_toggle_returns_previous_setting(self):
        previous = set_tag_memoization(False)
        try:
            assert set_tag_memoization(True) is False
            assert set_tag_memoization(True) is True
        finally:
            set_tag_memoization(previous)


class TestKeyInjectivity:
    """Dict-key equality is coarser than encode_term — the memo key must
    not be."""

    def test_zero_false_zero_float_map_to_distinct_keys(self):
        assert exact_key(0) != exact_key(False)
        assert exact_key(0) != exact_key(0.0)
        assert exact_key((0,)) != exact_key((False,))
        assert exact_key(1) != exact_key(True)

    def test_signature_on_zero_does_not_verify_false(self, plain):
        # Warm the memo with the 0-message tag first, then probe False.
        sig_zero = plain.sign(0, 0)
        assert plain.verify(0, sig_zero, 0)
        assert not plain.verify(0, sig_zero, False)
        sig_false = plain.sign(0, False)
        assert sig_false.tag != sig_zero.tag

    def test_share_on_zero_does_not_verify_false(self, threshold):
        share = threshold.sign_share(1, 0)
        assert threshold.verify_share(1, share, 0)
        assert not threshold.verify_share(1, share, False)

    def test_non_term_message_still_fails_closed(self, plain):
        # Floats are not Terms: signing raises, and verification of a
        # cached-adjacent lookalike returns False rather than raising.
        sig = plain.sign(0, 0)
        assert not plain.verify(0, sig, 0.0)

    def test_str_and_bytes_stay_distinct(self, plain):
        assert plain.sign(0, "m").tag != plain.sign(0, b"m").tag


class TestPlainKeys:
    """A tuple of exactly-``str``/``int``/``bytes``/``None`` parts is its
    own memo key; the mirror keys everything else (whose injectivity
    ``tests/crypto/test_exact_key.py`` checks for both of its callers)."""

    def test_a_plain_message_is_its_own_key(self):
        for message in [("vote", "s", 3, None, b"x"), (), ("x", 1)]:
            assert exact_key(message) is message
        for message in [("vote", True), ("vote", ("s", 1)), (_Name("a"),),
                        (_Level.LOW,)]:
            assert exact_key(message) is not message


_MV_PKI = build_protocol_factory("mv_pki", {"kappa": 2})
_BA12 = build_protocol_factory("ba_one_half", {"kappa": 2})


def _every_scheme(ctx, bit):
    """``mv_pki`` (plain signatures and the coin), then ``ba_one_half``
    (the quorum scheme and the coin) on a subsession."""
    first = yield from _MV_PKI(ctx, bit)
    second = yield from _BA12(ctx.subsession("ba12"), bit)
    return first, second


class TestExecutionLifetime:
    """A run starts from empty memos: it neither pays for nor carries an
    earlier run's tags."""

    @staticmethod
    def _run(suite, session):
        return run_protocol(
            _every_scheme, [0, 1, 0, 0], 1, seed=5, session=session, crypto=suite
        )

    def _second_run_alone(self, suite):
        alone = copy.deepcopy(suite)  # same keys, empty memos
        self._run(suite, "first")
        assert self._run(suite, "second") == self._run(alone, "second")
        return alone

    def test_ideal_memos_hold_only_the_last_runs_tags(self):
        suite = CryptoSuite.ideal(4, 1, random.Random(40))
        alone = self._second_run_alone(suite)
        for name in ("plain", "quorum", "coin"):
            memo, reference = getattr(suite, name)._tags, getattr(alone, name)._tags
            assert len(reference) > 0
            assert len(memo) == len(reference)
            assert memo._records.keys() == reference._records.keys()
            # What the key fixes stays.
            assert memo._prefixes

    def test_threshold_rsa_holds_only_the_last_runs_verdicts(self):
        suite = CryptoSuite.real(4, 1, random.Random(2), bits=128)
        alone = self._second_run_alone(suite)
        for name in ("quorum", "coin"):
            reference = getattr(alone, name)._verified
            assert reference
            assert getattr(suite, name)._verified == reference

    def test_forget_drops_records_and_keeps_tags_equal(self, threshold):
        tag = threshold.sign_share(1, ("m", 1)).tag
        threshold.forget()
        assert len(threshold._tags) == 0
        assert not threshold._tags._records and not threshold._tags._by_id
        assert threshold.sign_share(1, ("m", 1)).tag == tag


class TestCombinedMemo:
    def test_combine_and_verify_roundtrip_with_memo(self, threshold):
        message = ("decide", 1)
        shares = [(i, threshold.sign_share(i, message)) for i in range(2)]
        combined = threshold.combine(shares, message)
        assert threshold.verify(combined, message)
        assert threshold.combine(shares, message) == combined
        assert not threshold.verify(combined, ("decide", 0))


def unmemoized(call):
    previous = set_tag_memoization(False)
    try:
        return call()
    finally:
        set_tag_memoization(previous)


class TestMemoBound:
    """The memo is bounded by tags held, whatever the tags-per-message ratio."""

    def test_held_tags_never_exceed_the_limit_and_a_clear_changes_no_tag(self):
        scheme = IdealThresholdScheme(3, 2, random.Random(8))
        memo = scheme._tags
        clears = 0
        index = 0
        # Three tags per message: a bound on records would hold 3x too many.
        while clears < 2:
            message = ("bound", index)
            index += 1
            for signer in range(3):
                before = len(memo)
                share = scheme.sign_share(signer, message)
                assert len(memo) <= ideal._MEMO_LIMIT
                clears += len(memo) < before
                assert share.tag == unmemoized(
                    lambda: scheme.sign_share(signer, message).tag
                )
        assert 3 * index > ideal._MEMO_LIMIT
        # Both layers went: a message signed before the clear resolves
        # afresh, to the same bytes.
        assert scheme.sign_share(0, ("bound", 0)).tag == unmemoized(
            lambda: scheme.sign_share(0, ("bound", 0)).tag
        )

    def test_len_counts_tags_not_messages(self, threshold):
        memo = threshold._tags
        assert len(memo) == 0
        threshold.sign_share(0, "m")
        threshold.sign_share(1, "m")
        threshold.combined_bytes("m")
        assert len(memo) == 3
        threshold.sign_share(1, "m")
        assert threshold.verify_share(0, threshold.sign_share(0, "m"), "m")
        assert len(memo) == 3

    def test_a_signer_that_is_no_term_cannot_grow_the_memo_unbounded(
        self, threshold, monkeypatch
    ):
        # 1.0 passes the range check, fails encoding: the message's
        # record is made, no tag ever joins it.
        monkeypatch.setattr(ideal, "_MEMO_LIMIT", 32)
        for index in range(200):
            with pytest.raises(TypeError):
                threshold.sign_share(1.0, ("float-signer", index))
            assert len(threshold._tags._records) <= 32
        assert len(threshold._tags) == 0


class TestIdentityLayer:
    def test_a_reused_id_never_returns_the_old_record(self, threshold):
        """A dead message's ``id()`` is handed to the next tuple of its
        size.  The identity layer keeps its messages alive, so that only
        happens once it has let go of the entry (it drops everything
        every 512 resolutions); either way the next message gets its own
        tag."""
        for index in range(600):
            message = ("id-reuse", index)
            tag = threshold.sign_share(1, message).tag
            del message
            other = ("reused-id", index)  # takes the freed slot if it can
            assert threshold.sign_share(1, other).tag != tag
            assert threshold.sign_share(1, other).tag == unmemoized(
                lambda: threshold.sign_share(1, other).tag
            )

    def test_equal_messages_in_distinct_objects_share_one_record(self, threshold):
        first, second = (tuple(["same", 1, ("x", 2)]) for _ in range(2))
        assert first is not second
        threshold.sign_share(0, first)
        held = len(threshold._tags)
        assert threshold.sign_share(0, second) == threshold.sign_share(0, first)
        assert len(threshold._tags) == held


def garbage_grid(scheme, foreign):
    """(label, indexed shares, message) cases for ``try_combine``."""
    message = ("grid", "session", 7)
    n, threshold = scheme.num_parties, scheme.threshold
    good = [(i, scheme.sign_share(i, message)) for i in range(n)]
    other_message = [(i, scheme.sign_share(i, ("grid", "session", 8))) for i in range(n)]
    foreign_shares = [(i, foreign.sign_share(i, message)) for i in range(n)]
    bool_share = (True, scheme.sign_share(True, message))
    return [
        ("all valid", good, message),
        ("exactly threshold", good[:threshold], message),
        ("threshold - 1", good[: threshold - 1], message),
        ("empty", [], message),
        ("duplicates of one signer", [good[0]] * n, message),
        ("duplicates then enough", [good[0], good[0]] + good[1:threshold], message),
        ("True minted for True", [bool_share] + good[2:], message),
        ("True minted for True, 1 present", [bool_share] + good[1:], message),
        ("True claims 1's share", [(True, good[1][1])] + good[2:], message),
        ("1 claims True's share", [(1, bool_share[1])] + good[2:], message),
        ("out of range", [(n, good[0][1]), (-1, good[1][1])] + good[2:], message),
        ("non-int signers", [("0", good[0][1]), (0.0, good[0][1]), (None, good[1][1])]
         + good[2:], message),
        ("wrong message", other_message, message),
        ("wrong message mixed", other_message[:2] + good[2:], message),
        ("foreign scheme", foreign_shares, message),
        ("foreign mixed", foreign_shares[:1] + good[1:], message),
        ("None shares", [(i, None) for i in range(n)], message),
        ("None mixed", [(0, None)] + good[1:], message),
        ("swapped signers", [(1, good[0][1]), (0, good[1][1])] + good[2:], message),
        ("garbage share types", [(0, b"tag"), (1, "share"), (2, 3)] + good[3:], message),
        ("unhashable message", good, ("grid", ["session"], 7)),
        ("non-Term message", good, ("grid", 7.5)),
        ("float message", good, 7.5),
        ("False minted for False",
         [(False, scheme.sign_share(False, message))] + good[1:], message),
        ("False claims 0's share", [(False, good[0][1])] + good[1:], message),
    ]


class TestSinglePassCombine:
    """``IdealThresholdScheme.try_combine`` is the inherited helper, faster."""

    @pytest.mark.parametrize("memo", [True, False])
    @pytest.mark.parametrize("n,threshold", [(5, 3), (4, 2), (3, 3), (2, 1)])
    def test_equals_the_generic_helper_over_a_garbage_grid(self, n, threshold, memo):
        scheme = IdealThresholdScheme(n, threshold, random.Random(21))
        foreign = IdealThresholdScheme(n, threshold, random.Random(22))
        previous = set_tag_memoization(memo)
        try:
            for label, indexed, message in garbage_grid(scheme, foreign):
                own = scheme.try_combine(indexed, message)
                generic = ThresholdSignatureScheme.try_combine(scheme, indexed, message)
                if generic is None:
                    assert own is None, label
                else:
                    assert scheme.signature_bytes(own) == scheme.signature_bytes(
                        generic
                    ), label
                    assert scheme.verify(own, message), label
        finally:
            set_tag_memoization(previous)

    def test_the_grid_reaches_both_outcomes(self):
        scheme = IdealThresholdScheme(5, 3, random.Random(21))
        foreign = IdealThresholdScheme(5, 3, random.Random(22))
        outcomes = {
            label: scheme.try_combine(indexed, message) is not None
            for label, indexed, message in garbage_grid(scheme, foreign)
        }
        assert outcomes["all valid"] and outcomes["exactly threshold"]
        assert outcomes["None mixed"] and outcomes["duplicates then enough"]
        assert not outcomes["threshold - 1"]
        assert not outcomes["duplicates of one signer"]
        assert not outcomes["unhashable message"]
        assert not outcomes["foreign scheme"]

    def test_accepts_any_iterable_of_pairs(self, threshold):
        message = ("iter", 1)
        pairs = ((i, threshold.sign_share(i, message)) for i in range(3))
        assert threshold.verify(threshold.try_combine(pairs, message), message)
