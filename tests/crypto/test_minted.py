"""One share and signature object per (message, signer) per run.

The ideal schemes keep what they mint in the tag memo's record of the
message, and a check accepts an object that *is* the minted one without
recomputing its tag.  Everything else — an equal copy, a forged tag, a
wrong, ``bool`` or out-of-range signer, a share minted before
``forget()`` or by another scheme — takes the tag comparison.  The
properties here hold every verdict and every byte to the memo-off
reference (``set_tag_memoization(False)``), which mints nothing.
"""

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ideal
from repro.crypto.ideal import (
    IdealSignatureScheme,
    IdealThresholdScheme,
    _IdealShare,
    _IdealSignature,
    set_tag_memoization,
)
from repro.crypto.interfaces import CryptoError, ThresholdSignatureScheme
from repro.crypto.random_oracle import exact_key
from repro.engine.registry import build_protocol_factory
from repro.network.simulator import run_protocol
from tests.crypto.test_tag_memo import unmemoized


def _outcome(call):
    """``call()``'s result as comparable data: bytes, a verdict, or the
    exception type it raised."""
    try:
        result = call()
    except (CryptoError, TypeError) as exc:
        return type(exc)
    if isinstance(result, (_IdealShare, _IdealSignature)):
        return (type(result), result.tag)
    return result


def _minted(scheme, key, message):
    """What ``scheme``'s memo keeps under ``key`` for ``message``."""
    held = scheme._tags.resolve(message)[1]
    return held.get(key) if held else None


def _both(call):
    """``call``'s outcome with the memo on, then off."""
    on = _outcome(call)
    return on, unmemoized(lambda: _outcome(call))


class TestOnePerRun:
    def test_a_share_is_minted_once_per_message_and_signer(self):
        scheme = IdealThresholdScheme(4, 2, random.Random(3))
        share = scheme.sign_share(1, ("m", 1))
        assert scheme.sign_share(1, ("m", 1)) is share
        # An equal message in a distinct object finds the same record.
        assert scheme.sign_share(1, tuple(["m", 1])) is share
        assert scheme.sign_share(2, ("m", 1)) is not share
        assert scheme.sign_share(1, ("m", 2)) is not share
        assert _minted(scheme, 1, ("m", 1)) is share

    def test_forget_starts_a_fresh_run_and_the_old_object_takes_the_tag_path(self):
        scheme = IdealThresholdScheme(4, 2, random.Random(3))
        message = ("m", 1)
        old = scheme.sign_share(1, message)
        scheme.forget()
        new = scheme.sign_share(1, message)
        assert new is not old and new == old
        assert _minted(scheme, 1, message) is not old
        assert scheme.verify_share(1, old, message)
        assert scheme.sign_share(1, message) is new

    def test_a_combined_signature_is_minted_once_per_message(self):
        scheme = IdealThresholdScheme(4, 2, random.Random(3))
        message = ("decide", 0)
        shares = [(i, scheme.sign_share(i, message)) for i in range(4)]
        combined = scheme.try_combine(shares, message)
        assert scheme.combine(shares[2:], message) is combined
        assert scheme.try_combine(shares[1:3], message) is combined
        assert scheme.verify(combined, message)
        assert _minted(scheme, None, message) is combined
        scheme.forget()
        again = scheme.try_combine(shares, message)
        assert again is not combined and again == combined

    def test_plain_signatures_are_minted_once_per_message_and_signer(self):
        scheme = IdealSignatureScheme(3, random.Random(4))
        signature = scheme.sign(2, "m")
        assert scheme.sign(2, "m") is signature
        assert scheme.sign(1, "m") is not signature
        assert scheme.verify(2, signature, "m")
        assert not scheme.verify(1, signature, "m")

    def test_bool_signers_and_the_memo_off_mint_afresh(self):
        scheme = IdealThresholdScheme(3, 2, random.Random(5))
        first = scheme.sign_share(True, "m")
        assert scheme.sign_share(True, "m") is not first
        assert scheme.sign_share(True, "m") == first
        assert first != scheme.sign_share(1, "m")  # True and 1 sign apart
        assert _minted(scheme, True, "m") is not first
        made = unmemoized(lambda: [scheme.sign_share(0, "x") for _ in range(2)])
        assert made[0] is not made[1] and made[0] == made[1]

    def test_a_run_makes_one_object_per_message_and_signer(self, monkeypatch):
        made = collections.Counter()
        mint = ideal._TagMemo.mint

        def counting(self, make, domain, signer, message, record=None):
            def counted(who, tag):
                made[(id(self), domain, who.__class__, who, exact_key(message))] += 1
                return make(who, tag)

            return mint(self, counted, domain, signer, message, record)

        monkeypatch.setattr(ideal._TagMemo, "mint", counting)
        factory = build_protocol_factory("ba_one_half", {"kappa": 2})
        run_protocol(factory, [0, 1, 0, 1, 1], 2, seed=3, session="one")
        assert made and max(made.values()) == 1
        # Every party releases its one share of each coin.
        coins = collections.Counter(
            key[4] for key in made if key[1] == "share" and key[4][0] == "coin-flip"
        )
        assert coins and set(coins.values()) == {5}


_SHARE_KINDS = (
    "minted", "copy", "forged", "wrong signer", "bool signer", "bool claims",
    "out of range", "before forget", "foreign", "other message", "garbage",
)


def _share(kind, i, scheme, foreign, message, stale):
    """One drawn ``(signer, share)`` pair of the named kind."""
    n = scheme.num_parties
    share = scheme.sign_share(i, message)
    if kind == "minted":
        return i, share
    if kind == "copy":
        return i, _IdealShare(share.signer, share.tag)
    if kind == "forged":
        return i, _IdealShare(i, bytes([share.tag[0] ^ 1]) + share.tag[1:])
    if kind == "wrong signer":
        return (i + 1) % n, share
    if kind == "bool signer":
        return bool(i % 2), scheme.sign_share(bool(i % 2), message)
    if kind == "bool claims":
        return bool(i % 2), scheme.sign_share(i % 2, message)
    if kind == "out of range":
        return (n + i if i % 2 else -1 - i), share
    if kind == "before forget":
        return i, stale[i]
    if kind == "foreign":
        return i, foreign.sign_share(i, message)
    if kind == "other message":
        return i, scheme.sign_share(i, message + ("other",))
    return i, (None, b"tag", share.tag, [share])[i % 4]


@st.composite
def share_mixes(draw):
    n = draw(st.integers(2, 6))
    threshold = draw(st.integers(1, n))
    picks = draw(st.lists(
        st.tuples(st.sampled_from(_SHARE_KINDS), st.integers(0, n - 1)), max_size=2 * n,
    ))
    return n, threshold, picks, draw(st.integers(0, 2 ** 16))


class TestIdentityEqualsTheReference:
    @given(share_mixes())
    @settings(max_examples=60, deadline=None)
    def test_threshold_checks_equal_the_memo_off_reference(self, mix):
        n, threshold, picks, seed = mix
        scheme = IdealThresholdScheme(n, threshold, random.Random(seed))
        foreign = IdealThresholdScheme(n, threshold, random.Random(seed + 1))
        message = ("mix", seed)
        stale = [scheme.sign_share(i, message) for i in range(n)]
        scheme.forget()
        pairs = [_share(kind, i, scheme, foreign, message, stale) for kind, i in picks]

        for signer, share in pairs:
            on, off = _both(lambda: scheme.verify_share(signer, share, message))
            assert on is off, (signer, share)
        on, off = _both(lambda: scheme.try_combine(pairs, message))
        assert on == off
        assert on == _outcome(
            lambda: ThresholdSignatureScheme.try_combine(scheme, pairs, message)
        )
        on, off = _both(lambda: scheme.combine(pairs, message))
        assert on == off
        on, off = _both(lambda: scheme.sign_share(0, message))
        assert on == off

        combined = scheme.try_combine(
            [(i, scheme.sign_share(i, message)) for i in range(n)], message
        )
        assert _minted(scheme, None, message) is combined
        candidates = [
            combined,
            _IdealSignature(combined.tag),
            _IdealSignature(bytes(len(combined.tag))),
            foreign.combine([(i, foreign.sign_share(i, message)) for i in range(n)], message),
            stale[0],
            None,
        ]
        for candidate in candidates:
            for target in (message, message + ("other",)):
                on, off = _both(lambda: scheme.verify(candidate, target))
                assert on is off, (candidate, target)
        assert _both(lambda: scheme.combined_bytes(message)) == (
            combined.tag, combined.tag
        )

    @given(share_mixes())
    @settings(max_examples=40, deadline=None)
    def test_plain_checks_equal_the_memo_off_reference(self, mix):
        n, _, picks, seed = mix
        scheme = IdealSignatureScheme(n, random.Random(seed))
        foreign = IdealSignatureScheme(n, random.Random(seed + 1))
        message = ("plain", seed)
        stale = [scheme.sign(i, message) for i in range(n)]
        scheme.forget()
        for kind, i in picks:
            signature = scheme.sign(i, message)
            signer, candidate = {
                "copy": (i, _IdealSignature(signature.tag)),
                "forged": (i, _IdealSignature(bytes(len(signature.tag)))),
                "wrong signer": ((i + 1) % n, signature),
                "bool signer": (bool(i % 2), signature),
                "out of range": (n + i, signature),
                "before forget": (i, stale[i]),
                "foreign": (i, foreign.sign(i, message)),
                "other message": (i, scheme.sign(i, message + ("other",))),
                "garbage": (i, signature.tag),
            }.get(kind, (i, signature))
            on, off = _both(lambda: scheme.verify(signer, candidate, message))
            assert on is off, (kind, i)
            assert _both(lambda: scheme.sign(i, message)) == (
                (_IdealSignature, signature.tag),
            ) * 2

    @pytest.mark.parametrize("memo", [True, False])
    def test_a_non_term_message_fails_closed_either_way(self, memo):
        scheme = IdealThresholdScheme(3, 2, random.Random(9))
        share = scheme.sign_share(0, "m")
        previous = set_tag_memoization(memo)
        try:
            assert not scheme.verify_share(0, share, 7.5)
            assert not scheme.verify_share(0, share, ("m", [1]))
            assert scheme.try_combine([(0, share)], ("m", [1])) is None
        finally:
            set_tag_memoization(previous)
