"""The tag-memoization layer must be invisible: identical tags, no cross-talk.

Regression tests for the caching added with the experiment engine — in
particular the key-injectivity hazards of Python dict keys (``0 == False
== 0.0`` as keys, while :func:`repro.crypto.random_oracle.encode_term`
distinguishes them).
"""

import random

import pytest

from repro.crypto.ideal import (
    IdealSignatureScheme,
    IdealThresholdScheme,
    set_tag_memoization,
)
from repro.crypto.ideal import _memo_key
from repro.crypto.random_oracle import encode_term


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
        # The memo-free entry point on pre-encoded messages: same bytes.
        assert cold_combined == [
            threshold.combined_bytes_encoded(encode_term(m)) for m in messages
        ]

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
        assert _memo_key(0) != _memo_key(False)
        assert _memo_key(0) != _memo_key(0.0)
        assert _memo_key((0,)) != _memo_key((False,))
        assert _memo_key(1) != _memo_key(True)

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


class TestCombinedMemo:
    def test_combine_and_verify_roundtrip_with_memo(self, threshold):
        message = ("decide", 1)
        shares = [(i, threshold.sign_share(i, message)) for i in range(2)]
        combined = threshold.combine(shares, message)
        assert threshold.verify(combined, message)
        assert threshold.combine(shares, message) == combined
        assert not threshold.verify(combined, ("decide", 0))
