"""Tests for the idealized signature backends."""

import copy
import hmac
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.coin import coin_message_tag
from repro.crypto.ideal import IdealSignatureScheme, IdealThresholdScheme, _keyed_mac
from repro.crypto.interfaces import CryptoError
from repro.crypto.keys import CryptoSuite
from repro.crypto.random_oracle import encode_str, encode_term, encode_tuple
from repro.crypto.vrf_coin import vrf_message


@pytest.fixture
def plain():
    return IdealSignatureScheme(4, random.Random(1))


@pytest.fixture
def threshold():
    return IdealThresholdScheme(5, 3, random.Random(2))


class TestPlain:
    def test_sign_verify_roundtrip(self, plain):
        sig = plain.sign(2, ("msg", 1))
        assert plain.verify(2, sig, ("msg", 1))

    def test_wrong_message_rejected(self, plain):
        sig = plain.sign(2, "a")
        assert not plain.verify(2, sig, "b")

    def test_wrong_signer_rejected(self, plain):
        sig = plain.sign(2, "a")
        assert not plain.verify(1, sig, "a")

    def test_garbage_rejected_without_raising(self, plain):
        assert not plain.verify(0, "not a signature", "a")
        assert not plain.verify(0, None, "a")
        assert not plain.verify(99, plain.sign(0, "a"), "a")
        assert not plain.verify("zero", plain.sign(0, "a"), "a")

    def test_unencodable_message_rejected(self, plain):
        sig = plain.sign(0, "a")
        assert not plain.verify(0, sig, [1, 2])  # lists are not terms

    def test_invalid_signer_raises_on_sign(self, plain):
        with pytest.raises(CryptoError):
            plain.sign(7, "a")

    def test_two_schemes_do_not_cross_verify(self):
        a = IdealSignatureScheme(3, random.Random(1))
        b = IdealSignatureScheme(3, random.Random(99))
        assert not b.verify(0, a.sign(0, "m"), "m")


class TestThreshold:
    def test_share_roundtrip(self, threshold):
        share = threshold.sign_share(1, "m")
        assert threshold.verify_share(1, share, "m")
        assert not threshold.verify_share(2, share, "m")
        assert not threshold.verify_share(1, share, "other")

    def test_combine_and_verify(self, threshold):
        shares = [(i, threshold.sign_share(i, "m")) for i in range(3)]
        sig = threshold.combine(shares, "m")
        assert threshold.verify(sig, "m")
        assert not threshold.verify(sig, "other")

    def test_combine_requires_threshold_distinct(self, threshold):
        shares = [(i, threshold.sign_share(i, "m")) for i in range(2)]
        with pytest.raises(CryptoError):
            threshold.combine(shares, "m")
        duplicated = [(0, threshold.sign_share(0, "m"))] * 3
        with pytest.raises(CryptoError):
            threshold.combine(duplicated, "m")

    def test_combine_rejects_invalid_share(self, threshold):
        shares = [(i, threshold.sign_share(i, "m")) for i in range(2)]
        shares.append((2, "forged"))
        with pytest.raises(CryptoError):
            threshold.combine(shares, "m")

    def test_uniqueness(self, threshold):
        """Any qualifying share subset combines to the *same* signature."""
        sig_a = threshold.combine(
            [(i, threshold.sign_share(i, "m")) for i in (0, 1, 2)], "m"
        )
        sig_b = threshold.combine(
            [(i, threshold.sign_share(i, "m")) for i in (2, 3, 4)], "m"
        )
        assert sig_a == sig_b
        assert threshold.signature_bytes(sig_a) == threshold.signature_bytes(sig_b)

    def test_try_combine_filters_garbage(self, threshold):
        indexed = [(i, threshold.sign_share(i, "m")) for i in range(3)]
        indexed += [(3, "junk"), ("x", None), (99, threshold.sign_share(0, "m"))]
        sig = threshold.try_combine(indexed, "m")
        assert sig is not None and threshold.verify(sig, "m")

    def test_try_combine_insufficient_returns_none(self, threshold):
        indexed = [(i, threshold.sign_share(i, "m")) for i in range(2)]
        assert threshold.try_combine(indexed, "m") is None

    def test_signature_bytes_requires_signature(self, threshold):
        with pytest.raises(CryptoError):
            threshold.signature_bytes("nope")

    def test_bad_parameters_rejected(self):
        with pytest.raises(CryptoError):
            IdealThresholdScheme(3, 0, random.Random(1))
        with pytest.raises(CryptoError):
            IdealThresholdScheme(3, 4, random.Random(1))

    def test_forgery_via_api_impossible(self, threshold):
        """t shares (below threshold) give the adversary nothing combinable,
        and hand-rolled signature objects do not verify."""
        from repro.crypto.ideal import _IdealShare, _IdealSignature

        fake_share = _IdealShare(signer=4, tag=b"\x00" * 32)
        assert not threshold.verify_share(4, fake_share, "m")
        fake_sig = _IdealSignature(tag=b"\x00" * 32)
        assert not threshold.verify(fake_sig, "m")


#: Key lengths around the 64-byte block: empty, the schemes' 32, the
#: block boundary on both sides, and a key long enough to be hashed first.
KEY_LENGTHS = (0, 1, 32, 63, 64, 65, 100, 200)
#: Lengths up to 200 bytes, so head + data straddles one and two blocks.
_BYTES = st.binary(max_size=200)


class TestKeyedMac:
    """The one MAC is byte for byte the one-shot ``hmac.digest``."""

    @given(
        key=st.sampled_from(KEY_LENGTHS).flatmap(
            lambda size: st.binary(min_size=size, max_size=size)
        ),
        head=_BYTES,
        data=st.lists(_BYTES, min_size=1, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_hmac_digest(self, key, head, data):
        mac = _keyed_mac(key, head)
        for item in data:  # a MAC serves many calls from one pad state
            assert mac(item) == hmac.digest(key, head + item, "sha256")

    @pytest.mark.parametrize("size", KEY_LENGTHS)
    @pytest.mark.parametrize("head, data", [
        (b"", b""), (b"h" * 55, b"d" * 9), (b"h" * 64, b""),
        (b"", b"d" * 64), (b"h" * 63, b"d" * 66), (b"h" * 200, b"d" * 200),
    ])
    def test_block_boundaries(self, size, head, data):
        key = bytes(range(size))
        assert _keyed_mac(key, head)(data) == hmac.digest(key, head + data, "sha256")

    def test_tail_follows_the_data(self):
        key = b"k" * 65
        mac = _keyed_mac(key, b"head", b"tail")
        assert mac(b"-") == hmac.digest(key, b"head-tail", "sha256")


#: Sessions as the engine names them, plus the edge cases of the encoding.
SESSIONS = ("", "s", "trial-0017", "é", "ünïcödé ☃", "x" * 70)
INDICES = (0, 3, ("ba13", 2), ("ba12", 0), "vrf")


class TestFreshTaggers:
    """The evaluators' taggers are the signing API's tags, computed afresh."""

    @pytest.mark.parametrize("index", INDICES, ids=repr)
    def test_fresh_combined_tagger_is_combined_bytes(self, threshold, index):
        encoded_index = encode_term(index)
        tag = threshold.fresh_combined_tagger(
            encode_tuple((encode_term("coin-flip"), b"", b"")), encoded_index
        )
        for session in SESSIONS:
            assert tag(encode_str(session)) == threshold.combined_bytes(
                coin_message_tag(session, index)
            )

    @pytest.mark.parametrize("index", INDICES, ids=repr)
    def test_fresh_tagger_is_the_plain_signature(self, plain, index):
        encoded_index = encode_term(index)
        head = encode_tuple((encode_term("vrf-coin"), b"", b""))
        for signer in range(plain.num_parties):
            tag = plain.fresh_tagger(signer, head, encoded_index)
            for session in SESSIONS:
                assert tag(encode_str(session)) == plain.sign(
                    signer, vrf_message(session, index)
                ).tag


class TestKeyMaterialCopies:
    """A dealt ideal suite pickles and deep-copies by its keys alone."""

    @pytest.mark.parametrize("clone", [
        lambda suite: pickle.loads(pickle.dumps(suite)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_the_copy_signs_and_verifies_as_the_original(self, clone):
        suite = CryptoSuite.ideal(4, 1, random.Random(7))
        message = ("copy", 1)
        signature = suite.plain.sign(2, message)
        shares = [suite.coin.sign_share(signer, message) for signer in range(2)]
        combined = suite.coin.combine(shares, message)
        quorum_share = suite.quorum.sign_share(3, message)

        copied = clone(suite)

        for scheme in (copied.plain, copied.quorum, copied.coin):
            assert len(scheme._tags) == 0  # the memo never rides along
        assert copied.plain.sign(2, message) == signature
        assert copied.plain.verify(2, signature, message)
        assert [
            copied.coin.sign_share(signer, message) for signer in range(2)
        ] == shares
        assert copied.coin.verify(combined, message)
        assert copied.coin.combine(shares, message) == combined
        assert copied.coin.combined_bytes(message) == combined.tag
        assert copied.quorum.verify_share(3, quorum_share, message)
        assert copied.coin.threshold == suite.coin.threshold
        assert copied.plain.num_parties == suite.plain.num_parties
