"""Tests for Shoup threshold RSA (real threshold backend).

Key generation needs safe primes, so one small scheme is dealt per module
and shared; a couple of heavier checks are marked slow.
"""

import pickle
import random

import pytest

from repro.crypto import threshold_rsa
from repro.crypto.interfaces import CryptoError
from repro.crypto.threshold_rsa import ThresholdRsaScheme, generate_threshold_rsa

BITS = 128


@pytest.fixture(scope="module")
def scheme():
    return generate_threshold_rsa(5, 3, BITS, random.Random(11))


class TestSetup:
    def test_parameters_exposed(self, scheme):
        assert scheme.num_parties == 5
        assert scheme.threshold == 3
        n, e = scheme.public_key
        assert n.bit_length() in (BITS, BITS - 1)
        assert e > scheme.num_parties

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CryptoError):
            generate_threshold_rsa(3, 0, BITS, random.Random(1))
        with pytest.raises(CryptoError):
            generate_threshold_rsa(3, 4, BITS, random.Random(1))
        with pytest.raises(CryptoError):
            generate_threshold_rsa(3, 2, 32, random.Random(1))


class TestShares:
    def test_share_verifies(self, scheme):
        share = scheme.sign_share(0, "m")
        assert scheme.verify_share(0, share, "m")

    def test_share_bound_to_signer_and_message(self, scheme):
        share = scheme.sign_share(0, "m")
        assert not scheme.verify_share(1, share, "m")
        assert not scheme.verify_share(0, share, "other")

    def test_tampered_share_value_rejected(self, scheme):
        share = scheme.sign_share(0, "m")
        n, _ = scheme.public_key
        forged = type(share)(
            signer=0,
            value=(share.value * 2) % n,
            challenge=share.challenge,
            response=share.response,
        )
        assert not scheme.verify_share(0, forged, "m")

    def test_tampered_proof_rejected(self, scheme):
        share = scheme.sign_share(0, "m")
        forged = type(share)(
            signer=0,
            value=share.value,
            challenge=share.challenge ^ 1,
            response=share.response,
        )
        assert not scheme.verify_share(0, forged, "m")
        forged = type(share)(
            signer=0,
            value=share.value,
            challenge=share.challenge,
            response=share.response + 1,
        )
        assert not scheme.verify_share(0, forged, "m")

    def test_garbage_rejected_without_raising(self, scheme):
        assert not scheme.verify_share(0, None, "m")
        assert not scheme.verify_share(0, "share", "m")
        assert not scheme.verify_share(0, scheme.sign_share(0, "m"), [1])
        assert not scheme.verify_share(-3, scheme.sign_share(0, "m"), "m")

    def test_invalid_signer_raises(self, scheme):
        with pytest.raises(CryptoError):
            scheme.sign_share(9, "m")


class TestCombine:
    def test_combine_exact_threshold(self, scheme):
        shares = [(i, scheme.sign_share(i, "m")) for i in range(3)]
        sig = scheme.combine(shares, "m")
        assert scheme.verify(sig, "m")

    def test_uniqueness_across_subsets(self, scheme):
        """Shoup signatures are standard RSA-FDH: any subset combines to
        the identical signature (the coin depends on this)."""
        sig_a = scheme.combine(
            [(i, scheme.sign_share(i, "m")) for i in (0, 1, 2)], "m"
        )
        sig_b = scheme.combine(
            [(i, scheme.sign_share(i, "m")) for i in (1, 3, 4)], "m"
        )
        assert sig_a == sig_b
        assert scheme.signature_bytes(sig_a) == scheme.signature_bytes(sig_b)

    def test_combine_too_few_raises(self, scheme):
        shares = [(i, scheme.sign_share(i, "m")) for i in range(2)]
        with pytest.raises(CryptoError):
            scheme.combine(shares, "m")

    def test_combine_rejects_forged_share(self, scheme):
        shares = [(i, scheme.sign_share(i, "m")) for i in range(2)]
        shares.append((2, "forged"))
        with pytest.raises(CryptoError):
            scheme.combine(shares, "m")

    def test_try_combine_filters(self, scheme):
        indexed = [(i, scheme.sign_share(i, "m")) for i in range(3)]
        indexed.append((3, "junk"))
        sig = scheme.try_combine(indexed, "m")
        assert sig is not None and scheme.verify(sig, "m")

    def test_verify_rejects_garbage(self, scheme):
        assert not scheme.verify(None, "m")
        assert not scheme.verify("sig", "m")
        sig = scheme.combine(
            [(i, scheme.sign_share(i, "m")) for i in range(3)], "m"
        )
        assert not scheme.verify(sig, "other-message")

    def test_signature_bytes_round_length(self, scheme):
        sig = scheme.combine(
            [(i, scheme.sign_share(i, "m")) for i in range(3)], "m"
        )
        n, _ = scheme.public_key
        assert len(scheme.signature_bytes(sig)) == (n.bit_length() + 7) // 8


def _share_questions(scheme):
    """``(label, signer, share, message)``: honest and adversarial asks."""
    message = ("coin-flip", "memo", 1)
    share = scheme.sign_share(1, message)
    n, _ = scheme.public_key

    def forged(**fields):
        return type(share)(**{
            "signer": share.signer, "value": share.value,
            "challenge": share.challenge, "response": share.response, **fields,
        })

    return [
        ("honest", 1, share, message),
        ("honest, signer 0", 0, scheme.sign_share(0, message), message),
        ("wrong signer", 2, share, message),
        ("wrong message", 1, share, ("coin-flip", "memo", 2)),
        ("tampered value", 1, forged(value=share.value * 2 % n), message),
        ("tampered challenge", 1, forged(challenge=share.challenge ^ 1), message),
        ("tampered response", 1, forged(response=share.response + 1), message),
        ("negative response", 1, forged(response=-share.response), message),
        ("value out of range", 1, forged(value=share.value + n), message),
        # bool is an int to isinstance and ==, but not to the challenge hash.
        ("True as the signer asked", True, share, message),
        ("True in share.signer", 1, forged(signer=True), message),
        ("True in share.value", 1, forged(value=True), message),
        ("True in share.challenge", 1, forged(challenge=True), message),
        ("True in share.response", 1, forged(response=True), message),
        ("True in the message", 1, share, ("coin-flip", "memo", True)),
        ("non-int value", 1, forged(value="7"), message),
        ("unhashable message", 1, share, ("coin-flip", ["memo"], 1)),
        ("unhashable share field", 1, forged(value=[share.value]), message),
        ("non-Term signer", 1.0, share, message),
    ]


class TestShareMemo:
    """``verify_share`` through the memo == the verification run cold."""

    def test_memo_answers_equal_cold_verification_over_the_grid(self, scheme):
        cold = pickle.loads(pickle.dumps(scheme))  # same keys, empty memo
        verdicts = {}
        for label, signer, share, message in _share_questions(scheme):
            expected = cold._check_share(signer, share, message)
            assert scheme.verify_share(signer, share, message) is expected, label
            assert scheme.verify_share(signer, share, message) is expected, label
            verdicts[label] = expected
        assert not cold._verified
        # The grid reaches both outcomes, and 1/True never alias.
        assert verdicts["honest"] and verdicts["honest, signer 0"]
        assert not verdicts["True as the signer asked"]
        assert not verdicts["True in the message"]
        assert sum(verdicts.values()) <= 3

    def test_a_part_that_is_no_term_bypasses_the_memo(self, scheme):
        held = len(scheme._verified)
        for label, signer, share, message in _share_questions(scheme):
            if "unhashable" in label or "non-Term" in label:
                assert scheme.verify_share(signer, share, message) is False
        assert len(scheme._verified) == held

    def test_each_distinct_question_is_checked_once(self, scheme, monkeypatch):
        asked = []
        cold = ThresholdRsaScheme._check_share
        monkeypatch.setattr(
            ThresholdRsaScheme, "_check_share",
            lambda self, *question: asked.append(question) or cold(self, *question),
        )
        message = ("coin-flip", "once", 4)
        shares = [(i, scheme.sign_share(i, message)) for i in range(4)]
        for _party in range(scheme.num_parties):
            assert scheme.try_combine(shares, message) is not None
        # n parties x (4 verified + 3 re-verified inside combine) asks.
        assert len(asked) == 4

    def test_repeat_after_the_memo_was_cleared_at_its_bound(
        self, scheme, monkeypatch
    ):
        monkeypatch.setattr(threshold_rsa, "_VERIFIED_LIMIT", 4)
        scheme._verified.clear()
        first = scheme.sign_share(0, ("bound", 0))
        assert scheme.verify_share(0, first, ("bound", 0))
        assert not scheme.verify_share(1, first, ("bound", 0))
        for index in range(1, 9):
            share = scheme.sign_share(0, ("bound", index))
            assert scheme.verify_share(0, share, ("bound", index))
            assert len(scheme._verified) <= 4
        assert scheme.verify_share(0, first, ("bound", 0))
        assert not scheme.verify_share(1, first, ("bound", 0))

    def test_the_memo_never_rides_a_pickle(self, scheme):
        scheme._verified.clear()
        before = len(pickle.dumps(scheme))
        share = scheme.sign_share(2, "pickled")
        assert scheme.verify_share(2, share, "pickled")
        assert scheme._verified
        assert len(pickle.dumps(scheme)) == before
        clone = pickle.loads(pickle.dumps(scheme))
        assert clone._verified == {}
        assert clone.public_key == scheme.public_key
        assert clone.verify_share(2, share, "pickled")

    def test_combine_still_checks_its_inputs_for_direct_callers(self, scheme):
        message = ("coin-flip", "direct", 0)
        shares = [(i, scheme.sign_share(i, message)) for i in range(3)]
        bad = type(shares[0][1])(0, shares[0][1].value, 1, 1)
        assert not scheme.verify_share(0, bad, message)  # now memoized False
        with pytest.raises(CryptoError, match="invalid share from signer 0"):
            scheme.combine([(0, bad)] + shares[1:], message)
        assert scheme.verify(scheme.combine(shares, message), message)


@pytest.mark.slow
class TestSlow:
    def test_larger_modulus_end_to_end(self):
        scheme = generate_threshold_rsa(4, 3, 256, random.Random(21))
        shares = [(i, scheme.sign_share(i, ("coin", 5))) for i in (0, 2, 3)]
        sig = scheme.combine(shares, ("coin", 5))
        assert scheme.verify(sig, ("coin", 5))

    def test_two_of_two(self):
        scheme = generate_threshold_rsa(2, 2, BITS, random.Random(31))
        shares = [(i, scheme.sign_share(i, "m")) for i in range(2)]
        assert scheme.verify(scheme.combine(shares, "m"), "m")
