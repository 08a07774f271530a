"""Tests for the VRF-style coin (Chen–Micali flavour) and its weakness."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.coin_bias import WithholdingCoinAdversary
from repro.adversary.strategies import CrashAdversary
from repro.crypto.ideal import set_tag_memoization
from repro.crypto import vrf_coin
from repro.crypto.random_oracle import hash_to_int
from repro.crypto.rsa import RsaSignatureScheme
from repro.crypto.vrf_coin import (
    vrf_coin_extractor,
    vrf_coin_from_evaluations,
    vrf_coin_program,
    vrf_evaluate,
    vrf_evaluator,
    vrf_verify,
)

from ..conftest import ideal_suite, run
from .test_coin import coin_indices


def coin_factory(index=0, low=0, high=1):
    def factory(ctx, _):
        value = yield from vrf_coin_program(ctx, index, low, high)
        return value

    return factory


class TestVrfPrimitive:
    def test_evaluate_verify_roundtrip(self):
        scheme = ideal_suite(4, 1).plain
        value, proof = vrf_evaluate(scheme, 2, "s", 7)
        assert vrf_verify(scheme, 2, value, proof, "s", 7)

    def test_verification_binds_everything(self):
        scheme = ideal_suite(4, 1).plain
        value, proof = vrf_evaluate(scheme, 2, "s", 7)
        assert not vrf_verify(scheme, 1, value, proof, "s", 7)     # signer
        assert not vrf_verify(scheme, 2, value, proof, "s", 8)     # index
        assert not vrf_verify(scheme, 2, value, proof, "x", 7)     # session
        assert not vrf_verify(scheme, 2, value ^ 1, proof, "s", 7) # value
        assert not vrf_verify(scheme, 2, True, proof, "s", 7)      # bool trap

    def test_deterministic(self):
        scheme = ideal_suite(4, 1).plain
        assert vrf_evaluate(scheme, 0, "s", 1) == vrf_evaluate(scheme, 0, "s", 1)

    def test_real_rsa_backend_is_a_vrf(self):
        scheme = RsaSignatureScheme.setup(2, 128, random.Random(5))
        value, proof = vrf_evaluate(scheme, 0, "s", 3)
        assert vrf_verify(scheme, 0, value, proof, "s", 3)

    def test_a_cached_evaluation_is_the_hash_type_for_type(self):
        """Every recipient checks every evaluation; the first pays the
        hash.  Index 0 and False, session 1 and True stay apart, and a
        proof that is no minted object (an RSA one, a copy) agrees."""
        scheme = ideal_suite(4, 1).plain
        rsa = RsaSignatureScheme.setup(2, 128, random.Random(5))
        proofs = [scheme.sign(0, "p"), type(scheme.sign(0, "p"))(b"copy"),
                  rsa.sign(1, "p"), "garbage"]
        for proof in proofs:
            term = getattr(proof, "tag", getattr(proof, "value", None))
            term = repr(proof) if term is None else term
            for session in ("s", 1, True, "s"):
                for index in (0, False, (0,), (False,), 0):
                    assert vrf_coin._evaluation(session, index, proof) == hash_to_int(
                        "vrf-value", ("out", session, index, term), 128
                    ), (proof, session, index)
        value, proof = vrf_evaluate(scheme, 2, "s", 7)
        copy = type(proof)(proof.tag)
        assert vrf_verify(scheme, 2, value, copy, "s", 7)
        assert not vrf_verify(scheme, 2, value, type(proof)(bytes(32)), "s", 7)

    def test_coin_from_evaluations(self):
        assert vrf_coin_from_evaluations({}, "s", 0, 0, 1) is None
        coin = vrf_coin_from_evaluations({0: 5, 1: 3}, "s", 0, 0, 7)
        assert 0 <= coin <= 7
        # the minimum (party 1, value 3) decides, independent of others
        assert coin == vrf_coin_from_evaluations({1: 3, 2: 9}, "s", 0, 0, 7)


class TestVrfEvaluator:
    """The closed form the vector backend sweeps == the reference pair."""

    @given(
        sessions=st.lists(st.text(max_size=24), min_size=1, max_size=4),
        index=coin_indices,
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_evaluate_and_verifies(self, sessions, index):
        # st.text draws empty and non-ASCII sessions, coin_indices nested
        # tuples.
        scheme = ideal_suite(5, 2).plain
        evaluate = vrf_evaluator(scheme, index)
        for session in sessions:
            values = evaluate(session)
            assert len(values) == scheme.num_parties
            for signer, value in enumerate(values):
                reference, proof = vrf_evaluate(scheme, signer, session, index)
                assert value == reference
                assert vrf_verify(scheme, signer, value, proof, session, index)

    def test_leaves_the_tag_memo_alone_and_ignores_its_switch(self):
        scheme = ideal_suite(4, 1).plain
        evaluate = vrf_evaluator(scheme, ("round", 3))
        sessions = ["", "exp1/7", "séance-Ω/пт1"]
        held = len(scheme._tags)
        warm = [evaluate(session) for session in sessions]
        assert len(scheme._tags) == held
        previous = set_tag_memoization(False)
        try:
            assert [evaluate(session) for session in sessions] == warm
        finally:
            set_tag_memoization(previous)
        assert warm == [
            [vrf_evaluate(scheme, pid, session, ("round", 3))[0] for pid in range(4)]
            for session in sessions
        ]


class TestVrfCoinExtractor:
    """The closed form the vector backend extracts with == the reference."""

    RANGES = [(0, 1), (1, 4), (-3, 2 ** 130), (7, 7)]

    @given(
        evaluations=st.dictionaries(
            st.integers(0, 6),
            st.one_of(st.integers(0, 2 ** 128 - 1), st.sampled_from([0, 5, 2 ** 127])),
            max_size=5,
        ),
        session=st.text(max_size=24),
        index=coin_indices,
        bounds=st.sampled_from(RANGES),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_coin_from_evaluations(self, evaluations, session, index, bounds):
        # The sampled values make ties (broken by party id) common; the
        # empty dict is drawn too.
        extract = vrf_coin_extractor(index, *bounds)
        assert extract(evaluations, session) == vrf_coin_from_evaluations(
            evaluations, session, index, *bounds
        )

    def test_over_ideal_evaluations_ties_and_no_evaluation(self):
        scheme = ideal_suite(5, 2).plain
        evaluate = vrf_evaluator(scheme, 1)
        for low, high in self.RANGES:
            extract = vrf_coin_extractor(1, low, high)
            for session in ["", "exp1/7", "séance-Ω/пт1"]:
                held = dict(enumerate(evaluate(session)))
                for valid in (held, {pid: held[pid] for pid in (4, 2)}):
                    assert low <= extract(valid, session) <= high
                    assert extract(valid, session) == vrf_coin_from_evaluations(
                        valid, session, 1, low, high
                    )
        extract = vrf_coin_extractor(0, 0, 2 ** 64)  # wide: no chance collision
        assert extract({}, "s") is None
        assert extract({3: 9, 1: 9, 2: 11}, "s") == extract({1: 9}, "s")
        assert extract({3: 9, 1: 9}, "s") != extract({3: 9}, "s")

    def test_empty_range_raises_on_extraction_not_on_construction(self):
        extract = vrf_coin_extractor(0, 3, 2)
        assert extract({}, "s") is None
        with pytest.raises(ValueError, match="empty range"):
            extract({0: 1}, "s")
        with pytest.raises(ValueError, match="empty range"):
            vrf_coin_from_evaluations({0: 1}, "s", 0, 3, 2)


class TestVrfCoinProtocol:
    def test_all_parties_agree_without_adversary(self):
        res = run(coin_factory(), [None] * 4, 1, session="vc1")
        assert len(set(res.outputs.values())) == 1

    def test_roughly_uniform_passively(self):
        counts = Counter()
        for trial in range(200):
            res = run(coin_factory(trial), [None] * 4, 1, session=f"vc2-{trial}")
            counts[res.outputs[0]] += 1
        assert abs(counts[1] - 100) < 35

    def test_survives_silent_corrupt_parties(self):
        res = run(
            coin_factory(), [None] * 4, 1,
            adversary=CrashAdversary([3], crash_round=1), session="vc3",
        )
        values = {res.outputs[i] for i in (0, 1, 2)}
        assert len(values) == 1


class TestWithholdingBias:
    def test_bias_matches_half_plus_t_over_4n(self):
        """n=4, t=1: P(coin = preferred) = 1/2 + 1/16 = 0.5625."""
        trials = 300
        hits = 0
        for trial in range(trials):
            adversary = WithholdingCoinAdversary(
                [3], index=trial, low=0, high=1, preferred=1,
                session=f"vb-{trial}",
            )
            res = run(
                coin_factory(trial), [None] * 4, 1,
                adversary=adversary, session=f"vb-{trial}",
            )
            # the attack is consistent: all honest get the same coin
            assert len(set(res.honest_outputs.values())) == 1
            hits += next(iter(res.honest_outputs.values())) == 1
        rate = hits / trials
        assert 0.50 < rate < 0.64, rate  # significantly above fair

    def test_threshold_coin_is_immune_to_withholding(self):
        from repro.crypto.coin import threshold_coin_program

        def threshold_factory(index):
            def factory(ctx, _):
                value = yield from threshold_coin_program(ctx, index, 0, 1)
                return value

            return factory

        trials = 300
        hits = 0
        for trial in range(trials):
            res = run(
                threshold_factory(trial), [None] * 4, 1,
                adversary=CrashAdversary([3], crash_round=1),
                session=f"vt-{trial}",
            )
            hits += res.honest_outputs[0] == 1
        assert abs(hits / trials - 0.5) < 0.1
