"""Tests for the common coin (threshold and ideal flavours)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.coin import (
    IdealCoin,
    coin_evaluator,
    coin_message_tag,
    coin_value_from_signature,
    ideal_coin_program,
    threshold_coin_program,
)
from repro.crypto.ideal import IdealThresholdScheme, set_tag_memoization
from repro.crypto.random_oracle import hash_to_range
from repro.crypto.threshold_rsa import generate_threshold_rsa

from ..conftest import ideal_suite, run


def coin_factory(low, high, index=0):
    def factory(ctx, _input):
        value = yield from threshold_coin_program(ctx, index, low, high)
        return value

    return factory


class TestThresholdCoin:
    def test_all_parties_agree_and_in_range(self):
        res = run(coin_factory(1, 16), [None] * 4, max_faulty=1, session="c1")
        values = set(res.outputs.values())
        assert len(values) == 1
        assert 1 <= values.pop() <= 16

    def test_one_round(self):
        res = run(coin_factory(1, 4), [None] * 4, max_faulty=1, session="c2")
        assert res.metrics.rounds == 1

    def test_different_indices_give_independent_values(self):
        seen = set()
        for index in range(12):
            res = run(
                coin_factory(1, 2 ** 30, index),
                [None] * 4,
                max_faulty=1,
                session="c3",
            )
            seen.add(next(iter(res.outputs.values())))
        assert len(seen) == 12  # 12 draws from 2^30 values never collide

    def test_deterministic_per_session_and_index(self):
        big = 2 ** 40
        a = run(coin_factory(1, big), [None] * 4, max_faulty=1, session="same")
        b = run(coin_factory(1, big), [None] * 4, max_faulty=1, session="same")
        assert a.outputs == b.outputs
        c = run(coin_factory(1, big), [None] * 4, max_faulty=1, session="other")
        # Different session → different signed message → (whp) new value.
        assert c.outputs[0] != a.outputs[0]

    def test_survives_withheld_corrupt_shares(self):
        from repro.adversary.strategies import CrashAdversary

        res = run(
            coin_factory(1, 64),
            [None] * 4,
            max_faulty=1,
            adversary=CrashAdversary(victims=[3], crash_round=1),
            session="c4",
        )
        values = {res.outputs[i] for i in (0, 1, 2)}
        assert len(values) == 1

    def test_roughly_uniform_over_indices(self):
        counts = [0, 0]
        for index in range(200):
            res = run(
                coin_factory(1, 2, index), [None] * 4, max_faulty=1, session="c5"
            )
            counts[res.outputs[0] - 1] += 1
        assert abs(counts[0] - 100) < 40


class TestCoinHelpers:
    def test_value_from_signature_matches_program(self):
        scheme = IdealThresholdScheme(4, 2, random.Random(5))
        message = coin_message_tag("s", 3)
        sig = scheme.combine(
            [(i, scheme.sign_share(i, message)) for i in range(2)], message
        )
        value = coin_value_from_signature(scheme, sig, "s", 3, 1, 10)
        assert 1 <= value <= 10
        assert value == coin_value_from_signature(scheme, sig, "s", 3, 1, 10)

    @pytest.mark.parametrize("scheme", [
        IdealThresholdScheme(4, 2, random.Random(5)),
        generate_threshold_rsa(4, 2, 128, random.Random(13)),
    ], ids=["ideal", "rsa"])
    def test_value_from_signature_equals_the_hash_to_range_reference(self, scheme):
        """First call and memo hit alike; 0 and False are two coins."""
        values = {}
        for session in ("s", "séance-Ω", ""):
            for index in (0, False, 1, True, ("ba13", 2), None):
                message = coin_message_tag(session, index)
                signature = scheme.combine(
                    [(i, scheme.sign_share(i, message)) for i in range(2)], message
                )
                for low, high in ((0, 1), (1, 16), (-3, 2 ** 130)):
                    expected = hash_to_range(
                        "coin-extract",
                        (session, index, scheme.signature_bytes(signature)),
                        low, high,
                    )
                    for _party in range(3):
                        assert coin_value_from_signature(
                            scheme, signature, session, index, low, high
                        ) == expected
                    values[session, repr(index), low, high] = expected
        wide = [
            (values[s, "0", -3, 2 ** 130], values[s, "False", -3, 2 ** 130])
            for s in ("s", "séance-Ω", "")
        ]
        assert all(zero != false for zero, false in wide)

    def test_one_and_true_stay_two_coins_on_one_signature(self):
        """The cache is type-exact in the session and in the index."""
        scheme = IdealThresholdScheme(4, 2, random.Random(5))
        message = coin_message_tag("s", 0)
        signature = scheme.combine(
            [(i, scheme.sign_share(i, message)) for i in range(2)], message
        )
        keys = [("s", 0), ("s", False), ("s", (0,)), ("s", (False,)), (1, 0), (True, 0)]
        coins = [
            coin_value_from_signature(scheme, signature, session, index, 0, 2 ** 130)
            for session, index in keys + keys
        ]
        assert coins == [
            hash_to_range("coin-extract", (session, index, signature.tag), 0, 2 ** 130)
            for session, index in keys + keys
        ]
        assert len(set(coins)) == len(keys)

    def test_empty_range_raises_every_time(self):
        scheme = IdealThresholdScheme(4, 2, random.Random(5))
        message = coin_message_tag("s", 3)
        sig = scheme.combine(
            [(i, scheme.sign_share(i, message)) for i in range(2)], message
        )
        for _party in range(2):
            with pytest.raises(ValueError, match="empty range"):
                coin_value_from_signature(scheme, sig, "s", 3, 5, 4)


class TestIdealCoin:
    def test_common_and_in_range(self):
        coin = IdealCoin(random.Random(3))

        def factory(ctx, _):
            value = yield from ideal_coin_program(ctx, coin, 0, 1, 8)
            return value

        res = run(factory, [None] * 4, max_faulty=1, session="ic")
        values = set(res.outputs.values())
        assert len(values) == 1
        assert 1 <= values.pop() <= 8
        assert res.metrics.rounds == 1

    def test_independent_secrets_give_independent_coins(self):
        a = IdealCoin(random.Random(1)).value(0, 1, 2 ** 40)
        b = IdealCoin(random.Random(2)).value(0, 1, 2 ** 40)
        assert a != b

    def test_uniformity(self):
        coin = IdealCoin(random.Random(9))
        counts = [0] * 4
        for index in range(400):
            counts[coin.value(index, 0, 3)] += 1
        for c in counts:
            assert abs(c - 100) < 45


# Coin indices as the protocols spell them: ints, tags, nested tuples.
coin_indices = st.recursive(
    st.one_of(st.integers(-5, 2 ** 70), st.text(max_size=8), st.none()),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)


def coin_from_shares(scheme, session, index, low, high):
    """The coin the long way: t+1 real share objects, combined, hashed."""
    message = coin_message_tag(session, index)
    shares = [
        (signer, scheme.sign_share(signer, message))
        for signer in range(scheme.threshold)
    ]
    return coin_value_from_signature(
        scheme, scheme.combine(shares, message), session, index, low, high
    )


class TestCoinEvaluator:
    @given(
        sessions=st.lists(st.text(max_size=24), min_size=1, max_size=4),
        index=coin_indices,
        low=st.integers(-(2 ** 20), 2 ** 20),
        span=st.one_of(
            st.integers(0, 64),
            st.integers(2 ** 128, 2 ** 300),
            # high - low: the last range one digest covers holds
            # 2^128 - 1 values; the next ones take the counter mode.
            st.sampled_from([2 ** 128 - 3, 2 ** 128 - 2, 2 ** 128 - 1, 2 ** 300]),
        ),
    )
    @settings(max_examples=160, deadline=None)
    def test_equals_combining_real_shares(self, sessions, index, low, span):
        # st.text draws empty and non-ASCII sessions; 2^128 values or
        # more need more than one SHA-256 block of expansion.
        scheme = IdealThresholdScheme(4, 2, random.Random(5))
        coin = coin_evaluator(scheme, index, low, low + span)
        for session in sessions:
            assert coin(session) == coin_from_shares(
                scheme, session, index, low, low + span
            )

    def test_both_sides_of_the_single_digest_boundary(self):
        scheme = IdealThresholdScheme(4, 2, random.Random(9))
        for session in ("", "exp3/17", "séance-Ω/пт1"):
            for low in (-7, 0, 1):
                for values in (1, 2 ** 128 - 1, 2 ** 128, 2 ** 128 + 1, 2 ** 300):
                    high = low + values - 1
                    assert coin_evaluator(scheme, ("ba13", 2), low, high)(
                        session
                    ) == coin_from_shares(scheme, session, ("ba13", 2), low, high)

    def test_non_ascii_session_and_the_vector_models_indices(self):
        scheme = IdealThresholdScheme(5, 3, random.Random(6))
        for session in ("exp3/17/iter2", "séance-Ω/пт1", ""):
            for index in (0, ("ba13", 4), ("pt", 64), (("a", (1,)), None)):
                assert coin_evaluator(scheme, index, 1, 16)(
                    session
                ) == coin_from_shares(scheme, session, index, 1, 16)

    def test_empty_range_raises_as_the_share_path_does(self):
        scheme = IdealThresholdScheme(4, 2, random.Random(5))
        with pytest.raises(ValueError) as from_shares:
            coin_from_shares(scheme, "s", 0, 5, 4)
        with pytest.raises(ValueError) as from_evaluator:
            coin_evaluator(scheme, 0, 5, 4)("s")
        assert str(from_evaluator.value) == str(from_shares.value)

    def test_leaves_the_tag_memo_alone_and_ignores_its_switch(self):
        scheme = IdealThresholdScheme(4, 2, random.Random(5))
        coin = coin_evaluator(scheme, ("ba12", 1), 1, 4)
        sessions = [f"exp1/{trial}/iter1" for trial in range(50)]
        warm = [coin(session) for session in sessions]
        assert len(scheme._tags) == 0
        previous = set_tag_memoization(False)
        try:
            assert [coin(session) for session in sessions] == warm
            assert warm == [
                coin_from_shares(scheme, session, ("ba12", 1), 1, 4)
                for session in sessions
            ]
        finally:
            set_tag_memoization(previous)
        assert set(warm) == {1, 2, 3, 4}
