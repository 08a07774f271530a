"""Tests for the generalized iteration Π_iter (Theorem 1)."""

import random

import pytest

from repro.core.iteration import (
    Iteration,
    ideal_coin_factory,
    threshold_coin_factory,
)
from repro.crypto.coin import IdealCoin
from repro.proxcensus.linear_half import prox_linear_half_program
from repro.proxcensus.one_third import prox_one_third_program

from ..conftest import run


def iter13(slots_rounds, coin_factory=None, overlap=False):
    coin_factory = coin_factory or threshold_coin_factory()

    iteration = Iteration(
        slots=2 ** slots_rounds + 1,
        prox_factory=lambda c, b: prox_one_third_program(c, b, rounds=slots_rounds),
        prox_rounds=slots_rounds,
        coin_index=0,
        overlap_coin=overlap,
    )

    def factory(ctx, bit):
        result = yield from iteration.run(ctx, bit, coin_factory)
        return result

    return factory


class TestRoundAccounting:
    def test_sequential_coin_adds_one_round(self):
        res = run(iter13(3), [1, 0, 1, 0], max_faulty=1, session="it1")
        assert res.metrics.rounds == 4  # 3 prox + 1 coin

    def test_overlapped_coin_shares_last_round(self):
        res = run(iter13(3, overlap=True), [1, 0, 1, 0], max_faulty=1, session="it2")
        assert res.metrics.rounds == 3

    def test_overlap_with_single_round_prox(self):
        res = run(iter13(1, overlap=True), [1, 0, 1, 0], max_faulty=1, session="it3")
        assert res.metrics.rounds == 1


class TestSemantics:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        res = run(iter13(3), [bit] * 4, max_faulty=1, session="it4")
        assert all(v == bit for v in res.outputs.values())

    def test_agreement_with_split_inputs_no_adversary(self):
        for seed in range(10):
            res = run(
                iter13(3), [0, 1, 1, 0], max_faulty=1,
                seed=seed, session=f"it5-{seed}",
            )
            assert res.honest_agree()

    def test_ideal_coin_flavour(self):
        coin = IdealCoin(random.Random(4))
        res = run(
            iter13(3, coin_factory=ideal_coin_factory(coin)),
            [1, 0, 1, 0],
            max_faulty=1,
            session="it6",
        )
        assert res.honest_agree()
        assert res.metrics.rounds == 4

    def test_linear_half_prox_with_overlap(self):
        iteration = Iteration(
            slots=5,
            prox_factory=lambda c, b: prox_linear_half_program(c, b, rounds=3),
            prox_rounds=3,
            coin_index=0,
            overlap_coin=True,
        )

        def factory(ctx, bit):
            result = yield from iteration.run(ctx, bit, threshold_coin_factory())
            return result

        res = run(factory, [1, 0, 1, 0, 1], max_faulty=2, session="it7")
        assert res.metrics.rounds == 3
        assert res.honest_agree()

    def test_outputs_are_bits(self):
        for seed in range(5):
            res = run(
                iter13(2), [0, 1, 0, 1], max_faulty=1,
                seed=seed, session=f"it8-{seed}",
            )
            assert set(res.outputs.values()) <= {0, 1}
