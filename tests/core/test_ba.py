"""Tests for the paper's headline BA protocols (Corollary 2)."""

import random

import pytest

from repro.adversary.strategies import (
    CrashAdversary,
    LastRoundCorruptionAdversary,
    MalformedAdversary,
    TwoFaceAdversary,
)
from repro.core.ba import (
    ba_one_half_program,
    ba_one_third_program,
    iteration_one_half,
    iteration_one_third,
    iterations_one_half,
    rounds_one_half,
    rounds_one_third,
)
from repro.core.extraction import coin_range
from repro.core.iteration import (
    Iteration,
    ideal_coin_factory,
    threshold_coin_factory,
)
from repro.core.probabilistic import iteration_fm_probabilistic
from repro.crypto.coin import IdealCoin
from repro.crypto.keys import CryptoSuite

from ..conftest import run


def ba13(kappa, coin_factory=None):
    return lambda c, b: ba_one_third_program(c, b, kappa, coin_factory)


def ba12(kappa, coin_factory=None):
    return lambda c, b: ba_one_half_program(c, b, kappa, coin_factory)


class TestIterationStatements:
    """The iteration constants, pinned to the paper by literals.

    The programs *and* the vector models read these statements, so the
    vector == object grid cannot notice one drifting; this table can.
    """

    # statement, s, Proxcensus rounds, rounds, coin ∥ last round, coin
    # index, subsession — coin range is [1, s − 1] throughout.
    PAPER = [
        (iteration_one_third(1), 3, 1, 2, False, ("ba13", 1), None),
        (iteration_one_third(5), 33, 5, 6, False, ("ba13", 5), None),
        (iteration_one_third(8), 257, 8, 9, False, ("ba13", 8), None),
        (iteration_one_half(0), 5, 3, 3, True, ("ba12", 0), "iter0"),
        (iteration_one_half(7), 5, 3, 3, True, ("ba12", 7), "iter7"),
        (iteration_fm_probabilistic(1), 5, 2, 3, False, ("pt", 1), "pt1"),
        (iteration_fm_probabilistic(64), 5, 2, 3, False, ("pt", 64), "pt64"),
    ]

    @pytest.mark.parametrize(
        "iteration, slots, prox_rounds, rounds, overlap, index, subsession", PAPER
    )
    def test_statement_matches_the_paper(
        self, iteration, slots, prox_rounds, rounds, overlap, index, subsession
    ):
        assert iteration._replace(prox_factory=None) == Iteration(
            slots, None, prox_rounds, index, overlap, subsession
        )
        assert iteration.rounds == rounds
        assert coin_range(iteration.slots) == (1, slots - 1)
        inputs = [0, 1, 1, 0, 1] if overlap else [0, 1, 1, 0]  # t < n/2 : t < n/3
        program = lambda c, b: iteration.exchange(c, b, threshold_coin_factory())
        wire = run(program, inputs, 2 if overlap else 1, session="statement")
        assert wire.metrics.rounds == rounds

    @pytest.mark.parametrize(
        "kappa, iterations", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 4), (9, 5)]
    )
    def test_one_half_runs_ceil_kappa_over_two_iterations(self, kappa, iterations):
        assert iterations_one_half(kappa) == iterations


class TestRoundFormulas:
    @pytest.mark.parametrize("kappa,expected", [(1, 2), (8, 9), (16, 17)])
    def test_one_third(self, kappa, expected):
        assert rounds_one_third(kappa) == expected

    @pytest.mark.parametrize("kappa,expected", [(1, 3), (2, 3), (8, 12), (9, 15)])
    def test_one_half(self, kappa, expected):
        assert rounds_one_half(kappa) == expected


class TestOneThird:
    @pytest.mark.parametrize("kappa", [1, 4, 8])
    def test_round_count_matches_formula(self, kappa):
        res = run(ba13(kappa), [1, 0, 1, 0], max_faulty=1, session=f"b{kappa}")
        assert res.metrics.rounds == rounds_one_third(kappa)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        res = run(ba13(6), [bit] * 4, max_faulty=1, session="bv")
        assert all(v == bit for v in res.outputs.values())

    @pytest.mark.parametrize("seed", range(8))
    def test_consistency_split_inputs(self, seed):
        res = run(ba13(6), [0, 1, 0, 1], max_faulty=1, seed=seed, session=f"bc{seed}")
        assert res.honest_agree()
        assert set(res.outputs.values()) <= {0, 1}

    @pytest.mark.parametrize("seed", range(8))
    def test_consistency_under_two_face(self, seed):
        adversary = TwoFaceAdversary(victims=[3], factory=ba13(6))
        res = run(
            ba13(6), [0, 0, 1, 1], max_faulty=1,
            adversary=adversary, seed=seed, session=f"bt{seed}",
        )
        assert res.honest_agree()

    def test_validity_under_crash(self):
        res = run(
            ba13(6), [1, 1, 1, 1], max_faulty=1,
            adversary=CrashAdversary(victims=[3], crash_round=1), session="bcr",
        )
        assert all(v == 1 for v in res.honest_outputs.values())

    def test_validity_under_malformed(self):
        res = run(
            ba13(6), [0, 0, 0, 0], max_faulty=1,
            adversary=MalformedAdversary(victims=[3]), session="bm",
        )
        assert all(v == 0 for v in res.honest_outputs.values())

    def test_adaptive_corruption_mid_protocol(self):
        adversary = LastRoundCorruptionAdversary(victim=1, strike_round=4)
        res = run(ba13(6), [1, 1, 1, 1], max_faulty=1, adversary=adversary, session="ba")
        assert all(v == 1 for v in res.honest_outputs.values())

    def test_ideal_coin(self):
        coin = IdealCoin(random.Random(8))
        res = run(
            ba13(6, ideal_coin_factory(coin)), [1, 0, 0, 1],
            max_faulty=1, session="bi",
        )
        assert res.honest_agree()
        assert res.metrics.rounds == rounds_one_third(6)

    def test_larger_network(self):
        res = run(ba13(5), [i % 2 for i in range(10)], max_faulty=3, session="bl")
        assert res.honest_agree()

    def test_resilience_guard(self):
        with pytest.raises(ValueError):
            run(ba13(4), [0, 1, 0], max_faulty=1, session="bg")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run(ba13(4), [0, 1, 0, 2], max_faulty=1, session="bx")
        with pytest.raises(ValueError):
            run(lambda c, b: ba_one_third_program(c, b, kappa=0), [0] * 4,
                max_faulty=1, session="bk")


class TestOneHalf:
    @pytest.mark.parametrize("kappa", [2, 4, 8])
    def test_round_count_matches_formula(self, kappa):
        res = run(ba12(kappa), [1, 0, 1, 0, 1], max_faulty=2, session=f"h{kappa}")
        assert res.metrics.rounds == rounds_one_half(kappa)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_validity(self, bit):
        res = run(ba12(6), [bit] * 5, max_faulty=2, session="hv")
        assert all(v == bit for v in res.outputs.values())

    @pytest.mark.parametrize("seed", range(8))
    def test_consistency_split_inputs(self, seed):
        res = run(
            ba12(6), [0, 1, 0, 1, 1], max_faulty=2,
            seed=seed, session=f"hc{seed}",
        )
        assert res.honest_agree()

    @pytest.mark.parametrize("seed", range(8))
    def test_consistency_under_two_face(self, seed):
        adversary = TwoFaceAdversary(victims=[3, 4], factory=ba12(6))
        res = run(
            ba12(6), [0, 0, 1, 1, 1], max_faulty=2,
            adversary=adversary, seed=seed, session=f"ht{seed}",
        )
        assert res.honest_agree()

    def test_dishonest_minority_is_tolerated(self):
        """t = 2 of n = 5 — beyond any t < n/3 protocol's resilience."""
        adversary = CrashAdversary(victims=[3, 4], crash_round=1)
        res = run(ba12(6), [1, 1, 1, 0, 0], max_faulty=2, adversary=adversary, session="hd")
        assert all(v == 1 for v in res.honest_outputs.values())

    def test_validity_under_malformed(self):
        res = run(
            ba12(6), [1, 1, 1, 1, 1], max_faulty=2,
            adversary=MalformedAdversary(victims=[4]), session="hm",
        )
        assert all(v == 1 for v in res.honest_outputs.values())

    def test_resilience_guard(self):
        with pytest.raises(ValueError):
            run(ba12(4), [0, 1], max_faulty=1, session="hg")


@pytest.mark.slow
class TestRealCryptoBackend:
    def test_ba_one_half_over_threshold_rsa(self):
        crypto = CryptoSuite.real(5, 2, random.Random(77), bits=128)
        res = run(
            ba12(2), [1, 0, 1, 0, 1], max_faulty=2,
            session="real", crypto=crypto,
        )
        assert res.honest_agree()
        assert res.metrics.rounds == rounds_one_half(2)

    def test_ba_one_third_over_threshold_rsa(self):
        crypto = CryptoSuite.real(4, 1, random.Random(78), bits=128)
        res = run(
            ba13(3), [1, 0, 1, 1], max_faulty=1,
            session="real13", crypto=crypto,
        )
        assert res.honest_agree()
