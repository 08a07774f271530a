"""Tests for the paper's headline BA protocols (Corollary 2)."""

import random

import pytest

from repro.adversary.strategies import (
    CrashAdversary,
    LastRoundCorruptionAdversary,
    MalformedAdversary,
    TwoFaceAdversary,
)
from repro.core.ablation import (
    BA_ONE_HALF_GENERALIZED,
    BA_ONE_THIRD_CHUNKED,
    ba_one_half_generalized,
    ba_one_third_chunked,
    rounds_one_half_generalized,
    rounds_one_third_chunked,
)
from repro.core.ba import (
    BA_ONE_HALF,
    BA_ONE_THIRD,
    ba_one_half_program,
    ba_one_third_program,
    iteration_one_half,
    iteration_one_third,
    iterations_one_half,
    rounds_one_half,
    rounds_one_third,
)
from repro.core.extraction import coin_range
from repro.core.feldman_micali import (
    FELDMAN_MICALI,
    feldman_micali_program,
    rounds_feldman_micali,
)
from repro.core.iteration import (
    Iteration,
    ideal_coin_factory,
    threshold_coin_factory,
)
from repro.core.micali_vaikuntanathan import (
    MICALI_VAIKUNTANATHAN,
    MV_PKI,
    micali_vaikuntanathan_program,
    mv_pki_program,
    rounds_mv,
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
        (FELDMAN_MICALI.iteration(2, 3), 3, 1, 2, False, ("fm", 2), "fm2"),
        (MICALI_VAIKUNTANATHAN.iteration(1, 2), 3, 2, 2, True, ("mv", 1), "mv1"),
        (MV_PKI.iteration(1, 2), 3, 2, 2, True, ("mvp", 1), "mvp1"),
        (
            BA_ONE_THIRD_CHUNKED.iteration(1, 4, chunk=2),
            5, 2, 3, False, ("chunked", 1), "chunk1",
        ),
        (
            BA_ONE_HALF_GENERALIZED.iteration(2, 6, prox_rounds=4, family="linear"),
            7, 4, 4, True, ("gen12", 2), "gen2",
        ),
        (
            BA_ONE_HALF_GENERALIZED.iteration(0, 6, prox_rounds=4, family="quadratic"),
            5, 4, 4, True, ("gen12", 0), "gen0",
        ),
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

    # statement, κ, its params, iterations
    ITERATIONS = [
        (BA_ONE_THIRD, 1, {}, 1),
        (BA_ONE_THIRD, 9, {}, 1),
        (BA_ONE_HALF, 5, {}, 3),
        (FELDMAN_MICALI, 3, {}, 3),
        (MICALI_VAIKUNTANATHAN, 4, {}, 4),
        (MV_PKI, 2, {}, 2),
        (BA_ONE_THIRD_CHUNKED, 5, {"chunk": 2}, 3),
        (BA_ONE_THIRD_CHUNKED, 4, {"chunk": 4}, 1),
        (BA_ONE_HALF_GENERALIZED, 6, {"prox_rounds": 3, "family": "linear"}, 3),
        (BA_ONE_HALF_GENERALIZED, 6, {"prox_rounds": 4, "family": "linear"}, 3),
        (BA_ONE_HALF_GENERALIZED, 7, {"prox_rounds": 4, "family": "quadratic"}, 4),
        (BA_ONE_HALF_GENERALIZED, 4, {"prox_rounds": 5, "family": "quadratic"}, 2),
    ]

    @pytest.mark.parametrize(
        "statement, kappa, params, iterations", ITERATIONS,
        ids=lambda value: getattr(value, "name", None),
    )
    def test_each_statement_runs_its_iterations(
        self, statement, kappa, params, iterations
    ):
        assert statement.iterations(kappa, **params) == iterations


#: Every fixed-round BA: its program on (ctx, bit, κ), its round count
#: at κ and the (n, t) it runs with.
FIXED_ROUND = {
    "ba_one_third": (ba_one_third_program, rounds_one_third, 4, 1),
    "ba_one_half": (ba_one_half_program, rounds_one_half, 5, 2),
    "feldman_micali": (feldman_micali_program, rounds_feldman_micali, 4, 1),
    "micali_vaikuntanathan": (micali_vaikuntanathan_program, rounds_mv, 5, 2),
    "mv_pki": (mv_pki_program, rounds_mv, 5, 2),
    "ba_one_third_chunked": (
        lambda c, b, kappa: ba_one_third_chunked(c, b, kappa, 1),
        lambda kappa: rounds_one_third_chunked(kappa, 1), 4, 1,
    ),
    "ba_one_half_generalized": (
        ba_one_half_generalized, lambda kappa: rounds_one_half_generalized(kappa, 3),
        5, 2,
    ),
}


class TestKappaIsAtLeastOne:
    """κ ≤ 0 is a usage error for every fixed-round BA — never a 0-round
    "agreement" that hands back the inputs."""

    @pytest.mark.parametrize("kappa", [0, -3])
    @pytest.mark.parametrize("name", sorted(FIXED_ROUND))
    def test_program_rejects_kappa_below_one(self, name, kappa):
        program, _, n, t = FIXED_ROUND[name]
        with pytest.raises(ValueError, match="kappa must be at least 1"):
            run(lambda c, b: program(c, b, kappa), [0, 1] * (n // 2) + [1] * (n % 2),
                max_faulty=t, session="k0")

    @pytest.mark.parametrize("kappa", [0, -3])
    @pytest.mark.parametrize("name", sorted(FIXED_ROUND))
    def test_round_count_rejects_kappa_below_one(self, name, kappa):
        rounds = FIXED_ROUND[name][1]
        with pytest.raises(ValueError, match="kappa must be at least 1"):
            rounds(kappa)

    @pytest.mark.parametrize("name", sorted(FIXED_ROUND))
    def test_kappa_one_runs_its_round_count(self, name):
        program, rounds, n, t = FIXED_ROUND[name]
        res = run(lambda c, b: program(c, b, 1), [1] * n, max_faulty=t, session="k1")
        assert res.metrics.rounds == rounds(1)
        assert set(res.outputs.values()) == {1}


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
