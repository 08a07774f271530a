"""Tests for the Dolev–Strong deterministic baseline."""

import pytest

from repro.adversary.strategies import (
    CrashAdversary,
    MalformedAdversary,
    TwoFaceAdversary,
)
from repro.core.dolev_strong import (
    dolev_strong_ba_program,
    dolev_strong_broadcast_program,
)

from ..conftest import run


def bcast(dealer=0, default="∅"):
    return lambda c, v: dolev_strong_broadcast_program(c, v, dealer, default)


class TestBroadcast:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_honest_dealer_validity_and_round_count(self, t):
        n = t + 2
        res = run(bcast(), ["blk"] + ["?"] * (n - 1), max_faulty=t)
        assert all(v == "blk" for v in res.outputs.values())
        assert res.metrics.rounds == t + 1

    @pytest.mark.parametrize("seed", range(5))
    def test_equivocating_dealer_consistency(self, seed):
        adversary = TwoFaceAdversary(
            victims=[0], factory=bcast(), low_input="a", high_input="b"
        )
        res = run(
            bcast(), ["a", "?", "?", "?"], max_faulty=1,
            adversary=adversary, seed=seed,
        )
        values = set(res.honest_outputs.values())
        assert len(values) == 1  # consistency even against equivocation

    def test_silent_dealer_yields_default(self):
        res = run(
            bcast(), ["x", "?", "?", "?"], max_faulty=1,
            adversary=CrashAdversary(victims=[0], crash_round=1),
        )
        assert all(v == "∅" for v in res.honest_outputs.values())

    def test_byzantine_relayer_cannot_break_consistency(self):
        res = run(
            bcast(), ["blk", "?", "?", "?"], max_faulty=1,
            adversary=MalformedAdversary(victims=[2]),
        )
        assert all(v == "blk" for v in res.honest_outputs.values())

    def test_invalid_dealer_rejected(self):
        with pytest.raises(ValueError):
            run(bcast(dealer=9), ["x"] * 4, max_faulty=1)


class TestBA:
    def test_majority_inputs_win(self):
        res = run(
            lambda c, v: dolev_strong_ba_program(c, v),
            ["a", "a", "a", "b"], max_faulty=1,
        )
        assert all(v == "a" for v in res.outputs.values())
        assert res.metrics.rounds == 2  # t + 1

    def test_unanimous_validity_under_crash(self):
        res = run(
            lambda c, v: dolev_strong_ba_program(c, v),
            ["a", "a", "a", "a"], max_faulty=1,
            adversary=CrashAdversary(victims=[3], crash_round=1),
        )
        assert all(v == "a" for v in res.honest_outputs.values())

    def test_consistency_split_inputs(self):
        res = run(
            lambda c, v: dolev_strong_ba_program(c, v),
            ["a", "b", "a", "b"], max_faulty=1,
        )
        assert res.honest_agree()
