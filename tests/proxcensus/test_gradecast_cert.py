"""Tests for the certificate-based gradecast (MV-style building block)."""

import pytest

from repro.adversary.strategies import (
    CrashAdversary,
    MalformedAdversary,
    TwoFaceAdversary,
)
from repro.proxcensus.gradecast_cert import certificate_gradecast_program

from ..conftest import run


def factory(dealer=0):
    return lambda c, v: certificate_gradecast_program(c, v, dealer, default="∅")


class TestHonestDealer:
    def test_validity_grade_two(self):
        res = run(factory(), ["pkg"] * 5, max_faulty=2)
        for output in res.outputs.values():
            assert output.value == "pkg" and output.grade == 2
        assert res.metrics.rounds == 3

    def test_validity_with_byzantine_relayers(self):
        res = run(
            factory(), ["pkg"] * 5, max_faulty=2,
            adversary=MalformedAdversary(victims=[3, 4]),
        )
        # Quorum n-t = 3 is met by the 3 honest parties alone.
        for output in res.honest_outputs.values():
            assert output.value == "pkg" and output.grade == 2

    def test_certificates_carry_nt_signatures(self):
        """The factor-n overhead of §3.5: round 3 ships n-t sigs/message."""
        res = run(factory(), ["pkg"] * 5, max_faulty=2)
        round3 = {row[0]: row for row in res.metrics.rows}[3]
        # 5 senders x 5 recipients x (n-t = 3 signatures) = 75
        assert round3[3] == 75  # honest signatures


class TestEquivocatingDealer:
    @pytest.mark.parametrize("seed", range(5))
    def test_consistency(self, seed):
        adversary = TwoFaceAdversary(
            victims=[0], factory=factory(), low_input="a", high_input="b"
        )
        res = run(
            factory(), ["a"] * 5, max_faulty=2, adversary=adversary, seed=seed
        )
        outputs = list(res.honest_outputs.values())
        graded = [o for o in outputs if o.grade >= 1]
        assert len({o.value for o in graded}) <= 1
        grades = [o.grade for o in outputs]
        assert max(grades) - min(grades) <= 1

    def test_silent_dealer_grade_zero(self):
        res = run(
            factory(), ["x"] * 5, max_faulty=2,
            adversary=CrashAdversary(victims=[0], crash_round=1),
        )
        for output in res.honest_outputs.values():
            assert output == type(output)("∅", 0)


class TestValidation:
    def test_requires_honest_majority(self):
        with pytest.raises(ValueError):
            run(factory(), ["x", "y"], max_faulty=1)

    def test_invalid_dealer(self):
        with pytest.raises(ValueError):
            run(factory(dealer=7), ["x"] * 5, max_faulty=2)
