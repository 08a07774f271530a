"""Tests for the closed-form theory module."""

from fractions import Fraction

import pytest

from repro.analysis.theory import (
    PROTOCOLS,
    efficiency_comparison_rows,
    error_for_rounds,
    per_iteration_failure,
    rounds_for_error,
)


class TestRoundFormulas:
    @pytest.mark.parametrize(
        "protocol,kappa,rounds",
        [
            ("ours_one_third", 8, 9),
            ("ours_one_third", 64, 65),
            ("ours_one_half", 8, 12),
            ("ours_one_half", 9, 15),
            ("feldman_micali", 8, 16),
            ("micali_vaikuntanathan", 8, 16),
        ],
    )
    def test_paper_round_counts(self, protocol, kappa, rounds):
        assert rounds_for_error(protocol, kappa) == rounds

    def test_round_formulas_match_protocol_modules(self):
        from repro.core.ba import rounds_one_half, rounds_one_third
        from repro.core.feldman_micali import rounds_feldman_micali
        from repro.core.micali_vaikuntanathan import rounds_mv

        for kappa in (1, 2, 7, 16, 31):
            assert rounds_for_error("ours_one_third", kappa) == rounds_one_third(kappa)
            assert rounds_for_error("ours_one_half", kappa) == rounds_one_half(kappa)
            assert rounds_for_error("feldman_micali", kappa) == rounds_feldman_micali(kappa)
            assert rounds_for_error("micali_vaikuntanathan", kappa) == rounds_mv(kappa)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    @pytest.mark.parametrize("kappa", [0, -3])
    def test_kappa_below_one_is_rejected(self, protocol, kappa):
        with pytest.raises(ValueError, match="kappa must be at least 1"):
            rounds_for_error(protocol, kappa)

    def test_error_for_rounds_inverts(self):
        for protocol in PROTOCOLS:
            for kappa in (2, 8, 16):
                rounds = rounds_for_error(protocol, kappa)
                assert error_for_rounds(protocol, rounds) >= kappa


class TestFailureProbability:
    def test_theorem1_formula(self):
        assert per_iteration_failure(3) == Fraction(1, 2)
        assert per_iteration_failure(5) == Fraction(1, 4)
        assert per_iteration_failure(2 ** 10 + 1) == Fraction(1, 2 ** 10)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            per_iteration_failure(1)


class TestComparisonTable:
    def test_asymptotic_speedups(self):
        rows = efficiency_comparison_rows([64])
        row = rows[0]
        assert row["speedup_one_third"] == Fraction(128, 65)  # -> 2x
        assert row["speedup_one_half"] == Fraction(4, 3)      # -> 1.33x

    def test_speedup_approaches_two(self):
        big = efficiency_comparison_rows([1024])[0]
        assert abs(float(big["speedup_one_third"]) - 2.0) < 0.01
