"""Tests that the regenerated tables/figures match the paper's."""

import pytest

from repro.analysis.tables import (
    binary_slot_labels,
    fig2_expansion_conditions,
    fig3_extraction_matrix,
    render_fig3,
    render_table1,
    render_table2,
    table1_prox5_conditions,
)
from repro.proxcensus.quadratic_half import condition_table


class TestTable1:
    def test_deadlines_match_paper(self):
        table = table1_prox5_conditions(3)
        # Paper Table 1, column (v, 2): Σ_v at round 1, Ω at round 2.
        assert table[(0, 2)] == {"sigma_by": 1, "no_other_by": 3, "omega_by": 2}
        assert table[(1, 2)] == {"sigma_by": 1, "no_other_by": 3, "omega_by": 2}
        # Column (v, 1): Σ_v by round 2, no other Σ by round 2, Ω at round 3.
        assert table[(0, 1)] == {"sigma_by": 2, "no_other_by": 2, "omega_by": 3}

    def test_render_mentions_both_values(self):
        text = render_table1(3)
        assert "Σ0" in text and "Σ1" in text and "Ω0" in text


class TestTable2:
    def test_matches_paper_exactly(self):
        """Every cell of the paper's Table 2 (r = 6): one column per grade,
        shared by both values, as ``render_table2`` reads it."""
        assert condition_table(6) == {
            7: {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
            6: {2: 1, 3: 2, 4: 3, 5: 4, 6: 5},
            5: {2: 1, 3: 2, 4: 3, 5: 4, 6: 4},
            4: {2: 1, 3: 2, 4: 3, 5: 3, 6: 4},
            3: {2: 1, 3: 2, 4: 3, 5: 3, 6: 3},
            2: {2: 1, 3: 2, 4: 2, 5: 3, 6: 3},
            1: {2: 1, 3: 2, 4: 2, 5: 2, 6: 3},
        }

    def test_render_has_fifteen_slots(self):
        text = render_table2(6)
        assert "(0,7)" in text and "(1,7)" in text and "(⊥,0)" in text


class TestFig2:
    def test_prox5_to_prox9(self):
        rows = dict(fig2_expansion_conditions(5))
        assert rows[("z", 4)] == "|S(z,2)| >= n-t"
        assert "n-2t" in rows[("z", 3)]
        assert ("any", 0) in rows

    def test_prox4_to_prox7_has_seven_slots(self):
        rows = fig2_expansion_conditions(4)
        grades = [grade for (_v, grade), _c in rows]
        assert max(grades) == 3  # Prox_7: G = 3
        # grades 0..3 on the value side plus the default slot
        assert sorted(set(grades)) == [0, 1, 2, 3]


class TestFig3:
    def test_matrix_is_the_monotone_cut(self):
        matrix = fig3_extraction_matrix(10)
        assert len(matrix) == 10 and all(len(row) == 9 for row in matrix)
        # Row p: 1s exactly in columns c <= p.
        for position, row in enumerate(matrix):
            expected = [1 if coin <= position else 0 for coin in range(1, 10)]
            assert row == expected

    def test_render_contains_slot_labels(self):
        text = render_fig3(10)
        assert "(0,4)" in text and "(1,4)" in text and "c=9" in text


class TestSlotLabels:
    def test_odd_even(self):
        assert binary_slot_labels(5) == [(0, 2), (0, 1), (None, 0), (1, 1), (1, 2)]
        assert binary_slot_labels(4) == [(0, 1), (0, 0), (1, 0), (1, 1)]
