"""Tests for slot geometry and invariant checkers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proxcensus.base import (
    ProxOutput,
    ProxcensusViolation,
    check_proxcensus_consistency,
    check_proxcensus_validity,
    max_grade,
    slot_index,
    slot_label,
)


class TestMaxGrade:
    @pytest.mark.parametrize(
        "slots,grades", [(2, 0), (3, 1), (4, 1), (5, 2), (9, 4), (10, 4), (15, 7)]
    )
    def test_paper_formula(self, slots, grades):
        assert max_grade(slots) == grades

    def test_rejects_one_slot(self):
        with pytest.raises(ValueError):
            max_grade(1)


class TestSlotGeometry:
    @given(slots=st.integers(min_value=2, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_index_label_roundtrip(self, slots):
        seen = set()
        for position in range(slots):
            value, grade = slot_label(position, slots)
            if value is None:
                assert slots % 2 == 1 and grade == 0
                assert slot_index(0, 0, slots) == position
                assert slot_index(1, 0, slots) == position
            else:
                assert slot_index(value, grade, slots) == position
            seen.add(position)
        assert seen == set(range(slots))

    def test_extremes(self):
        # Odd s: (0, G) leftmost, (1, G) rightmost, center shared.
        assert slot_index(0, 4, 9) == 0
        assert slot_index(1, 4, 9) == 8
        assert slot_index(0, 0, 9) == slot_index(1, 0, 9) == 4
        # Even s: grade-0 slots are distinct.
        assert slot_index(0, 0, 10) == 4
        assert slot_index(1, 0, 10) == 5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            slot_index(0, 5, 9)
        with pytest.raises(ValueError):
            slot_index(2, 1, 9)
        with pytest.raises(ValueError):
            slot_label(9, 9)


class TestCheckers:
    def test_consistency_accepts_adjacent(self):
        check_proxcensus_consistency(
            [ProxOutput(1, 2), ProxOutput(1, 3), ProxOutput(1, 2)], slots=9
        )

    def test_consistency_rejects_grade_gap(self):
        with pytest.raises(ProxcensusViolation):
            check_proxcensus_consistency(
                [ProxOutput(1, 1), ProxOutput(1, 3)], slots=9
            )

    def test_consistency_rejects_value_split_at_high_grade(self):
        with pytest.raises(ProxcensusViolation):
            check_proxcensus_consistency(
                [ProxOutput(0, 1), ProxOutput(1, 1)], slots=9
            )

    def test_even_s_grade_zero_must_share_value_with_graded(self):
        # Even s: any grade > 0 forces all values equal (Definition 2).
        with pytest.raises(ProxcensusViolation):
            check_proxcensus_consistency(
                [ProxOutput(0, 1), ProxOutput(1, 0)], slots=10
            )
        # Odd s: the same configuration is legal (center is valueless).
        check_proxcensus_consistency(
            [ProxOutput(0, 1), ProxOutput(1, 0)], slots=9
        )

    def test_consistency_rejects_overflowing_grade(self):
        with pytest.raises(ProxcensusViolation):
            check_proxcensus_consistency([ProxOutput(0, 5)], slots=9)

    def test_validity(self):
        check_proxcensus_validity(
            [ProxOutput("v", 4), ProxOutput("v", 4)], slots=9, common_input="v"
        )
        with pytest.raises(ProxcensusViolation):
            check_proxcensus_validity(
                [ProxOutput("v", 3)], slots=9, common_input="v"
            )
        with pytest.raises(ProxcensusViolation):
            check_proxcensus_validity(
                [ProxOutput("w", 4)], slots=9, common_input="v"
            )

    def test_outputs_accepted_as_tuples(self):
        check_proxcensus_consistency([(1, 2), (1, 3)], slots=9)
