"""Tests for the extraction function (paper §3.4, Fig. 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extraction import coin_range, extract, splitting_coin
from repro.proxcensus.base import max_grade, slot_label
from tests.oracles import extract_by_position


@st.composite
def slot_and_coin(draw):
    slots = draw(st.integers(min_value=2, max_value=64))
    value = draw(st.integers(0, 1))
    grade = draw(st.integers(min_value=0, max_value=max_grade(slots)))
    coin = draw(st.integers(min_value=1, max_value=slots - 1))
    return slots, value, grade, coin


class TestClosedForm:
    @given(args=slot_and_coin())
    @settings(max_examples=200, deadline=None)
    def test_formula_equals_geometric_form(self, args):
        """The paper's f(b,g,c) is the cut 'output 1 iff slot >= c'."""
        slots, value, grade, coin = args
        assert extract(value, grade, coin, slots) == extract_by_position(
            value, grade, coin, slots
        )

    @given(
        slots=st.integers(min_value=2, max_value=64),
        coin=st.integers(min_value=1, max_value=63),
    )
    @settings(max_examples=100, deadline=None)
    def test_validity_slots_are_fixed_points(self, slots, coin):
        """Pre-agreement lands on an extremal slot; no coin changes it."""
        if coin > slots - 1:
            return
        grades = max_grade(slots)
        assert extract(1, grades, coin, slots) == 1
        assert extract(0, grades, coin, slots) == 0

    @given(slots=st.integers(min_value=2, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_slot_position(self, slots):
        """For a fixed coin, the cut is a monotone step function."""
        for coin in range(1, slots):
            outputs = []
            for position in range(slots):
                value, grade = slot_label(position, slots)
                if value is None:
                    value, grade = 0, 0
                outputs.append(extract(value, grade, coin, slots))
            assert outputs == sorted(outputs)  # 0...0 1...1

    @given(slots=st.integers(min_value=2, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_exactly_one_coin_splits_each_adjacent_pair(self, slots):
        """Theorem 1's heart: adjacent slots disagree for exactly 1 coin."""
        for left in range(slots - 1):
            lv, lg = slot_label(left, slots)
            rv, rg = slot_label(left + 1, slots)
            lv, lg = (0, 0) if lv is None else (lv, lg)
            rv, rg = (0, 0) if rv is None else (rv, rg)
            splitting = [
                coin
                for coin in range(1, slots)
                if extract(lv, lg, coin, slots) != extract(rv, rg, coin, slots)
            ]
            assert splitting == [splitting_coin(left, slots)]


class TestValidation:
    def test_coin_range(self):
        assert coin_range(5) == (1, 4)
        with pytest.raises(ValueError):
            coin_range(1)

    def test_extract_rejects_non_bits(self):
        with pytest.raises(ValueError):
            extract(2, 0, 1, 5)

    def test_extract_rejects_bad_grade(self):
        with pytest.raises(ValueError):
            extract(1, 3, 1, 5)

    def test_extract_rejects_bad_coin(self):
        with pytest.raises(ValueError):
            extract(1, 0, 0, 5)
        with pytest.raises(ValueError):
            extract(1, 0, 5, 5)

    def test_splitting_coin_bounds(self):
        with pytest.raises(ValueError):
            splitting_coin(-1, 5)
        with pytest.raises(ValueError):
            splitting_coin(4, 5)

    def test_fm_special_case(self):
        """At s = 3 extraction is classic FM: keep on grade 1, coin on 0."""
        # grade 1 keeps the value whatever the coin
        for coin in (1, 2):
            assert extract(1, 1, coin, 3) == 1
            assert extract(0, 1, coin, 3) == 0
        # grade 0 adopts the coin (c=1 -> 1, c=2 -> 0)
        for value in (0, 1):
            assert extract(value, 0, 1, 3) == 1
            assert extract(value, 0, 2, 3) == 0

    def test_paper_fig3_shape_for_prox10(self):
        """Fig. 3: Prox_10, coin in [1,9]; spot-check the printed cut."""
        assert extract(0, 4, 1, 10) == 0          # leftmost never 1
        assert extract(1, 4, 9, 10) == 1          # rightmost always 1
        assert extract(0, 0, 4, 10) == 1          # (0,0) is position 4
        assert extract(0, 0, 5, 10) == 0
        assert extract(1, 0, 5, 10) == 1          # boundary between centers
