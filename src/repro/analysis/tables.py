"""Programmatic regeneration of the paper's tables and figures.

Each function derives its table or figure *from the implementation*
(not hard-coded copies of the paper), so that the benchmarks genuinely
check the implementation against the paper:

* :func:`table1_prox5_conditions` — Table 1 (slot conditions of the
  3-round ``Prox_5`` for t < n/2), from
  :func:`repro.proxcensus.linear_half.grade_conditions`.
* :func:`render_table2` — Table 2 (slot conditions of the quadratic
  ``Prox_15``), from
  :func:`repro.proxcensus.quadratic_half.condition_table`, whose
  per-grade map holds for both values.
* :func:`fig2_expansion_conditions` — Fig. 2 (one-round expansion
  ``Prox_s → Prox_{2s-1}`` slot conditions), from the expansion rule.
* :func:`fig3_extraction_matrix` — Fig. 3 (the extraction cut), from
  :func:`repro.core.extraction.extract`.

The corresponding ``benchmarks/`` modules print these next to the paper's
expected values and assert equality.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.extraction import coin_range, extract
from ..proxcensus.base import max_grade, slot_label
from ..proxcensus.linear_half import grade_conditions
from ..proxcensus.quadratic_half import condition_table
from .report import format_matrix

__all__ = [
    "binary_slot_labels",
    "table1_prox5_conditions",
    "fig2_expansion_conditions",
    "fig3_extraction_matrix",
    "render_table1",
    "render_table2",
    "render_fig3",
]


def binary_slot_labels(slots: int) -> List[Tuple[Optional[int], int]]:
    """Slot labels left to right, e.g. ``(0,2) (0,1) (⊥,0) (1,1) (1,2)``."""
    return [slot_label(position, slots) for position in range(slots)]


def table1_prox5_conditions(rounds: int = 3) -> Dict[Tuple[int, int], Dict[str, int]]:
    """Table 1: for each binary slot ``(v, g)`` with ``g >= 1``, the three
    deadlines of the linear t < n/2 Proxcensus (Σ on v, no Σ on the other
    value, Ω on v)."""
    conditions = grade_conditions(rounds)
    table = {}
    for value in (0, 1):
        for grade, deadline in conditions.items():
            table[(value, grade)] = dict(deadline)
    return table


def render_table1(rounds: int = 3) -> str:
    """Human-readable Table 1: rows are rounds, columns slots."""
    slots = 2 * rounds - 1
    labels = binary_slot_labels(slots)
    conditions = table1_prox5_conditions(rounds)
    cells = []
    for round_index in range(1, rounds + 1):
        row = []
        for value, grade in labels:
            if value is None or grade == 0:
                row.append("?")
                continue
            deadline = conditions[(value, grade)]
            tokens = []
            if deadline["sigma_by"] == round_index:
                tokens.append(f"Σ{value}")
            if deadline["omega_by"] == round_index:
                tokens.append(f"Ω{value}")
            if deadline["no_other_by"] == round_index:
                tokens.append(f"¬Σ{1 - value}")
            row.append(" ".join(tokens) if tokens else "?")
        cells.append(row)
    return format_matrix(
        [f"round {i}" for i in range(1, rounds + 1)],
        [_label_str(l) for l in labels],
        cells,
        corner="deadline",
    )


def render_table2(rounds: int = 6) -> str:
    """Human-readable Table 2: rows rounds 1..r, columns slots, cells Ω_k."""
    slots = 3 + (rounds - 3) * (rounds - 2)
    labels = binary_slot_labels(slots)
    per_grade = condition_table(rounds)
    cells = []
    for round_index in range(1, rounds + 1):
        row = []
        for value, grade in labels:
            if value is None or grade == 0:
                row.append("?")
                continue
            omega_index = per_grade[grade].get(round_index)
            row.append(f"Ω{omega_index}" if omega_index is not None else "?")
        cells.append(row)
    return format_matrix(
        [f"round {i}" for i in range(1, rounds + 1)],
        [_label_str(l) for l in labels],
        cells,
        corner="",
    )


def fig2_expansion_conditions(inner_slots: int) -> List[Tuple[Tuple[Any, int], str]]:
    """Fig. 2: conditions for each slot of ``Prox_{2s-1}`` after expanding a
    ``Prox_s`` — as ``((value-symbol, new_grade), condition-string)`` pairs,
    highest slot first.

    The strings are generated from the same case analysis the implementation
    executes (:func:`repro.proxcensus.one_third._expand_once`).
    """
    grades = max_grade(inner_slots)
    parity = inner_slots % 2
    rows: List[Tuple[Tuple[Any, int], str]] = []
    rows.append(
        (("z", 2 * grades + 1 - parity), f"|S(z,{grades})| >= n-t")
    )
    for band in range(grades - 1, parity - 1, -1):
        rows.append(
            (
                ("z", 2 * band + 2 - parity),
                f"|S(z,{band}) u S(z,{band + 1})| >= n-t  and  "
                f"|S(z,{band + 1})| >= n-2t",
            )
        )
        rows.append(
            (
                ("z", 2 * band + 1 - parity),
                f"|S(z,{band}) u S(z,{band + 1})| >= n-t  and  "
                f"|S(z,{band})| >= n-2t",
            )
        )
    if parity == 1:
        rows.append(
            (("z", 1), "|S(grade 0) u S(z,1)| >= n-t  and  |S(z,1)| >= n-2t")
        )
    rows.append((("any", 0), "otherwise (default)"))
    return rows


def fig3_extraction_matrix(slots: int = 10) -> List[List[int]]:
    """Fig. 3: the extraction outcome for every (slot, coin) pair.

    Row order is slot position left to right; columns are coin values
    ``1..s-1``.
    """
    low, high = coin_range(slots)
    matrix = []
    for position in range(slots):
        value, grade = slot_label(position, slots)
        if value is None:
            # central slot of odd s: both value interpretations agree
            value, grade = 0, 0
        matrix.append(
            [extract(value, grade, coin, slots) for coin in range(low, high + 1)]
        )
    return matrix


def render_fig3(slots: int = 10) -> str:
    """Human-readable Fig. 3: slots x coin values outcome matrix."""
    labels = [_label_str(l) for l in binary_slot_labels(slots)]
    matrix = fig3_extraction_matrix(slots)
    low, high = coin_range(slots)
    return format_matrix(
        labels, [f"c={c}" for c in range(low, high + 1)], matrix, corner="slot"
    )


def _label_str(label: Tuple[Optional[int], int]) -> str:
    value, grade = label
    return f"(⊥,{grade})" if value is None else f"({value},{grade})"
