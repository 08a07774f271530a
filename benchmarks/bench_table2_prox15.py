"""TAB2 — the paper's Table 2: slot conditions of the quadratic Prox_15.

The condition matrix is *derived inductively* by
:func:`repro.proxcensus.quadratic_half.condition_table`; this benchmark
checks it cell-for-cell against the table printed in the paper (r = 6,
15 slots) and validates executed traces of the protocol itself.
"""

from __future__ import annotations

from repro.analysis.tables import render_table2
from repro.proxcensus.quadratic_half import (
    condition_table,
    slots_after_rounds,
    top_grade,
)

from .conftest import engine_spec, run_plan

# The paper's Table 2, as printed (rows = rounds, one value column).
PAPER_TABLE2 = {
    7: {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
    6: {2: 1, 3: 2, 4: 3, 5: 4, 6: 5},
    5: {2: 1, 3: 2, 4: 3, 5: 4, 6: 4},
    4: {2: 1, 3: 2, 4: 3, 5: 3, 6: 4},
    3: {2: 1, 3: 2, 4: 3, 5: 3, 6: 3},
    2: {2: 1, 3: 2, 4: 2, 5: 3, 6: 3},
    1: {2: 1, 3: 2, 4: 2, 5: 2, 6: 3},
}


def test_condition_table_matches_paper(report_sink):
    assert condition_table(6) == PAPER_TABLE2
    assert slots_after_rounds(6) == 15
    assert top_grade(6) == 7
    report_sink.append(
        "\nTAB2  quadratic Prox_15 conditions (derived inductively; "
        "matches the paper cell-for-cell)\n" + render_table2(6)
    )


def test_omega3_appears_in_every_positive_grade():
    """The disjointness anchor the paper's consistency proof leans on."""
    for rounds in range(4, 10):
        for grade, per_round in condition_table(rounds).items():
            assert any(v >= 3 for v in per_round.values()), (rounds, grade)


def test_executed_prox15_obeys_the_table(report_sink):
    (res,) = run_plan(
        "table2-traces",
        [
            engine_spec(
                "prox_quadratic_half", [1] * 5, 2,
                params={"rounds": 6}, session="t2a",
            )
        ],
    )
    # Pre-agreement: all conditions satisfiable every round -> grade 7.
    assert all(tuple(o) == (1, 7) for o in res.outputs.values())
    report_sink.append(
        "TAB2  executed trace: pre-agreement -> (v,7), the table's edge column"
    )
