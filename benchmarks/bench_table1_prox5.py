"""TAB1 — the paper's Table 1: slot conditions of the 3-round Prox_5.

Regenerates the condition matrix from the implementation
(:func:`repro.proxcensus.linear_half.grade_conditions`) and validates it
two ways: against the deadlines the paper's Table 1 encodes, and against
*executed traces* — protocol runs whose outputs must sit in the slot the
conditions predict.
"""

from __future__ import annotations

from repro.analysis.tables import render_table1, table1_prox5_conditions

from .conftest import engine_spec, run_plan

PAPER_TABLE1 = {
    # (value, grade) -> (Σ_v by, no Σ_other by, Ω_v by); r = 3.
    (0, 2): (1, 3, 2),
    (0, 1): (2, 2, 3),
    (1, 1): (2, 2, 3),
    (1, 2): (1, 3, 2),
}


def test_table1_conditions_match_paper(report_sink):
    table = table1_prox5_conditions(3)
    for slot, (sigma_by, no_other_by, omega_by) in PAPER_TABLE1.items():
        assert table[slot] == {
            "sigma_by": sigma_by,
            "no_other_by": no_other_by,
            "omega_by": omega_by,
        }, slot
    report_sink.append("\nTAB1  Prox_5 slot conditions (regenerated)\n" + render_table1(3))


def test_executed_traces_land_on_predicted_slots(report_sink):
    pre, attacked = run_plan(
        "table1-traces",
        [
            engine_spec(
                "prox_linear_half", [1] * 5, 2,
                params={"rounds": 3}, session="t1a",
            ),
            # The straddle attack: exactly the (v,1) / (⊥,0)
            # adjacency of Table 1's middle columns.
            engine_spec(
                "prox_linear_half", [0, 0, 1, 1, 1], 2,
                params={"rounds": 3},
                adversary="bare_straddle12",
                adversary_params={"victims": (3, 4)},
                session="t1b",
            ),
        ],
    )
    # Pre-agreement on 1: everybody must hit the (1, 2) slot.
    assert all(tuple(o) == (1, 2) for o in pre.outputs.values())
    grades = sorted(o.grade for o in attacked.honest_outputs.values())
    assert grades == [0, 0, 1]
    report_sink.append(
        "TAB1  executed traces: pre-agreement -> (v,2); straddle attack -> "
        "{(v,1), (⊥,0)} as per the table's middle columns"
    )
