"""FIG2 — the paper's Fig. 2: the one-round Proxcensus expansion.

Fig. 2 tabulates the quorum conditions that map a ``Prox_4`` (resp.
``Prox_5``) echo profile onto the 7 (resp. 9) slots of the expanded
Proxcensus.  We regenerate those condition rows from the implementation's
own case analysis and validate the expansion *behaviourally*: one extra
round must double the slot range (2s - 1) while preserving validity and
consistency, including from non-binary inner Proxcensus states.  All
executions drive the experiment engine.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.tables import fig2_expansion_conditions
from repro.proxcensus.base import (
    check_proxcensus_consistency,
    check_proxcensus_validity,
    max_grade,
)
from repro.proxcensus.one_third import slots_after_rounds

from .conftest import engine_spec, run_plan


def test_fig2_condition_rows(report_sink):
    """The condition table for both of the figure's examples."""
    for inner, outer in ((4, 7), (5, 9)):
        rows = fig2_expansion_conditions(inner)
        grades = sorted(grade for (_v, grade), _cond in rows)
        # one condition row per value-side grade 1..G plus the default slot
        assert grades == list(range(0, max_grade(outer) + 1)), (inner, grades)
    report_sink.append(
        "\nFIG2  expansion conditions Prox_5 -> Prox_9 (z = candidate value)\n"
        + format_table(
            ["new slot", "condition"],
            [
                [f"({v},{g})", condition]
                for (v, g), condition in fig2_expansion_conditions(5)
            ],
        )
    )


def test_expansion_doubles_slots_and_preserves_invariants(report_sink):
    """Behavioural check over the iterated expansion chain 2->3->5->9->17."""
    specs = []
    for rounds in (1, 2, 3, 4):
        specs.append(
            engine_spec(
                "prox_one_third", [1] * 4, 1,
                params={"rounds": rounds}, session=f"f2v{rounds}",
            )
        )
        specs.append(
            engine_spec(
                "prox_one_third", [0, 0, 1, 1], 1,
                params={"rounds": rounds},
                adversary="two_face",
                adversary_params={"victims": (3,)},
                session=f"f2c{rounds}",
            )
        )
    results = run_plan("fig2-expansion-chain", specs)
    for position, rounds in enumerate((1, 2, 3, 4)):
        slots = slots_after_rounds(rounds)
        assert slots == 2 * slots_after_rounds(rounds - 1) - 1
        valid, attacked = results[2 * position], results[2 * position + 1]
        check_proxcensus_validity(valid.outputs.values(), slots, 1)
        check_proxcensus_consistency(attacked.honest_outputs.values(), slots)
    report_sink.append(
        "FIG2  executed expansion chain Prox_2 -> Prox_3 -> Prox_5 -> "
        "Prox_9 -> Prox_17: validity and consistency hold at every stage"
    )


def test_fig2_prox4_example_executed(report_sink):
    """The figure's even-s example, executed from synthetic Prox_4 states
    (the iterated chain only produces odd s, so this path needs the
    standalone expansion API)."""
    extremal, adjacent = run_plan(
        "fig2-prox4-example",
        [
            # extremal Prox_4 slot -> extremal Prox_7 slot
            engine_spec(
                "prox_expand_once", [(1, 1)] * 4, 1,
                params={"slots": 4}, session="f2p4a",
            ),
            # adjacent Prox_4 slots -> adjacent Prox_7 slots
            engine_spec(
                "prox_expand_once", [(1, 0), (1, 1), (1, 1), (1, 0)], 1,
                params={"slots": 4}, session="f2p4b",
            ),
        ],
    )
    check_proxcensus_validity(extremal.outputs.values(), 7, 1)
    check_proxcensus_consistency(adjacent.outputs.values(), 7)
    report_sink.append(
        "FIG2  executed Prox_4 -> Prox_7 (the figure's even-s example) "
        "from synthetic inner states: extremal -> extremal, adjacent -> "
        "adjacent"
    )
