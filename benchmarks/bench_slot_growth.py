"""FIG-SLOTS — slots-per-round growth of the four Proxcensus families.

Paper formulas reproduced and *executed*:

* Corollary 1 (t < n/3): ``2^r + 1`` slots in ``r`` rounds;
* Lemma 3 (t < n/2): ``2r - 1`` slots in ``r`` rounds;
* Lemma 7 (t < n/2): ``3 + (r-3)(r-2)`` slots in ``r`` rounds;
* Lemma 6 (t < n, single sender): ``s`` slots in ``s - 1`` rounds.

"Executed" means the protocol is actually run for each (family, r) and
must (a) consume exactly ``r`` simulator rounds and (b) hand out the
maximal grade ``⌊(s-1)/2⌋`` under pre-agreement — i.e. the advertised slot
range genuinely exists in the implementation, not just in a formula.  The
whole (family × rounds) sweep fans out through one engine plan.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.proxcensus.base import max_grade
from repro.proxcensus.registry import FAMILIES

from .conftest import engine_spec, run_plan

SWEEP_ROUNDS = {
    "one_third": [1, 2, 3, 4, 5],
    "linear_half": [2, 3, 4, 5],
    "quadratic_half": [3, 4, 5, 6],
    "proxcast": [1, 2, 3, 4],
}


def _spec(family, rounds):
    if family == "one_third":
        return engine_spec(
            "prox_one_third", [1] * 4, 1,
            params={"rounds": rounds}, session=f"sg13-{rounds}",
        )
    if family == "linear_half":
        return engine_spec(
            "prox_linear_half", [1] * 5, 2,
            params={"rounds": rounds}, session=f"sglh-{rounds}",
        )
    if family == "quadratic_half":
        return engine_spec(
            "prox_quadratic_half", [1] * 5, 2,
            params={"rounds": rounds}, session=f"sgqh-{rounds}",
        )
    if family == "proxcast":
        return engine_spec(
            "proxcast", [1] * 4, 3,
            params={"slots": rounds + 1, "dealer": 0},
            session=f"sgpx-{rounds}",
        )
    raise AssertionError(family)


def test_slot_growth_formulas_and_executions(report_sink):
    points = [
        (name, rounds)
        for name, rounds_list in SWEEP_ROUNDS.items()
        for rounds in rounds_list
    ]
    results = run_plan(
        "slot-growth", [_spec(name, rounds) for name, rounds in points]
    )
    rows = []
    for (name, rounds), res in zip(points, results):
        slots = FAMILIES[name].slots_for_rounds(rounds)
        grades = {o.grade for o in res.outputs.values()}
        assert len(grades) == 1
        grade = grades.pop()
        assert res.metrics.rounds == rounds, (name, rounds, res.metrics.rounds)
        assert grade == max_grade(slots), (name, rounds, grade, slots)
        rows.append([name, rounds, slots, grade])
    report_sink.append(
        "\nFIG-SLOTS  slots per round, formula == execution "
        "(grade = max grade reached under pre-agreement)\n"
        + format_table(["family", "rounds", "slots", "max grade"], rows)
    )


def test_exponential_beats_quadratic_beats_linear(report_sink):
    for rounds in (6, 10, 20, 40):
        exp = FAMILIES["one_third"].slots_for_rounds(rounds)
        quad = FAMILIES["quadratic_half"].slots_for_rounds(rounds)
        lin = FAMILIES["linear_half"].slots_for_rounds(rounds)
        cast = FAMILIES["proxcast"].slots_for_rounds(rounds)
        assert exp > quad > lin > cast
    report_sink.append(
        "FIG-SLOTS  asymptotic ordering holds: 2^r+1 > 3+(r-3)(r-2) > 2r-1 "
        "> r+1 for r >= 6"
    )
