"""TAB-EFF — the §3.5 efficiency-comparison table, measured.

Paper claim: for target error 2^-κ (assuming a 1-round coin),

    t < n/3:  ours κ+1 rounds   vs  fixed-round Feldman–Micali 2κ
    t < n/2:  ours 3κ/2 rounds  vs  Micali–Vaikuntanathan 2κ

This benchmark *runs* all four protocols in the simulator, counts actual
communication rounds, and asserts they equal the paper's closed forms; the
deterministic Dolev–Strong yardstick (t+1 rounds) is printed alongside.

Execution goes through the experiment engine (hand-built
:class:`~repro.engine.plan.TrialSpec`s with the legacy seeds/sessions, so
every measured number is bit-identical to the old serial loop).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.theory import rounds_for_error

from .conftest import engine_spec, run_plan

KAPPAS = [2, 4, 8, 16]
INPUTS_13 = [1, 0, 1, 0]        # n = 4, t = 1  (t < n/3)
INPUTS_12 = [1, 0, 1, 0, 1]     # n = 5, t = 2  (t < n/2)


def _specs_for(kappa):
    return [
        engine_spec(
            "ba_one_third", INPUTS_13, 1,
            params={"kappa": kappa}, session=f"eff13-{kappa}",
        ),
        engine_spec(
            "feldman_micali", INPUTS_13, 1,
            params={"kappa": kappa}, session=f"efffm-{kappa}",
        ),
        engine_spec(
            "ba_one_half", INPUTS_12, 2,
            params={"kappa": kappa}, session=f"eff12-{kappa}",
        ),
        engine_spec(
            "micali_vaikuntanathan", INPUTS_12, 2,
            params={"kappa": kappa}, session=f"effmv-{kappa}",
        ),
    ]


def _rounds(results):
    ours13, fm, ours12, mv = (result.metrics.rounds for result in results)
    return {"ours13": ours13, "fm": fm, "ours12": ours12, "mv": mv}


def test_efficiency_table(report_sink):
    # One plan for the whole κ-sweep: 4 protocols × len(KAPPAS) specs.
    results = run_plan(
        "eff-sweep", [spec for kappa in KAPPAS for spec in _specs_for(kappa)]
    )
    rows = []
    for position, kappa in enumerate(KAPPAS):
        measured = _rounds(results[position * 4 : position * 4 + 4])
        expected = {
            "ours13": rounds_for_error("ours_one_third", kappa),
            "fm": rounds_for_error("feldman_micali", kappa),
            "ours12": rounds_for_error("ours_one_half", kappa),
            "mv": rounds_for_error("micali_vaikuntanathan", kappa),
        }
        assert measured == expected, f"kappa={kappa}: {measured} != {expected}"
        # The paper's headline orderings.
        assert measured["ours13"] < measured["fm"]
        assert measured["ours12"] < measured["mv"]
        rows.append(
            [
                kappa,
                f"{measured['ours13']} ({expected['ours13']})",
                f"{measured['fm']} ({expected['fm']})",
                f"{measured['ours12']} ({expected['ours12']})",
                f"{measured['mv']} ({expected['mv']})",
                f"{measured['fm'] / measured['ours13']:.2f}x",
                f"{measured['mv'] / measured['ours12']:.2f}x",
            ]
        )
    dolev_strong = run_plan(
        "eff-ds", [engine_spec("dolev_strong", INPUTS_13, 1, session="effds")]
    )[0].metrics.rounds
    report_sink.append(
        "\nTAB-EFF  rounds to reach error 2^-kappa - measured (paper)\n"
        + format_table(
            [
                "kappa",
                "ours t<n/3",
                "FM t<n/3",
                "ours t<n/2",
                "MV t<n/2",
                "speedup 1/3",
                "speedup 1/2",
            ],
            rows,
        )
        + f"\n(deterministic Dolev-Strong yardstick at n=4, t=1: "
        f"{dolev_strong} rounds regardless of kappa; error 0)"
    )
