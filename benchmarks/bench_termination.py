"""TERM — termination flavours (paper §1, 'Termination flavors').

Paper: probabilistic-termination BA is faster in expectation but "cannot
achieve simultaneous termination" (Dwork–Moses; Moses–Tuttle), which is
why fixed-round protocols — the paper's subject — are preferred as
building blocks.  Both facts are measured here:

* the Las-Vegas FM loop decides in expected O(1) iterations — far fewer
  rounds than the fixed-round budget for the same confidence; and
* a grade-splitting adversary makes its honest parties *halt in different
  rounds*, while every fixed-round protocol in the repository finishes all
  honest parties in the same round, every time.

Execution goes through the experiment engine (hand-built
:class:`~repro.engine.plan.TrialSpec`s with the legacy seeds/sessions, so
every measured number is bit-identical to the old serial loop).
"""

from __future__ import annotations

from repro.analysis.report import format_table

from .conftest import engine_spec, run_plan

TRIALS = 40


def test_expected_iterations_are_constant(report_sink):
    results = run_plan(
        "term-lv",
        [
            engine_spec(
                "fm_probabilistic", [0, 1, 0, 1], 1,
                seed=seed, session=f"te{seed}",
            )
            for seed in range(TRIALS)
        ],
    )
    iterations = []
    rounds = []
    for res in results:
        assert res.honest_agree()
        iterations.extend(
            o.decided_iteration for o in res.honest_outputs.values()
        )
        rounds.append(max(res.finish_rounds.values()))
    mean_iterations = sum(iterations) / len(iterations)
    assert mean_iterations <= 4
    report_sink.append(
        f"\nTERM (a)  Las-Vegas FM: mean decision iteration "
        f"{mean_iterations:.2f} over {TRIALS} split-input runs "
        f"(worst halt round {max(rounds)}); expected O(1) as claimed"
    )


def test_termination_spread_vs_fixed_round(report_sink):
    # Fixed-round: everyone halts together, always.  One plan runs
    # the ten seeds plus the grade-split attack trial.
    specs = [
        engine_spec(
            "ba_one_third", [0, 1, 0, 1], 1,
            params={"kappa": 6}, seed=seed, session=f"tf{seed}",
        )
        for seed in range(10)
    ]
    # Las-Vegas + grade-split adversary: one-iteration halting spread.
    specs.append(
        engine_spec(
            "fm_probabilistic", [0, 0, 1, 0], 1,
            adversary="grade_split",
            adversary_params={
                "victims": (3,), "target": 0, "boost_value": 0,
            },
            session="tspread",
        )
    )
    results = run_plan("term-spread", specs)
    fixed_spreads = set()
    for res in results[:10]:
        finish = [res.finish_rounds[p] for p in res.honest_parties]
        fixed_spreads.add(max(finish) - min(finish))
    res = results[10]
    finish = [res.finish_rounds[p] for p in res.honest_parties]
    lv_spread = max(finish) - min(finish)
    assert fixed_spreads == {0}
    assert lv_spread == 3  # one full iteration (2 prox + 1 coin rounds)
    assert res.honest_agree()
    report_sink.append(
        "TERM (b)  halting-round spread across honest parties\n"
        + format_table(
            ["protocol", "spread (rounds)"],
            [
                ["fixed-round (ours, FM, MV)", "0 in every run"],
                ["Las-Vegas FM under grade-split attack", lv_spread],
            ],
        )
        + "\n(non-simultaneous termination, exactly the §1 motivation for "
        "fixed-round protocols)"
    )
