"""COIN-BIAS — why the paper's coin must be a *unique threshold* signature.

Paper §1 on Chen–Micali [4]: a VRF-based coin is "computational security
against an adversary that is not strongly rushing".  This benchmark makes
the caveat quantitative.  A strongly rushing adversary that sees honest
VRF evaluations before publishing its own steers the minimum-evaluation
coin whenever a corrupted party holds the global minimum:

    P(coin = preferred) = 1/2 + t/(4n)    (steer when: corrupt holds the
                                           min × baseline wrong × flip right)

The threshold-signature coin (paper §2.2) is immune: its value is a
deterministic function of key material and index; withholding shares can
only make the flip fail (and it cannot, while n - t ≥ t + 1 honest shares
arrive).

Runs through the experiment engine: all 4 × TRIALS flips are one
:class:`TrialPlan` batch.  The adversary lives inside the engine's
trial, so instead of reading its ``steered`` counter the steering count
is derived from the *paired* outputs — sessions depend only on
``(kind, trial)``, never on the attack, so the coin material in the
passive and withheld series is identical and every flip difference is
attributable to the attack alone.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.stats import wilson_interval

from .conftest import engine_spec, run_plan

TRIALS = 300


def _series_specs(kind, attack):
    """One spec per trial; paired sessions across attacks."""
    specs = []
    for trial in range(TRIALS):
        session = f"cb-{kind}-{trial}"
        adversary = None
        adversary_params = None
        if attack == "withhold":
            if kind == "vrf":
                adversary = "withhold_coin"
                adversary_params = {
                    "victims": (3,), "index": trial, "preferred": 1,
                    "session": session,
                }
            else:
                adversary = "crash"
                adversary_params = {"victims": (3,), "crash_round": 1}
        specs.append(
            engine_spec(
                f"{kind}_coin", [None] * 4, 1,
                params={"index": trial},
                adversary=adversary,
                adversary_params=adversary_params,
                session=session,
            )
        )
    return specs


def _flips(results):
    """The honest coin value (0/1) per trial, in trial order."""
    return [next(iter(res.honest_outputs.values())) for res in results]


def test_vrf_coin_is_biased_threshold_coin_is_not(report_sink):
    cells = [
        (kind, attack)
        for kind in ("vrf", "threshold")
        for attack in ("passive", "withhold")
    ]
    specs = [
        spec for kind, attack in cells for spec in _series_specs(kind, attack)
    ]
    results = run_plan("bench-coin-bias", specs)
    flips = {
        cell: _flips(results[at:at + TRIALS])
        for cell, at in zip(cells, range(0, len(results), TRIALS))
    }

    # Paired exactness: the withheld VRF series may flip a paired
    # miss into a hit (a *steered* flip) but never the reverse.
    steered = sum(
        passive == 0 and withheld == 1
        for passive, withheld in zip(
            flips[("vrf", "passive")], flips[("vrf", "withhold")]
        )
    )
    unsteered = sum(
        passive == 1 and withheld == 0
        for passive, withheld in zip(
            flips[("vrf", "passive")], flips[("vrf", "withhold")]
        )
    )
    assert unsteered == 0, "withholding must never steer away from 1"

    hits = {cell: sum(flips[cell]) for cell in cells}
    rows = []
    for kind, attack in cells:
        count = hits[(kind, attack)]
        low, high = wilson_interval(count, TRIALS)
        rows.append(
            [kind, attack, f"{count / TRIALS:.4f}",
             f"[{low:.4f}, {high:.4f}]",
             steered if (kind, attack) == ("vrf", "withhold") else 0]
        )

    assert steered > 0, "the attack must find steerable flips (~T/16)"
    assert hits[("vrf", "withhold")] == hits[("vrf", "passive")] + steered
    # Expected steering rate t/(4n) = 1/16: allow wide slack.
    assert TRIALS / 40 <= steered <= TRIALS / 8
    # The threshold coin cannot move: withholding = share loss only.
    assert hits[("threshold", "withhold")] == hits[("threshold", "passive")]
    report_sink.append(
        "\nCOIN-BIAS  P(coin = adversary's preferred bit), paired flips "
        f"({TRIALS} per cell; n=4, t=1; theory for biased VRF: "
        "1/2 + t/4n = 0.5625)\n"
        + format_table(
            ["coin", "adversary", "rate", "95% CI", "steered"], rows
        )
    )
