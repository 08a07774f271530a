#!/usr/bin/env python3
"""Adversary lab: every attack in the repository vs both BA protocols.

Measures agreement/validity outcomes of the paper's two protocols against
the full strategy zoo — passive, crash, malformed flooding, generic
equivocation, adaptive mid-round corruption, coin eavesdropping, and the
worst-case straddle attacks that realize Theorem 1's 1/(s-1) bound.

Run:  python examples/adversary_lab.py
"""

from repro import (
    EavesdropCoinAdversary,
    LastRoundCorruptionAdversary,
    ParallelRunner,
    TrialPlan,
)
from repro.analysis.report import format_table
from repro.engine import register_adversary

KAPPA = 4
TRIALS = 120

# The stock registry names the attacks the benchmarks sweep; an attack of
# your own joins it the same way, after which plans can name it.
register_adversary(
    "adaptive_strike",
    lambda factory, victim, strike_round: LastRoundCorruptionAdversary(
        victim, strike_round
    ),
)
register_adversary(
    "eavesdrop_coin",
    lambda factory, victims, coin_low, coin_high: EavesdropCoinAdversary(
        list(victims), coin_low, coin_high
    ),
)


def measure(protocol, inputs, max_faulty, adversary, adversary_params):
    plan = TrialPlan.monte_carlo(
        f"{protocol}-{adversary}", protocol, inputs, max_faulty, trials=TRIALS,
        params={"kappa": KAPPA}, adversary=adversary,
        adversary_params=adversary_params, seed=11,
    )
    return ParallelRunner().run(plan).disagreement_rate()


def main() -> None:
    bound = 2.0 ** -KAPPA
    rows = []

    # --- t < n/3: n = 4, one corruption --------------------------------
    for name, adversary, params in (
        ("passive", None, None),
        ("crash@r2", "crash", {"victims": [3], "crash_round": 2}),
        ("malformed flood", "malformed", {"victims": [3]}),
        ("two-face equivocation", "two_face", {"victims": [3]}),
        ("adaptive strike@r3", "adaptive_strike", {"victim": 3, "strike_round": 3}),
        ("straddle (worst case)", "straddle13", {"victims": [3]}),
    ):
        rate = measure("ba_one_third", [0, 0, 1, 1], 1, adversary, params)
        rows.append(["t<n/3", name, f"{rate:.4f}", f"{bound:.4f}"])

    # --- t < n/2: n = 5, two corruptions --------------------------------
    for name, adversary, params in (
        ("passive", None, None),
        ("crash@r1 x2", "crash", {"victims": [3, 4], "crash_round": 1}),
        ("malformed flood", "malformed", {"victims": [3, 4]}),
        ("two-face equivocation", "two_face", {"victims": [3, 4]}),
        (
            "coin eavesdropper",
            "eavesdrop_coin",
            {"victims": [4], "coin_low": 1, "coin_high": 4},
        ),
        ("straddle (worst case)", "straddle12", {"victims": [3, 4]}),
    ):
        rate = measure("ba_one_half", [0, 0, 1, 1, 1], 2, adversary, params)
        rows.append(["t<n/2", name, f"{rate:.4f}", f"{bound:.4f}"])

    print(f"disagreement rates over {TRIALS} trials, kappa={KAPPA} "
          f"(bound 2^-{KAPPA} = {bound:.4f})\n")
    print(format_table(["protocol", "adversary", "measured", "bound"], rows))
    print(
        "\nreading: only the protocol-aware straddle attacks approach the "
        "bound; everything else does strictly worse, and none exceeds it."
    )

    for row in rows:
        assert float(row[2]) <= bound + 0.08, row  # 4-sigma-ish slack


if __name__ == "__main__":
    main()
