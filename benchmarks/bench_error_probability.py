"""FIG-ERR — Theorem 1 / Corollary 2 error probabilities, measured.

Paper claims reproduced here:

1. **Per-iteration failure ≤ 1/(s-1)** (Theorem 1), and the bound is
   *tight*: under the worst-case straddle adversaries
   (:mod:`repro.adversary.straddle`) the measured disagreement rate of a
   single Π_iter^s matches ``1/(s-1)`` up to sampling noise.
2. **Exponential decay with κ** (Corollary 2): the measured end-to-end
   failure of the t<n/3 protocol halves per extra round; the t<n/2
   protocol gains 2 bits per 3-round iteration.  Both track ``2^-κ``.

The Monte-Carlo loops run through the experiment engine
(:mod:`repro.engine`) on the vector backend with the historical seed
schedule, so the measured rates are identical to the legacy serial
harness (and to every worker count and backend — see
``tests/engine/test_determinism.py``).
"""

from __future__ import annotations

from repro.analysis.curves import log_sparkline
from repro.analysis.report import format_table
from repro.analysis.theory import per_iteration_failure
from repro.engine import ParallelRunner, TrialPlan

TRIALS = 300

_RUNNER = ParallelRunner(backend="vector")


def _failure_rate(
    protocol, inputs, max_faulty, kappa, adversary, victims,
    trials=TRIALS, seed=0,
):
    plan = TrialPlan.monte_carlo(
        name=f"{protocol}-k{kappa}",
        protocol=protocol,
        inputs=inputs,
        max_faulty=max_faulty,
        trials=trials,
        params={"kappa": kappa},
        adversary=adversary,
        adversary_params={"victims": victims},
        seed=seed,
        # Agreement rates don't need signature tallies; skip the walk.
        collect_signatures=False,
    )
    return _RUNNER.run(plan).disagreement_rate()


def one_third_failure(kappa, adversary="straddle13", trials=TRIALS, seed=0):
    return _failure_rate(
        "ba_one_third", (0, 0, 1, 1), 1, kappa, adversary, (3,),
        trials=trials, seed=seed + kappa,
    )


def one_half_failure(kappa, adversary="straddle12", trials=TRIALS, seed=0):
    return _failure_rate(
        "ba_one_half", (0, 0, 1, 1, 1), 2, kappa, adversary, (3, 4),
        trials=trials, seed=seed + 100 + kappa,
    )


def _sigma(bound: float, trials: int) -> float:
    return max((bound * (1 - bound) / trials) ** 0.5, 1e-6)


def test_theorem1_bound_is_met_and_tight_one_third(report_sink):
    """t<n/3: single iteration with s = 2^κ+1 slots — the κ-round case of
    the protocol IS one iteration, so end-to-end failure equals the
    per-iteration failure 1/(s-1) = 2^-κ."""
    rows = []
    for kappa in (1, 2, 3, 4):
        slots = 2 ** kappa + 1
        bound = float(per_iteration_failure(slots))
        rate = one_third_failure(kappa)
        assert rate <= bound + 4 * _sigma(bound, TRIALS), (kappa, rate, bound)
        assert rate >= bound - 4 * _sigma(bound, TRIALS), (
            "straddle adversary should realize the bound",
            kappa, rate, bound,
        )
        rows.append([slots, f"{bound:.4f}", f"{rate:.4f}", TRIALS])
    report_sink.append(
        "\nFIG-ERR (a)  t<n/3 single iteration vs worst-case straddle "
        "adversary (Theorem 1 tight)\n"
        + format_table(["slots s", "bound 1/(s-1)", "measured", "trials"], rows)
    )


def test_theorem1_bound_is_met_and_tight_one_half(report_sink):
    """t<n/2: one 3-round Prox_5 iteration fails with probability 1/4."""
    bound = float(per_iteration_failure(5))
    rate = one_half_failure(2)
    assert abs(rate - bound) <= 4 * _sigma(bound, TRIALS), (rate, bound)
    report_sink.append(
        f"FIG-ERR (b)  t<n/2 single Prox_5 iteration vs straddle adversary: "
        f"measured {rate:.4f}, bound {bound:.4f}"
    )


def test_end_to_end_error_decays_exponentially(report_sink):
    rows = []
    curves = {}
    for protocol, runner in (
        ("one_third", one_third_failure),
        ("one_half", one_half_failure),
    ):
        rates = {}
        for kappa in (1, 2, 4, 6, 8):
            rates[kappa] = runner(kappa)
            bound = 2.0 ** -kappa
            assert rates[kappa] <= bound + 4 * _sigma(bound, TRIALS), (
                protocol, kappa, rates[kappa], bound,
            )
            rows.append([protocol, kappa, f"{bound:.4f}", f"{rates[kappa]:.4f}"])
        assert rates[8] < max(rates[1], 1 / TRIALS)
        curves[protocol] = [rates[k] for k in (1, 2, 4, 6, 8)]
    report_sink.append(
        "FIG-ERR (c)  end-to-end failure vs kappa under worst-case attack "
        "(bound 2^-kappa)\n"
        + format_table(["protocol", "kappa", "bound 2^-k", "measured"], rows)
        + "\n  decay (log scale, kappa = 1,2,4,6,8): "
        + "   ".join(
            f"{name} {log_sparkline(series, floor=1 / (2 * TRIALS))}"
            for name, series in curves.items()
        )
    )


def test_generic_equivocation_stays_below_bound(report_sink):
    """A protocol-agnostic equivocator must do no better than Theorem 1
    allows — and in fact does far worse for s > 3 (context for why the
    dedicated straddle adversaries exist)."""
    rows = []
    for kappa in (1, 3):
        rate = one_third_failure(
            kappa, adversary="two_face", trials=100, seed=31,
        )
        bound = 2.0 ** -kappa
        assert rate <= bound + 4 * _sigma(bound, 100)
        rows.append([kappa, f"{bound:.4f}", f"{rate:.4f}"])
    report_sink.append(
        "FIG-ERR (d)  generic two-face equivocation (non-optimal attack)\n"
        + format_table(["kappa", "bound", "measured"], rows)
    )
