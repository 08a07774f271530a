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
``tests/engine/test_determinism.py``).  The adaptive test at the bottom
re-runs one sweep through :class:`repro.engine.AdaptiveRunner` and
reports the trials early stopping saved while reaching the same
verdicts.
"""

from __future__ import annotations

from repro.analysis.curves import log_sparkline
from repro.analysis.report import format_table
from repro.analysis.stats import SequentialEstimate
from repro.analysis.theory import per_iteration_failure
from repro.engine import AdaptiveRunner, ParallelRunner, TrialPlan

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


def _kappa_sweep_plan(kappas, trials):
    return TrialPlan.concat(
        "adaptive-sweep",
        [
            TrialPlan.monte_carlo(
                name=f"one_third-k{kappa}",
                protocol="ba_one_third",
                inputs=(0, 0, 1, 1),
                max_faulty=1,
                trials=trials,
                params={"kappa": kappa},
                adversary="straddle13",
                adversary_params={"victims": (3,)},
                seed=kappa,
                collect_signatures=False,
            )
            for kappa in kappas
        ],
    )


def test_adaptive_allocation_saves_trials_same_verdicts(report_sink):
    """FIG-ERR (e): adaptive early stopping spends measurably fewer trials
    on the κ-sweep yet reaches the same accept/reject verdict per config
    — the property that makes backend="real" sweeps affordable."""
    kappas = (1, 2, 4)
    plan = _kappa_sweep_plan(kappas, TRIALS)
    bounds = {f"one_third-k{kappa}": 2.0 ** -kappa for kappa in kappas}

    fixed = _RUNNER.run(plan)
    adaptive = AdaptiveRunner(backend="vector").run(plan, bounds)

    rows = []
    for name, indices in plan.configs().items():
        outcome = adaptive.configs[name]
        estimate = outcome.estimate
        fixed_estimate = SequentialEstimate(bounds[name])
        fixed_hits = sum(
            1 for index in indices if not fixed.results[index].honest_agree()
        )
        fixed_estimate.update(fixed_hits, len(indices))
        assert estimate.accepted == fixed_estimate.accepted, name
        rows.append(
            [
                name,
                f"{estimate.bound:.4f}",
                len(indices),
                estimate.trials,
                estimate.status,
                "yes" if outcome.stopped_early else "-",
            ]
        )
    assert adaptive.spent < len(plan), (
        "early stopping should save trials on this sweep",
        adaptive.spent,
        len(plan),
    )
    report_sink.append(
        "FIG-ERR (e)  adaptive allocation vs fixed budget "
        f"(spent {adaptive.spent}/{len(plan)} trials, verdicts identical)\n"
        + format_table(
            ["config", "bound", "fixed n", "adaptive n", "status", "early"],
            rows,
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
