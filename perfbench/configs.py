"""The benchmark's own config table and its four workloads.

Nothing here is imported from the CLI's figure tables: the benchmark
must keep measuring the same thing when those change.  A workload is a
list of :class:`Config` rows plus the ``ParallelRunner`` options it is
run with; :func:`build_plan` turns one (workload, seed, repetition) into
the ``TrialPlan`` the library sees.  ``--seed`` is the only source of
workload randomness — key material is dealt from the fixed default
``setup_seed`` because threshold-RSA dealing time varies 3x with the
prime search and would otherwise make ``setup_s`` a function of the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.engine import ParallelRunner, TrialPlan, deal_suite, predeal_suites
from repro.obs import TelemetryWriter

__all__ = [
    "CHECKED_TRIALS",
    "Config",
    "POOLED",
    "REPETITIONS",
    "SWEEP21",
    "WORKLOADS",
    "Workload",
    "build_plan",
    "config_plan",
    "make_runner",
    "prepare",
    "table_digest",
]

#: Timed repetitions per run (see perfbench.measure for why so many).
REPETITIONS = 20
#: Cross-path identity is checked on this many trials of every config
#: per run, spread over the repetitions.
CHECKED_TRIALS = 20
#: A config never shrinks below this, so ``--smoke`` still covers it.
MIN_TRIALS = 4


@dataclass(frozen=True)
class Config:
    """One row of the config table: a protocol × adversary × network."""

    name: str
    protocol: str
    inputs: Tuple[Any, ...]
    max_faulty: int
    params: Optional[Dict[str, Any]] = None
    adversary: Optional[str] = None
    adversary_params: Optional[Dict[str, Any]] = None
    faults: Optional[str] = None
    fault_params: Optional[Dict[str, Any]] = None
    backend: str = "ideal"
    #: Share of a repetition's trials relative to the other rows.
    weight: float = 1.0


def _kappa_sweep() -> Tuple[Config, ...]:
    rows = []
    for kappa in (1, 2, 4, 6, 8):
        rows.append(
            Config(
                f"ba13-k{kappa}", "ba_one_third", (0, 0, 1, 1), 1,
                {"kappa": kappa}, "straddle13", {"victims": (3,)},
            )
        )
    for kappa in (1, 2, 4, 6, 8):
        rows.append(
            Config(
                f"ba12-k{kappa}", "ba_one_half", (0, 0, 1, 1, 1), 2,
                {"kappa": kappa}, "straddle12", {"victims": (3, 4)},
            )
        )
    return tuple(rows)


_WITHHOLD = {"victims": (3,), "index": 1, "low": 0, "high": 1, "preferred": 1}
_COIN = {"index": 1, "low": 0, "high": 1}

#: The κ-sweep plus one config per figure family: 21 configs covering
#: all eight vector model classes.
SWEEP21: Tuple[Config, ...] = _kappa_sweep() + (
    Config("prox13-straddle", "prox_one_third", (0, 0, 1, 1), 1,
           {"rounds": 3}, "straddle13", {"victims": (3,)}),
    Config("prox13-twoface", "prox_one_third", (0, 0, 1, 1), 1,
           {"rounds": 4}, "two_face", {"victims": (3,)}),
    Config("prox12-bare-straddle", "prox_linear_half", (1, 0, 1, 0, 1), 2,
           {"rounds": 3}, "bare_straddle12", {"victims": (3, 4)}),
    Config("fm-probabilistic", "fm_probabilistic", (1, 0, 1, 0), 1),
    Config("turpin-coan", "turpin_coan_classic", ("a", "b", "a", "a"), 1,
           {"kappa": 3}),
    Config("multivalued-ba", "multivalued_ba", ("a", "b", "a", "a"), 1,
           {"kappa": 3}),
    Config("coin-threshold-withhold", "threshold_coin", (None,) * 4, 1,
           _COIN, "withhold_coin", _WITHHOLD),
    Config("coin-vrf-withhold", "vrf_coin", (None,) * 4, 1,
           _COIN, "withhold_coin", _WITHHOLD),
    Config("proxcast-n9", "proxcast", ("v",) * 9, 4,
           {"slots": 4, "dealer": 0}),
    Config("prox-quadratic", "prox_quadratic_half", (1,) * 5, 2,
           {"rounds": 4}),
    Config("ba12-k4-clean", "ba_one_half", (1, 0, 1, 0, 1), 2, {"kappa": 4}),
)

_N10 = ((0,) * 5 + (1,) * 5, 3, {"kappa": 4}, "straddle13", {"victims": (7, 8, 9)})
_N9 = ((0,) * 4 + (1,) * 5, 4, {"kappa": 4}, "straddle12", {"victims": (5, 6, 7, 8)})

#: Larger n, injected faults and a real-RSA tail: what the sweeps bypass.
#: The real slice comes last so its slow chunk lands at the end of the
#: dispatch queue, where load imbalance shows.
POOLED: Tuple[Config, ...] = (
    Config("ba13-n10", "ba_one_third", *_N10),
    Config("ba13-n10-lossy", "ba_one_third", *_N10, faults="lossy"),
    Config("ba12-n9", "ba_one_half", *_N9),
    Config("ba12-n9-degraded", "ba_one_half", *_N9, faults="degraded",
           fault_params={"rate": 0.05, "split": (0, 1, 2), "heal": 3}),
    Config("ba12-n9-crash", "ba_one_half", *_N9, faults="crash_recover",
           fault_params={"crashes": ((0, 2, 4),)}),
    # ≈15 % of busy time at ~19 ms per real trial against ~2 ms ideal.
    Config("ba13-n4-real", "ba_one_third", (0, 0, 1, 1), 1, {"kappa": 4},
           "straddle13", {"victims": (3,)}, backend="real", weight=0.1),
)


@dataclass(frozen=True)
class Workload:
    """A config table plus the runner options it is executed with."""

    name: str
    why: str
    configs: Tuple[Config, ...]
    #: Sizing hint: trials/s measured at 4d26c47 on the 2-core reference
    #: container.  It only sets how many trials fill ``--seconds``; the
    #: manifest hashes the resulting counts.
    rate_hint: float
    backend: str = "object"
    metrics: bool = False
    telemetry: bool = False
    pooled: bool = False
    collect_signatures: bool = False

    def workers(self) -> int:
        """Workers actually used: 2 on the pooled workload, CPUs allowing."""
        return min(2, os.cpu_count() or 1) if self.pooled else 1

    def repetition_trials(
        self, seconds: float, repetitions: int = REPETITIONS
    ) -> float:
        """Trials in one of ``repetitions`` that together fill ``seconds``."""
        return self.rate_hint * seconds / repetitions

    def trial_counts(self, total_trials: float) -> Dict[str, int]:
        """Trials per config in a plan of about ``total_trials``."""
        weights = sum(config.weight for config in self.configs)
        return {
            config.name: max(
                MIN_TRIALS, round(total_trials * config.weight / weights)
            )
            for config in self.configs
        }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "object-sweep",
            "Reference simulator path, inline: ideal-crypto keying, "
            "network.simulator delivery and protocol steps do nearly all "
            "the work; engine, vector and obs almost none.",
            SWEEP21,
            rate_hint=1000.0,
        ),
        Workload(
            "vector-sweep",
            "engine.vectorized and numpy do the work; the simulator runs "
            "only the probes, so a simulator/protocol change must show no "
            "change here; plan building makes setup_s matter.",
            SWEEP21,
            rate_hint=11000.0,
            backend="vector",
        ),
        Workload(
            "observed-sweep",
            "The same delivery path with the obs collector and telemetry "
            "attached: every trial falls back under metrics=True, so a "
            "bare-path gain that taxes the observed path shows.",
            SWEEP21,
            rate_hint=540.0,
            backend="vector",
            metrics=True,
            telemetry=True,
        ),
        Workload(
            "pooled-campaign",
            "What the sweeps bypass: pool start, chunk dispatch, transport "
            "pack/unpack, the signature walk, n^2 delivery at n=9..10, "
            "network.faults and a real threshold-RSA tail chunk.",
            POOLED,
            rate_hint=550.0,
            pooled=True,
            collect_signatures=True,
        ),
    )
}


def config_plan(
    config: Config, trials: int, seed: int, collect_signatures: bool = False
) -> TrialPlan:
    """``trials`` repetitions of one table row, seeded ``seed``."""
    return TrialPlan.monte_carlo(
        name=config.name,
        protocol=config.protocol,
        inputs=config.inputs,
        max_faulty=config.max_faulty,
        trials=trials,
        params=config.params,
        adversary=config.adversary,
        adversary_params=config.adversary_params,
        seed=seed,
        backend=config.backend,
        collect_signatures=collect_signatures,
        faults=config.faults,
        fault_params=config.fault_params,
    )


def build_plan(
    workload: Workload, seed: int, repetition: int, total_trials: float
) -> TrialPlan:
    """The plan of one repetition: a pure function of the arguments.

    Repetition *r* uses base seed ``seed + 1000·r`` and every config its
    own stream under it, so sessions never repeat within a run and the
    ideal-crypto tag memo cannot replay an earlier repetition's work.
    """
    base = seed + 1000 * repetition
    counts = workload.trial_counts(total_trials)
    return TrialPlan.concat(
        f"{workload.name}-r{repetition}",
        [
            config_plan(
                config, counts[config.name], base * 100 + index,
                workload.collect_signatures,
            )
            for index, config in enumerate(workload.configs)
        ],
    )


def prepare(workload: Workload, seed: int, total_trials: float) -> TrialPlan:
    """Everything between "interpreter up" and "ready to call run".

    Builds the repetition-0 plan and deals every suite it needs, real
    (threshold-RSA) suites through the same pre-deal the runner uses.
    """
    plan = build_plan(workload, seed, 0, total_trials)
    for key in {spec.suite_key for spec in plan.trials if spec.backend == "ideal"}:
        deal_suite(key)
    predeal_suites(plan, workload.workers())
    return plan


def make_runner(
    workload: Workload, telemetry: Optional[TelemetryWriter] = None
) -> ParallelRunner:
    """The runner a workload's repetitions go through."""
    return ParallelRunner(
        workers=workload.workers(),
        backend=workload.backend,
        metrics=workload.metrics,
        telemetry=telemetry,
    )


def table_digest(seconds: float, repetitions: int = REPETITIONS) -> str:
    """sha256 over every workload's config table and trial counts."""
    document = {
        name: {
            "configs": [dataclasses.asdict(config) for config in workload.configs],
            "options": {
                "backend": workload.backend,
                "metrics": workload.metrics,
                "telemetry": workload.telemetry,
                "pooled": workload.pooled,
                "collect_signatures": workload.collect_signatures,
            },
            "trials": workload.trial_counts(
                workload.repetition_trials(seconds, repetitions)
            ),
        }
        for name, workload in WORKLOADS.items()
    }
    encoded = json.dumps(document, sort_keys=True, default=list)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
