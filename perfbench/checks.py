"""Output checks run outside the timed windows, on every repetition.

No digest is pinned: each check compares the library against itself
(another execution path) or against the paper (round counts, validity),
so a later behaviour fix is not blocked by benchmark files.  Every
function returns the plan indices of the trials that failed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

from repro.engine import (
    PlanResult,
    TrialPlan,
    run_measured_trial,
    run_trial,
    vector_unsupported_reason,
)
from repro.network import ExecutionResult
from repro.obs import validate_metrics_payload
from repro.proxcensus import ProxOutput, family, max_grade

from .configs import CHECKED_TRIALS, Config, Workload

__all__ = [
    "check_repetition",
    "cross_path_failures",
    "expected_output",
    "expected_rounds",
    "invariant_failures",
]

_PROX_FAMILY = {
    "prox_one_third": "one_third",
    "prox_linear_half": "linear_half",
    "prox_quadratic_half": "quadratic_half",
}
_BINARY_BA = ("ba_one_third", "ba_one_half")


def expected_rounds(config: Config) -> Optional[int]:
    """The paper's fixed round count: κ+1 for t<n/3, 3⌈κ/2⌉ for t<n/2."""
    if config.protocol == "ba_one_third":
        return config.params["kappa"] + 1
    if config.protocol == "ba_one_half":
        return 3 * math.ceil(config.params["kappa"] / 2)
    return None


def expected_output(config: Config) -> Optional[Any]:
    """What every party must output when a clean config is pre-agreed.

    Validity: BA outputs the common input; ``Prox_s`` outputs it at the
    extremal grade.  ``None`` when the config promises nothing (an
    adversary is present, inputs differ, or inputs are not read).
    """
    value = config.inputs[0]
    if config.adversary is not None or any(x != value for x in config.inputs):
        return None
    if config.protocol in _BINARY_BA:
        return value
    if config.protocol in _PROX_FAMILY:
        grades = family(_PROX_FAMILY[config.protocol]).grades_for_rounds(
            config.params["rounds"]
        )
        return ProxOutput(value, grades)
    if config.protocol == "proxcast":
        return ProxOutput(value, max_grade(config.params["slots"]))
    return None


def invariant_failures(
    config: Config,
    indices: Sequence[int],
    results: Sequence[ExecutionResult],
    rounds: Optional[int] = None,
) -> Set[int]:
    """Trials of a fault-free config that break a paper invariant.

    ``rounds`` overrides the expected round count; it exists only so the
    harness self-check can make this check fail on purpose.
    """
    if config.faults is not None:
        return set()
    if rounds is None:
        rounds = expected_rounds(config)
    output = expected_output(config)
    failed = set()
    for index in indices:
        result = results[index]
        honest = result.honest_parties
        ok = all(pid in result.outputs for pid in honest)
        if ok and rounds is not None:
            ok = result.metrics.rounds == rounds and all(
                result.finish_rounds[pid] == rounds for pid in honest
            )
        if ok and output is not None:
            ok = all(result.outputs[pid] == output for pid in honest)
        if not ok:
            failed.add(index)
    return failed


def cross_path_failures(
    workload: Workload,
    plan: TrialPlan,
    result: PlanResult,
    groups: Mapping[str, Sequence[int]],
    checked: int,
) -> Set[int]:
    """First trials of every config re-run directly on the object path.

    Covers vector == object, pooled == inline and, with metrics on, the
    per-trial registry == the object-path registry.
    """
    failed = set()
    for indices in groups.values():
        for index in indices[:checked]:
            spec = plan.trials[index]
            if workload.metrics:
                reference, registry = run_measured_trial(spec)
                same = result.trial_metrics[index] == registry
            else:
                reference, same = run_trial(spec), True
            if not same or result.results[index] != reference:
                failed.add(index)
    return failed


def check_repetition(
    workload: Workload, plan: TrialPlan, result: PlanResult, repetitions: int
) -> Dict[str, List[int]]:
    """Every check on one repetition: check name → failed plan indices.

    The cross-path sample is ``CHECKED_TRIALS`` per config over the whole
    run, spread evenly over its repetitions.
    """
    groups = plan.configs()
    failures: Dict[str, List[int]] = {}

    def record(name: str, indices: Set[int]) -> None:
        if indices:
            failures[name] = sorted(indices)

    checked = max(1, CHECKED_TRIALS // repetitions)
    record(
        "cross-path", cross_path_failures(workload, plan, result, groups, checked)
    )
    broken: Set[int] = set()
    for config in workload.configs:
        broken |= invariant_failures(config, groups[config.name], result.results)
    record("paper-invariant", broken)
    if workload.metrics and validate_metrics_payload(result.metrics_payload()):
        record("metrics-payload", set(range(len(plan))))
    if workload.backend == "vector" and not workload.metrics:
        fallback: Set[int] = set()
        for indices in groups.values():
            if vector_unsupported_reason(plan.trials[indices[0]]) is not None:
                fallback.update(indices)
        record("vector-fallback", fallback)
    return failures
