"""Self-checks of the harness itself, run by ``--smoke``.

They guard the three places where the benchmark could silently lie: the
timing proxies changing what a trial computes, a broken output check
passing, and pool children's CPU time being dropped.  Each returns a
list of complaints (empty = passed).
"""

from __future__ import annotations

import time
from typing import Callable, List

from repro.engine import ParallelRunner, run_trial

from .checks import expected_rounds, invariant_failures
from .configs import POOLED, SWEEP21, WORKLOADS, Workload, build_plan
from .measure import cpu_seconds
from .tracing import TrialTracer

__all__ = ["run_all"]


def proxies_keep_results() -> List[str]:
    """Traced == untraced on every SWEEP21 config and one faulted config."""
    faulted = next(config for config in POOLED if config.faults == "degraded")
    table = Workload("selfcheck", "", SWEEP21 + (faulted,), rate_hint=0.0)
    plan = build_plan(table, seed=5, repetition=0, total_trials=0.0)
    tracer = TrialTracer()
    return [
        f"timing proxies changed the result of {spec.config}"
        for index, spec in enumerate(plan.trials)
        if tracer.traced_trial(spec, index) != run_trial(spec)
    ]


def failed_frac_rises() -> List[str]:
    """A deliberately wrong expected round count must fail every trial."""
    config = SWEEP21[2]
    table = Workload("selfcheck", "", (config,), rate_hint=0.0)
    plan = build_plan(table, seed=5, repetition=0, total_trials=8.0)
    results = [run_trial(spec) for spec in plan.trials]
    indices = range(len(results))
    complaints = []
    if invariant_failures(config, indices, results):
        complaints.append("the paper-invariant check fails on a healthy run")
    wrong = expected_rounds(config) + 1
    if invariant_failures(config, indices, results, rounds=wrong) != set(indices):
        complaints.append("the paper-invariant check missed a wrong round count")
    return complaints


def children_cpu_is_counted() -> List[str]:
    """On a pooled run the parent-only CPU figure must be the smaller one."""
    workload = WORKLOADS["pooled-campaign"]
    plan = build_plan(workload, seed=5, repetition=0, total_trials=200.0)
    before, parent_before = cpu_seconds(), time.process_time()
    ParallelRunner(workers=2).run(plan)
    counted = cpu_seconds() - before
    parent_only = time.process_time() - parent_before
    if counted <= parent_only:
        return ["cpu_ms_per_trial does not count the pool's children"]
    return []


def run_all() -> List[str]:
    checks: List[Callable[[], List[str]]] = [
        proxies_keep_results, failed_frac_rises, children_cpu_is_counted,
    ]
    return [complaint for check in checks for complaint in check()]
