"""Parallel Monte-Carlo experiment engine.

The repo's experiments are hundreds of independent simulated executions;
this package turns them from ad-hoc serial loops into declarative
:class:`TrialPlan`s executed by a :class:`ParallelRunner` — serially or
fanned out across worker processes, with byte-identical results either
way.  See ``docs/performance.md`` for the architecture and determinism
guarantees, and ``repro error-sweep`` for the CLI entry point.
"""

import importlib
from typing import Any

__all__ = [
    "ChunkSummary",
    "ParallelRunner",
    "PlanResult",
    "TransportError",
    "TrialExecutionError",
    "TrialPlan",
    "TrialSpec",
    "TrialSummary",
    "VectorModelError",
    "WorkerLostError",
    "adversary_names",
    "build_fault_plan",
    "clamp_workers",
    "clear_probe_cache",
    "clear_suite_cache",
    "deal_suite",
    "derive_trial_seed",
    "derive_trial_session",
    "exact_law",
    "fault_plan_names",
    "measure_payload_bytes",
    "predeal_suites",
    "probe_cache_stats",
    "protocol_names",
    "register_adversary",
    "register_fault_plan",
    "register_protocol",
    "run_measured_trial",
    "run_traced_trial",
    "run_trial",
    "run_vector_batch",
    "vector_unsupported_reason",
]

# PEP 562: the first read of an export imports its submodule and keeps the name.
_EXPORTS = {
    ".plan": (
        "TrialPlan", "TrialSpec", "derive_trial_seed", "derive_trial_session",
    ),
    ".registry": (
        "adversary_names", "build_fault_plan", "fault_plan_names",
        "protocol_names", "register_adversary", "register_fault_plan",
        "register_protocol",
    ),
    ".runner": (
        "ParallelRunner", "PlanResult", "TrialExecutionError",
        "WorkerLostError", "clamp_workers", "clear_suite_cache", "deal_suite",
        "predeal_suites", "run_measured_trial", "run_traced_trial",
        "run_trial",
    ),
    ".transport": (
        "ChunkSummary", "TransportError", "TrialSummary",
        "measure_payload_bytes",
    ),
    ".vectorized": (
        "VectorModelError", "clear_probe_cache", "exact_law",
        "probe_cache_stats", "run_vector_batch", "vector_unsupported_reason",
    ),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = getattr(importlib.import_module(module, __name__), name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
