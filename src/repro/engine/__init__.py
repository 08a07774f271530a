"""Parallel Monte-Carlo experiment engine.

The repo's experiments are hundreds of independent simulated executions;
this package turns them from ad-hoc serial loops into declarative
:class:`TrialPlan`s executed by a :class:`ParallelRunner` — serially or
fanned out across worker processes, with byte-identical results either
way.  See ``docs/performance.md`` for the architecture and determinism
guarantees, and ``repro error-sweep`` for the CLI entry point.
"""

from .plan import TrialPlan, TrialSpec, derive_trial_seed, derive_trial_session
from .registry import (
    adversary_names,
    build_fault_plan,
    fault_plan_names,
    protocol_names,
    register_adversary,
    register_fault_plan,
    register_protocol,
)
from .runner import (
    ParallelRunner,
    PlanResult,
    TrialExecutionError,
    WorkerLostError,
    clamp_workers,
    clear_suite_cache,
    deal_suite,
    predeal_suites,
    run_measured_trial,
    run_traced_trial,
    run_trial,
)
from .transport import (
    ChunkSummary,
    TransportError,
    TrialSummary,
    measure_payload_bytes,
)
from .vectorized import (
    VectorModelError,
    clear_probe_cache,
    exact_law,
    probe_cache_stats,
    run_vector_batch,
    unsupported_reason as vector_unsupported_reason,
)

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
