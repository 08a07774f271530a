"""Synchronous authenticated network simulator and party-program model."""

import importlib
from typing import Any

__all__ = [
    "AdversaryBudgetError",
    "Broadcast",
    "Context",
    "Crash",
    "ExecutionResult",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "Inbox",
    "Partition",
    "Outbox",
    "ProgramFactory",
    "RoundLimitError",
    "RunMetrics",
    "SimulationError",
    "SyncSimulator",
    "TraceEvent",
    "Tracer",
    "count_signatures",
    "summarize_payload",
    "get_field",
    "normalize_outbox",
    "resume_with",
    "run_parallel",
    "run_protocol",
]

# PEP 562: the first read of an export imports its submodule and keeps the name.
_EXPORTS = {
    ".errors": (
        "AdversaryBudgetError", "FaultPlanError", "RoundLimitError",
        "SimulationError",
    ),
    ".faults": (
        "Crash", "FaultEvent", "FaultInjector", "FaultPlan", "Partition",
    ),
    ".messages": (
        "Broadcast", "Inbox", "Outbox", "get_field", "normalize_outbox",
    ),
    ".metrics": ("RunMetrics", "count_signatures"),
    ".party": ("Context", "ProgramFactory", "resume_with", "run_parallel"),
    ".simulator": ("ExecutionResult", "SyncSimulator", "run_protocol"),
    ".trace": ("TraceEvent", "Tracer", "summarize_payload"),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = getattr(importlib.import_module(module, __name__), name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
