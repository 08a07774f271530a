"""Synchronous authenticated network simulator and party-program model."""

from .errors import (
    AdversaryBudgetError,
    FaultPlanError,
    RoundLimitError,
    SimulationError,
)
from .faults import Crash, FaultEvent, FaultInjector, FaultPlan, Partition
from .messages import (
    Broadcast,
    Inbox,
    Outbox,
    get_field,
    normalize_outbox,
)
from .metrics import RunMetrics, count_signatures
from .party import Context, ProgramFactory, resume_with, run_parallel
from .simulator import ExecutionResult, SyncSimulator, run_protocol
from .trace import TraceEvent, Tracer, summarize_payload

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
