"""Errors raised by the synchronous network simulator."""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "AdversaryBudgetError",
    "FaultPlanError",
    "RoundLimitError",
]


class SimulationError(RuntimeError):
    """Generic simulator misconfiguration or harness bug."""


class AdversaryBudgetError(SimulationError):
    """The adversary tried to corrupt more than ``t`` parties."""


class RoundLimitError(SimulationError):
    """A protocol ran past the simulator's safety round cap.

    All protocols in this repository are fixed-round, so hitting the cap
    always indicates a protocol-logic bug, never legitimate slowness.
    """


class FaultPlanError(ValueError):
    """A fault plan cannot apply to the run it was given to.

    Raised when a plan names a party the run does not have: such a
    crash window, partition group or disabled set would otherwise be
    silently inert and the run would report clean numbers for a fault
    that never happened.
    """
