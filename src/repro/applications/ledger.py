"""A replicated log (state-machine replication) on top of multivalued BA.

The paper's §1 argues that fixed-round protocols are preferable "when used
as building blocks in larger protocol contexts" because they terminate
*simultaneously* — sequential composition then needs no re-synchronization
gadget (Lindell et al.; Cohen et al.).  This module is that larger
context: a totally-ordered command log, one multivalued BA instance per
slot, run back to back.  Because every slot's BA finishes all honest
replicas in the same round, slot ``k + 1`` starts in lockstep at every
replica — the composition is free, which is exactly the property the
paper's protocols are designed to provide.

Usage::

    program = lambda ctx, cmds: replicated_log_program(
        ctx, cmds, num_slots=3, kappa=8, regime="one_third")
    result = run_protocol(program, per_replica_command_queues, max_faulty=t)
    # result.outputs[i] is replica i's ordered log (identical across
    # honest replicas)

Each replica proposes its oldest not-yet-ordered command for the next
slot; a slot where no proposal wins commits the ``no_op`` marker.  A
command ordered in an earlier slot is removed from the local queue, so
honest replicas' commands eventually appear (once proposals align) without
any leader.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..core.ba import ba_for_regime
from ..core.turpin_coan import multivalued_ba_program
from ..network.party import Context
from ..proxcensus.proxcast import proxcast_program

__all__ = ["NO_OP", "replicated_log_program", "rounds_per_slot"]

NO_OP = ("no-op",)


def rounds_per_slot(kappa: int, regime: str, proposer: str = "local") -> int:
    """Rounds one log slot costs: (proposal proxcast +) lift + binary BA."""
    binary = ba_for_regime(regime).rounds(kappa)
    # The lift's 5-slot Proxcensus: 2 rounds for t < n/3, 3 for t < n/2.
    base = (2 if regime == "one_third" else 3) + binary
    if proposer == "rotating":
        base += 2  # the 3-slot proxcast of the slot leader's command
    elif proposer != "local":
        raise ValueError(f"unknown proposer policy {proposer!r}")
    return base


def replicated_log_program(
    ctx: Context,
    commands: Sequence[Any],
    num_slots: int,
    kappa: int = 8,
    regime: str = "one_third",
    proposer: str = "local",
):
    """Party program: order ``num_slots`` commands; returns the log.

    ``commands`` is this replica's local client-command queue (any
    term-encodable values).  The returned log is a list of length
    ``num_slots`` whose entries are committed commands or :data:`NO_OP`.

    ``proposer`` selects the per-slot proposal policy:

    * ``"local"`` — every replica proposes its own oldest pending command;
      a slot commits only when proposals line up (leaderless, cheap);
    * ``"rotating"`` — slot ``k``'s leader (replica ``k mod n``) proxcasts
      its oldest pending command (+2 rounds, 3-slot proxcast of
      Appendix A) and everyone feeds the graded result into the BA: an
      honest leader's command always commits; a Byzantine leader costs at
      worst a no-op slot, never a fork.
    """
    if num_slots < 1:
        raise ValueError("need at least one slot")
    ba = ba_for_regime(regime, ctx)
    binary_ba = lambda c, b: ba.program(c, b, kappa)

    if proposer not in ("local", "rotating"):
        raise ValueError(f"unknown proposer policy {proposer!r}")

    pending: List[Any] = list(commands)
    log: List[Any] = []
    for slot in range(num_slots):
        slot_ctx = ctx.subsession(f"slot{slot}")
        if proposer == "rotating":
            leader = slot % ctx.num_parties
            own = pending[0] if pending else NO_OP
            relayed = yield from proxcast_program(
                slot_ctx.subsession("prop"), own, slots=3, dealer=leader,
                default=NO_OP,
            )
            proposal = relayed.value if relayed.grade >= 1 else NO_OP
        else:
            proposal = pending[0] if pending else NO_OP
        decided = yield from multivalued_ba_program(
            slot_ctx, proposal, binary_ba, regime=regime, default=NO_OP,
        )
        log.append(decided)
        # A committed command is consumed everywhere it is queued, so it
        # is never proposed (hence never ordered) twice by honest replicas.
        if decided in pending:
            pending.remove(decided)
    return log
