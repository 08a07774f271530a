"""s-slot Proxcast for t < n (paper Appendix A, Lemma 6).

Single-sender graded broadcast: a dealer signs its input, and for ``s - 1``
rounds parties relay every *new* valid (message, signature) pair that
originates from the dealer — but at most two distinct pairs, since two
contradicting dealer signatures already prove dealer misbehaviour.  This is
Dolev–Strong without accumulating signatures, and it extends the
M-gradecast of Garay et al. [13] from odd ``s`` to every ``s ≥ 2``.

A party's grade is determined by the longest run of rounds in which its
cumulative pair set was a stable singleton ``{(z, σ)}``: a run of
``2g + 1 - b`` consecutive end-of-round snapshots (``s = 2k + b``) yields
grade ``g``, value ``z``.

The *player-replaceable* variant (paper Appendix A, t < n/2) additionally
requires every in-window snapshot after round 1 to have been forwarded by
at least ``n - t`` distinct senders in that round, which compensates for
the fact that with player replacement a relayed signature is not otherwise
guaranteed to become public.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from ..network.messages import get_field
from ..network.party import Context
from .base import ProxOutput, decide_once

__all__ = [
    "decide",
    "proxcast_program",
    "proxcast_player_replaceable_program",
    "rounds_for_slots",
]

_KEY = "pxc"


def rounds_for_slots(slots: int) -> int:
    """Lemma 6: ``s`` slots in ``s - 1`` rounds."""
    if slots < 2:
        raise ValueError("proxcast needs at least 2 slots")
    return slots - 1


def _dealer_message(ctx: Context, value: Any):
    return (_KEY, ctx.session, value)


def proxcast_program(
    ctx: Context, value: Any, slots: int, dealer: int, default: Any = 0
):
    """Party program for ``s``-slot proxcast, secure for any t < n.

    ``value`` is only read by the dealer; other parties may pass anything.
    Returns a :class:`ProxOutput`.
    """
    result = yield from _proxcast_common(
        ctx, value, slots, dealer, default, require_quorum=False
    )
    return result


def proxcast_player_replaceable_program(
    ctx: Context, value: Any, slots: int, dealer: int, default: Any = 0
):
    """Player-replaceable proxcast variant, secure for t < n/2."""
    if 2 * ctx.max_faulty >= ctx.num_parties:
        raise ValueError(
            "the player-replaceable proxcast requires t < n/2, got "
            f"t={ctx.max_faulty}, n={ctx.num_parties}"
        )
    result = yield from _proxcast_common(
        ctx, value, slots, dealer, default, require_quorum=True
    )
    return result


def _proxcast_common(
    ctx: Context,
    value: Any,
    slots: int,
    dealer: int,
    default: Any,
    require_quorum: bool,
):
    if not (0 <= dealer < ctx.num_parties):
        raise ValueError(f"dealer {dealer} out of range")
    rounds = rounds_for_slots(slots)
    scheme = ctx.crypto.plain
    n, t = ctx.num_parties, ctx.max_faulty

    # known: value -> dealer signature (at most 2 entries relayed onward).
    known: Dict[Any, Any] = {}
    # snapshots[r] = sorted tuple of known values at the end of round r + 1.
    snapshots: List[Tuple[Any, ...]] = []
    # quorum_ok[r] = for singleton snapshots after round 1: was the pair
    # forwarded by >= n - t distinct senders during that round?
    quorum_ok: List[bool] = []

    def absorb(payload: Any, senders_for: Dict[Any, Set[int]], sender: int) -> None:
        body = get_field(payload, _KEY)
        if not isinstance(body, (list, tuple)):
            return
        for item in body:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                continue
            z, signature = item
            try:
                hash(z)
            except TypeError:
                continue
            if scheme.verify(dealer, signature, _dealer_message(ctx, z)):
                senders_for.setdefault(z, set()).add(sender)
                if z not in known and len(known) < 2:
                    known[z] = signature

    # --- Round 1: only the dealer speaks. ---------------------------------
    if ctx.party_id == dealer:
        signature = scheme.sign(dealer, _dealer_message(ctx, value))
        outbox = ctx.broadcast({_KEY: [(value, signature)]})
    else:
        outbox = None  # silence: send nothing this round
    inbox = yield outbox
    senders_for: Dict[Any, Set[int]] = {}
    if dealer in inbox:
        absorb(inbox[dealer], senders_for, dealer)
    snapshots.append(tuple(sorted(known, key=repr)))
    quorum_ok.append(True)  # round 1 is the dealer's round; quorum exempt

    # --- Rounds 2..s-1: relay (at most two) known pairs. ------------------
    for _ in range(2, rounds + 1):
        inbox = yield ctx.broadcast({_KEY: [(z, known[z]) for z in known]})
        senders_for = {}
        for sender, payload in inbox.items():
            absorb(payload, senders_for, sender)
        snapshots.append(tuple(sorted(known, key=repr)))
        singleton = len(known) == 1
        if singleton:
            (z,) = known
            quorum_ok.append(len(senders_for.get(z, ())) >= n - t)
        else:
            quorum_ok.append(False)

    # --- Grade: longest stable-singleton window of snapshots. -------------
    view = ((default,), tuple(quorum_ok), *snapshots)
    return decide_once(decide, view, slots, require_quorum)


def decide(view, slots: int, require_quorum: bool) -> ProxOutput:
    """The grade rule: the longest stable-singleton window of snapshots.

    ``view`` is ``((default,), quorum_ok, *snapshots)``: the value output
    at grade 0, whether each round's singleton had an ``n - t`` quorum of
    forwarders, and each round's sorted known values.  Memoised by
    :func:`~.base.decide_once`.
    """
    (default,), quorum_ok, *snapshots = view
    rounds = len(snapshots)
    parity = slots % 2
    grades = (slots - 1) // 2
    best_value: Any = default
    best_grade = 0
    for grade in range(1 if parity else 0, grades + 1):
        window = 2 * grade + 1 - parity
        if window <= 0:
            continue
        for start in range(0, rounds - window + 1):
            segment = snapshots[start : start + window]
            first = segment[0]
            if len(first) != 1 or any(s != first for s in segment):
                continue
            if require_quorum and not all(
                quorum_ok[start + offset] for offset in range(window)
            ):
                continue
            if grade >= best_grade:
                best_value, best_grade = first[0], grade
            break
    return ProxOutput(best_value, best_grade)
