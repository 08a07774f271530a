"""Dolev–Strong authenticated broadcast (deterministic yardstick).

The classic ``t + 1``-round broadcast for any ``t < n`` [Dolev & Strong,
SIAM J. Comp. '83], included because (a) the paper's proxcast (Appendix A)
is "similar to Dolev–Strong broadcast with the difference that parties do
not add their signatures", so having both makes the comparison executable,
and (b) the ``t + 1`` lower bound for deterministic protocols is the very
motivation for randomized fixed-round BA — the efficiency benchmark plots
it as the deterministic reference series.

The protocol: the dealer signs its value; a party *extracts* a value ``v``
at the end of round ``k`` if it knows ``k`` distinct valid signatures on
``v`` including the dealer's.  A freshly extracted value (at most two —
two values already prove dealer equivocation) is co-signed and relayed in
the next round.  After round ``t + 1``, the output is the unique extracted
value, or a default.

:func:`dolev_strong_ba_program` lifts broadcast to BA the standard way —
``n`` parallel broadcasts of all inputs, then a local majority (``t < n/2``
needed for the majority rule to be meaningful; consistency holds for any
``t < n`` since all broadcast outcomes agree).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List

from ..network.messages import get_field
from ..network.party import Context, run_parallel

__all__ = ["dolev_strong_broadcast_program", "dolev_strong_ba_program"]

_KEY = "ds"


def _signed_message(ctx: Context, dealer: int, value: Any):
    return (_KEY, ctx.session, dealer, value)


def dolev_strong_broadcast_program(
    ctx: Context, value: Any, dealer: int, default: Any = 0
):
    """Broadcast in ``t + 1`` rounds; returns the agreed value.

    ``value`` is read by the dealer only.
    """
    n, t = ctx.num_parties, ctx.max_faulty
    scheme = ctx.crypto.plain
    if not (0 <= dealer < n):
        raise ValueError(f"dealer {dealer} out of range")

    # chains: value -> {signer: signature}, grown monotonically.
    chains: Dict[Any, Dict[int, Any]] = {}
    extracted: List[Any] = []       # insertion order; at most 2 relayed
    fresh: List[Any] = []           # extracted last round, to relay now

    def absorb(payload: Any) -> None:
        items = get_field(payload, _KEY)
        if not isinstance(items, (list, tuple)):
            return
        for item in items:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                continue
            v, chain = item
            try:
                hash(v)
            except TypeError:
                continue
            if not isinstance(chain, (list, tuple)):
                continue
            collected = chains.setdefault(v, {})
            for entry in chain:
                if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                    continue
                signer, signature = entry
                if not isinstance(signer, int) or signer in collected:
                    continue
                if scheme.verify(signer, signature, _signed_message(ctx, dealer, v)):
                    collected[signer] = signature

    rounds = t + 1
    for round_index in range(1, rounds + 1):
        if round_index == 1:
            if ctx.party_id == dealer:
                signature = scheme.sign(dealer, _signed_message(ctx, dealer, value))
                outbox = ctx.broadcast({_KEY: [(value, [(dealer, signature)])]})
            else:
                outbox = None  # non-dealers are silent in round 1
        else:
            relayed = []
            for v in fresh:
                augmented = dict(chains[v])
                if ctx.party_id not in augmented:
                    augmented[ctx.party_id] = scheme.sign(
                        ctx.party_id, _signed_message(ctx, dealer, v)
                    )
                    chains[v] = augmented
                relayed.append((v, list(augmented.items())))
            outbox = ctx.broadcast({_KEY: relayed})
        inbox = yield outbox
        for payload in inbox.values():
            absorb(payload)
        fresh = []
        for v, collected in chains.items():
            if v in extracted:
                continue
            if dealer in collected and len(collected) >= round_index:
                extracted.append(v)
                if len(extracted) <= 2:
                    fresh.append(v)

    if len(extracted) == 1:
        return extracted[0]
    return default


def dolev_strong_ba_program(ctx: Context, value: Any):
    """Deterministic BA from ``n`` parallel Dolev–Strong broadcasts.

    ``t + 1`` rounds; output is the majority of broadcast outcomes (ties
    and absent majorities fall to 0, as does a broadcast without one).
    """
    programs = {
        f"bc{dealer}": dolev_strong_broadcast_program(
            ctx.subsession(f"ds{dealer}"), value, dealer
        )
        for dealer in range(ctx.num_parties)
    }
    results = yield from run_parallel(ctx, programs)
    tally = Counter(results.values())
    winner, count = max(tally.items(), key=lambda kv: (kv[1], repr(kv[0])))
    if count > ctx.num_parties // 2:
        return winner
    return 0
