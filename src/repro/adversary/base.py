"""Adversary interface: strongly rushing, adaptive Byzantine corruption.

The model (paper §2.1): up to ``t`` malicious corruptions; the adversary is
*rushing* (sees all honest round-``r`` messages before choosing its own) and
*strongly rushing / adaptive* (upon seeing a message an honest party sends
in round ``r``, it may corrupt that party immediately and replace or drop
that very message).

The simulator realizes this order of events exactly:

1. every party's program computes its round-``r`` outbox (corrupted parties
   get a *shadow* honest outbox as a default);
2. the adversary inspects all outboxes via :class:`RoundView` and returns a
   :class:`RoundDecision` — replacement outboxes for already-corrupted
   parties, plus any *new* corruptions whose in-flight round-``r`` messages
   it may replace or drop;
3. only then is anything delivered.

Adversary code holds the corrupted parties' keys (it may call the crypto
suite on their behalf) but, like any party, cannot forge for honest ids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Set

from ..crypto.keys import CryptoSuite

# Structurally identical to repro.network.messages.Outbox; declared locally
# because the simulator imports this module (importing repro.network here
# would be circular).
Outbox = Any

__all__ = ["AdversaryEnv", "RoundView", "RoundDecision", "Adversary"]


@dataclass
class AdversaryEnv:
    """Static facts the adversary learns at setup time."""

    num_parties: int
    max_faulty: int
    session: str
    crypto: CryptoSuite
    rng: random.Random
    inputs: Dict[int, Any]


@dataclass
class RoundView:
    """Everything the (rushing) adversary sees before round-``r`` delivery.

    ``outboxes`` maps every party id to its normalized
    ``recipient → payload`` map — honest parties' genuine messages and
    corrupted parties' shadow defaults.
    """

    round_index: int
    outboxes: Dict[int, Dict[int, Any]]
    corrupted: FrozenSet[int]


@dataclass
class RoundDecision:
    """What the adversary does with round ``r``.

    ``replace`` overrides outboxes of already-corrupted parties (parties not
    mentioned keep their shadow default).  ``corrupt`` names parties to
    corrupt *mid-round*; the mapped value replaces their in-flight outbox
    (``None`` drops it entirely — the strongly-rushing capability).
    """

    replace: Dict[int, Outbox] = field(default_factory=dict)
    corrupt: Dict[int, Optional[Outbox]] = field(default_factory=dict)


class Adversary:
    """Base adversary: corrupts nobody, changes nothing.

    Strategies override :meth:`initial_corruptions` and/or :meth:`decide`.
    """

    def setup(self, env: AdversaryEnv) -> None:
        self.env = env

    def initial_corruptions(self) -> Set[int]:
        return set()

    def decide(self, view: RoundView) -> RoundDecision:
        return RoundDecision()

    def observe(self, round_index: int, inboxes: Dict[int, Dict[int, Any]]) -> None:
        """Post-delivery hook: the inboxes corrupted parties received.

        Called by the simulator after round ``round_index`` is delivered,
        with ``{corrupted_pid: {sender: payload}}``.  Strategies that run
        their own shadow executions (e.g. the two-face equivocator) advance
        them here.
        """
