"""An adversary that de-synchronizes probabilistic termination.

Against the Las-Vegas FM protocol (:mod:`repro.core.probabilistic`), a
fixed-round adversary cannot make honest parties *disagree* (beyond the
2^-κ error), but it *can* make them **decide in different iterations** —
which is the non-simultaneous-termination phenomenon the paper's intro
cites as the reason to prefer fixed-round protocols.

:class:`GradeSplitAdversary` is tuned to the 5-slot graded consensus
(``prox_one_third(rounds=2)``) at n = 4, t = 1 with honest inputs
``{v, v, w}``: in Proxcensus round 1 it votes ``v`` towards two honest
parties only, and in round 2 it echoes ``(v, 1)`` towards a single target
— handing the target the full top-grade quorum (grade 2 → decides now)
while the rest stop at grade 1 (decide next iteration).  One iteration of
decision spread, reliably.
"""

from __future__ import annotations

from typing import Dict, Set

from ..network.messages import Outbox
from .base import Adversary, AdversaryEnv, RoundDecision, RoundView

__all__ = ["GradeSplitAdversary"]

# Rounds per FM iteration: 2 Proxcensus rounds + 1 coin round.
_ITERATION_ROUNDS = 3


class GradeSplitAdversary(Adversary):
    """Forces a one-iteration decision spread in the Las-Vegas FM loop.

    ``victims`` — the corrupted parties; ``target`` — the honest party to
    be pushed to grade 2 first; ``boost_value`` — the value to amplify
    (should be the honest majority input).  The round-1 helper is the
    first honest party other than the target, derived in :meth:`setup`.
    """

    def __init__(self, victims, target: int = 0, boost_value: int = 0) -> None:
        self.victims = list(victims)
        self.target = target
        self.boost_value = boost_value

    def setup(self, env: AdversaryEnv) -> None:
        super().setup(env)
        honest = [
            p for p in range(env.num_parties)
            if p not in self.victims and p != self.target
        ]
        self.helper = honest[0] if honest else self.target

    def initial_corruptions(self) -> Set[int]:
        return set(self.victims)

    def decide(self, view: RoundView) -> RoundDecision:
        phase = (view.round_index - 1) % _ITERATION_ROUNDS + 1
        replace: Dict[int, Outbox] = {}
        for pid in self.victims:
            if phase == 1:
                # Proxcensus round 1: vote for the boost value, but only
                # towards the target and one helper — the third honest
                # party stays below the quorum.
                replace[pid] = {
                    self.target: {"prox13": (self.boost_value, 0)},
                    self.helper: {"prox13": (self.boost_value, 0)},
                }
            elif phase == 2:
                # Proxcensus round 2: complete the top-grade quorum for the
                # target only.
                replace[pid] = {
                    self.target: {"prox13": (self.boost_value, 1)},
                }
            else:
                replace[pid] = None  # coin round: withhold the share
        return RoundDecision(replace=replace)
