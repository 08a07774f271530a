"""Closed-form predictions from the paper, used as benchmark baselines.

Every measured quantity in ``benchmarks/`` is compared against the value
this module predicts; EXPERIMENTS.md records both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

__all__ = [
    "ProtocolTheory",
    "PROTOCOLS",
    "rounds_for_error",
    "error_for_rounds",
    "per_iteration_failure",
    "efficiency_comparison_rows",
]


@dataclass(frozen=True)
class ProtocolTheory:
    """Closed forms for one iterated fixed-round BA protocol.

    An *iterated* protocol runs identical Feldman–Micali-style iterations:
    each takes ``iteration_rounds`` rounds and fails with probability
    ``1/(iteration_slots - 1)``, so it gains
    ``log2(iteration_slots - 1)`` bits of error exponent per iteration.
    """

    name: str
    resilience: str                 # "n/3" or "n/2"
    paper_ref: str
    iteration_rounds: int
    iteration_slots: int

    @property
    def bits_per_iteration(self) -> int:
        """Error-exponent bits gained per iteration: log2(s - 1)."""
        return (self.iteration_slots - 1).bit_length() - 1

    def rounds(self, kappa: int) -> int:
        """Rounds to reach target error 2^-kappa."""
        iterations = math.ceil(kappa / self.bits_per_iteration)
        return iterations * self.iteration_rounds

    def error_bits(self, rounds: int) -> int:
        """Error exponent achieved within a round budget (bits of 2^-x)."""
        iterations = rounds // self.iteration_rounds
        return iterations * self.bits_per_iteration


class _OneThirdTheory(ProtocolTheory):
    """The t < n/3 protocol is special: a *single* iteration whose slot
    count grows with kappa (``s = 2^kappa + 1``; kappa Proxcensus rounds
    plus one coin round)."""

    def rounds(self, kappa: int) -> int:
        return kappa + 1

    def error_bits(self, rounds: int) -> int:
        return max(0, rounds - 1)


PROTOCOLS: Dict[str, ProtocolTheory] = {
    "ours_one_third": _OneThirdTheory(
        name="ours_one_third",
        resilience="n/3",
        paper_ref="Corollary 2 (t<n/3): kappa+1 rounds, single coin",
        iteration_rounds=0,
        iteration_slots=0,  # unused: dedicated formulas above
    ),
    "ours_one_half": ProtocolTheory(
        name="ours_one_half",
        resilience="n/2",
        paper_ref="Corollary 2 (t<n/2): 3*kappa/2 rounds (Prox_5, coin || r3)",
        iteration_rounds=3,
        iteration_slots=5,
    ),
    "feldman_micali": ProtocolTheory(
        name="feldman_micali",
        resilience="n/3",
        paper_ref="FM fixed-round variant [11]: 2*kappa rounds",
        iteration_rounds=2,
        iteration_slots=3,
    ),
    "micali_vaikuntanathan": ProtocolTheory(
        name="micali_vaikuntanathan",
        resilience="n/2",
        paper_ref="MV [18]: 2*kappa rounds (2-round GC, coin || r2)",
        iteration_rounds=2,
        iteration_slots=3,
    ),
}


def per_iteration_failure(slots: int) -> Fraction:
    """Theorem 1: one iteration fails with probability at most 1/(s-1)."""
    if slots < 2:
        raise ValueError("need at least 2 slots")
    return Fraction(1, slots - 1)


def rounds_for_error(protocol: str, kappa: int) -> int:
    """Rounds ``protocol`` needs for target error ``2^-kappa``."""
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    return PROTOCOLS[protocol].rounds(kappa)


def error_for_rounds(protocol: str, rounds: int) -> int:
    """Error exponent (bits) ``protocol`` reaches within ``rounds``."""
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    return PROTOCOLS[protocol].error_bits(rounds)


def efficiency_comparison_rows(kappas: List[int]) -> List[dict]:
    """The §3.5 efficiency-comparison table, one row per kappa."""
    rows = []
    for kappa in kappas:
        fm = rounds_for_error("feldman_micali", kappa)
        ours13 = rounds_for_error("ours_one_third", kappa)
        mv = rounds_for_error("micali_vaikuntanathan", kappa)
        ours12 = rounds_for_error("ours_one_half", kappa)
        rows.append(
            {
                "kappa": kappa,
                "ours_one_third": ours13,
                "feldman_micali": fm,
                "ours_one_half": ours12,
                "micali_vaikuntanathan": mv,
                "speedup_one_third": Fraction(fm, ours13),
                "speedup_one_half": Fraction(mv, ours12),
            }
        )
    return rows
