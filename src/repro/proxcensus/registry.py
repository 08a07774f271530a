"""Catalogue of the Proxcensus/proxcast constructions in this repository.

Used by the analysis layer and benchmarks to sweep "slots achieved per
round" across all four families (paper Corollary 1, Lemma 3, Lemma 7,
Lemma 6) without hand-writing each case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from . import linear_half, one_third, quadratic_half

__all__ = ["ProxFamily", "FAMILIES", "family"]


@dataclass(frozen=True)
class ProxFamily:
    """Static facts about one Proxcensus construction."""

    name: str
    paper_ref: str
    resilience: str  # "n/3", "n/2" or "n"
    min_rounds: int
    slots_for_rounds: Callable[[int], int]
    multi_sender: bool  # False for proxcast (single dealer)

    def grades_for_rounds(self, rounds: int) -> int:
        return (self.slots_for_rounds(rounds) - 1) // 2


#: Keyed by each entry's own ``name``, so a key cannot disagree with it.
FAMILIES: Dict[str, ProxFamily] = {
    entry.name: entry
    for entry in (
        ProxFamily(
            name="one_third",
            paper_ref="§3.3, Corollary 1 (perfect security, t < n/3)",
            resilience="n/3",
            min_rounds=0,
            slots_for_rounds=one_third.slots_after_rounds,
            multi_sender=True,
        ),
        ProxFamily(
            name="linear_half",
            paper_ref="§3.3, Lemma 3 (threshold signatures, t < n/2)",
            resilience="n/2",
            min_rounds=2,
            slots_for_rounds=linear_half.slots_after_rounds,
            multi_sender=True,
        ),
        ProxFamily(
            name="quadratic_half",
            paper_ref="Appendix B, Lemma 7 (threshold signatures, t < n/2)",
            resilience="n/2",
            min_rounds=3,
            slots_for_rounds=quadratic_half.slots_after_rounds,
            multi_sender=True,
        ),
        ProxFamily(
            name="proxcast",
            paper_ref="Appendix A, Lemma 6 (dealer PKI, t < n)",
            resilience="n",
            min_rounds=1,
            slots_for_rounds=lambda rounds: rounds + 1,  # s slots in s-1 rounds
            multi_sender=False,
        ),
    )
}


def family(name: str) -> ProxFamily:
    """Look up a family by name; raises KeyError listing known names."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown Proxcensus family {name!r}; known: {sorted(FAMILIES)}"
        ) from None
