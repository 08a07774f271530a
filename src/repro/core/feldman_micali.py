"""Fixed-round Feldman–Micali baseline (paper §3.1), t < n/3.

The classic construction the paper improves on: ``κ`` sequential
iterations, each a 1-round ``Prox_3`` (crusader agreement — the base case
of our expansion, Corollary 1 with r = 1) followed by a 1-round binary
coin.  Per-iteration failure ``1/2``, so ``2κ`` rounds for error ``2^-κ``.

Expressed in the paper's own vocabulary, FM *is* the ``s = 3`` special case
of the generalized iteration: at ``s = 3`` the extraction function reduces
to "keep your value if grade 1, adopt the coin if grade 0" — the property
tests verify this equivalence explicitly.
"""

from __future__ import annotations

from typing import Optional

from ..network.party import Context
from ..proxcensus.one_third import prox_one_third_program
from .ba import FixedRoundBA
from .iteration import CoinFactory, Iteration

__all__ = ["FELDMAN_MICALI", "feldman_micali_program", "rounds_feldman_micali"]

#: ``κ`` iterations of ``Π_iter^3``: 1-round ``Prox_3``, then the coin.
FELDMAN_MICALI = FixedRoundBA(
    "feldman_micali",
    3,
    lambda index, kappa: Iteration(
        slots=3,
        prox_factory=lambda c, b: prox_one_third_program(c, b, rounds=1),
        prox_rounds=1, coin_index=("fm", index), overlap_coin=False,
        subsession=f"fm{index}",
    ),
    lambda kappa: kappa,
)


def rounds_feldman_micali(kappa: int) -> int:
    """Round count: ``2κ`` (one GC round + one coin round per iteration)."""
    return FELDMAN_MICALI.rounds(kappa)


def feldman_micali_program(
    ctx: Context,
    bit: int,
    kappa: int,
    coin_factory: Optional[CoinFactory] = None,
):
    """Binary fixed-round FM Byzantine Agreement, t < n/3, 2κ rounds."""
    return FELDMAN_MICALI.program(ctx, bit, kappa, coin_factory)
