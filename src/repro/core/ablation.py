"""Generalized/parameterized BA variants for ablation studies.

The paper makes two implicit design choices that these variants make
explicit and sweepable:

* **Iteration granularity, t < n/3.**  The headline protocol spends the
  whole budget on *one* iteration (``s = 2^κ + 1``).  One could instead
  run ``j`` iterations of ``s = 2^m + 1`` with ``j·m = κ`` — at ``m = 1``
  that is exactly fixed-round Feldman–Micali.  :func:`ba_one_third_chunked`
  implements the whole family; rounds are ``j·(m+1)``, so error 2^-κ costs
  ``κ·(m+1)/m`` rounds — strictly decreasing in ``m``, minimized by the
  paper's single-iteration choice.  (FM and the paper's protocol are the
  two endpoints of one dial.)

* **Slot count per iteration, t < n/2** (paper footnote 6: "other choices
  of number of slots will not lead to efficiency improvements").
  :func:`ba_one_half_generalized` runs iterations over ``Prox_{2r-1}``
  for any ``r ≥ 2`` (coin overlapped with the last round): each iteration
  takes ``r`` rounds and gains ``log2(2r-2)`` bits, so the
  bits-per-round rate ``log2(2r-2)/r`` is maximized at ``r = 3`` —
  exactly the paper's ``Prox_5`` choice.  The quadratic Proxcensus of
  Appendix B can be swapped in via ``family="quadratic"`` to check it
  never beats ``r = 3`` either.
"""

from __future__ import annotations

import math
from typing import Optional

from ..network.party import Context
from ..proxcensus.linear_half import prox_linear_half_program
from ..proxcensus.linear_half import slots_after_rounds as linear_slots
from ..proxcensus.one_third import prox_one_third_program
from ..proxcensus.quadratic_half import prox_quadratic_half_program
from ..proxcensus.quadratic_half import slots_after_rounds as quadratic_slots
from .ba import FixedRoundBA
from .iteration import CoinFactory, Iteration

__all__ = [
    "BA_ONE_HALF_GENERALIZED",
    "BA_ONE_THIRD_CHUNKED",
    "ba_one_third_chunked",
    "rounds_one_third_chunked",
    "bits_per_round_one_third",
    "ba_one_half_generalized",
    "rounds_one_half_generalized",
    "bits_per_round_one_half",
]


def _chunks(kappa: int, chunk: int) -> int:
    if not (1 <= chunk <= kappa):
        raise ValueError("need 1 <= chunk <= kappa")
    return math.ceil(kappa / chunk)


#: ``⌈κ/m⌉`` iterations of ``Π_iter`` over ``Prox_{2^m+1}`` (chunk ``m``).
BA_ONE_THIRD_CHUNKED = FixedRoundBA(
    "ba_one_third_chunked",
    3,
    lambda index, kappa, chunk: Iteration(
        slots=2 ** chunk + 1,
        prox_factory=lambda c, b: prox_one_third_program(c, b, rounds=chunk),
        prox_rounds=chunk, coin_index=("chunked", index), overlap_coin=False,
        subsession=f"chunk{index}",
    ),
    _chunks,
)


def rounds_one_third_chunked(kappa: int, chunk: int) -> int:
    """Rounds of the chunked t<n/3 family: ``⌈κ/m⌉·(m+1)`` for chunk m."""
    return BA_ONE_THIRD_CHUNKED.rounds(kappa, chunk=chunk)


def bits_per_round_one_third(chunk: int) -> float:
    """Error-exponent bits gained per round at chunk size m: ``m/(m+1)``."""
    return chunk / (chunk + 1)


def ba_one_third_chunked(
    ctx: Context,
    bit: int,
    kappa: int,
    chunk: int,
    coin_factory: Optional[CoinFactory] = None,
):
    """t<n/3 BA as ``⌈κ/m⌉`` iterations of ``Π_iter`` over ``Prox_{2^m+1}``.

    ``chunk = kappa`` is the paper's Corollary 2 protocol; ``chunk = 1``
    is fixed-round Feldman–Micali.
    """
    return BA_ONE_THIRD_CHUNKED.program(ctx, bit, kappa, coin_factory, chunk=chunk)


#: Each family's Proxcensus program and its slot count after ``r`` rounds.
_FAMILIES = {
    "linear": (prox_linear_half_program, linear_slots),
    "quadratic": (prox_quadratic_half_program, quadratic_slots),
}


def _bits_per_iteration_one_half(prox_rounds: int, family: str) -> float:
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return math.log2(_FAMILIES[family][1](prox_rounds) - 1)


def _generalized_iteration(index: int, kappa: int, prox_rounds: int, family: str):
    prox, slots = _FAMILIES[family]
    return Iteration(
        slots=slots(prox_rounds),
        prox_factory=lambda c, b: prox(c, b, rounds=prox_rounds),
        prox_rounds=prox_rounds, coin_index=("gen12", index), overlap_coin=True,
        subsession=f"gen{index}",
    )


#: ``⌈κ / log2(s-1)⌉`` iterations over ``Prox_{2r-1}`` (or the quadratic
#: family), the coin overlapped with the last round.
BA_ONE_HALF_GENERALIZED = FixedRoundBA(
    "ba_one_half_generalized",
    2,
    _generalized_iteration,
    lambda kappa, prox_rounds, family: math.ceil(
        kappa / _bits_per_iteration_one_half(prox_rounds, family)
    ),
)


def rounds_one_half_generalized(kappa: int, prox_rounds: int, family: str = "linear") -> int:
    """Rounds of the generalized t<n/2 family (coin overlapped)."""
    return BA_ONE_HALF_GENERALIZED.rounds(kappa, prox_rounds=prox_rounds, family=family)


def bits_per_round_one_half(prox_rounds: int, family: str = "linear") -> float:
    """Bits of error exponent per communication round."""
    return _bits_per_iteration_one_half(prox_rounds, family) / prox_rounds


def ba_one_half_generalized(
    ctx: Context,
    bit: int,
    kappa: int,
    prox_rounds: int = 3,
    family: str = "linear",
    coin_factory: Optional[CoinFactory] = None,
):
    """t<n/2 BA iterated over ``Prox_{2r-1}`` (or the quadratic family).

    ``prox_rounds = 3, family = "linear"`` is the paper's Corollary 2
    protocol.  Iteration count is ``⌈κ / log2(s-1)⌉``: per-iteration
    failure is ``1/(s-1)``, so that many independent iterations push the
    product below ``2^-κ``.
    """
    return BA_ONE_HALF_GENERALIZED.program(
        ctx, bit, kappa, coin_factory, prox_rounds=prox_rounds, family=family
    )
