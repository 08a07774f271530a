"""The paper's fixed-round binary Byzantine Agreement protocols (Cor. 2).

* :func:`ba_one_third_program` — t < n/3, ``κ + 1`` rounds for error
  ``2^-κ``: **one single** generalized iteration, expanding to
  ``s = 2^κ + 1`` slots in ``κ`` rounds (perfectly secure Proxcensus of
  Corollary 1) followed by one ``2^κ``-valued coin flip.  This is the
  paper's headline: half the rounds of fixed-round Feldman–Micali.

* :func:`ba_one_half_program` — t < n/2, ``3⌈κ/2⌉`` rounds: sequential
  iterations of ``Π_iter^5`` over the 3-round ``Prox_5`` of Lemma 3, the
  coin flip running in parallel with Proxcensus round 3 (safe because the
  honest slot pair is fixed after round 2).  Per-iteration error ``1/4``,
  so ``⌈κ/2⌉`` iterations reach ``2^-κ`` — a 25% round saving over
  Micali–Vaikuntanathan.

Both take a :data:`~repro.core.iteration.CoinFactory`; the default is the
threshold-signature coin (the construction the paper proves in the
random-oracle model).  Pass ``ideal_coin_factory(IdealCoin(rng))`` to
reproduce the paper's ideal-coin round counts exactly (same counts — the
threshold coin is also 1-round).
"""

from __future__ import annotations

import math
from typing import Optional

from ..network.party import Context
from ..proxcensus.linear_half import prox_linear_half_program
from ..proxcensus.one_third import prox_one_third_program
from .iteration import CoinFactory, Iteration, threshold_coin_factory

__all__ = [
    "ba_one_third_program",
    "ba_one_half_program",
    "iteration_one_third",
    "iteration_one_half",
    "iterations_one_half",
    "rounds_one_third",
    "rounds_one_half",
]


def iteration_one_third(kappa: int) -> Iteration:
    """The t < n/3 protocol's single iteration: ``s = 2^κ + 1`` slots
    expanded in ``κ`` rounds, then one coin in ``[1, 2^κ]``."""
    return Iteration(
        slots=2 ** kappa + 1,
        prox_factory=lambda c, b: prox_one_third_program(c, b, rounds=kappa),
        prox_rounds=kappa,
        coin_index=("ba13", kappa),
        overlap_coin=False,
    )


def iteration_one_half(index: int) -> Iteration:
    """Iteration ``index`` of the t < n/2 protocol: ``Π_iter^5`` over the
    3-round ``Prox_5``, the coin in ``[1, 4]`` riding round 3."""
    return Iteration(
        slots=5,
        prox_factory=lambda c, b: prox_linear_half_program(c, b, rounds=3),
        prox_rounds=3,
        coin_index=("ba12", index),
        overlap_coin=True,
        subsession=f"iter{index}",
    )


def iterations_one_half(kappa: int) -> int:
    """Iterations of the t < n/2 protocol: ``⌈κ/2⌉`` (error 1/4 each)."""
    return math.ceil(kappa / 2)


def rounds_one_third(kappa: int) -> int:
    """Round count of the t < n/3 protocol: ``κ + 1``."""
    return kappa + 1


def rounds_one_half(kappa: int) -> int:
    """Round count of the t < n/2 protocol: ``3⌈κ/2⌉`` (= 3κ/2 for even κ)."""
    return 3 * iterations_one_half(kappa)


def _check_bit(bit: int) -> int:
    if bit not in (0, 1):
        raise ValueError(f"binary BA needs a bit input, got {bit!r}")
    return bit


def ba_one_third_program(
    ctx: Context,
    bit: int,
    kappa: int,
    coin_factory: Optional[CoinFactory] = None,
):
    """Binary BA, t < n/3, error ≤ 2^-κ, in κ + 1 rounds (single coin)."""
    _check_bit(bit)
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    if 3 * ctx.max_faulty >= ctx.num_parties:
        raise ValueError(
            f"ba_one_third requires t < n/3, got t={ctx.max_faulty}, "
            f"n={ctx.num_parties}"
        )
    coin_factory = coin_factory or threshold_coin_factory()
    result = yield from iteration_one_third(kappa).run(ctx, bit, coin_factory)
    return result


def ba_one_half_program(
    ctx: Context,
    bit: int,
    kappa: int,
    coin_factory: Optional[CoinFactory] = None,
):
    """Binary BA, t < n/2, error ≤ 2^-κ, in 3⌈κ/2⌉ rounds."""
    bit = _check_bit(bit)
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    if 2 * ctx.max_faulty >= ctx.num_parties:
        raise ValueError(
            f"ba_one_half requires t < n/2, got t={ctx.max_faulty}, "
            f"n={ctx.num_parties}"
        )
    coin_factory = coin_factory or threshold_coin_factory()
    for index in range(iterations_one_half(kappa)):
        bit = yield from iteration_one_half(index).run(ctx, bit, coin_factory)
    return bit
