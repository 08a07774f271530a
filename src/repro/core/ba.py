"""The paper's fixed-round binary Byzantine Agreement protocols (Cor. 2).

A fixed-round BA — ``k(κ)`` generalized iterations, secure for
``t < n/r`` — is one :class:`FixedRoundBA` statement, run by the one
driver :meth:`FixedRoundBA.program`: these two, the baselines and the
ablation families alike.

* :data:`BA_ONE_THIRD` — t < n/3, ``κ + 1`` rounds for error ``2^-κ``:
  **one single** generalized iteration, expanding to ``s = 2^κ + 1``
  slots in ``κ`` rounds (perfectly secure Proxcensus of Corollary 1)
  followed by one ``2^κ``-valued coin flip.  This is the paper's
  headline: half the rounds of fixed-round Feldman–Micali.

* :data:`BA_ONE_HALF` — t < n/2, ``3⌈κ/2⌉`` rounds: sequential
  iterations of ``Π_iter^5`` over the 3-round ``Prox_5`` of Lemma 3, the
  coin flip running in parallel with Proxcensus round 3 (safe because the
  honest slot pair is fixed after round 2).  Per-iteration error ``1/4``,
  so ``⌈κ/2⌉`` iterations reach ``2^-κ`` — a 25% round saving over
  Micali–Vaikuntanathan.

Every program takes a :data:`~repro.core.iteration.CoinFactory`; the
default is the threshold-signature coin (the construction the paper proves
in the random-oracle model).  Pass ``ideal_coin_factory(IdealCoin(rng))``
to reproduce the paper's ideal-coin round counts exactly (same counts —
the threshold coin is also 1-round).
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple, Optional

from ..network.party import Context
from ..proxcensus.linear_half import prox_linear_half_program
from ..proxcensus.one_third import prox_one_third_program
from .iteration import CoinFactory, Iteration, threshold_coin_factory

__all__ = [
    "BA_BY_REGIME",
    "BA_ONE_HALF",
    "BA_ONE_THIRD",
    "FixedRoundBA",
    "ba_for_regime",
    "ba_one_third_program",
    "ba_one_half_program",
    "iteration_one_third",
    "iteration_one_half",
    "iterations_one_half",
    "rounds_one_third",
    "rounds_one_half",
]


def _check_kappa(kappa: int) -> None:
    if kappa < 1:
        raise ValueError("kappa must be at least 1")


class FixedRoundBA(NamedTuple):
    """One fixed-round binary BA, as a statement: ``name``, secure for
    ``t < n/regime``, running ``iterations(κ, **params)`` iterations, the
    ``index``-th of which is ``iteration(index, κ, **params)``.

    ``iterations`` also checks the statement's own params, raising
    ``ValueError`` on a value it rejects.
    """

    name: str
    regime: int
    iteration: Callable[..., Iteration]
    iterations: Callable[..., int]

    def rounds(self, kappa: int, **params: Any) -> int:
        """Communication rounds the program takes."""
        _check_kappa(kappa)
        return sum(
            self.iteration(index, kappa, **params).rounds
            for index in range(self.iterations(kappa, **params))
        )

    def program(
        self,
        ctx: Context,
        bit: int,
        kappa: int,
        coin_factory: Optional[CoinFactory] = None,
        **params: Any,
    ):
        """Binary BA, error ≤ 2^-κ, in :meth:`rounds` rounds."""
        if bit not in (0, 1):
            raise ValueError(f"binary BA needs a bit input, got {bit!r}")
        _check_kappa(kappa)
        if self.regime * ctx.max_faulty >= ctx.num_parties:
            raise ValueError(
                f"{self.name} requires t < n/{self.regime}, got "
                f"t={ctx.max_faulty}, n={ctx.num_parties}"
            )
        iterations = self.iterations(kappa, **params)
        coin_factory = coin_factory or threshold_coin_factory()
        for index in range(iterations):
            iteration = self.iteration(index, kappa, **params)
            bit = yield from iteration.run(ctx, bit, coin_factory)
        return bit


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


BA_ONE_THIRD = FixedRoundBA(
    "ba_one_third", 3, lambda index, kappa: iteration_one_third(kappa),
    lambda kappa: 1,
)
BA_ONE_HALF = FixedRoundBA(
    "ba_one_half", 2, lambda index, kappa: iteration_one_half(index),
    iterations_one_half,
)

#: The binary BA of each corruption regime a multivalued lift runs in.
BA_BY_REGIME = {"one_third": BA_ONE_THIRD, "one_half": BA_ONE_HALF}


def ba_for_regime(regime: str, ctx: Context) -> FixedRoundBA:
    """:data:`BA_BY_REGIME`'s BA for ``regime``, checked against
    ``ctx``'s ``t < n/r`` first."""
    if regime not in BA_BY_REGIME:
        raise ValueError(f"unknown regime {regime!r}")
    ba = BA_BY_REGIME[regime]
    if ba.regime * ctx.max_faulty >= ctx.num_parties:
        raise ValueError(f"regime {regime!r} requires t < n/{ba.regime}")
    return ba


def rounds_one_third(kappa: int) -> int:
    """Round count of the t < n/3 protocol: ``κ + 1``."""
    return BA_ONE_THIRD.rounds(kappa)


def rounds_one_half(kappa: int) -> int:
    """Round count of the t < n/2 protocol: ``3⌈κ/2⌉`` (= 3κ/2 for even κ)."""
    return BA_ONE_HALF.rounds(kappa)


def ba_one_third_program(
    ctx: Context,
    bit: int,
    kappa: int,
    coin_factory: Optional[CoinFactory] = None,
):
    """Binary BA, t < n/3, error ≤ 2^-κ, in κ + 1 rounds (single coin)."""
    return BA_ONE_THIRD.program(ctx, bit, kappa, coin_factory)


def ba_one_half_program(
    ctx: Context,
    bit: int,
    kappa: int,
    coin_factory: Optional[CoinFactory] = None,
):
    """Binary BA, t < n/2, error ≤ 2^-κ, in 3⌈κ/2⌉ rounds."""
    return BA_ONE_HALF.program(ctx, bit, kappa, coin_factory)
