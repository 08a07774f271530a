"""The generalized Feldman–Micali iteration ``Π_iter`` (paper §3.2, §3.5).

One iteration = **expand** (an ``s``-slot Proxcensus), **coin-flip** (a
``(s-1)``-valued common coin) and **extract** (the cut function of
:mod:`.extraction`).  Theorem 1: a single iteration reaches agreement
except with probability ``1/(s-1)``, against a strongly rushing adaptive
adversary, for any ``t < n`` for which the underlying Proxcensus is secure.

This module provides the iteration as a composable party program, plus the
two coin-factory flavours (ideal and threshold-signature based).  BA
protocols assemble iterations in :mod:`.ba`,
:mod:`.feldman_micali` and :mod:`.micali_vaikuntanathan`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, NamedTuple, Optional

from ..crypto.coin import IdealCoin, ideal_coin_program, threshold_coin_program
from ..network.party import Context, resume_with, run_parallel
from .extraction import coin_range, extract

__all__ = [
    "CoinFactory",
    "ideal_coin_factory",
    "threshold_coin_factory",
    "vrf_coin_factory",
    "Iteration",
    "pi_exchange_program",
    "pi_iter_program",
]

# A coin factory builds the 1-round coin subprotocol for iteration `index`,
# producing a value in [low, high] (or None on coin failure).
CoinFactory = Callable[[Context, Any, int, int], Generator]


def ideal_coin_factory(coin: IdealCoin) -> CoinFactory:
    """Coin factory over a shared :class:`IdealCoin` instance.

    The instance must be created once per execution and passed to every
    party's program factory (the simulator's single process stands in for
    the paper's ideal-coin setup assumption).
    """

    def factory(ctx: Context, index: Any, low: int, high: int):
        return ideal_coin_program(ctx, coin, index, low, high)

    return factory


def threshold_coin_factory() -> CoinFactory:
    """Coin factory over the suite's ``(t+1)``-of-``n`` threshold scheme."""

    def factory(ctx: Context, index: Any, low: int, high: int):
        return threshold_coin_program(ctx, index, low, high)

    return factory


def vrf_coin_factory() -> CoinFactory:
    """Coin factory over the Chen–Micali-style VRF coin.

    **Biased against strongly rushing adversaries** (the paper's §1 caveat
    on [4]; measured in ``benchmarks/bench_coin_bias.py``) — provided for
    the comparison, not as a drop-in for the threshold coin.
    """
    from ..crypto.vrf_coin import vrf_coin_program

    def factory(ctx: Context, index: Any, low: int, high: int):
        return vrf_coin_program(ctx, index, low, high)

    return factory


def pi_exchange_program(
    ctx: Context,
    bit: int,
    slots: int,
    prox_factory: Callable[[Context, int], Generator],
    prox_rounds: int,
    coin_factory: CoinFactory,
    coin_index: Any = 0,
    overlap_coin: bool = False,
):
    """Expand and coin-flip of ``Π_iter^s``, before extraction.

    Returns ``(prox_output, coin)`` raw — no guard, no default — which is
    what a caller that extracts elsewhere needs (the vector backend's
    probes) and what :func:`pi_iter_program` finishes.

    ``prox_factory(ctx, bit)`` must be an ``s``-slot Proxcensus program
    taking exactly ``prox_rounds`` communication rounds.  With
    ``overlap_coin`` the coin's single round is multiplexed into the
    Proxcensus' *last* round (the paper does this for the t < n/2 protocol,
    where the honest slot pair is already fixed after round 2); otherwise
    the coin follows the Proxcensus, for ``prox_rounds + 1`` rounds total.
    """
    low, high = coin_range(slots)
    prox = prox_factory(ctx, bit)
    if overlap_coin and prox_rounds >= 1:
        outbox = next(prox)
        for _ in range(prox_rounds - 1):
            inbox = yield outbox
            outbox = prox.send(inbox)
        results = yield from run_parallel(
            ctx,
            {
                "prox": resume_with(prox, outbox),
                "coin": coin_factory(ctx, coin_index, low, high),
            },
        )
        return results["prox"], results["coin"]
    prox_output = yield from prox
    coin = yield from coin_factory(ctx, coin_index, low, high)
    return prox_output, coin


def pi_iter_program(
    ctx: Context,
    bit: int,
    slots: int,
    prox_factory: Callable[[Context, int], Generator],
    prox_rounds: int,
    coin_factory: CoinFactory,
    coin_index: Any = 0,
    overlap_coin: bool = False,
):
    """One generalized iteration ``Π_iter^s`` as a party program:
    :func:`pi_exchange_program` (same arguments), then **extract**.

    Defensive notes: a failed coin (``None``) degrades to coin value 1 —
    the iteration then still satisfies validity, and consistency merely is
    not helped this iteration; a non-binary Proxcensus value (impossible
    for honest executions, but cheap to guard) degrades to the (0, 0) slot.
    """
    (value, grade), coin = yield from pi_exchange_program(
        ctx, bit, slots, prox_factory, prox_rounds, coin_factory,
        coin_index, overlap_coin,
    )
    if value not in (0, 1):
        value, grade = 0, 0
    if coin is None:
        coin = coin_range(slots)[0]
    return extract(value, grade, coin, slots)


class Iteration(NamedTuple):
    """A protocol's one statement of its iteration: what the program runs
    and what the vector backend probes, rows and flips coins from.

    ``subsession`` names the sub-context the iteration runs under
    (``None``: the caller's own); the remaining fields are
    :func:`pi_exchange_program`'s arguments.
    """

    slots: int
    prox_factory: Callable[[Context, int], Generator]
    prox_rounds: int
    coin_index: Any
    overlap_coin: bool
    subsession: Optional[str] = None

    @property
    def rounds(self) -> int:
        """Communication rounds one iteration takes."""
        overlapped = self.overlap_coin and self.prox_rounds >= 1
        return self.prox_rounds + (0 if overlapped else 1)

    def _arguments(self, ctx: Context, bit: int, coin_factory: CoinFactory):
        if self.subsession is not None:
            ctx = ctx.subsession(self.subsession)
        return (
            ctx, bit, self.slots, self.prox_factory, self.prox_rounds,
            coin_factory, self.coin_index, self.overlap_coin,
        )

    def exchange(self, ctx: Context, bit: int, coin_factory: CoinFactory):
        """:func:`pi_exchange_program` of this iteration."""
        return pi_exchange_program(*self._arguments(ctx, bit, coin_factory))

    def run(self, ctx: Context, bit: int, coin_factory: CoinFactory):
        """:func:`pi_iter_program` of this iteration."""
        return pi_iter_program(*self._arguments(ctx, bit, coin_factory))
