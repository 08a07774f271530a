"""The generalized Feldman–Micali iteration ``Π_iter`` (paper §3.2, §3.5).

One iteration = **expand** (an ``s``-slot Proxcensus), **coin-flip** (a
``(s-1)``-valued common coin) and **extract** (the cut function of
:mod:`.extraction`).  Theorem 1: a single iteration reaches agreement
except with probability ``1/(s-1)``, against a strongly rushing adaptive
adversary, for any ``t < n`` for which the underlying Proxcensus is secure.

This module states one iteration as a record, :class:`Iteration`, whose
:meth:`~Iteration.exchange` (expand and coin-flip) and :meth:`~Iteration.run`
(the whole iteration) are its party programs, plus the coin-factory
flavours (ideal, threshold-signature and VRF based).  A fixed-round BA is
a :class:`~.ba.FixedRoundBA` statement that names its iterations;
:meth:`.ba.FixedRoundBA.program` runs them.
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


class Iteration(NamedTuple):
    """A protocol's one statement of its iteration: what the program runs
    and what the vector backend probes, rows and flips coins from.

    ``subsession`` names the sub-context the iteration runs under
    (``None``: the caller's own); :meth:`exchange` says what the
    remaining fields mean.
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

    def exchange(self, ctx: Context, bit: int, coin_factory: CoinFactory):
        """Expand and coin-flip, before extraction.

        Returns ``(prox_output, coin)`` raw — no guard, no default — which
        is what a caller that extracts elsewhere needs (the vector
        backend's probes) and what :meth:`run` finishes.

        ``prox_factory(ctx, bit)`` must be a ``slots``-slot Proxcensus
        program taking exactly ``prox_rounds`` communication rounds; the
        coin is ``coin_index``'s, in ``coin_range(slots)``.  With
        ``overlap_coin`` the coin's single round is multiplexed into the
        Proxcensus' *last* round (the paper does this for the t < n/2
        protocol, where the honest slot pair is already fixed after
        round 2); otherwise the coin follows the Proxcensus, for
        ``prox_rounds + 1`` rounds total.
        """
        if self.subsession is not None:
            ctx = ctx.subsession(self.subsession)
        low, high = coin_range(self.slots)
        prox = self.prox_factory(ctx, bit)
        if self.overlap_coin and self.prox_rounds >= 1:
            outbox = next(prox)
            for _ in range(self.prox_rounds - 1):
                inbox = yield outbox
                outbox = prox.send(inbox)
            results = yield from run_parallel(
                ctx,
                {
                    "prox": resume_with(prox, outbox),
                    "coin": coin_factory(ctx, self.coin_index, low, high),
                },
            )
            return results["prox"], results["coin"]
        prox_output = yield from prox
        coin = yield from coin_factory(ctx, self.coin_index, low, high)
        return prox_output, coin

    def run(self, ctx: Context, bit: int, coin_factory: CoinFactory):
        """One generalized iteration ``Π_iter^s`` as a party program:
        :meth:`exchange`, then **extract**.

        Defensive notes: a failed coin (``None``) degrades to coin value 1
        — the iteration then still satisfies validity, and consistency
        merely is not helped this iteration; a non-binary Proxcensus value
        (impossible for honest executions, but cheap to guard) degrades to
        the (0, 0) slot.
        """
        (value, grade), coin = yield from self.exchange(ctx, bit, coin_factory)
        if value not in (0, 1):
            value, grade = 0, 0
        if coin is None:
            coin = coin_range(self.slots)[0]
        return extract(value, grade, coin, self.slots)
