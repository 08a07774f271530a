"""Probabilistic-termination ('Las Vegas') Feldman–Micali BA, t < n/3.

The paper's §1 contrasts two termination flavours: fixed-round protocols
(its subject) and expected-constant-round protocols with *probabilistic
termination*, which "cannot achieve simultaneous termination" (Dwork &
Moses; Moses & Tuttle) and are therefore awkward building blocks.  This
module implements the classic flavour so the contrast is measurable: the
termination benchmark shows honest parties of this protocol really do halt
in *different* rounds, while every fixed-round protocol in the repository
halts everyone together.

Construction (the expected-round FM loop; per the paper's §3.1 footnote,
this flavour needs the 5-slot graded consensus, not ``Prox_3``):

    repeat:  (y, g) ← Prox_5(x);  c ← CoinFlip
             if g = 2: decide y  (stay one more iteration, then halt)
             x ← y if g ≥ 1 else bit(c)

If any honest party decides in iteration k (grade 2), every honest party
held grade ≥ 1 with the *same* value, so iteration k+1 starts from
pre-agreement and everyone decides in k+1; the early decider participates
through k+1 (so quorums never starve) and halts afterwards — a one-
iteration termination spread.  Each iteration reaches pre-agreement with
probability ≥ 1/2, giving expected O(1) iterations.

Returns :class:`ProbTermOutput` — the decided value plus the iteration at
which this party decided (for the termination-spread measurements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..network.party import Context
from ..proxcensus.one_third import prox_one_third_program
from .extraction import extract
from .iteration import CoinFactory, Iteration, threshold_coin_factory

__all__ = [
    "FM_MAX_ITERATIONS",
    "ProbTermOutput",
    "fm_probabilistic_program",
    "iteration_fm_probabilistic",
]

#: The loop's default iteration cap: a run still undecided after it
#: (probability 2^-64 for honest-majority runs) returns its working bit.
FM_MAX_ITERATIONS = 64


def iteration_fm_probabilistic(iteration: int) -> Iteration:
    """Iteration ``iteration`` (1-based) of the loop: the 5-slot graded
    consensus in 2 expansion rounds (Corollary 1, r = 2), then the coin."""
    return Iteration(
        slots=5,
        prox_factory=lambda c, b: prox_one_third_program(c, b, rounds=2),
        prox_rounds=2,
        coin_index=("pt", iteration),
        overlap_coin=False,
        subsession=f"pt{iteration}",
    )


@dataclass(frozen=True)
class ProbTermOutput:
    """Decision value plus termination bookkeeping."""

    value: int
    decided_iteration: int  # 1-based; the iteration whose Prox gave grade 2

    def __eq__(self, other: object) -> bool:
        # Agreement is about the value; two honest parties deciding the
        # same value in adjacent iterations *are* in agreement.
        if isinstance(other, ProbTermOutput):
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("ProbTermOutput", self.value))


def fm_probabilistic_program(
    ctx: Context,
    bit: int,
    coin_factory: Optional[CoinFactory] = None,
):
    """Expected-constant-round FM BA with probabilistic termination."""
    if bit not in (0, 1):
        raise ValueError(f"binary BA needs a bit input, got {bit!r}")
    if 3 * ctx.max_faulty >= ctx.num_parties:
        raise ValueError(
            f"fm_probabilistic requires t < n/3, got t={ctx.max_faulty}, "
            f"n={ctx.num_parties}"
        )
    coin_factory = coin_factory or threshold_coin_factory()
    decided: Optional[ProbTermOutput] = None
    for iteration in range(1, FM_MAX_ITERATIONS + 1):
        step = iteration_fm_probabilistic(iteration)
        (value, grade), coin = yield from step.exchange(ctx, bit, coin_factory)
        if coin is None:
            coin = 1
        if decided is not None:
            # The post-decision helper iteration is done; halt now.
            return decided
        if value in (0, 1) and grade == 2:
            decided = ProbTermOutput(value=value, decided_iteration=iteration)
            bit = value  # keep helping for exactly one more iteration
            continue
        if value in (0, 1) and grade >= 1:
            bit = value
        else:
            bit = extract(0, 0, coin, step.slots)  # adopt the coin's bit
    # Statistically unreachable for honest-majority runs (failure prob
    # 2^-FM_MAX_ITERATIONS); returning the working value keeps the
    # simulator total and the caller can detect non-decision via iteration
    # count.
    return ProbTermOutput(value=bit, decided_iteration=FM_MAX_ITERATIONS)
