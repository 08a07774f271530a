"""Multivalued Byzantine Agreement from binary BA (paper §3.5 / [21]).

The paper extends its binary protocols to arbitrary finite domains "at the
expense of 2 (resp. 3) additional communication rounds when t < n/3
(resp. t < n/2) by applying the construction of Turpin and Coan [21]".

Two implementations are provided:

* :func:`turpin_coan_classic_program` — the original Turpin–Coan reduction
  for t < n/3 (2 echo rounds, no signatures, exactly as in [21]); and
* :func:`multivalued_ba_program` — a Proxcensus-flavoured lift matching
  the paper's round budgets for *both* regimes: a 2-round (t < n/3,
  Corollary 1 with r = 2) or 3-round (t < n/2, Lemma 3 with r = 3)
  multivalued Proxcensus, binary BA on "my grade is maximal", and output
  of the graded value when BA decides 1.

  Correctness of the lift follows from Definition 2 alone: if any honest
  party holds grade ``G`` then every honest party holds grade ``≥ G - 1 ≥
  1`` and therefore the *same* value (consistency); the binary BA's
  validity guarantees its output 1 only when some honest party had grade
  ``G``, and its output 0 whenever nobody could have (validity of the
  Proxcensus gives every honest party grade ``G`` under pre-agreement).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Generator

from ..network.messages import get_field
from ..network.party import Context
from ..proxcensus.linear_half import prox_linear_half_program
from ..proxcensus.one_third import prox_one_third_program
from .ba import ba_for_regime

__all__ = [
    "TURPIN_COAN_BA",
    "MULTIVALUED_BA",
    "turpin_coan_prefix",
    "turpin_coan_classic_program",
    "multivalued_prefix",
    "multivalued_ba_program",
]

#: Subsessions the lifts run their binary BA under.
TURPIN_COAN_BA = "tc-ba"
MULTIVALUED_BA = "mv-ba"

# A binary BA program factory: (ctx, bit) -> generator returning a bit.
BinaryBA = Callable[[Context, int], Generator]


def turpin_coan_prefix(ctx: Context, value: Any, default: Any = None):
    """The two echo rounds of Turpin–Coan: returns ``(candidate, bit)``.

    Round 1: broadcast the input.  Round 2: broadcast the value seen
    ``n - t`` times (or ⊥).  ``candidate`` is the most frequent non-⊥
    round-2 value (``default`` if there is none) and ``bit`` whether its
    count reached ``n - t`` — the binary BA's input.
    """
    n, t = ctx.num_parties, ctx.max_faulty
    if 3 * t >= n:
        raise ValueError(f"turpin_coan_classic requires t < n/3, got t={t}, n={n}")
    bottom = ("tc-bottom",)  # sentinel no input value can collide with

    inbox = yield ctx.broadcast({"tc1": value})
    tally = Counter()
    for payload in inbox.values():
        v = get_field(payload, "tc1")
        try:
            hash(v)
        except TypeError:
            continue
        tally[v] += 1
    echo = next((v for v, c in tally.items() if c >= n - t), bottom)

    inbox = yield ctx.broadcast({"tc2": echo})
    tally = Counter()
    for payload in inbox.values():
        v = get_field(payload, "tc2")
        try:
            hash(v)
        except TypeError:
            continue
        if v != bottom:
            tally[v] += 1
    if tally:
        candidate, count = max(tally.items(), key=lambda kv: (kv[1], repr(kv[0])))
    else:
        candidate, count = default, 0
    return candidate, 1 if count >= n - t else 0


def turpin_coan_classic_program(
    ctx: Context,
    value: Any,
    binary_ba: BinaryBA,
    default: Any = None,
):
    """The original Turpin–Coan reduction, t < n/3, +2 rounds.

    :func:`turpin_coan_prefix`, then binary BA on its bit: output the
    candidate ``w`` on 1, ``default`` on 0.
    """
    candidate, bit = yield from turpin_coan_prefix(ctx, value, default)
    decision = yield from binary_ba(ctx.subsession(TURPIN_COAN_BA), bit)
    return candidate if decision == 1 else default


def multivalued_prefix(ctx: Context, value: Any, regime: str = "one_third"):
    """The lift's multivalued Proxcensus: returns ``(candidate, bit)`` —
    the graded value and "my grade is maximal", the binary BA's input.

    ``regime`` is ``"one_third"`` (t < n/3, +2 rounds via the 2-round
    5-slot Proxcensus of Corollary 1) or ``"one_half"`` (t < n/2, +3 rounds
    via the 3-round 5-slot Proxcensus of Lemma 3).
    """
    ba_for_regime(regime, ctx)  # an unknown regime, or t >= n/r, raises
    prox_ctx = ctx.subsession("mv-prox")
    if regime == "one_third":
        output = yield from prox_one_third_program(prox_ctx, value, rounds=2)
    else:
        output = yield from prox_linear_half_program(prox_ctx, value, rounds=3)
    # G = 2 of the 5-slot Proxcensus (2·3 - 1 slots for t < n/2).
    return output.value, 1 if output.grade == 2 else 0


def multivalued_ba_program(
    ctx: Context,
    value: Any,
    binary_ba: BinaryBA,
    regime: str = "one_third",
    default: Any = None,
):
    """Multivalued BA at the paper's advertised extra round cost:
    :func:`multivalued_prefix` (+2 or +3 rounds by ``regime``), then
    binary BA on its bit."""
    candidate, bit = yield from multivalued_prefix(ctx, value, regime)
    decision = yield from binary_ba(ctx.subsession(MULTIVALUED_BA), bit)
    if decision == 1:
        # Some honest party had grade G, so every honest grade is >= 1 and
        # all graded values agree; our own value is that common value.
        return candidate
    return default
