"""Quadratic Proxcensus for t < n/2 (paper Appendix B, Lemma 7).

``r`` rounds yield ``3 + (r-3)(r-2)`` slots — quadratic in the round count,
against the linear ``2r - 1`` of :mod:`.linear_half`.  The idea: instead of
releasing one proof ``ω`` in round 2 only, each party releases a fresh
``ω_j``-share *every* round ``j`` in which its state is still univalent,
building a tower of threshold signatures ``Ω_1, Ω_2, …`` whose arrival
*schedule* encodes the grade.

``Ω_1`` on ``v`` is combined from round-1 input shares; for ``j ≥ 2``,
``Ω_j`` on ``v`` is combined from the ``ω_j``-shares of ``n - t`` parties
that each (a) formed ``Ω_{j-1}`` on ``v`` themselves at the end of round
``j - 1`` and (b) had seen no ``Ω_ℓ`` on any other value.  Every formed or
received ``(v, Ω_k)`` pair is flooded.

The per-grade conditions (paper Table 2) prescribe, for each grade ``g``
and each round ``j``, which ``Ω_k`` must be known by the end of round
``j``.  They are derived inductively from the top grade downward — see
:func:`condition_table`, which reproduces Table 2 exactly; the derivation
rule is the one stated in the paper:

* grade ``G`` requires ``Ω_j`` formed at round ``j`` for every ``j``;
* grade ``g < G`` at round ``j`` requires ``Ω_{j-1}`` if grade ``g + 1``
  requires ``Ω_j`` at some *later* round, else whatever grade ``g + 1``
  required one round earlier.

Every grade ``≥ 1`` ends up requiring ``Ω_3`` somewhere, which is what
makes grade-1 conditions for different values mutually exclusive.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..network.messages import get_field
from ..network.party import Context
from .base import ProxOutput, decide_once

__all__ = [
    "decide",
    "prox_quadratic_half_program",
    "slots_after_rounds",
    "top_grade",
    "condition_table",
]

_KEY = "pqh"


def slots_after_rounds(rounds: int) -> int:
    """Lemma 7: ``r`` rounds yield ``3 + (r-3)(r-2)`` slots (r ≥ 3)."""
    if rounds < 3:
        raise ValueError("the quadratic t<n/2 Proxcensus needs at least 3 rounds")
    return 3 + (rounds - 3) * (rounds - 2)


def top_grade(rounds: int) -> int:
    """``G = 1 + (r-3)(r-2)/2`` — consistent with ``⌊(s-1)/2⌋``."""
    return 1 + (rounds - 3) * (rounds - 2) // 2


def condition_table(rounds: int) -> Dict[int, Dict[int, int]]:
    """Grade → {round → required Ω-index} (the paper's Table 2 columns).

    Grade ``G`` constrains rounds ``1..r``; lower grades constrain rounds
    ``2..r``.  Grade 0 has no conditions and is not included.
    """
    grades = top_grade(rounds)
    table: Dict[int, Dict[int, int]] = {
        grades: {j: j for j in range(1, rounds + 1)}
    }
    for grade in range(grades - 1, 0, -1):
        above = table[grade + 1]
        current: Dict[int, int] = {}
        for j in range(2, rounds + 1):
            if any(required == j for later, required in above.items() if later > j):
                current[j] = j - 1
            else:
                current[j] = above[j - 1]
        table[grade] = current
    return table


def _omega_message(ctx: Context, level: int, value: Any):
    return (_KEY, ctx.session, level, value)


def prox_quadratic_half_program(ctx: Context, value: Any, rounds: int):
    """Party program for the quadratic Proxcensus, t < n/2; grade 0 reports 0."""
    if 2 * ctx.max_faulty >= ctx.num_parties:
        raise ValueError(
            f"prox_quadratic_half requires t < n/2, got t={ctx.max_faulty}, "
            f"n={ctx.num_parties}"
        )
    if rounds < 3:
        raise ValueError("need at least 3 rounds")
    scheme = ctx.crypto.quorum

    # first_known[(v, k)] = earliest round the pair (v, Ω_k) was known;
    # signatures[(v, k)] holds the signature object; formed_last holds the
    # (v, k) pairs this party *combined itself* at the end of the previous
    # round (the ω-release rule cares about forming, not receiving).
    first_known: Dict[Tuple[Any, int], int] = {}
    signatures: Dict[Tuple[Any, int], Any] = {}
    fresh: List[Tuple[Any, int]] = []
    formed_last: List[Tuple[Any, int]] = []

    def learn(v: Any, level: int, signature: Any, round_index: int) -> None:
        key = (v, level)
        if key not in first_known:
            first_known[key] = round_index
            signatures[key] = signature
            fresh.append(key)

    # --- Round 1: share the input value (builds Ω_1). --------------------
    share = scheme.sign_share(ctx.party_id, _omega_message(ctx, 1, value))
    inbox = yield ctx.broadcast({_KEY: {"value": value, "share": share}})
    by_value: Dict[Any, List[Tuple[int, Any]]] = {}
    for sender, payload in inbox.items():
        body = get_field(payload, _KEY)
        if not isinstance(body, dict):
            continue
        v = body.get("value")
        try:
            hash(v)
        except TypeError:
            continue
        by_value.setdefault(v, []).append((sender, body.get("share")))
    for v, indexed in by_value.items():
        signature = scheme.try_combine(indexed, _omega_message(ctx, 1, v))
        if signature is not None:
            learn(v, 1, signature, 1)
            formed_last.append((v, 1))

    # --- Rounds 2..r: flood new pairs, release ω_j when still univalent. --
    for round_index in range(2, rounds + 1):
        outgoing: Dict[str, Any] = {
            "pairs": [(v, k, signatures[(v, k)]) for (v, k) in fresh],
        }
        release = _univalent_value(formed_last, first_known, round_index)
        if release is not None:
            outgoing["omega_share"] = (
                release,
                scheme.sign_share(
                    ctx.party_id, _omega_message(ctx, round_index, release)
                ),
            )
        fresh = []
        formed_last = []
        inbox = yield ctx.broadcast({_KEY: outgoing})

        omega_shares: Dict[Any, List[Tuple[int, Any]]] = {}
        for sender, payload in inbox.items():
            body = get_field(payload, _KEY)
            if not isinstance(body, dict):
                continue
            pairs = body.get("pairs")
            if isinstance(pairs, (list, tuple)):
                for item in pairs:
                    if not (isinstance(item, (list, tuple)) and len(item) == 3):
                        continue
                    v, level, signature = item
                    if isinstance(level, bool) or not isinstance(level, int):
                        continue
                    if not (1 <= level <= rounds):
                        continue
                    try:
                        hash(v)
                    except TypeError:
                        continue
                    if (v, level) in first_known:
                        continue
                    if scheme.verify(signature, _omega_message(ctx, level, v)):
                        learn(v, level, signature, round_index)
            pair = body.get("omega_share")
            if isinstance(pair, (list, tuple)) and len(pair) == 2:
                v, omega_share = pair
                try:
                    hash(v)
                except TypeError:
                    continue
                omega_shares.setdefault(v, []).append((sender, omega_share))
        for v, indexed in omega_shares.items():
            signature = scheme.try_combine(
                indexed, _omega_message(ctx, round_index, v)
            )
            if signature is not None and (v, round_index) not in first_known:
                learn(v, round_index, signature, round_index)
                formed_last.append((v, round_index))

    # --- Output determination (Table 2 conditions, highest grade first). --
    view = tuple([(v, level, first) for (v, level), first in first_known.items()])
    return decide_once(decide, view, rounds)


def decide(view, rounds: int) -> ProxOutput:
    """Table 2's output rule, a pure function of when each ``Ω_k`` was known.

    ``view`` holds one ``(v, k, round)`` row per known pair ``(v, Ω_k)``,
    in the order they were learned.  Memoised by :func:`~.base.decide_once`.
    """
    first_known = {(v, level): first for v, level, first in view}
    values = sorted({v for v, _level, _first in view}, key=repr)
    table = condition_table(rounds)
    for grade in range(top_grade(rounds), 0, -1):
        deadlines = table[grade]
        for v in values:
            if all(
                first_known.get((v, omega_index), rounds + 1) <= by_round
                for by_round, omega_index in deadlines.items()
            ):
                return ProxOutput(v, grade)
    return ProxOutput(0, 0)


def _univalent_value(
    formed_last: List[Tuple[Any, int]],
    first_known: Dict[Tuple[Any, int], int],
    round_index: int,
) -> Optional[Any]:
    """The ω-release rule at the start of round ``j``.

    Release an ``ω_j``-share on ``v`` iff this party itself combined
    ``Ω_{j-1}`` on ``v`` at the end of round ``j - 1``, for exactly one
    ``v``, and knows no ``Ω_ℓ`` (any level) on a different value.
    """
    formed_values = {v for (v, level) in formed_last if level == round_index - 1}
    if len(formed_values) != 1:
        return None
    v = formed_values.pop()
    for (other, _level) in first_known:
        if other != v:
            return None
    return v
