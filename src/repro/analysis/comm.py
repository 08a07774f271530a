"""Exact communication predictions for honest (passive-adversary) runs.

The big-O claims of TAB-COMM have exact constants in this implementation:
every multi-party protocol round is a full broadcast (n messages from each
of the n parties), the coin adds one broadcast round, and parallel
composition merges channels into single messages.  These predictors state
the exact honest message counts; ``tests/analysis/test_comm.py`` asserts
measured == predicted, which pins down the constant in ``O(r n²)``
instead of hand-waving it.
"""

from __future__ import annotations

import math

__all__ = [
    "messages_prox_one_third",
    "messages_prox_linear_half",
    "messages_prox_quadratic_half",
    "messages_proxcast",
    "messages_ba_one_third",
    "messages_ba_one_half",
    "messages_feldman_micali",
    "messages_mv",
]


def messages_prox_one_third(n: int, rounds: int) -> int:
    """``r`` broadcast rounds: exactly ``r · n²`` messages."""
    return rounds * n * n


def messages_prox_linear_half(n: int, rounds: int) -> int:
    """Same shape: every party broadcasts every round."""
    return rounds * n * n


def messages_prox_quadratic_half(n: int, rounds: int) -> int:
    """Same shape: every party broadcasts every round."""
    return rounds * n * n


def messages_proxcast(n: int, slots: int) -> int:
    """Round 1 is dealer-only (n messages); rounds 2..s-1 full broadcasts."""
    return n + (slots - 2) * n * n


def messages_ba_one_third(n: int, kappa: int) -> int:
    """κ Proxcensus rounds + 1 coin round, all full broadcasts."""
    return (kappa + 1) * n * n


def messages_ba_one_half(n: int, kappa: int) -> int:
    """⌈κ/2⌉ iterations × 3 rounds; the coin shares round 3's messages."""
    return math.ceil(kappa / 2) * 3 * n * n


def messages_feldman_micali(n: int, kappa: int) -> int:
    """κ iterations × (1 GC round + 1 coin round)."""
    return kappa * 2 * n * n


def messages_mv(n: int, kappa: int) -> int:
    """κ iterations × 2 rounds (coin inside round 2)."""
    return kappa * 2 * n * n
