"""Proxcensus for t < n/3 with perfect security (paper §3.3, Corollary 1).

The paper's expansion technique: given an ``s``-slot Proxcensus, one extra
round of echoing the ``(value, grade)`` output yields a ``(2s-1)``-slot
Proxcensus.  Interpreting the input configuration as the trivial
``Prox_2`` (everyone at grade 0 on their own input), ``r`` rounds of
iterated expansion give ``Prox_{2^r + 1}`` — exponentially many slots, and
hence (through the extraction step) a per-iteration error of ``2^-r``.

No signatures are involved: security is information-theoretic, resting on
quorum intersection with ``n > 3t``.

The expansion's output determination (protocol ``Prox_{2s-1}``): after
echoing, let ``S_{z,h}`` be the senders who echoed ``(z, h)`` and ``S_0``
those who echoed grade 0.  Scanning grade bands upward, a band
``(h, h+1)`` holding an ``n - t`` quorum places the party at one of two new
slots depending on which side of the band holds ``n - 2t`` echoes (ties go
up); a full quorum on the top grade ``G`` gives the new maximal grade.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..crypto.random_oracle import PLAIN_TYPES
from ..network.messages import get_field
from ..network.party import Context
from .base import ProxOutput, decide_once, max_grade

__all__ = [
    "decide",
    "prox_one_third_program",
    "prox_expand_once_program",
    "slots_after_rounds",
]

_MESSAGE_KEY = "prox13"


def slots_after_rounds(rounds: int) -> int:
    """Corollary 1: ``r`` rounds of expansion reach ``2^r + 1`` slots."""
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    return 2 ** rounds + 1


def prox_one_third_program(ctx: Context, value: Any, rounds: int):
    """Party program for ``Prox_{2^rounds + 1}``, t < n/3.

    ``value`` may come from any finite domain (term-encodable); the BA
    protocols use bits.  Returns a :class:`ProxOutput`.
    """
    if 3 * ctx.max_faulty >= ctx.num_parties:
        raise ValueError(
            f"prox_one_third requires t < n/3, got t={ctx.max_faulty}, "
            f"n={ctx.num_parties}"
        )
    y, g = value, 0
    slots = 2  # the input configuration is the trivial Prox_2
    for _ in range(rounds):
        y, g = yield from _expand_once(ctx, y, g, slots)
        slots = 2 * slots - 1
    return ProxOutput(y, g)


def prox_expand_once_program(ctx: Context, value: Any, grade: int, slots: int):
    """One expansion round as a standalone program: ``Prox_s → Prox_{2s-1}``.

    ``(value, grade)`` is this party's output of *any* ``s``-slot
    Proxcensus (t < n/3).  This is the paper's Fig. 2 step in isolation —
    the benchmarks use it to execute the figure's ``Prox_4 → Prox_7`` and
    ``Prox_5 → Prox_9`` examples from synthetic inner configurations,
    including the even-``s`` case that the iterated chain (which only
    produces odd ``s``) never visits.
    """
    if 3 * ctx.max_faulty >= ctx.num_parties:
        raise ValueError(
            f"the expansion requires t < n/3, got t={ctx.max_faulty}, "
            f"n={ctx.num_parties}"
        )
    grades = max_grade(slots)
    if not (0 <= grade <= grades):
        raise ValueError(f"grade {grade} outside [0, {grades}] for s={slots}")
    new_value, new_grade = yield from _expand_once(ctx, value, grade, slots)
    return ProxOutput(new_value, new_grade)


def _expand_once(ctx: Context, value: Any, grade: int, slots: int):
    """One expansion round: ``Prox_s`` output ``(value, grade)`` → ``Prox_{2s-1}``."""
    grades = max_grade(slots)          # G of the *inner* Proxcensus
    inbox = yield ctx.broadcast({_MESSAGE_KEY: (value, grade)})

    # One echo per sender: an honest payload, a plain dict holding an
    # exact (plain value, int grade) tuple, is read in one type-exact
    # pass; anything else goes through `_echo`, which it equals there.
    tally: Dict[Tuple[int, str, Any], int] = {}  # (grade, tag, value) → echoes
    for payload in inbox.values():
        pair = payload.get(_MESSAGE_KEY) if payload.__class__ is dict else None
        if (pair.__class__ is tuple and len(pair) == 2
                and pair[0].__class__ in PLAIN_TYPES and pair[1].__class__ is int
                and 0 <= pair[1] <= grades):
            echoed = (pair[1], "v", pair[0])
        else:
            echoed = _echo(payload, grades)
            if echoed is None:
                continue
        tally[echoed] = tally.get(echoed, 0) + 1
    view = (*tally, tuple(tally.values()))
    return decide_once(decide, view, ctx.num_parties, ctx.max_faulty, slots)


def _echo(payload: Any, grades: int) -> Optional[Tuple[int, str, Any]]:
    """A sender's echo as a tally row ``(h, tag, z)``, parsed defensively:
    one ``(z, h)`` pair, ``h`` a non-bool int in ``[0, G]``.  A value is
    tagged ``"v"``; an unhashable (Byzantine) one is tallied, and decided,
    by its repr under ``"unhashable"``.  ``None``: no echo."""
    pair = get_field(payload, _MESSAGE_KEY)
    if not (isinstance(pair, tuple) and len(pair) == 2):
        return None
    z, h = pair
    if isinstance(h, bool) or not isinstance(h, int) or not (0 <= h <= grades):
        return None
    try:
        hash(z)
    except TypeError:
        return (h, "unhashable", repr(z))
    return (h, "v", z)


def decide(tally, n: int, t: int, slots: int) -> Tuple[Any, int]:
    """Fig. 2's output rule: one round's echoes of a ``Prox_s`` → ``Prox_{2s-1}``.

    ``tally`` holds one ``(h, tag, z)`` row per distinct echo ``(z, h)``
    with ``h`` in ``[0, G]`` (``tag`` is ``"v"``, or ``"unhashable"`` with
    ``z`` the repr of an unhashable value), then one row of their echo
    counts in the same order.  A pure function of its arguments, which
    :func:`~.base.decide_once` memoises.
    """
    grades = max_grade(slots)          # G of the *inner* Proxcensus
    parity = slots % 2                 # b with s = 2k + b
    *echoed, echoes = tally
    counts = dict(zip(echoed, echoes))
    grade_zero = sum(number for (h, _, _), number in zip(echoed, echoes) if h == 0)

    def votes(z_key, h: int) -> int:
        return counts.get((h, *z_key), 0)

    candidates = sorted({(tag, z) for _, tag, z in echoed}, key=repr)

    new_value: Any = 0
    new_grade = 0
    # Odd s: the central slot is valueless, so the lowest band pairs the
    # grade-0 pool (any value) with grade-1 votes on a specific value.
    if parity == 1:
        for z_key in candidates:
            if (
                grade_zero + votes(z_key, 1) >= n - t
                and votes(z_key, 1) >= n - 2 * t
            ):
                new_value, new_grade = z_key[1], 1
                break
    # Only bands that actually received votes can assemble an n - t quorum;
    # the grade range is up to 2^{kappa-1}, so iterating all bands would be
    # exponential — iterate the (at most 2 honest + t Byzantine) observed ones.
    observed_bands = sorted(
        band
        for h, _, _ in echoed
        for band in (h - 1, h)
        if parity <= band < grades
    )
    for band in dict.fromkeys(observed_bands):
        for z_key in candidates:
            pair_total = votes(z_key, band) + votes(z_key, band + 1)
            if pair_total < n - t:
                continue
            if votes(z_key, band + 1) >= n - 2 * t:
                new_value, new_grade = z_key[1], 2 * band + 2 - parity
            elif votes(z_key, band) >= n - 2 * t:
                new_value, new_grade = z_key[1], 2 * band + 1 - parity
            break  # quorums for two distinct z cannot coexist (n > 3t)
    for z_key in candidates:
        if votes(z_key, grades) >= n - t:
            new_value, new_grade = z_key[1], 2 * grades + 1 - parity
            break
    return new_value, new_grade

