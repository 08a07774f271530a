"""The extraction function (paper §3.4).

Extraction turns a Proxcensus output ``(b, g)`` and a coin ``c ∈ [1, s-1]``
into the iteration's output bit.  Pictorially (paper Fig. 3), the coin cuts
the row of ``s`` slots at one of the ``s - 1`` inter-slot boundaries;
parties left of the cut output 0, parties right of it output 1.

The paper's closed form, with ``G = ⌊(s-1)/2⌋`` and ``r = s mod 2``::

    f(b, g, c) = 1  iff  (b = 1 ∧ c ≤ g + G + 1 - r) ∨ (b = 0 ∧ c ≤ G - g)

which is equivalent to the geometric statement ``f = 1 iff slot ≥ c`` over
slot positions (:func:`repro.proxcensus.base.slot_index`); the tests hold
:func:`extract` to that geometric form (``tests/oracles.py``).

Because honest parties occupy two *adjacent* slots, exactly one coin value
splits them — hence the per-iteration disagreement probability ``1/(s-1)``
(Theorem 1), and hence BA error ``2^-κ`` from a single iteration with
``s = 2^κ + 1``.
"""

from __future__ import annotations

from ..proxcensus.base import max_grade

__all__ = ["extract", "splitting_coin", "coin_range"]


def coin_range(slots: int) -> tuple:
    """The coin domain for an ``s``-slot iteration: ``[1, s-1]``."""
    if slots < 2:
        raise ValueError("need at least 2 slots")
    return (1, slots - 1)


def extract(value: int, grade: int, coin: int, slots: int) -> int:
    """The paper's ``f(b, g, c)`` for an ``s``-slot Proxcensus output."""
    if value not in (0, 1):
        raise ValueError(f"extraction is defined on bits, got {value!r}")
    grades = max_grade(slots)
    if not (0 <= grade <= grades):
        raise ValueError(f"grade {grade} outside [0, {grades}] for s={slots}")
    low, high = coin_range(slots)
    if not (low <= coin <= high):
        raise ValueError(f"coin {coin} outside [{low}, {high}]")
    parity = slots % 2
    if value == 1:
        return 1 if coin <= grade + grades + 1 - parity else 0
    return 1 if coin <= grades - grade else 0


def splitting_coin(left_position: int, slots: int) -> int:
    """The unique coin value that separates adjacent slot positions
    ``left_position`` and ``left_position + 1``.

    This is what a worst-case adversary hopes the coin lands on, and what
    the error-probability benchmark conditions on.
    """
    if not (0 <= left_position < slots - 1):
        raise ValueError(
            f"no boundary to the right of position {left_position} in "
            f"{slots} slots"
        )
    return left_position + 1
