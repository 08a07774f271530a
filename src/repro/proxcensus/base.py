"""Proxcensus definitions: outputs, slot geometry, invariant checkers.

Paper, Definition 2: an *s-slot Proxcensus* protocol has every party output
a value ``y ∈ D`` and a grade ``g ∈ [0, G]`` with ``G = ⌊(s-1)/2⌋`` such
that

* **validity** — pre-agreement on ``x`` forces every honest output to
  ``(x, G)``;
* **consistency** — honest grades differ by at most 1; two honest grades
  ``≥ 1`` imply equal values; for even ``s`` a single grade ``> 0`` already
  implies equal values.

Slots visualize the output space as one row (paper Fig. 1): for a binary
domain the ``s`` slots are, left to right,
``(0, G), …, (0, 1), [center], (1, 1), …, (1, G)`` where the center is a
single valueless slot for odd ``s`` and the pair ``(0, 0), (1, 0)`` for
even ``s``.  Honest parties always land on two *adjacent* slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterable, Optional, Tuple

__all__ = [
    "ProxOutput",
    "decide_once",
    "max_grade",
    "slot_index",
    "slot_label",
    "check_proxcensus_consistency",
    "check_proxcensus_validity",
    "ProxcensusViolation",
]


class ProxcensusViolation(AssertionError):
    """Raised by the invariant checkers when a paper property is violated."""


@dataclass(frozen=True)
class ProxOutput:
    """One party's Proxcensus output: a value and a grade."""

    value: Any
    grade: int

    def __iter__(self):
        return iter((self.value, self.grade))


# Decision memo.  Every family's output rule is a pure function of a
# small *view* — a tuple of rows of scalars holding exactly what the rule
# reads — and honest views repeat across parties, rounds and trials, so
# each distinct view is decided once.  The key is exact: among int, str,
# bytes and None, equal values have equal types, so a view of those is
# its own key; ``1 == True`` and ``0 == False``, so a view holding a bool
# is keyed with the exact type of every scalar too (a rule may return
# either).  A view holding any other type (a float, a Byzantine object
# with its own ``__eq__``) is decided afresh and never stored.  Like the
# tag memo, the table is dropped wholesale when full.
_DECISION_LIMIT = 1 << 10  # views held; ≈ 0.5 KB each
_EXACT_TYPES = frozenset({int, bool, str, bytes, type(None)})
_decisions: dict = {}


def decide_once(rule: Callable[..., Any], view: Tuple[tuple, ...], *params: Any):
    """``rule(view, *params)``, memoised on the rule, params and view."""
    kinds = set(map(type, chain.from_iterable(view)))
    if not kinds <= _EXACT_TYPES:
        return rule(view, *params)
    key = (rule, params, view)
    if bool in kinds:
        key += (tuple(map(type, chain.from_iterable(view))),)
    decision = _decisions.get(key)
    if decision is None:
        if len(_decisions) >= _DECISION_LIMIT:
            _decisions.clear()
        decision = _decisions[key] = rule(view, *params)
    return decision


def max_grade(slots: int) -> int:
    """``G = ⌊(s-1)/2⌋`` for an ``s``-slot Proxcensus."""
    if slots < 2:
        raise ValueError(f"Proxcensus needs at least 2 slots, got {slots}")
    return (slots - 1) // 2


def slot_index(value: int, grade: int, slots: int) -> int:
    """Position (0-based, left to right) of a binary-domain output slot.

    Value 0 occupies the left half (higher grade further left), value 1 the
    right half.  For odd ``s`` the central grade-0 slot is shared between
    the two values.
    """
    grades = max_grade(slots)
    if not (0 <= grade <= grades):
        raise ValueError(f"grade {grade} outside [0, {grades}] for s={slots}")
    if value not in (0, 1):
        raise ValueError("slot_index is defined for the binary domain")
    if slots % 2 == 1:
        return grades - grade if value == 0 else grades + grade
    return grades - grade if value == 0 else grades + 1 + grade


def slot_label(position: int, slots: int) -> Tuple[Optional[int], int]:
    """Inverse of :func:`slot_index`: slot position → ``(value, grade)``.

    The central slot of an odd-``s`` Proxcensus has no meaningful value and
    maps to ``(None, 0)``.
    """
    grades = max_grade(slots)
    if not (0 <= position < slots):
        raise ValueError(f"position {position} outside [0, {slots})")
    if slots % 2 == 1:
        if position == grades:
            return (None, 0)
        if position < grades:
            return (0, grades - position)
        return (1, position - grades)
    if position <= grades:
        return (0, grades - position)
    return (1, position - grades - 1)


def check_proxcensus_consistency(
    outputs: Iterable[ProxOutput], slots: int
) -> None:
    """Assert Definition 2's consistency over a set of honest outputs."""
    outputs = [o if isinstance(o, ProxOutput) else ProxOutput(*o) for o in outputs]
    grades = max_grade(slots)
    for o in outputs:
        if not (0 <= o.grade <= grades):
            raise ProxcensusViolation(
                f"grade {o.grade} outside [0, {grades}] for s={slots}"
            )
    for a in outputs:
        for b in outputs:
            if abs(a.grade - b.grade) > 1:
                raise ProxcensusViolation(
                    f"grades {a.grade} and {b.grade} differ by more than 1"
                )
            if min(a.grade, b.grade) >= 1 and a.value != b.value:
                raise ProxcensusViolation(
                    f"grades >= 1 with different values: {a} vs {b}"
                )
            if slots % 2 == 0 and a.grade > 0 and a.value != b.value:
                raise ProxcensusViolation(
                    f"even s={slots}: grade {a.grade} > 0 but values differ: "
                    f"{a} vs {b}"
                )


def check_proxcensus_validity(
    outputs: Iterable[ProxOutput], slots: int, common_input: Any
) -> None:
    """Assert Definition 2's validity given honest pre-agreement."""
    grades = max_grade(slots)
    for o in outputs:
        o = o if isinstance(o, ProxOutput) else ProxOutput(*o)
        if o.value != common_input or o.grade != grades:
            raise ProxcensusViolation(
                f"pre-agreement on {common_input!r} must yield "
                f"({common_input!r}, {grades}), got {o}"
            )
