"""Corollary 1's expansion step, checked exhaustively on the program's rule.

One echo round turns any ``Prox_s`` into a ``Prox_{2s-1}`` (paper §3.3,
Fig. 2).  Every honest recipient of that round sees the same honest
echoes (synchronous broadcast) and differs from another only in the
``t`` symbols the adversary sends it, so the state space is finite:

* every pair of adjacent slots of ``Prox_s`` the honest parties sit on;
* every split of the ``n - t`` honest parties over that pair, where a
  party on the valueless centre slot of an odd ``s`` echoes either bit;
* every multiset of ``t`` adversary symbols, a symbol being an echo
  ``(z, h)`` with ``z`` in {0, 1, one foreign value} and ``h`` in
  ``[0, G]``, or silence.

Consistency holds iff, for every split, the outcomes over all multisets
lie on two adjacent slots of ``Prox_{2s-1}`` (with two or more honest
recipients, any two outcomes are realisable at once); validity holds iff
pre-agreement on an extremal slot gives the extremal slot.  The check
calls :func:`repro.proxcensus.one_third.decide`, the rule the program
itself calls, directly: not through the decision memo, and not a copy.

The chain's slot counts ``s = 2^r + 1`` (and the input ``Prox_2``) are
checked up to a bound per ``n``: ``n = 4`` (``t = 1``) up to ``s = 65``
and ``n = 7`` (``t = 2``) up to ``s = 17`` by default.
``REPRO_EXPANSION_SLOTS="4:257,7:33"`` replaces those bounds (CI runs
that deeper profile); an unset or unparsable value keeps the default.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from repro.proxcensus.base import max_grade, slot_index, slot_label
from repro.proxcensus.one_third import decide

DEFAULT_BOUNDS = {4: 65, 7: 17}
FOREIGN = 2  # a value no honest party holds


def slot_bounds():
    """``{n: largest s}``, from ``REPRO_EXPANSION_SLOTS`` or the default."""
    raw = os.environ.get("REPRO_EXPANSION_SLOTS", "").strip()
    try:
        bounds = {
            int(n): int(s)
            for n, s in (item.split(":") for item in raw.split(","))
        }
    except ValueError:
        return DEFAULT_BOUNDS
    return bounds if set(bounds) == set(DEFAULT_BOUNDS) else DEFAULT_BOUNDS


def chain(largest):
    """The slot counts the iterated protocol visits: 2, then 2^r + 1."""
    slots, found = 2, []
    while slots <= largest:
        found.append(slots)
        slots = 2 * slots - 1
    return found


CASES = [
    (n, (n - 1) // 3, s) for n, largest in slot_bounds().items() for s in chain(largest)
]


def echoes_on(position, slots):
    """The echoes an honest party on slot ``position`` of ``Prox_s`` may send."""
    value, grade = slot_label(position, slots)
    return [(0, 0), (1, 0)] if value is None else [(value, grade)]


def outcome_slot(output, slots):
    """Slot of ``Prox_slots`` holding a ``(value, grade)`` output, or None."""
    value, grade = output
    if grade == 0:
        return max_grade(slots) if slots % 2 else None
    if value not in (0, 1) or isinstance(value, bool):
        return None
    return slot_index(value, grade, slots)


def tally(echoes):
    """One recipient's tally rows, built as ``_expand_once`` builds them
    (every value here is hashable, so every tag is ``"v"``)."""
    counts = Counter((h, "v", z) for z, h in echoes)
    return (*counts, tuple(counts.values()))


def outcomes(honest, symbols, n, t, slots):
    """``decide`` over every multiset of ``t`` adversary symbols."""
    found = set()
    for sent in combinations_with_replacement(symbols, t):
        echoes = honest + [symbol for symbol in sent if symbol is not None]
        found.add(decide(tally(echoes), n, t, slots))
    return found


@pytest.mark.parametrize("n, t, slots", CASES)
def test_every_configuration_lands_on_two_adjacent_slots(n, t, slots):
    honest_count, grades, expanded = n - t, max_grade(slots), 2 * slots - 1
    symbols = [None] + [(z, h) for z in (0, 1, FOREIGN) for h in range(grades + 1)]
    for left in range(slots - 1):
        sides = echoes_on(left, slots) + echoes_on(left + 1, slots)
        for split in combinations_with_replacement(sides, honest_count):
            found = outcomes(list(split), symbols, n, t, slots)
            positions = {outcome_slot(output, expanded) for output in found}
            assert None not in positions and max(positions) - min(positions) <= 1, (
                f"n={n} t={t} s={slots}: honest echoes {split} reach {sorted(found)}"
            )


@pytest.mark.parametrize("n, t, slots", CASES)
@pytest.mark.parametrize("bit", [0, 1])
def test_pre_agreement_gives_the_extremal_slot(n, t, slots, bit):
    grades = max_grade(slots)
    symbols = [None] + [(z, h) for z in (0, 1, FOREIGN) for h in range(grades + 1)]
    found = outcomes([(bit, grades)] * (n - t), symbols, n, t, slots)
    assert found == {(bit, max_grade(2 * slots - 1))}


def test_the_bounds_parse_and_fall_back(monkeypatch):
    monkeypatch.setenv("REPRO_EXPANSION_SLOTS", "4:257,7:33")
    assert slot_bounds() == {4: 257, 7: 33}
    assert chain(257) == [2, 3, 5, 9, 17, 33, 65, 129, 257]
    for raw in ("", "deep", "4:257", "4:x,7:33"):
        monkeypatch.setenv("REPRO_EXPANSION_SLOTS", raw)
        assert slot_bounds() == DEFAULT_BOUNDS
