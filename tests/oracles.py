"""Reference forms the tests hold the program to.

Each is the plain, uncached or geometric form of a function in
``src/repro``: tests assert that the program's form agrees with it, and
nothing outside the tests calls it.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core.extraction import coin_range
from repro.proxcensus.base import slot_index


def count_signatures_reference(payload: Any) -> int:
    """Uncached walk: the specification ``repro.network.metrics.
    count_signatures`` and the simulator's delivery tallies must match."""
    if payload is None or isinstance(payload, (int, str, bytes, bool, float)):
        return 0
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        if type(payload).__module__.startswith("repro.crypto"):
            return 1
        return sum(
            count_signatures_reference(getattr(payload, f.name))
            for f in dataclasses.fields(payload)
        )
    if isinstance(payload, dict):
        return sum(count_signatures_reference(v) for v in payload.values()) + sum(
            count_signatures_reference(k) for k in payload.keys()
        )
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(count_signatures_reference(item) for item in payload)
    return 0


def extract_by_position(value: int, grade: int, coin: int, slots: int) -> int:
    """Extraction's geometric form: output 1 iff the slot position is right
    of the cut, which makes "one coin value splits each adjacent pair"
    obvious.  ``repro.core.extraction.extract`` must equal it."""
    position = slot_index(value, grade, slots)
    low, high = coin_range(slots)
    if not (low <= coin <= high):
        raise ValueError(f"coin {coin} outside [{low}, {high}]")
    return 1 if position >= coin else 0
