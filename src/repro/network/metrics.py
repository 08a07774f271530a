"""Execution metrics: rounds, messages, signatures.

The paper measures communication complexity "in the number of signatures
exchanged between the parties" (§2.2).  :func:`count_signatures` walks a
payload and counts embedded signature-ish objects — anything constructed by
:mod:`repro.crypto` (shares, combined signatures, plain signatures).  That
makes the measured numbers directly comparable to the paper's
``O(r n²)`` / ``O(κ n²)`` claims without instrumenting every protocol.

The walk is the hottest non-protocol code in every simulated execution
(it runs on every delivered message), so it is driven by a per-*type*
dispatch cache: the dataclass-reflection questions (is this a dataclass?
which module defines it? what are its fields?) are answered once per
distinct payload type, not once per payload.  The uncached reference walk
lives with the tests (``tests/oracles.py``), and
``tests/network/test_metrics.py`` proves the two always agree.  A
sequence or set, and a dict's keys, of exact ``int``/``str``/``bytes``/
``bool``/``float``/``None`` items count 0 after one C-level
``frozenset.issuperset(map(type, …))`` screen, with no call per item; a
scalar subclass takes the walk.  A dict's values are walked unscreened:
they usually hold the signatures, where a screen only adds a pass.

Scope of the count, explicitly: containers recognized as traversable are
dataclasses, ``dict`` and ``list``/``tuple``/``set``/``frozenset``
(including subclasses).  *Any other type counts as zero* — generators,
iterators, and custom non-dataclass classes are NOT traversed, because
consuming a generator would be destructive and walking arbitrary
``__dict__``s would double-count via back-references.  Protocol payloads
that want their signatures counted must therefore be built from the
recognized containers (all in-tree protocols are).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, NamedTuple, Tuple

__all__ = [
    "RunMetrics",
    "count_signatures",
]


# Per-type dispatch kinds.  Classification mirrors the check order of the
# reference walk (tests/oracles.py) exactly (scalars before dataclasses: a
# dataclass subclassing int is a scalar there too).
_KIND_ZERO = 0  # scalars, None, and unrecognized types
_KIND_SIGNATURE = 1  # dataclasses defined in repro.crypto.*
_KIND_DATACLASS = 2  # other dataclasses: recurse into fields
_KIND_DICT = 3
_KIND_SEQUENCE = 4

_SCALARS = frozenset((int, str, bytes, bool, float, type(None)))

_TYPE_KINDS: Dict[type, int] = {}
_DATACLASS_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _classify(tp: type) -> int:
    if issubclass(tp, (int, str, bytes, bool, float)) or tp is type(None):
        return _KIND_ZERO
    if dataclasses.is_dataclass(tp):
        if tp.__module__.startswith("repro.crypto"):
            return _KIND_SIGNATURE
        _DATACLASS_FIELDS[tp] = tuple(f.name for f in dataclasses.fields(tp))
        return _KIND_DATACLASS
    if issubclass(tp, dict):
        return _KIND_DICT
    if issubclass(tp, (list, tuple, set, frozenset)):
        return _KIND_SEQUENCE
    return _KIND_ZERO


def count_signatures(payload: Any) -> int:
    """Count signature objects (shares, combined, plain) inside a payload.

    Equivalent to the uncached reference walk, but dataclass
    reflection runs once per distinct payload *type* instead of once per
    payload.  Unrecognized container types count as 0 — see the module
    docstring for the exact traversal scope.
    """
    tp = payload.__class__
    kind = _TYPE_KINDS.get(tp)
    if kind is None:
        kind = _classify(tp)
        _TYPE_KINDS[tp] = kind
    if kind == _KIND_ZERO:
        return 0
    if kind == _KIND_SIGNATURE:
        return 1
    if kind == _KIND_DATACLASS:
        return sum(
            count_signatures(getattr(payload, name))
            for name in _DATACLASS_FIELDS[tp]
        )
    if kind == _KIND_DICT:
        total = sum(map(count_signatures, payload.values()))
        keys = payload.keys()
        if _SCALARS.issuperset(map(type, keys)):
            return total
        return total + sum(map(count_signatures, keys))
    if _SCALARS.issuperset(map(type, payload)):
        return 0
    return sum(map(count_signatures, payload))


#: One tallied round: ``(round, honest_messages, corrupt_messages,
#: honest_signatures, corrupt_signatures)``.
_Row = Tuple[int, int, int, int, int]


class RunMetrics(NamedTuple):
    """Aggregated measurements for one simulated execution.

    ``rounds`` is how many rounds ran; ``rows`` holds one :data:`_Row`
    per round in which a party sent or a delayed message arrived, in
    ascending round order — a round keeps its row even when faults
    suppressed every message.  The value is immutable, so one instance
    can be shared by every result that tallies alike.
    """

    rounds: int = 0
    rows: Tuple[_Row, ...] = ()

    @classmethod
    def merged(cls, metrics_list: Iterable["RunMetrics"]) -> "RunMetrics":
        """Aggregate many executions' metrics into one.

        ``rounds`` adds up (total simulated rounds across the runs) and
        rows add up round-wise, so merged per-round shapes stay
        meaningful for same-protocol trials.  Inputs sharing one row
        tuple (by identity: the results of one vector leaf) are added
        once and scaled by how often they were seen; a run of them is
        looked up once.
        """
        rounds = 0
        seen: Dict[int, list] = {}  # id(rows) → [rows, sightings]
        last = entry = None
        for count, rows in metrics_list:
            rounds += count
            if rows is not last:
                entry = seen.get(id(rows))
                if entry is None:
                    entry = seen[id(rows)] = [rows, 0]
                last = rows
            entry[1] += 1
        totals: Dict[int, List[int]] = {}
        for rows, times in seen.values():
            for index, hm, cm, hs, cs in rows:
                total = totals.get(index)
                if total is None:
                    totals[index] = [hm * times, cm * times, hs * times, cs * times]
                else:
                    total[0] += hm * times
                    total[1] += cm * times
                    total[2] += hs * times
                    total[3] += cs * times
        return cls(
            rounds, tuple((index, *totals[index]) for index in sorted(totals))
        )

    @property
    def honest_messages(self) -> int:
        """Messages sent by parties that were honest at send time."""
        return sum(row[1] for row in self.rows)

    @property
    def corrupt_messages(self) -> int:
        """Messages sent by corrupted parties."""
        return sum(row[2] for row in self.rows)

    @property
    def total_messages(self) -> int:
        """All delivered messages."""
        return self.honest_messages + self.corrupt_messages

    @property
    def honest_signatures(self) -> int:
        """Signature objects inside honest-sent payloads (the paper's comm metric)."""
        return sum(row[3] for row in self.rows)

    @property
    def total_signatures(self) -> int:
        """Signature objects across all payloads, honest and corrupt."""
        return sum(row[3] + row[4] for row in self.rows)
