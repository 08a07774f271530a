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
is kept as :func:`count_signatures_reference`; the regression tests in
``tests/network/test_metrics.py`` prove the two always agree.

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
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = [
    "RoundStats",
    "RunMetrics",
    "count_signatures",
    "count_signatures_reference",
]


def count_signatures_reference(payload: Any) -> int:
    """Uncached reference walk — the specification ``count_signatures``
    must match.  Kept for regression tests and baseline benchmarking."""
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


# Per-type dispatch kinds.  Classification mirrors the reference walk's
# check order exactly (scalars before dataclasses: a dataclass subclassing
# int is a scalar there too).
_KIND_ZERO = 0  # scalars, None, and unrecognized types
_KIND_SIGNATURE = 1  # dataclasses defined in repro.crypto.*
_KIND_DATACLASS = 2  # other dataclasses: recurse into fields
_KIND_DICT = 3
_KIND_SEQUENCE = 4

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

    Equivalent to :func:`count_signatures_reference`, but dataclass
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
        return sum(map(count_signatures, payload.values())) + sum(
            map(count_signatures, payload.keys())
        )
    return sum(map(count_signatures, payload))


@dataclass
class RoundStats:
    """Per-round tallies, split by sender honesty at send time."""

    honest_messages: int = 0
    corrupt_messages: int = 0
    honest_signatures: int = 0
    corrupt_signatures: int = 0

    def add(self, other: "RoundStats") -> None:
        """Accumulate another round's tallies into this one."""
        self.honest_messages += other.honest_messages
        self.corrupt_messages += other.corrupt_messages
        self.honest_signatures += other.honest_signatures
        self.corrupt_signatures += other.corrupt_signatures


_Row = Tuple[int, int, int, int, int]


class RunMetrics:
    """Aggregated measurements for one simulated execution.

    ``per_round`` maps a round index to its :class:`RoundStats`, in
    execution order.  The tallies are held either as that dict or as the
    frozen row tuple :meth:`from_round_tallies` was given — **never
    both**: the first touch of ``per_round`` builds the dict from the
    rows and drops them.  Many results can therefore be stamped from
    one shared row tuple at the cost of a pointer each, and mutating one
    of them (``round_stats(r).honest_messages += 1``) can never show in
    another.  Equality, ``repr``, pickling and the tally round-trip do
    not tell the two states apart.
    """

    __slots__ = ("rounds", "_rows", "_per_round")
    __hash__ = None  # mutable, compared by value

    def __init__(
        self, rounds: int = 0, per_round: Optional[Dict[int, RoundStats]] = None
    ) -> None:
        self.rounds = rounds
        self._rows: Optional[Tuple[_Row, ...]] = None
        self._per_round = {} if per_round is None else per_round

    @property
    def per_round(self) -> Dict[int, RoundStats]:
        per_round = self._per_round
        if per_round is None:
            per_round = self._per_round = {
                row[0]: RoundStats(*row[1:]) for row in self._rows
            }
            self._rows = None
        return per_round

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rounds == other.rounds and self.per_round == other.per_round

    def __repr__(self) -> str:
        return f"RunMetrics(rounds={self.rounds!r}, per_round={self.per_round!r})"

    def __getstate__(self) -> Dict[str, Any]:
        return {"rounds": self.rounds, "per_round": self.per_round}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(**state)

    def round_stats(self, round_index: int) -> RoundStats:
        """The (created-on-demand) tally object for one round.

        The simulator fetches this once per round and increments its
        fields directly — the hot delivery loop must not pay a dict
        lookup per message.
        """
        per_round = self.per_round
        stats = per_round.get(round_index)
        if stats is None:
            stats = per_round[round_index] = RoundStats()
        return stats

    def record(self, round_index: int, honest: bool, signature_count: int) -> None:
        """Tally one delivered message."""
        stats = self.round_stats(round_index)
        if honest:
            stats.honest_messages += 1
            stats.honest_signatures += signature_count
        else:
            stats.corrupt_messages += 1
            stats.corrupt_signatures += signature_count

    def round_tallies(self) -> Tuple[_Row, ...]:
        """One ``(round_index, honest_messages, corrupt_messages,
        honest_signatures, corrupt_signatures)`` row per tallied round,
        in execution order — what :meth:`from_round_tallies` accepts.
        Reads the held rows as they stand; builds no ``per_round``."""
        rows = self._rows
        if rows is None:
            rows = tuple(
                (
                    round_index,
                    stats.honest_messages,
                    stats.corrupt_messages,
                    stats.honest_signatures,
                    stats.corrupt_signatures,
                )
                for round_index, stats in self._per_round.items()
            )
        return rows

    def merge(self, other: "RunMetrics") -> None:
        """Fold another execution's metrics into this aggregate.

        ``rounds`` accumulates (total simulated rounds across the merged
        runs); per-round tallies add up index-wise, so aggregated
        per-round shapes stay meaningful for same-protocol trials.
        """
        self.rounds += other.rounds
        self._add_rows(other.round_tallies())

    def _add_rows(self, rows: Tuple[_Row, ...], times: int = 1) -> None:
        per_round = self.per_round
        for round_index, hm, cm, hs, cs in rows:
            stats = per_round.get(round_index)
            if stats is None:
                stats = per_round[round_index] = RoundStats()
            stats.honest_messages += hm * times
            stats.corrupt_messages += cm * times
            stats.honest_signatures += hs * times
            stats.corrupt_signatures += cs * times

    @classmethod
    def merged(cls, metrics_list) -> "RunMetrics":
        """Aggregate many executions' metrics into one (see :meth:`merge`).

        Inputs holding one row tuple (by identity: the results of one
        vector path) are merged once, then counted, and the remaining
        multiples added at the end — rounds still enter ``per_round``
        where the plain fold meets them, so :meth:`as_tallies` is the same.
        """
        total = cls()
        repeats: Dict[int, list] = {}  # id(rows) → [rows, sightings after the first]
        for metrics in metrics_list:
            seen = repeats.get(id(metrics._rows))
            if seen is not None:
                total.rounds += metrics.rounds
                seen[1] += 1
                continue
            total.merge(metrics)
            if metrics._rows is not None:
                repeats[id(metrics._rows)] = [metrics._rows, 0]
        for rows, times in repeats.values():
            total._add_rows(rows, times)
        return total

    def as_tallies(self) -> Tuple[int, ...]:
        """The per-round tallies as one flat tuple of ints.

        Five ints per tallied round — ``(round_index, honest_messages,
        corrupt_messages, honest_signatures, corrupt_signatures)`` — in
        ``per_round`` insertion order (execution order).  Together with
        :attr:`rounds` this is the *complete* state of a ``RunMetrics``,
        which is what lets the engine's compact result transport
        (:mod:`repro.engine.transport`) ship tallies across process
        boundaries as packed ints instead of pickled dataclass trees.
        :meth:`from_tallies` inverts it exactly.
        """
        return tuple(chain.from_iterable(self.round_tallies()))

    @classmethod
    def from_round_tallies(cls, rounds, rows) -> "RunMetrics":
        """Build a ``RunMetrics`` from structured per-round rows.

        ``rows`` is an iterable of ``(round_index, honest_messages,
        corrupt_messages, honest_signatures, corrupt_signatures)`` tuples
        in execution order, so callers that replay an execution's tally
        sequence (the vector engine backend stamping per-trial metrics
        from memoized batch tallies) reproduce the object simulator's
        ``per_round`` layout exactly.  A tuple is kept as given — no
        ``RoundStats`` is built until ``per_round`` is first touched —
        so a caller stamping many results passes the same tuple to all.
        """
        metrics = cls.__new__(cls)
        metrics.rounds = rounds
        metrics._rows = rows if rows.__class__ is tuple else tuple(rows)
        metrics._per_round = None
        return metrics

    @classmethod
    def from_tallies(cls, rounds: int, tallies: Sequence[int]) -> "RunMetrics":
        """Rebuild a ``RunMetrics`` from :meth:`as_tallies` output.

        Lossless inverse of the pack: per-round entries are recreated in
        the packed order, so the rebuilt object compares (and iterates)
        exactly like the original.
        """
        if len(tallies) % 5:
            raise ValueError(
                f"tallies length must be a multiple of 5, got {len(tallies)}"
            )
        per_round: Dict[int, RoundStats] = {}
        for at in range(0, len(tallies), 5):
            per_round[tallies[at]] = RoundStats(
                honest_messages=tallies[at + 1],
                corrupt_messages=tallies[at + 2],
                honest_signatures=tallies[at + 3],
                corrupt_signatures=tallies[at + 4],
            )
        return cls(rounds=rounds, per_round=per_round)

    @property
    def honest_messages(self) -> int:
        """Messages sent by parties that were honest at send time."""
        return sum(s.honest_messages for s in self.per_round.values())

    @property
    def corrupt_messages(self) -> int:
        """Messages sent by corrupted parties."""
        return sum(s.corrupt_messages for s in self.per_round.values())

    @property
    def total_messages(self) -> int:
        """All delivered messages."""
        return self.honest_messages + self.corrupt_messages

    @property
    def honest_signatures(self) -> int:
        """Signature objects inside honest-sent payloads (the paper's comm metric)."""
        return sum(s.honest_signatures for s in self.per_round.values())

    @property
    def total_signatures(self) -> int:
        """Signature objects across all payloads, honest and corrupt."""
        return self.honest_signatures + sum(
            s.corrupt_signatures for s in self.per_round.values()
        )
