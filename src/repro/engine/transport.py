"""Compact result transport: what workers send back through the pool.

A worker that pickles whole :class:`~repro.network.simulator.ExecutionResult`
trees pays for every tally row, every dict entry and every class
reference in the payload — for signature-heavy plans the metrics
dominate the IPC bytes, not the decisions.  This module defines the wire
format that replaces that: a :class:`TrialSummary` packs everything the
parent cannot rederive into one varint-encoded ``bytes`` blob (plus a
pickled fallback for non-integer protocol outputs), and the parent
rebuilds the ``ExecutionResult``/``RunMetrics`` tree **losslessly** from
the summary and the trial's :class:`~repro.engine.plan.TrialSpec`.

What makes the format small:

* ``inputs`` are never shipped — the parent rebuilds them from
  ``spec.inputs`` (the simulator defines them as exactly that);
* per-round tally rows travel as LEB128 varints (~1–2 bytes per count)
  instead of pickled tuples of ints (tens of bytes per row);
* ``corrupted`` is a party-id bitmask in one varint;
* ``outputs``/``finish_rounds`` share one packed id sequence — the
  simulator always records them together — with insertion order
  preserved, so the rebuilt dicts iterate exactly like the originals.

Losslessness is the load-bearing property: ``unpack(pack(result), spec)``
compares equal to ``result`` field for field, for every registered
protocol × adversary combination (pinned by
``tests/engine/test_transport.py``), which is what lets pooled
``ParallelRunner`` runs equal inline ones number for number.
"""

from __future__ import annotations

import pickle
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..network.metrics import RunMetrics
from ..network.simulator import ExecutionResult
from .plan import TrialSpec

__all__ = [
    "ChunkSummary",
    "TransportError",
    "TrialSummary",
    "measure_payload_bytes",
]


class TransportError(ValueError):
    """A packed summary blob is truncated or malformed.

    Raised instead of a bare ``IndexError`` so a corrupted worker payload
    — a half-written pipe, a bad pickle round-trip, bit rot in a cached
    artifact — surfaces as one well-named failure at the transport
    boundary, not an arbitrary exception deep in varint decoding.
    """

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _write_varint(buf: bytearray, value: int) -> None:
    """Append one unsigned LEB128 varint."""
    if value < 0:
        raise ValueError(f"varint values must be non-negative, got {value}")
    while True:
        low = value & 0x7F
        value >>= 7
        if value:
            buf.append(low | 0x80)
        else:
            buf.append(low)
            return


def _read_varint(blob: bytes, at: int) -> Tuple[int, int]:
    """Decode one varint starting at ``at``; returns ``(value, next_at)``.

    Every read is bounds-checked: a truncated blob — including one cut
    mid-varint, where the last byte still has its continuation bit set —
    raises :class:`TransportError` instead of ``IndexError``.
    """
    value = 0
    shift = 0
    size = len(blob)
    while True:
        if at >= size:
            raise TransportError(
                f"truncated varint payload: needed a byte at offset {at}, "
                f"blob is {size} bytes"
            )
        byte = blob[at]
        at += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, at
        shift += 7


def _check_consumed(blob: bytes, at: int, what: str) -> None:
    """A decoded payload must end exactly where its blob does."""
    if at != len(blob):
        raise TransportError(
            f"{what} has {len(blob) - at} trailing bytes at offset {at}, "
            f"blob is {len(blob)} bytes"
        )


class TrialSummary(NamedTuple):
    """One trial's outcome, packed for the trip back through the pool.

    ``blob`` holds (in order): rounds; the finished-party count and its
    ``(pid, finish_round)`` pairs; the corrupted-set bitmask; the number
    of :attr:`RunMetrics.rows` and each row's five counts; and an outputs
    tag.  Tag ``1`` means every output value was a plain
    non-negative ``int`` and the values follow in the blob (aligned with
    the finished-party id sequence); tag ``0`` means at least one output
    was something richer — a dataclass, a list, a negative int, a bool —
    and the exact objects ride in ``outputs`` through ordinary pickling.
    """

    blob: bytes
    outputs: Optional[Tuple[Tuple[int, Any], ...]] = None

    @classmethod
    def pack(cls, result: ExecutionResult) -> "TrialSummary":
        """Flatten an ``ExecutionResult`` into the wire form."""
        buf = bytearray()
        _write_varint(buf, result.metrics.rounds)

        finish_items = tuple(result.finish_rounds.items())
        _write_varint(buf, len(finish_items))
        for pid, finish_round in finish_items:
            _write_varint(buf, pid)
            _write_varint(buf, finish_round)

        mask = 0
        for pid in result.corrupted:
            mask |= 1 << pid
        _write_varint(buf, mask)

        rows = result.metrics.rows
        _write_varint(buf, len(rows))
        for row in rows:
            for value in row:
                _write_varint(buf, value)

        # The simulator records outputs and finish_rounds together, so
        # their key sequences coincide; when they do and every value is a
        # plain non-negative int (the overwhelmingly common case — BA
        # decisions are bits), the values pack into the blob aligned with
        # the finish sequence.  Anything else falls back to pickling the
        # exact output objects, order preserved.
        output_items = tuple(result.outputs.items())
        packable = len(output_items) == len(finish_items) and all(
            out_pid == fin_pid and type(value) is int and value >= 0
            for (out_pid, value), (fin_pid, _fin) in zip(
                output_items, finish_items
            )
        )
        if packable:
            _write_varint(buf, 1)
            for _pid, value in output_items:
                _write_varint(buf, value)
            return cls(blob=bytes(buf))
        _write_varint(buf, 0)
        return cls(blob=bytes(buf), outputs=output_items)

    def unpack(self, spec: TrialSpec) -> ExecutionResult:
        """Rebuild the exact ``ExecutionResult`` this summary was packed
        from, using ``spec`` for everything the parent can rederive."""
        blob = self.blob
        rounds, at = _read_varint(blob, 0)

        finished, at = _read_varint(blob, at)
        finish_pairs: List[Tuple[int, int]] = []
        for _ in range(finished):
            pid, at = _read_varint(blob, at)
            finish_round, at = _read_varint(blob, at)
            finish_pairs.append((pid, finish_round))

        mask, at = _read_varint(blob, at)
        corrupted = set()
        pid = 0
        while mask:
            if mask & 1:
                corrupted.add(pid)
            mask >>= 1
            pid += 1

        row_count, at = _read_varint(blob, at)
        rows = []
        for _ in range(row_count):
            row = []
            for _ in range(5):
                value, at = _read_varint(blob, at)
                row.append(value)
            rows.append(tuple(row))

        packed_outputs, at = _read_varint(blob, at)
        if packed_outputs:
            outputs = {}
            for out_pid, _fin in finish_pairs:
                value, at = _read_varint(blob, at)
                outputs[out_pid] = value
        else:
            outputs = dict(self.outputs or ())
        _check_consumed(blob, at, "trial summary")

        return ExecutionResult(
            outputs=outputs,
            corrupted=corrupted,
            metrics=RunMetrics(rounds, tuple(rows)),
            inputs=dict(enumerate(spec.inputs)),
            finish_rounds=dict(finish_pairs),
        )


class ChunkSummary(NamedTuple):
    """One worker chunk's results, packed as a single blob.

    Per-trial :class:`TrialSummary` payloads are small enough (~60–140
    bytes) that pickling them individually wastes a measurable fraction
    of the chunk on framing — a class reference, a tuple, an index int
    and a ``bytes`` header per trial.  A chunk instead concatenates them:
    ``blob`` holds the trial count, then per trial its plan index, its
    summary-blob length and the summary blob itself — all varints — so
    the pickle framing is paid once per *chunk*.  ``fallbacks`` carries
    the rare non-integer output dicts, keyed by plan index.  ``metrics``
    carries optional per-trial packed
    :class:`~repro.obs.metrics.MetricsRegistry` blobs (canonical varint
    form), present only when the runner collects metrics — the field
    defaults keep old pickled summaries loadable.
    """

    blob: bytes
    fallbacks: Tuple[Tuple[int, Tuple[Tuple[int, Any], ...]], ...] = ()
    metrics: Tuple[Tuple[int, bytes], ...] = ()

    @classmethod
    def pack(
        cls,
        indexed_results: Sequence[Tuple[int, ExecutionResult]],
        metrics: Optional[Mapping[int, Any]] = None,
    ) -> "ChunkSummary":
        """Pack one chunk's ``(plan_index, result)`` pairs.

        ``metrics`` maps plan index → ``MetricsRegistry`` (anything with
        a canonical ``pack()``); registries ride along as packed blobs.
        """
        buf = bytearray()
        fallbacks: List[Tuple[int, Tuple[Tuple[int, Any], ...]]] = []
        _write_varint(buf, len(indexed_results))
        for index, result in indexed_results:
            summary = TrialSummary.pack(result)
            _write_varint(buf, index)
            _write_varint(buf, len(summary.blob))
            buf += summary.blob
            if summary.outputs is not None:
                fallbacks.append((index, summary.outputs))
        packed_metrics: Tuple[Tuple[int, bytes], ...] = ()
        if metrics is not None:
            packed_metrics = tuple(
                (index, metrics[index].pack())
                for index, _ in indexed_results
                if index in metrics
            )
        return cls(
            blob=bytes(buf), fallbacks=tuple(fallbacks), metrics=packed_metrics
        )

    def unpack(self, specs: Sequence[TrialSpec]) -> List[Tuple[int, ExecutionResult]]:
        """Rebuild the chunk's ``(plan_index, result)`` pairs.

        ``specs`` is the plan's trials, indexed by plan index.  A plan
        index ``specs`` does not hold, a cut blob and bytes left unread —
        after the last trial or inside one trial's summary — raise
        :class:`TransportError`.
        """
        fallback = dict(self.fallbacks)
        blob = self.blob
        count, at = _read_varint(blob, 0)
        pairs: List[Tuple[int, ExecutionResult]] = []
        for _ in range(count):
            index, at = _read_varint(blob, at)
            length, at = _read_varint(blob, at)
            if at + length > len(blob):
                raise TransportError(
                    f"truncated chunk payload: trial {index} declares a "
                    f"{length}-byte summary at offset {at}, blob is "
                    f"{len(blob)} bytes"
                )
            summary = TrialSummary(
                blob=blob[at : at + length], outputs=fallback.get(index)
            )
            at += length
            try:
                spec = specs[index]
            except IndexError:
                raise TransportError(
                    f"chunk payload names plan index {index}, which the "
                    f"plan does not hold"
                ) from None
            pairs.append((index, summary.unpack(spec)))
        _check_consumed(blob, at, "chunk payload")
        return pairs

    def unpack_metrics(self) -> Dict[int, Any]:
        """Rebuild the chunk's plan index → ``MetricsRegistry`` mapping.

        Each distinct blob is decoded once, to a read-only registry that
        every plan index carrying the blob gets, so the parent merges a
        pooled run by outcome class too.  A corrupt blob raises
        :class:`TransportError` naming the first plan index that carries
        it.
        """
        from ..obs.metrics import MetricsRegistry
        from ..obs.sinks import ObsFormatError

        decoded = {}
        for index, blob in self.metrics:
            if blob not in decoded:
                try:
                    decoded[blob] = MetricsRegistry.unpack(blob)
                except ObsFormatError as error:
                    raise TransportError(
                        f"metrics blob of plan index {index}: {error}"
                    ) from error
        return {index: decoded[blob] for index, blob in self.metrics}


def measure_payload_bytes(
    indexed_results: Sequence[Tuple[int, ExecutionResult]],
    chunk_size: Optional[int] = None,
) -> Tuple[int, int]:
    """Pickled bytes of one result batch, as object trees and compact.

    Returns ``(full_bytes, compact_bytes)`` — the size of pickled
    ``(index, ExecutionResult)`` pairs (what workers shipped before
    this module) versus the compact payload they ship (one
    :class:`ChunkSummary` per chunk).  ``chunk_size`` mirrors the
    runner's chunked dispatch (default: the whole batch as one chunk);
    both encodings are summed over the same chunking.
    """
    indexed = list(indexed_results)
    size = chunk_size or max(1, len(indexed))
    chunks = [indexed[start : start + size] for start in range(0, len(indexed), size)]
    full = sum(
        len(pickle.dumps(chunk, protocol=_PICKLE_PROTOCOL)) for chunk in chunks
    )
    compact = sum(
        len(pickle.dumps(ChunkSummary.pack(chunk), protocol=_PICKLE_PROTOCOL))
        for chunk in chunks
    )
    return full, compact
