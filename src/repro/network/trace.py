"""Execution tracing: record and render full message transcripts.

A :class:`Tracer` among the ``observers`` of a
:class:`~repro.network.simulator.SyncSimulator` records every delivered
message (round, sender, recipient, payload, sender honesty at send time)
plus corruption events.  Transcripts render as a
round-by-round ASCII timeline — handy for debugging a protocol, teaching
the FM iteration structure, or eyeballing what an adversary actually did.

Payloads are summarized, not deep-copied: tracing a 2^64-slot Proxcensus
must not blow up memory, so each payload is reduced to a short structural
description at record time (dict keys, tuple arity, signature markers).

Where the records *go* is a pluggable :class:`TraceSink`.  The default
:class:`MemoryTraceSink` keeps the full transcript in memory and renders
it (the historical behavior, unchanged byte for byte); the streaming
:class:`~repro.obs.JsonlTraceSink` writes each record to disk as it
arrives and holds nothing, which is what lets traced thousand-trial
plans run in bounded memory.  This module stays below the ``obs`` layer
in the import DAG — sinks that need wall-clock time or filesystem layout
live up there and only *subclass* :class:`TraceSink`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from .faults import FaultEvent
from .messages import PARALLEL_KEY
from .metrics import count_signatures

__all__ = [
    "FaultEvent",
    "MemoryTraceSink",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "summarize_payload",
]

#: Widest payload summary a rendered timeline line shows.
_PAYLOAD_WIDTH = 60


def summarize_payload(payload: Any, depth: int = 0) -> str:
    """A short, bounded structural description of a message payload.

    Deterministic by construction: unordered containers (sets, dict key
    order) are sorted before rendering, so the same payload always
    summarizes to the same string — trace files and rendered timelines
    are diffable across runs.
    """
    if depth > 3:
        return "…"
    if payload is None:
        return "∅"
    if isinstance(payload, bool):
        return str(payload)
    if isinstance(payload, int):
        return str(payload) if abs(payload) < 10 ** 6 else f"int({payload.bit_length()}b)"
    if isinstance(payload, str):
        return repr(payload if len(payload) <= 12 else payload[:9] + "...")
    if isinstance(payload, bytes):
        return f"bytes[{len(payload)}]"
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        if type(payload).__module__.startswith("repro.crypto"):
            return f"<{type(payload).__name__.lstrip('_')}>"
        return type(payload).__name__
    if isinstance(payload, dict):
        if PARALLEL_KEY in payload and isinstance(payload[PARALLEL_KEY], dict):
            inner = payload[PARALLEL_KEY]
            parts = ", ".join(
                f"{tag}: {summarize_payload(sub, depth + 1)}"
                for tag, sub in sorted(inner.items())
            )
            return f"∥{{{parts}}}"
        parts = ", ".join(
            f"{key}={summarize_payload(value, depth + 1)}"
            for key, value in list(sorted(payload.items(), key=lambda kv: str(kv[0])))[:4]
        )
        suffix = ", …" if len(payload) > 4 else ""
        return f"{{{parts}{suffix}}}"
    if isinstance(payload, (set, frozenset)):
        # Sets iterate in hash order; sort the *summaries* so the
        # description is one deterministic string per value.
        items = sorted(summarize_payload(item, depth + 1) for item in payload)
        shown = ", ".join(items[:3])
        suffix = ", …" if len(items) > 3 else ""
        return f"{{{shown}{suffix}}}"
    if isinstance(payload, (list, tuple)):
        items = ", ".join(summarize_payload(item, depth + 1) for item in payload[:3])
        suffix = ", …" if len(payload) > 3 else ""
        return f"({items}{suffix})"
    return type(payload).__name__


@dataclass(frozen=True)
class TraceEvent:
    """One delivered message.

    ``signatures`` is the :func:`~repro.network.metrics.count_signatures`
    tally of the original payload, stamped at record time — the summary
    string alone cannot recover it, and replay tooling
    (``repro trace --stats``) cross-checks per-round signature totals
    against :class:`~repro.network.metrics.RunMetrics`.
    """

    round_index: int
    sender: int
    recipient: int
    summary: str
    sender_honest: bool
    signatures: int = 0


class TraceSink:
    """Where trace records go.  Subclasses implement the three hooks.

    The simulator-facing :class:`Tracer` reduces payloads to
    :class:`TraceEvent` records and corruption pairs, then hands them
    here one at a time.  A sink may accumulate them (``MemoryTraceSink``)
    or stream them to disk (:class:`repro.obs.JsonlTraceSink`); to feed
    several sinks, give the simulator one ``Tracer`` per sink.
    """

    def record_event(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def record_corruption(self, round_index: int, pid: int) -> None:
        raise NotImplementedError

    def record_fault(self, event: FaultEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/finalize; default is a no-op for unbuffered sinks."""


class MemoryTraceSink(TraceSink):
    """The historical in-memory transcript: full event list plus render.

    Events are indexed by round *at record time* (``_by_round``), so
    :meth:`events_in_round` and :meth:`render` are linear in the events
    they touch — the old implementation re-filtered the full event list
    once per round, a quadratic scan on long executions.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.corruptions: List[Tuple[int, int]] = []  # (round, pid)
        self.faults: List[FaultEvent] = []
        self._by_round: Dict[int, List[TraceEvent]] = {}
        self._faults_by_round: Dict[int, List[FaultEvent]] = {}

    def record_event(self, event: TraceEvent) -> None:
        self.events.append(event)
        bucket = self._by_round.get(event.round_index)
        if bucket is None:
            bucket = self._by_round[event.round_index] = []
        bucket.append(event)

    def record_corruption(self, round_index: int, pid: int) -> None:
        self.corruptions.append((round_index, pid))

    def record_fault(self, event: FaultEvent) -> None:
        self.faults.append(event)
        bucket = self._faults_by_round.get(event.round_index)
        if bucket is None:
            bucket = self._faults_by_round[event.round_index] = []
        bucket.append(event)

    @property
    def rounds(self) -> int:
        """Highest round with a recorded event."""
        return max(
            max(self._by_round, default=0),
            max(self._faults_by_round, default=0),
        )

    def events_in_round(self, round_index: int) -> List[TraceEvent]:
        """All events delivered in one round (shared list — don't mutate)."""
        return self._by_round.get(round_index, [])

    def faults_in_round(self, round_index: int) -> List[FaultEvent]:
        """All faults injected in one round (shared list — don't mutate)."""
        return self._faults_by_round.get(round_index, [])

    def render(self) -> str:
        """Round-by-round ASCII timeline of the execution."""
        lines: List[str] = []
        corrupted_at: Dict[int, List[int]] = {}
        for round_index, pid in self.corruptions:
            corrupted_at.setdefault(round_index, []).append(pid)
        # Only the rounds that hold a record: a replayed round index comes
        # from a file, and a loop up to the largest would take as long.
        rounds = {*self._by_round, *self._faults_by_round, *corrupted_at}
        for round_index in sorted(rounds):
            events = self.events_in_round(round_index)
            faults = self.faults_in_round(round_index)
            lines.append(f"── round {round_index} " + "─" * 40)
            if round_index in corrupted_at:
                pids = ", ".join(f"P{p}" for p in corrupted_at[round_index])
                lines.append(f"   ⚡ corrupted: {pids}")
            # Injected faults, one line per (kind, sender, detail) group.
            fault_grouped: Dict[Tuple[str, int, int], List[int]] = {}
            for fault in faults:
                key = (fault.kind, fault.sender, fault.detail or 0)
                fault_grouped.setdefault(key, []).append(fault.recipient)
            for (kind, sender, detail), recipients in sorted(fault_grouped.items()):
                label = f"{kind} +{detail}" if kind == "delay" else kind
                lines.append(f"   ✂ P{sender} ⇢ {sorted(recipients)}: {label}")
            # Broadcasts collapse into one line per (sender, summary).
            grouped: Dict[Tuple[int, str, bool], List[int]] = {}
            for event in events:
                key = (event.sender, event.summary, event.sender_honest)
                grouped.setdefault(key, []).append(event.recipient)
            for (sender, summary, honest), recipients in sorted(grouped.items()):
                marker = " " if honest else "!"
                if len(recipients) == len({e.recipient for e in events if e.sender == sender}) and len(set(recipients)) > 2:
                    target = "→ all" if len(set(recipients)) >= self._population(events) else f"→ {sorted(set(recipients))}"
                else:
                    target = f"→ {sorted(set(recipients))}"
                clipped = summary if len(summary) <= _PAYLOAD_WIDTH else summary[: _PAYLOAD_WIDTH - 1] + "…"
                lines.append(f" {marker} P{sender} {target}: {clipped}")
        return "\n".join(lines)

    @staticmethod
    def _population(events: List[TraceEvent]) -> int:
        return len({e.recipient for e in events})


class Tracer:
    """Reduces simulator deliveries to trace records and feeds a sink.

    ``Tracer()`` keeps the historical behavior exactly: records go to a
    fresh :class:`MemoryTraceSink`, and ``events`` / ``corruptions`` /
    ``rounds`` / ``events_in_round`` / ``render`` proxy through to it.
    With a streaming sink those accessors raise ``AttributeError`` —
    deliberately: a sink that cannot answer them is one that did not
    accumulate the transcript, which is the whole point.
    """

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink: TraceSink = MemoryTraceSink() if sink is None else sink
        self._known_corrupted: Set[int] = set()

    def on_message(
        self, round_index: int, sender: int, recipient: int, payload: Any,
        sender_honest: bool,
    ) -> None:
        """Record one delivered message (payload summarized, not copied)."""
        self.sink.record_event(
            TraceEvent(
                round_index=round_index,
                sender=sender,
                recipient=recipient,
                summary=summarize_payload(payload),
                sender_honest=sender_honest,
                signatures=count_signatures(payload),
            )
        )

    def on_corruptions(self, round_index: int, corrupted: Set[int]) -> None:
        for pid in sorted(corrupted - self._known_corrupted):
            self.sink.record_corruption(round_index, pid)
            self._known_corrupted.add(pid)

    def on_fault(
        self, round_index: int, kind: str, sender: int, recipient: int,
        detail: Optional[int] = None,
    ) -> None:
        """Record one injected network fault (loss/delay/partition/...)."""
        self.sink.record_fault(
            FaultEvent(
                round_index=round_index,
                kind=kind,
                sender=sender,
                recipient=recipient,
                detail=detail,
            )
        )

    def close(self) -> None:
        self.sink.close()

    # ── in-memory transcript accessors (MemoryTraceSink only) ─────────

    @property
    def events(self) -> List[TraceEvent]:
        return self.sink.events

    @property
    def corruptions(self) -> List[Tuple[int, int]]:
        return self.sink.corruptions

    @property
    def faults(self) -> List[FaultEvent]:
        return self.sink.faults

    @property
    def rounds(self) -> int:
        return self.sink.rounds

    def events_in_round(self, round_index: int) -> List[TraceEvent]:
        return self.sink.events_in_round(round_index)

    def faults_in_round(self, round_index: int) -> List[FaultEvent]:
        return self.sink.faults_in_round(round_index)

    def render(self) -> str:
        return self.sink.render()
