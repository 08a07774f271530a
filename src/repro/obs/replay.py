"""Replay streamed trace files into the in-memory transcript model.

:func:`load_trace` is the strict inverse of
:class:`~repro.obs.sinks.JsonlTraceSink`: it parses a JSONL trace back
into a :class:`~repro.network.trace.Tracer` over a
:class:`~repro.network.trace.MemoryTraceSink`, so everything the
in-memory path can do — ``render()``, ``events_in_round`` — works on a
replayed file, byte-identically (pinned by ``tests/obs/test_replay.py``
across every registered protocol × adversary pair).

Strictness is the feature: wrong schema version, malformed JSON, unknown
record types, a missing footer (truncated file) or a footer whose counts
disagree with the records all raise :class:`ObsFormatError` — a trace
that cannot be trusted end to end should not render at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..network.faults import FaultEvent
from ..network.metrics import RunMetrics
from ..network.trace import MemoryTraceSink, TraceEvent, Tracer
from .sinks import TRACE_SCHEMA, ObsFormatError

__all__ = [
    "LoadedTrace",
    "TraceDivergence",
    "diff_traces",
    "filter_trace",
    "load_trace",
    "trace_metrics",
]


@dataclass
class LoadedTrace:
    """One replayed trace file: the tracer plus its header metadata."""

    tracer: Tracer
    meta: Dict[str, Any] = field(default_factory=dict)
    events: int = 0
    corruptions: int = 0
    faults: int = 0


def _parse_line(path: str, lineno: int, line: str) -> Dict[str, Any]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ObsFormatError(
            f"{path}:{lineno}: not valid JSON ({error.msg})"
        ) from None
    if not isinstance(record, dict) or "t" not in record:
        raise ObsFormatError(
            f"{path}:{lineno}: expected an object with a 't' field"
        )
    return record


def load_trace(path: str) -> LoadedTrace:
    """Parse one JSONL trace file, strictly, into a replayable tracer.

    Anything that is not a well-formed trace — a byte that is not UTF-8
    included — raises :class:`ObsFormatError` naming the file and line.
    """
    tracer = Tracer(MemoryTraceSink())
    meta: Dict[str, Any] = {}
    events = 0
    corruptions = 0
    faults = 0
    saw_header = False
    saw_footer = False
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as error:
                raise ObsFormatError(
                    f"{path}:{lineno}: not valid UTF-8 (byte "
                    f"{raw[error.start]:#04x} at column {error.start + 1})"
                ) from None
            if not line:
                continue
            record = _parse_line(path, lineno, line)
            kind = record["t"]
            if saw_footer:
                raise ObsFormatError(
                    f"{path}:{lineno}: record after the end footer"
                )
            if not saw_header:
                if kind != "trace":
                    raise ObsFormatError(
                        f"{path}:{lineno}: first record must be the "
                        f"'trace' header, got {kind!r}"
                    )
                schema = record.get("schema")
                if schema != TRACE_SCHEMA:
                    raise ObsFormatError(
                        f"{path}:{lineno}: schema {schema!r} is not "
                        f"{TRACE_SCHEMA!r} (wrong version or not a trace)"
                    )
                meta = dict(record.get("meta") or {})
                saw_header = True
                continue
            if kind == "msg":
                try:
                    tracer.sink.record_event(
                        TraceEvent(
                            round_index=record["r"],
                            sender=record["s"],
                            recipient=record["d"],
                            summary=record["p"],
                            sender_honest=bool(record["h"]),
                            signatures=record.get("g", 0),
                        )
                    )
                except KeyError as error:
                    raise ObsFormatError(
                        f"{path}:{lineno}: msg record missing {error}"
                    ) from None
                events += 1
            elif kind == "corr":
                try:
                    tracer.sink.record_corruption(record["r"], record["pid"])
                except KeyError as error:
                    raise ObsFormatError(
                        f"{path}:{lineno}: corr record missing {error}"
                    ) from None
                corruptions += 1
            elif kind == "fault":
                try:
                    tracer.sink.record_fault(
                        FaultEvent(
                            round_index=record["r"],
                            kind=record["k"],
                            sender=record["s"],
                            recipient=record["d"],
                            detail=record.get("x"),
                        )
                    )
                except KeyError as error:
                    raise ObsFormatError(
                        f"{path}:{lineno}: fault record missing {error}"
                    ) from None
                faults += 1
            elif kind == "end":
                # Fault-free producers omit the "faults" key entirely
                # (byte-compat with pre-fault-layer traces) — absent
                # means zero, and the count must still agree.
                if (
                    record.get("events") != events
                    or record.get("corruptions") != corruptions
                    or record.get("faults", 0) != faults
                ):
                    raise ObsFormatError(
                        f"{path}:{lineno}: footer counts "
                        f"({record.get('events')}, {record.get('corruptions')}, "
                        f"{record.get('faults', 0)}) "
                        f"disagree with the records read "
                        f"({events}, {corruptions}, {faults})"
                    )
                saw_footer = True
            else:
                raise ObsFormatError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    if not saw_header:
        raise ObsFormatError(f"{path}: empty file (no trace header)")
    if not saw_footer:
        raise ObsFormatError(
            f"{path}: no end footer — the trace was truncated mid-run"
        )
    return LoadedTrace(
        tracer=tracer, meta=meta, events=events, corruptions=corruptions,
        faults=faults,
    )


def filter_trace(
    tracer: Tracer,
    rounds: Optional[Sequence[int]] = None,
    party: Optional[int] = None,
    corrupt_only: bool = False,
) -> Tracer:
    """A new in-memory tracer holding the matching subset of records.

    ``rounds`` keeps only those round indices; ``party`` keeps events a
    party sent *or* received (and its corruption record);
    ``corrupt_only`` keeps dishonest-sender events only.  Corruption
    records follow the round/party filters so the rendered timeline
    stays coherent.
    """
    wanted_rounds = set(rounds) if rounds is not None else None
    filtered = Tracer(MemoryTraceSink())
    for event in tracer.events:
        if wanted_rounds is not None and event.round_index not in wanted_rounds:
            continue
        if party is not None and party not in (event.sender, event.recipient):
            continue
        if corrupt_only and event.sender_honest:
            continue
        filtered.sink.record_event(event)
    for round_index, pid in tracer.corruptions:
        if wanted_rounds is not None and round_index not in wanted_rounds:
            continue
        if party is not None and pid != party:
            continue
        filtered.sink.record_corruption(round_index, pid)
    for fault in tracer.faults:
        if wanted_rounds is not None and fault.round_index not in wanted_rounds:
            continue
        if party is not None and party not in (fault.sender, fault.recipient):
            continue
        filtered.sink.record_fault(fault)
    return filtered


@dataclass(frozen=True)
class TraceDivergence:
    """The first point at which two traces disagree.

    ``round_index`` is 0 for header-metadata divergence, otherwise the
    1-based simulator round.  ``left``/``right`` render the conflicting
    records (``None`` when one trace is missing a record the other has).
    """

    round_index: int
    kind: str  # "meta" | "event" | "corruption" | "fault" | "rounds"
    detail: str
    left: Optional[str] = None
    right: Optional[str] = None

    def render(self) -> str:
        where = (
            "header" if self.round_index == 0 else f"round {self.round_index}"
        )
        lines = [f"traces diverge at {where} ({self.kind}): {self.detail}"]
        lines.append(f"  - {self.left if self.left is not None else '(absent)'}")
        lines.append(
            f"  + {self.right if self.right is not None else '(absent)'}"
        )
        return "\n".join(lines)


def _event_line(event: TraceEvent) -> str:
    role = "honest" if event.sender_honest else "corrupt"
    return (
        f"{event.sender}->{event.recipient} [{role}, "
        f"{event.signatures} sig] {event.summary}"
    )


def _fault_line(fault: FaultEvent) -> str:
    detail = f" {fault.detail}" if fault.detail is not None else ""
    return f"{fault.kind} {fault.sender}->{fault.recipient}{detail}"


def diff_traces(left: LoadedTrace, right: LoadedTrace) -> Optional[TraceDivergence]:
    """First divergence between two replayed traces, or ``None``.

    Comparison is round by round in recorded (delivery) order — the
    order itself is part of the determinism contract, so a reordered
    but set-equal round still diverges.  Header metadata is compared
    first: two traces of different configurations diverge before any
    round does.
    """
    if left.meta != right.meta:
        keys = sorted(set(left.meta) | set(right.meta))
        key = next(
            k for k in keys if left.meta.get(k) != right.meta.get(k)
        )
        return TraceDivergence(
            round_index=0,
            kind="meta",
            detail=f"header field {key!r} differs",
            left=f"{key}={left.meta.get(key)!r}",
            right=f"{key}={right.meta.get(key)!r}",
        )
    a, b = left.tracer, right.tracer
    for round_index in range(1, max(a.rounds, b.rounds) + 1):
        events_a = [e for e in a.events if e.round_index == round_index]
        events_b = [e for e in b.events if e.round_index == round_index]
        for position in range(max(len(events_a), len(events_b))):
            ea = events_a[position] if position < len(events_a) else None
            eb = events_b[position] if position < len(events_b) else None
            if ea != eb:
                return TraceDivergence(
                    round_index=round_index,
                    kind="event",
                    detail=f"message #{position + 1} of the round differs",
                    left=_event_line(ea) if ea is not None else None,
                    right=_event_line(eb) if eb is not None else None,
                )
        corr_a = [pid for r, pid in a.corruptions if r == round_index]
        corr_b = [pid for r, pid in b.corruptions if r == round_index]
        if corr_a != corr_b:
            return TraceDivergence(
                round_index=round_index,
                kind="corruption",
                detail="corrupted-party sets differ",
                left=f"corrupt {corr_a}",
                right=f"corrupt {corr_b}",
            )
        faults_a = [f for f in a.faults if f.round_index == round_index]
        faults_b = [f for f in b.faults if f.round_index == round_index]
        for position in range(max(len(faults_a), len(faults_b))):
            fa = faults_a[position] if position < len(faults_a) else None
            fb = faults_b[position] if position < len(faults_b) else None
            if fa != fb:
                return TraceDivergence(
                    round_index=round_index,
                    kind="fault",
                    detail=f"fault #{position + 1} of the round differs",
                    left=_fault_line(fa) if fa is not None else None,
                    right=_fault_line(fb) if fb is not None else None,
                )
    if a.rounds != b.rounds:
        return TraceDivergence(
            round_index=min(a.rounds, b.rounds) + 1,
            kind="rounds",
            detail="one trace ends early",
            left=f"{a.rounds} rounds",
            right=f"{b.rounds} rounds",
        )
    return None


def trace_metrics(tracer: Tracer) -> RunMetrics:
    """Rebuild per-round message/signature tallies from trace events.

    For a fully traced execution this reproduces the simulator's
    :class:`RunMetrics` rows exactly, except that a round that delivered
    no message is invisible to a trace: it has no row, and ``rounds``
    here counts traced rounds.  This is the ``repro trace --stats``
    cross-check.
    """
    totals: Dict[int, List[int]] = {}
    for event in tracer.events:
        total = totals.setdefault(event.round_index, [0, 0, 0, 0])
        split = 0 if event.sender_honest else 1
        total[split] += 1
        total[2 + split] += event.signatures
    return RunMetrics(
        tracer.rounds, tuple((index, *totals[index]) for index in sorted(totals))
    )
