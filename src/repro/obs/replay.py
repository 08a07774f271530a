"""Replay streamed trace files into the in-memory transcript model.

:func:`load_trace` is the strict inverse of
:class:`~repro.obs.sinks.JsonlTraceSink`: it parses a JSONL trace back
into a :class:`~repro.network.trace.Tracer` over a
:class:`~repro.network.trace.MemoryTraceSink`, so everything the
in-memory path can do — ``render()``, ``events_in_round`` — works on a
replayed file, byte-identically (pinned by ``tests/obs/test_replay.py``
across every registered protocol × adversary pair).

Strictness is the feature: wrong schema version, malformed JSON, unknown
record types, a field of the wrong type, a missing footer (truncated
file) or a footer whose counts disagree with the records all raise
:class:`~repro.obs.sinks.ObsFormatError` (the framing and the field kinds are
:mod:`repro.obs.sinks`'s) — a trace that cannot be trusted end to end
should not render at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..network.faults import FaultEvent
from ..network.metrics import RunMetrics
from ..network.trace import MemoryTraceSink, TraceEvent, Tracer
from .sinks import (
    _TRACE_FIELDS,
    _TRACE_REQUIRED,
    TRACE_SCHEMA,
    _field_problem,
    _read_jsonl,
)

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


def load_trace(path: str) -> LoadedTrace:
    """Parse one JSONL trace file, strictly, into a replayable tracer.

    Anything that is not a well-formed trace — a byte that is not UTF-8
    or a field of the wrong type included — raises
    :class:`~repro.obs.sinks.ObsFormatError` naming the file and line.
    """
    sink = MemoryTraceSink()

    def take(record: Dict[str, Any]) -> Optional[str]:
        kind = record["t"]
        fields = _TRACE_FIELDS.get(kind)
        if fields is None:
            return f"unknown record type {kind!r}"
        problem = _field_problem(record, fields, _TRACE_REQUIRED[kind])
        if problem is not None:
            return problem
        if kind == "msg":
            sink.record_event(
                TraceEvent(
                    round_index=record["r"],
                    sender=record["s"],
                    recipient=record["d"],
                    summary=record["p"],
                    sender_honest=bool(record["h"]),
                    signatures=record.get("g", 0),
                )
            )
        elif kind == "corr":
            sink.record_corruption(record["r"], record["pid"])
        elif kind == "fault":
            sink.record_fault(
                FaultEvent(
                    round_index=record["r"],
                    kind=record["k"],
                    sender=record["s"],
                    recipient=record["d"],
                    detail=record.get("x"),
                )
            )
        else:  # the end footer; fault-free producers omit "faults"
            read = (len(sink.events), len(sink.corruptions), len(sink.faults))
            counts = (record["events"], record["corruptions"], record.get("faults", 0))
            if counts != read:
                return (
                    f"footer counts {counts} disagree with the records read {read}"
                )
        return None

    meta = _read_jsonl(path, "trace", TRACE_SCHEMA, take)
    return LoadedTrace(
        tracer=Tracer(sink), meta=meta, events=len(sink.events),
        corruptions=len(sink.corruptions), faults=len(sink.faults),
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

    ``round_index`` is the round of the diverging records (0 for
    header-metadata divergence, ``kind`` ``"meta"``).  ``left``/``right``
    render the conflicting records (``None`` when one trace is missing a
    record the other has).
    """

    round_index: int
    kind: str  # "meta" | "event" | "corruption" | "fault"
    detail: str
    left: Optional[str] = None
    right: Optional[str] = None

    def render(self) -> str:
        where = "header" if self.kind == "meta" else f"round {self.round_index}"
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


def _first_mismatch(
    round_index: int, kind: str, noun: str, left: Sequence[Any],
    right: Sequence[Any], line: Callable[[Any], str],
) -> Optional[TraceDivergence]:
    """Where one round's ``kind`` records first differ, if they do."""
    for position in range(max(len(left), len(right))):
        a = left[position] if position < len(left) else None
        b = right[position] if position < len(right) else None
        if a != b:
            return TraceDivergence(
                round_index=round_index,
                kind=kind,
                detail=f"{noun} #{position + 1} of the round differs",
                left=None if a is None else line(a),
                right=None if b is None else line(b),
            )
    return None


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
    corr_a, corr_b = _corruptions_by_round(a), _corruptions_by_round(b)
    rounds = {event.round_index for event in (*a.events, *b.events)}
    rounds.update(fault.round_index for fault in (*a.faults, *b.faults))
    rounds.update(corr_a, corr_b)
    # Only the rounds that hold a record: a round index is read from the
    # file, and a loop up to the largest would take as long as it says.
    for round_index in sorted(rounds):
        divergence = _first_mismatch(
            round_index, "event", "message", a.events_in_round(round_index),
            b.events_in_round(round_index), _event_line,
        )
        if divergence is not None:
            return divergence
        pids_a = corr_a.get(round_index, [])
        pids_b = corr_b.get(round_index, [])
        if pids_a != pids_b:
            return TraceDivergence(
                round_index=round_index,
                kind="corruption",
                detail="corrupted-party sets differ",
                left=f"corrupt {pids_a}",
                right=f"corrupt {pids_b}",
            )
        divergence = _first_mismatch(
            round_index, "fault", "fault", a.faults_in_round(round_index),
            b.faults_in_round(round_index), _fault_line,
        )
        if divergence is not None:
            return divergence
    return None


def _corruptions_by_round(tracer: Tracer) -> Dict[int, List[int]]:
    by_round: Dict[int, List[int]] = {}
    for round_index, pid in tracer.corruptions:
        by_round.setdefault(round_index, []).append(pid)
    return by_round


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
