"""Streaming trace sinks: schema-versioned JSONL, bounded memory.

A :class:`JsonlTraceSink` writes one JSON object per line as records
arrive and keeps only counters in memory — tracing a thousand-trial plan
costs the same RAM as tracing one trial.  The file is self-describing
and self-checking:

* line 1 is a header ``{"t": "trace", "schema": "repro-trace/1", ...}``
  carrying optional metadata (protocol, seed, session — whatever the
  producer stamps);
* every message record is ``{"t": "msg", "r": round, "s": sender,
  "d": recipient, "h": 0|1, "g": signatures, "p": summary}`` and every
  corruption record ``{"t": "corr", "r": round, "pid": pid}``, in
  delivery order;
* fault-injected runs additionally write ``{"t": "fault", "r": round,
  "k": kind, "s": sender, "d": recipient}`` records (plus ``"x"`` for a
  delay length) — see :mod:`repro.network.faults`;
* the footer ``{"t": "end", "events": N, "corruptions": M}`` closes the
  stream — a file without it was truncated mid-run, and
  :func:`repro.obs.replay.load_trace` rejects it.  A run that injected
  faults also stamps ``"faults": K`` into the footer; fault-free traces
  omit the key, so they stay byte-identical to pre-fault-layer files.

Keys are single characters on the hot records deliberately: a traced
execution writes one line per delivered message.
"""

from __future__ import annotations

import json
from typing import IO, Any, Mapping, Optional, Sequence

from ..network.faults import FaultEvent
from ..network.trace import TraceEvent, TraceSink

__all__ = [
    "TRACE_SCHEMA",
    "TRACE_RECORD_TYPES",
    "FanoutSink",
    "JsonlTraceSink",
    "ObsFormatError",
    "trace_filename",
]

#: Schema tag written into (and demanded from) every trace file.  Bump
#: the suffix when a record shape changes; readers reject other versions
#: loudly instead of misparsing them.
TRACE_SCHEMA = "repro-trace/1"

#: Every legal ``"t"`` discriminator in a ``repro-trace/1`` stream.
#: ``load_trace`` rejects any other; the trace round-trip tests pin
#: every writer against it.
TRACE_RECORD_TYPES = frozenset({"trace", "msg", "corr", "fault", "end"})


class ObsFormatError(ValueError):
    """A trace/telemetry file is malformed, truncated, or wrong-schema."""


def trace_filename(index: int) -> str:
    """Canonical per-trial trace filename inside a run directory."""
    return f"trial-{index:05d}.trace.jsonl"


def _dump(record: Mapping[str, Any]) -> str:
    # Compact separators + sorted keys: one canonical byte sequence per
    # record, so identical executions produce identical trace files.
    return json.dumps(
        record, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )


class JsonlTraceSink(TraceSink):
    """Stream trace records to a JSONL file; hold nothing but counters.

    Usable as a context manager; :meth:`close` writes the footer and is
    idempotent.  ``meta`` lands in the header record — stamp whatever
    identifies the execution (spec index, protocol, seed).
    """

    def __init__(self, path: str, meta: Optional[Mapping[str, Any]] = None) -> None:
        self.path = path
        self.events_written = 0
        self.corruptions_written = 0
        self.faults_written = 0
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        header: dict = {"t": "trace", "schema": TRACE_SCHEMA}
        if meta:
            header["meta"] = dict(meta)
        self._write(header)

    def _write(self, record: Mapping[str, Any]) -> None:
        if self._handle is None:
            raise ValueError(f"trace sink {self.path!r} is closed")
        self._handle.write(_dump(record) + "\n")

    def record_event(self, event: TraceEvent) -> None:
        self._write(
            {
                "t": "msg",
                "r": event.round_index,
                "s": event.sender,
                "d": event.recipient,
                "h": 1 if event.sender_honest else 0,
                "g": event.signatures,
                "p": event.summary,
            }
        )
        self.events_written += 1

    def record_corruption(self, round_index: int, pid: int) -> None:
        self._write({"t": "corr", "r": round_index, "pid": pid})
        self.corruptions_written += 1

    def record_fault(self, event: FaultEvent) -> None:
        record = {
            "t": "fault",
            "r": event.round_index,
            "k": event.kind,
            "s": event.sender,
            "d": event.recipient,
        }
        if event.detail is not None:
            record["x"] = event.detail
        self._write(record)
        self.faults_written += 1

    def close(self) -> None:
        if self._handle is None:
            return
        footer = {
            "t": "end",
            "events": self.events_written,
            "corruptions": self.corruptions_written,
        }
        # Stamped only when nonzero: fault-free trace files must stay
        # byte-identical to those written before fault injection existed.
        if self.faults_written:
            footer["faults"] = self.faults_written
        self._write(footer)
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class FanoutSink(TraceSink):
    """Tee every record to several sinks (e.g. memory for rendering now
    plus JSONL for replay later)."""

    def __init__(self, sinks: Sequence[TraceSink]) -> None:
        self.sinks = list(sinks)

    def record_event(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.record_event(event)

    def record_corruption(self, round_index: int, pid: int) -> None:
        for sink in self.sinks:
            sink.record_corruption(round_index, pid)

    def record_fault(self, event: FaultEvent) -> None:
        for sink in self.sinks:
            sink.record_fault(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
