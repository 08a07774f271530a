"""The JSONL framing of traces and telemetry, and the streaming trace sink.

``repro-trace/1`` and ``repro-telemetry/1`` files share one framing: a
header ``{"t": <format>, "schema": …, "meta"?: {…}}``, one canonical
``"t"``-tagged record per line, and an ``{"t": "end", …}`` footer whose
counts make truncation detectable.  One private writer produces it and
one strict private reader consumes it: every line must decode as UTF-8
and hold a JSON object with a string ``t``, the header must match,
nothing may follow the footer, record fields must have the kind
:data:`_KINDS` names, and every error is an :class:`ObsFormatError`
reading ``path:line: …``.

A :class:`JsonlTraceSink` writes ``msg`` / ``corr`` / ``fault`` records
in delivery order (fields in :data:`_TRACE_FIELDS`) and keeps only
counters in memory, so tracing a thousand-trial plan costs the RAM of
one trial.  Keys are single characters on the hot records deliberately:
a traced execution writes one line per delivered message.
"""

from __future__ import annotations

import json
import math
from typing import IO, Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..network.faults import FaultEvent
from ..network.trace import TraceEvent, TraceSink

__all__ = [
    "TRACE_SCHEMA",
    "JsonlTraceSink",
    "ObsFormatError",
    "trace_filename",
]

#: Schema tag written into (and demanded from) every trace file.  Bump
#: the suffix when a record shape changes; readers reject other versions
#: loudly instead of misparsing them.
TRACE_SCHEMA = "repro-trace/1"


class ObsFormatError(ValueError):
    """A trace/telemetry file is malformed, truncated, or wrong-schema."""


def trace_filename(index: int) -> str:
    """Canonical per-trial trace filename inside a run directory."""
    return f"trial-{index:05d}.trace.jsonl"


def _number(value: Any) -> bool:
    """A JSON number the digests can do float arithmetic on."""
    if value.__class__ not in (int, float):
        return False  # bools, strings, containers, null
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _count(value: Any) -> bool:
    return value.__class__ is int and value >= 0 and _number(value)


#: What a field of each kind must hold, in words and as a test.
_KINDS: Dict[str, Tuple[str, Callable[[Any], bool]]] = {
    "number": ("a finite number", _number),
    "count": ("a count", _count),
    "flag": ("0 or 1", lambda value: value.__class__ is int and value in (0, 1)),
    "text": ("a string", lambda value: value.__class__ is str),
    "chunk": ("a chunk id", lambda value: value.__class__ is str or _number(value)),
    "reasons": (
        "an object of counts",
        lambda value: value.__class__ is dict and all(map(_count, value.values())),
    ),
}


def _field_problem(
    record: Mapping[str, Any], fields: Mapping[str, str], required: Sequence[str]
) -> Optional[str]:
    """What is wrong with one record whose ``fields`` have the given
    kinds and whose ``required`` fields must be present (``None``: nothing)."""
    for name in required:
        if name not in record:
            return f"{record['t']!r} record has no {name!r} field"
    for name, field_kind in fields.items():
        expected, valid = _KINDS[field_kind]
        if name in record and not valid(record[name]):
            return f"{record['t']!r} record field {name!r} must be {expected}"
    return None


#: Every field of a trace record, per record type, and its kind.  All
#: are required but ``g``, ``x`` (a delay's length) and the footer's
#: ``faults``, written only when nonzero so that fault-free traces stay
#: byte-identical to those from before fault injection.
_TRACE_FIELDS: Dict[str, Dict[str, str]] = {
    "msg": {"r": "count", "s": "count", "d": "count", "h": "flag", "p": "text",
            "g": "count"},
    "corr": {"r": "count", "pid": "count"},
    "fault": {"r": "count", "k": "text", "s": "count", "d": "count", "x": "count"},
    "end": {"events": "count", "corruptions": "count", "faults": "count"},
}
_TRACE_REQUIRED = {
    kind: [name for name in fields if name not in ("g", "x", "faults")]
    for kind, fields in _TRACE_FIELDS.items()
}


def _dump(record: Mapping[str, Any]) -> str:
    # Compact separators + sorted keys: one canonical byte sequence per
    # record, so identical executions produce identical files.
    return json.dumps(
        record, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )


class _JsonlWriter:
    """Writes the header on open, :meth:`_write`'s records, and the
    ``end`` footer with :meth:`_footer`'s counts on :meth:`close`;
    ``close`` is idempotent and a write after it a ``ValueError``."""

    _format = ""  # the header's "t"
    _schema = ""

    def __init__(self, path: str, meta: Optional[Mapping[str, Any]] = None) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        header: Dict[str, Any] = {"t": self._format, "schema": self._schema}
        if meta:
            header["meta"] = dict(meta)
        self._write(header)

    def _write(self, record: Mapping[str, Any]) -> None:
        if self._handle is None:
            raise ValueError(f"{self._format} file {self.path!r} is closed")
        self._handle.write(_dump(record) + "\n")

    def _footer(self) -> Dict[str, int]:
        raise NotImplementedError

    def close(self) -> None:
        if self._handle is None:
            return
        self._write({"t": "end", **self._footer()})
        self._handle.close()
        self._handle = None

    def __enter__(self) -> Any:
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _read_jsonl(
    path: str,
    format_name: str,
    schema: str,
    handle: Callable[[Dict[str, Any]], Optional[str]],
) -> Dict[str, Any]:
    """Read one framed file strictly and return its header ``meta``.

    ``handle`` gets every later record, the footer included, and returns
    its problem or ``None``.
    """
    meta: Optional[Dict[str, Any]] = None
    ended = False
    with open(path, "rb") as stream:
        for lineno, raw in enumerate(stream, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as error:
                raise ObsFormatError(
                    f"{path}:{lineno}: not valid UTF-8 (byte "
                    f"{raw[error.start]:#04x} at column {error.start + 1})"
                ) from None
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ObsFormatError(
                    f"{path}:{lineno}: not valid JSON ({error.msg})"
                ) from None
            problem: Optional[str]
            if not isinstance(record, dict) or not isinstance(record.get("t"), str):
                problem = "expected an object with a string 't' field"
            elif ended:
                problem = "record after the end footer"
            elif meta is not None:
                problem = handle(record)
                ended = record["t"] == "end"
            elif record["t"] != format_name:
                problem = (
                    f"first record must be the {format_name!r} header, "
                    f"got {record['t']!r}"
                )
            elif record.get("schema") != schema:
                problem = f"schema {record.get('schema')!r} is not {schema!r}"
            elif not isinstance(record.get("meta", {}), dict):
                problem = "header 'meta' must be an object"
            else:
                meta = record.get("meta", {})
                continue
            if problem is not None:
                raise ObsFormatError(f"{path}:{lineno}: {problem}")
    if meta is None:
        raise ObsFormatError(f"{path}: empty file (no {format_name} header)")
    if not ended:
        raise ObsFormatError(
            f"{path}: no end footer — the {format_name} was truncated mid-run"
        )
    return meta


class JsonlTraceSink(_JsonlWriter, TraceSink):
    """Stream trace records to a JSONL file; hold nothing but counters.

    Usable as a context manager; :meth:`close` writes the footer and is
    idempotent.  ``meta`` lands in the header record — stamp whatever
    identifies the execution (spec index, protocol, seed).
    """

    _format = "trace"
    _schema = TRACE_SCHEMA

    def __init__(self, path: str, meta: Optional[Mapping[str, Any]] = None) -> None:
        self.events_written = 0
        self.corruptions_written = 0
        self.faults_written = 0
        super().__init__(path, meta)

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

    def _footer(self) -> Dict[str, int]:
        footer = {
            "events": self.events_written,
            "corruptions": self.corruptions_written,
        }
        if self.faults_written:
            footer["faults"] = self.faults_written
        return footer
