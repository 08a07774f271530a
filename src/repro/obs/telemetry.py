"""Engine telemetry: structured scheduling spans as JSONL.

Where trace sinks record what the *protocol* did, telemetry records what
the *engine* did: chunk dispatch/complete spans with wall time, worker
utilization, transport payload bytes, threshold-RSA setup timings and
the adaptive allocator's per-round decisions.  This is the one place in
the repository allowed to read wall clocks during a run — it lives in
the ``obs`` layer precisely so DET101 keeps banning ``time`` from the
protocol layers.

File shape mirrors the trace format (see ``docs/observability.md``):
a schema header, one ``{"t": "<event>", "at": seconds, ...}`` object per
line stamped with seconds since the writer was opened, and an ``end``
footer with the record count.  :func:`summarize_telemetry` digests a
file back into totals and checks the spans are mutually consistent —
busy-time must fit inside pool capacity, no chunk span may exceed its
run's wall time — which is what ``repro error-sweep --telemetry`` asserts.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from typing import IO, Any, Callable, Dict, List, Mapping, Optional, Tuple

from .sinks import ObsFormatError, _dump

__all__ = [
    "TELEMETRY_SCHEMA",
    "TELEMETRY_EVENT_TYPES",
    "TelemetryWriter",
    "summarize_telemetry",
]

TELEMETRY_SCHEMA = "repro-telemetry/1"

#: Every span name the engine may ``emit()`` plus the header/footer
#: discriminators.  ``summarize_telemetry`` switches on these; ``repro
#: check`` (OBS602) pins every ``.emit("<name>", ...)`` literal to this
#: set so unknown spans cannot silently vanish from digests.
TELEMETRY_EVENT_TYPES = frozenset(
    {
        "telemetry", "run_start", "run_complete", "chunk_dispatch",
        "chunk_complete", "predeal", "adaptive_round", "adaptive_complete",
        "probe_cache", "vector_batch", "profile", "end",
    }
)

#: Tolerance for span-consistency checks: perf_counter deltas taken at
#: slightly different instants legitimately disagree by scheduling
#: jitter, so sums compare with 5% headroom plus a small absolute floor.
_SLACK = 1.05
_FLOOR = 0.05


def _number(value: Any) -> bool:
    """A JSON number the digest can do float arithmetic on."""
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
    "text": ("a string", lambda value: value.__class__ is str),
    "chunk": ("a chunk id", lambda value: value.__class__ is str or _number(value)),
    "reasons": (
        "an object of counts",
        lambda value: value.__class__ is dict and all(map(_count, value.values())),
    ),
}

#: Every field :func:`summarize_telemetry` reads, per record type, and
#: its kind.  Each is optional but ``at`` on the four spans that time a
#: run or a chunk; a record breaking this is an ``ObsFormatError``.
_RECORD_FIELDS: Dict[str, Dict[str, str]] = {
    "run_start": {"at": "number", "label": "text", "mode": "text", "workers": "count"},
    "run_complete": {"at": "number"},
    "chunk_dispatch": {"at": "number", "chunk": "chunk", "trials": "count"},
    "chunk_complete": {
        "at": "number", "chunk": "chunk", "seconds": "number", "payload_bytes": "count",
    },
    "predeal": {"seconds": "number"},
    "probe_cache": {"hits": "count", "misses": "count"},
    "vector_batch": {
        "batched": "count", "fallback": "count", "coins": "count",
        "fallback_reasons": "reasons",
    },
    "profile": {"seconds": "number", "path": "text"},
}
_TIMED = frozenset({"run_start", "run_complete", "chunk_dispatch", "chunk_complete"})


def _record_problem(record: Dict[str, Any]) -> Optional[str]:
    """What is wrong with the fields of one record (``None``: nothing)."""
    kind = record["t"]
    if kind in _TIMED and "at" not in record:
        return f"{kind!r} record has no 'at' field"
    for name, field_kind in _RECORD_FIELDS.get(kind, {}).items():
        expected, valid = _KINDS[field_kind]
        if name in record and not valid(record[name]):
            return f"{kind!r} record field {name!r} must be {expected}"
    return None


class TelemetryWriter:
    """Append engine events to a JSONL file, stamped with elapsed time."""

    def __init__(self, path: str, meta: Optional[Mapping[str, Any]] = None) -> None:
        self.path = path
        self.records_written = 0
        self._origin = time.perf_counter()
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        header: dict = {"t": "telemetry", "schema": TELEMETRY_SCHEMA}
        if meta:
            header["meta"] = dict(meta)
        self._handle.write(_dump(header) + "\n")

    def emit(self, event: str, **fields: Any) -> None:
        """Write one event record; ``at`` is seconds since writer open."""
        if self._handle is None:
            raise ValueError(f"telemetry writer {self.path!r} is closed")
        record = {"t": event, "at": self.elapsed(), **fields}
        self._handle.write(_dump(record) + "\n")
        self.records_written += 1

    def elapsed(self) -> float:
        return round(time.perf_counter() - self._origin, 6)

    def close(self) -> None:
        if self._handle is None:
            return
        self._handle.write(
            _dump({"t": "end", "records": self.records_written}) + "\n"
        )
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _load_records(path: str) -> List[Dict[str, Any]]:
    """Read one telemetry file, strictly (header, schema, footer)."""
    records: List[Dict[str, Any]] = []
    saw_header = False
    saw_footer = False
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ObsFormatError(
                    f"{path}:{lineno}: not valid JSON ({error.msg})"
                ) from None
            if not isinstance(record, dict) or not isinstance(record.get("t"), str):
                raise ObsFormatError(
                    f"{path}:{lineno}: expected an object with a string 't' field"
                )
            if not saw_header:
                if record["t"] != "telemetry":
                    raise ObsFormatError(
                        f"{path}:{lineno}: first record must be the "
                        f"'telemetry' header, got {record['t']!r}"
                    )
                if record.get("schema") != TELEMETRY_SCHEMA:
                    raise ObsFormatError(
                        f"{path}:{lineno}: schema {record.get('schema')!r} "
                        f"is not {TELEMETRY_SCHEMA!r}"
                    )
                records.append(record)
                saw_header = True
                continue
            if saw_footer:
                raise ObsFormatError(
                    f"{path}:{lineno}: record after the end footer"
                )
            if record["t"] == "end":
                if record.get("records") != len(records) - 1:
                    raise ObsFormatError(
                        f"{path}:{lineno}: footer count {record.get('records')} "
                        f"disagrees with {len(records) - 1} records read"
                    )
                saw_footer = True
                continue
            problem = _record_problem(record)
            if problem is not None:
                raise ObsFormatError(f"{path}:{lineno}: {problem}")
            records.append(record)
    if not saw_header:
        raise ObsFormatError(f"{path}: empty file (no telemetry header)")
    if not saw_footer:
        raise ObsFormatError(f"{path}: no end footer — telemetry truncated")
    return records


def summarize_telemetry(path: str) -> Dict[str, Any]:
    """Digest one telemetry file into totals plus a consistency verdict.

    Returns chunk counts, summed busy seconds, payload bytes, per-run
    wall times and a ``consistent`` flag: the spans cross-check iff

    * summed chunk busy-time fits inside every pooled run's
      ``wall × workers`` capacity (you cannot be busier than the pool);
    * no single chunk span exceeds its run's wall time;
    * utilization is therefore a meaningful 0..1 fraction.
    """
    records = _load_records(path)
    runs: List[Dict[str, Any]] = []
    chunk_opened: Dict[Any, float] = {}
    current: Optional[Dict[str, Any]] = None
    totals = {
        "chunks": 0,
        "busy_seconds": 0.0,
        "payload_bytes": 0,
        "trials": 0,
        "setup_seconds": 0.0,
        "adaptive_rounds": 0,
        "probe_cache_hits": 0,
        "probe_cache_misses": 0,
        "vector_batched": 0,
        "vector_fallback": 0,
        "coins": 0,
        "profile_seconds": 0.0,
    }
    fallback_reasons: Dict[str, int] = {}
    unknown_types: Dict[str, int] = {}
    profiles: List[str] = []
    for record in records[1:]:
        kind = record["t"]
        if kind not in TELEMETRY_EVENT_TYPES:
            # A file written by a newer engine may carry span types this
            # reader has never heard of.  Losing the rest of the digest
            # over one of them would make telemetry files forward-
            # incompatible, so unknown spans are counted and skipped —
            # loudly, because a silent skip is how numbers go missing.
            unknown_types[kind] = unknown_types.get(kind, 0) + 1
            continue
        if kind == "run_start":
            current = {
                "label": record.get("label", ""),
                "mode": record.get("mode", ""),
                "workers": record.get("workers", 1),
                "started": record["at"],
                "wall_seconds": None,
                "chunks": 0,
                "busy_seconds": 0.0,
            }
            runs.append(current)
        elif kind == "run_complete" and current is not None:
            current["wall_seconds"] = round(record["at"] - current["started"], 6)
        elif kind == "chunk_dispatch":
            chunk_opened[record.get("chunk")] = record["at"]
            totals["trials"] += record.get("trials", 0)
        elif kind == "chunk_complete":
            seconds = record.get("seconds")
            if seconds is None:
                opened = chunk_opened.get(record.get("chunk"), record["at"])
                seconds = record["at"] - opened
            totals["chunks"] += 1
            totals["busy_seconds"] += seconds
            totals["payload_bytes"] += record.get("payload_bytes", 0)
            if current is not None:
                current["chunks"] += 1
                current["busy_seconds"] += seconds
        elif kind == "predeal":
            totals["setup_seconds"] += record.get("seconds", 0.0)
        elif kind == "adaptive_round":
            totals["adaptive_rounds"] += 1
        elif kind == "probe_cache":
            totals["probe_cache_hits"] += record.get("hits", 0)
            totals["probe_cache_misses"] += record.get("misses", 0)
        elif kind == "vector_batch":
            totals["vector_batched"] += record.get("batched", 0)
            totals["vector_fallback"] += record.get("fallback", 0)
            totals["coins"] += record.get("coins", 0)
            for reason, count in (record.get("fallback_reasons") or {}).items():
                fallback_reasons[reason] = fallback_reasons.get(reason, 0) + int(
                    count
                )
        elif kind == "profile":
            totals["profile_seconds"] += record.get("seconds", 0.0)
            path_field = record.get("path")
            if path_field:
                profiles.append(path_field)

    if unknown_types:
        listed = ", ".join(sorted(unknown_types))
        warnings.warn(
            f"{path}: skipped {sum(unknown_types.values())} record(s) of "
            f"unknown telemetry type(s): {listed}",
            stacklevel=2,
        )

    consistent = True
    for run in runs:
        wall = run["wall_seconds"]
        if wall is None:
            consistent = False  # run_start without run_complete
            continue
        if run["mode"] == "pool" and run["chunks"]:
            capacity = wall * run["workers"]
            if run["busy_seconds"] > capacity * _SLACK + _FLOOR:
                consistent = False
            run["utilization"] = (
                round(run["busy_seconds"] / capacity, 4) if capacity else None
            )
    pooled = [run for run in runs if run["mode"] == "pool" and run["chunks"]]
    return {
        "schema": TELEMETRY_SCHEMA,
        "records": len(records) - 1,
        "runs": runs,
        "pooled_runs": len(pooled),
        "consistent": consistent,
        "fallback_reasons": fallback_reasons,
        "unknown_types": unknown_types,
        "profiles": profiles,
        **totals,
    }
