"""Engine telemetry: structured scheduling spans as JSONL.

Where trace sinks record what the *protocol* did, telemetry records what
the *engine* did: chunk dispatch/complete spans with wall time, worker
utilization, transport payload bytes, threshold-RSA setup timings and
vector batching.  This is the one place in
the repository allowed to read wall clocks during a run — it lives in
the ``obs`` layer precisely so DET101 keeps banning ``time`` from the
protocol layers.

The file has the framing traces have (:mod:`repro.obs.sinks`): a
schema header, one ``{"t": "<event>", "at": seconds, ...}`` object per
line stamped with seconds since the writer was opened, and an ``end``
footer with the record count.  :func:`summarize_telemetry` digests a
file back into totals and checks the spans are mutually consistent —
busy-time must fit inside pool capacity, no chunk span may exceed its
run's wall time — which is what ``repro error-sweep --telemetry`` asserts.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .sinks import _JsonlWriter, _field_problem, _read_jsonl

__all__ = [
    "TELEMETRY_SCHEMA",
    "TELEMETRY_EVENT_TYPES",
    "TelemetryWriter",
    "summarize_telemetry",
]

TELEMETRY_SCHEMA = "repro-telemetry/1"

#: Every span name the engine may ``emit()`` plus the header/footer
#: discriminators.  ``summarize_telemetry`` switches on these, and
#: :meth:`TelemetryWriter.emit` refuses any other name, so a misspelled
#: span fails where it is written instead of vanishing from digests.
TELEMETRY_EVENT_TYPES = frozenset(
    {
        "telemetry", "run_start", "run_complete", "chunk_dispatch",
        "chunk_complete", "predeal", "probe_cache", "vector_batch",
        "profile", "end",
    }
)

#: Tolerance for span-consistency checks: perf_counter deltas taken at
#: slightly different instants legitimately disagree by scheduling
#: jitter, so sums compare with 5% headroom plus a small absolute floor.
_SLACK = 1.05
_FLOOR = 0.05

#: Every field :func:`summarize_telemetry` reads, per record type, and
#: its kind (see :data:`repro.obs.sinks._KINDS`).  Each is optional but
#: those :data:`_REQUIRED` names; a record breaking this is an
#: ``ObsFormatError``.
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
#: The fields a record must carry: ``at`` on the four spans that time a
#: run or a chunk, and a chunk's own ``seconds``, which every engine
#: path writes.
_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "run_start": ("at",),
    "run_complete": ("at",),
    "chunk_dispatch": ("at",),
    "chunk_complete": ("at", "seconds"),
}


class TelemetryWriter(_JsonlWriter):
    """Append engine events to a JSONL file, stamped with elapsed time."""

    _format = "telemetry"
    _schema = TELEMETRY_SCHEMA

    def __init__(self, path: str, meta: Optional[Mapping[str, Any]] = None) -> None:
        self.records_written = 0
        self._origin = time.perf_counter()
        super().__init__(path, meta)

    def emit(self, event: str, **fields: Any) -> None:
        """Write one event record; ``at`` is seconds since writer open.

        ``ValueError`` for a closed writer or an ``event`` outside
        :data:`TELEMETRY_EVENT_TYPES`.
        """
        # A closed writer refuses every span as closed, known or not.
        if self._handle is not None and event not in TELEMETRY_EVENT_TYPES:
            raise ValueError(
                f"unknown telemetry span {event!r}; known: "
                f"{sorted(TELEMETRY_EVENT_TYPES)} (add it there and teach "
                "summarize_telemetry about it)"
            )
        self._write({"t": event, "at": self.elapsed(), **fields})
        self.records_written += 1

    def elapsed(self) -> float:
        return round(time.perf_counter() - self._origin, 6)

    def _footer(self) -> Dict[str, int]:
        return {"records": self.records_written}


def summarize_telemetry(path: str) -> Dict[str, Any]:
    """Digest one telemetry file into totals plus a consistency verdict.

    Returns chunk counts, summed busy seconds, payload bytes, per-run
    wall times and a ``consistent`` flag: the spans cross-check iff

    * summed chunk busy-time fits inside every pooled run's
      ``wall × workers`` capacity (you cannot be busier than the pool);
    * no single chunk span exceeds its run's wall time;
    * utilization is therefore a meaningful 0..1 fraction.
    """
    records: List[Dict[str, Any]] = []

    def take(record: Dict[str, Any]) -> Optional[str]:
        kind = record["t"]
        if kind == "end":
            if record.get("records") != len(records):
                return (
                    f"footer count {record.get('records')} "
                    f"disagrees with {len(records)} records read"
                )
            return None
        problem = _field_problem(
            record, _RECORD_FIELDS.get(kind, {}), _REQUIRED.get(kind, ())
        )
        if problem is None:
            records.append(record)
        return problem

    _read_jsonl(path, "telemetry", TELEMETRY_SCHEMA, take)

    runs: List[Dict[str, Any]] = []
    longest_chunk: List[float] = []  # per run, beside ``runs``
    current: Optional[Dict[str, Any]] = None
    totals = {
        "chunks": 0,
        "busy_seconds": 0.0,
        "payload_bytes": 0,
        "trials": 0,
        "setup_seconds": 0.0,
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
    for record in records:
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
            longest_chunk.append(0.0)
        elif kind == "run_complete" and current is not None:
            current["wall_seconds"] = round(record["at"] - current["started"], 6)
        elif kind == "chunk_dispatch":
            totals["trials"] += record.get("trials", 0)
        elif kind == "chunk_complete":
            seconds = record["seconds"]
            totals["chunks"] += 1
            totals["busy_seconds"] += seconds
            totals["payload_bytes"] += record.get("payload_bytes", 0)
            if current is not None:
                current["chunks"] += 1
                current["busy_seconds"] += seconds
                longest_chunk[-1] = max(longest_chunk[-1], seconds)
        elif kind == "predeal":
            totals["setup_seconds"] += record.get("seconds", 0.0)
        elif kind == "probe_cache":
            totals["probe_cache_hits"] += record.get("hits", 0)
            totals["probe_cache_misses"] += record.get("misses", 0)
        elif kind == "vector_batch":
            totals["vector_batched"] += record.get("batched", 0)
            totals["vector_fallback"] += record.get("fallback", 0)
            totals["coins"] += record.get("coins", 0)
            for reason, count in record.get("fallback_reasons", {}).items():
                fallback_reasons[reason] = fallback_reasons.get(reason, 0) + count
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
    for run, longest in zip(runs, longest_chunk):
        wall = run["wall_seconds"]
        if wall is None:
            consistent = False  # run_start without run_complete
            continue
        if longest > wall * _SLACK + _FLOOR:
            consistent = False
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
        "records": len(records),
        "runs": runs,
        "pooled_runs": len(pooled),
        "consistent": consistent,
        "fallback_reasons": fallback_reasons,
        "unknown_types": unknown_types,
        "profiles": profiles,
        **totals,
    }
