"""Observability layer: streaming trace sinks, engine telemetry, replay.

Everything here is *about* executions, never *inside* them: the protocol
layers (``core``/``proxcensus``/``crypto``/``network``) stay under the
DET determinism rules and must not import ``obs``, while this layer is
free to read wall clocks and touch the filesystem.  ``repro check``
enforces the boundary (see the LAY layer map) and
``docs/observability.md`` documents the schemas.

Trace and telemetry files share one JSONL framing — schema header,
``t``-tagged records, counted ``end`` footer — written and strictly read
back by one private writer and one private reader in
:mod:`repro.obs.sinks`.  Three pieces build on it and on the sink
abstraction (:class:`repro.network.trace.TraceSink`):

* :class:`JsonlTraceSink` streams trace records to disk in bounded
  memory (one ``Tracer`` per sink feeds several sinks at once).
* :func:`load_trace` / :func:`filter_trace` / :func:`trace_metrics`
  replay a streamed file back into the in-memory renderer
  (``repro trace``).
* :class:`TelemetryWriter` / :func:`summarize_telemetry` record and
  digest engine scheduling spans (``repro error-sweep --telemetry``).
"""

import importlib
from typing import Any

__all__ = [
    "DELIVERY_METRIC_NAMES",
    "HISTOGRAM_BUCKETS",
    "MESSAGE_KINDS",
    "METRICS_SCHEMA",
    "METRIC_NAMES",
    "TELEMETRY_EVENT_TYPES",
    "TELEMETRY_SCHEMA",
    "TRACE_SCHEMA",
    "Histogram",
    "JsonlTraceSink",
    "LoadedTrace",
    "MetricsRegistry",
    "ObsFormatError",
    "TelemetryWriter",
    "TraceDivergence",
    "build_metrics_payload",
    "build_report",
    "check_report",
    "diff_traces",
    "filter_trace",
    "load_metrics_artifact",
    "load_profile_summary",
    "load_report_inputs",
    "load_trace",
    "metrics_from_trace",
    "render_html",
    "summarize_telemetry",
    "summary_kind",
    "trace_filename",
    "trace_metrics",
    "validate_metrics_payload",
    "write_metrics_artifact",
]

# PEP 562: the first read of an export imports its submodule and keeps the name.
_EXPORTS = {
    ".metrics": (
        "DELIVERY_METRIC_NAMES", "HISTOGRAM_BUCKETS", "MESSAGE_KINDS",
        "METRIC_NAMES", "METRICS_SCHEMA", "Histogram", "MetricsRegistry",
        "build_metrics_payload", "load_metrics_artifact", "metrics_from_trace",
        "summary_kind", "validate_metrics_payload", "write_metrics_artifact",
    ),
    ".report": (
        "build_report", "check_report", "load_profile_summary",
        "load_report_inputs", "render_html",
    ),
    ".replay": (
        "LoadedTrace", "TraceDivergence", "diff_traces", "filter_trace",
        "load_trace", "trace_metrics",
    ),
    ".sinks": (
        "TRACE_SCHEMA", "JsonlTraceSink", "ObsFormatError", "trace_filename",
    ),
    ".telemetry": (
        "TELEMETRY_EVENT_TYPES", "TELEMETRY_SCHEMA", "TelemetryWriter",
        "summarize_telemetry",
    ),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = getattr(importlib.import_module(module, __name__), name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
