"""Run analytics: fuse a run's observability artifacts into one report.

``repro error-sweep`` leaves several machine-readable artifacts behind —
a ``repro-metrics/1`` metrics document, a telemetry JSONL directory and
(opt-in) per-chunk ``cProfile`` dumps.  Each is designed to be digested
alone; this module is the one place that reads them *together* and
renders a single markdown (or minimal HTML) report: round-to-decision percentiles, message/signature
complexity against the paper's per-round quadratic bound, probe-cache
and vector-fallback rollups, fault attribution, and profile hot spots
attributed back to telemetry busy time.

Determinism is the contract, same as everywhere else in ``obs``: the
report is a pure function of its input files.  No wall clocks are read,
every table is sorted, and floats render with fixed precision — the
golden-report test in ``tests/obs/test_report.py`` pins the exact
rendering from committed fixtures.

``check_report`` is the schema gate behind ``repro report --check``:
it revalidates every input against its declared schema and returns the
violations (CLI exit 2 when non-empty), so a CI job can refuse to
publish a report built from malformed or inconsistent artifacts.
"""

from __future__ import annotations

import html
import os
import pstats
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import (
    MetricsRegistry,
    load_metrics_artifact,
    validate_metrics_payload,
)
from .sinks import ObsFormatError
from .telemetry import TELEMETRY_SCHEMA, summarize_telemetry

__all__ = [
    "build_report",
    "check_report",
    "load_profile_summary",
    "load_report_inputs",
    "render_html",
]

#: Quantiles the round-distribution tables report, in render order.
_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
)

#: Hot functions a profile summary keeps, by own time.
_TOP_FUNCTIONS = 10


def _fmt(value: Any, digits: int = 2) -> str:
    """Fixed-precision cell rendering; ``-`` for missing values."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    """Render a GitHub-flavored markdown table."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return lines


# ── input loaders ─────────────────────────────────────────────────────


def load_profile_summary(profile_dir: str) -> Optional[Dict[str, Any]]:
    """Digest every ``*.pstats`` dump under ``profile_dir``.

    Returns ``None`` when the directory holds no profiles, and raises
    :class:`ObsFormatError` naming a dump that does not load.  The summary
    is deterministic for a fixed set of dump files: chunks merge in
    sorted filename order, functions sort by own-time (descending) with
    a full location tie-break, the top ``_TOP_FUNCTIONS`` = 10 are kept,
    and paths reduce to basenames so the rendering does not depend on
    where the repo is checked out.
    """
    paths = sorted(
        os.path.join(profile_dir, name)
        for name in os.listdir(profile_dir)
        if name.endswith(".pstats")
    )
    if not paths:
        return None
    stats: Optional[pstats.Stats] = None
    for path in paths:
        try:
            stats = pstats.Stats(path) if stats is None else stats.add(path)
        except (EOFError, ValueError, TypeError, AttributeError) as error:
            # marshal on an empty, cut or foreign file; pstats on bad shapes
            message = f"{path}: not a cProfile dump ({type(error).__name__}: {error})"
            raise ObsFormatError(message) from None
    functions = []
    for (filename, lineno, name), row in stats.stats.items():  # type: ignore[attr-defined]
        calls, _primitive, own, cumulative = row[0], row[1], row[2], row[3]
        functions.append(
            {
                "function": f"{os.path.basename(filename)}:{lineno}:{name}",
                "calls": calls,
                "own_seconds": round(own, 4),
                "cumulative_seconds": round(cumulative, 4),
            }
        )
    functions.sort(key=lambda f: (-f["own_seconds"], f["function"]))
    return {
        "files": len(paths),
        "total_seconds": round(stats.total_tt, 4),  # type: ignore[attr-defined]
        "functions": functions[:_TOP_FUNCTIONS],
    }


# ── section renderers ─────────────────────────────────────────────────


def _config_registries(
    payload: Mapping[str, Any],
) -> List[Tuple[str, Mapping[str, Any], MetricsRegistry]]:
    return [
        (name, entry.get("meta", {}), MetricsRegistry.from_payload(entry["metrics"]))
        for name, entry in sorted(payload.get("configs", {}).items())
    ]


def _histogram_row(name: str, registry: MetricsRegistry) -> Optional[List[Any]]:
    hist = registry.histograms.get(name)
    if hist is None or not hist.count:
        return None
    row: List[Any] = [name, hist.count, round(hist.mean or 0.0, 2)]
    row.extend(hist.percentile(q) for _, q in _QUANTILES)
    row.append(hist.maximum)
    return row


def _metrics_section(payload: Mapping[str, Any]) -> List[str]:
    totals = MetricsRegistry.from_payload(payload["totals"])
    meta = payload.get("meta", {})
    trials = totals.counter_total("trials")
    lines = ["## Protocol metrics", ""]
    lines.append(
        f"Plan `{meta.get('plan', '?')}`: {trials} trials, "
        f"{totals.counter_total('messages')} messages, "
        f"{totals.counter_total('sig_verify_ops')} signature verifications, "
        f"{totals.counter_total('coin_flip_rounds')} coin-flip rounds."
    )
    lines.append("")

    agree = totals.labels("agreements")
    if agree:
        lines.append(
            "Agreement: "
            + ", ".join(f"{count} {label}" for label, count in sorted(agree.items()))
            + "."
        )
        lines.append("")
    decisions = totals.labels("decisions")
    if decisions:
        lines.append("Decided values (per honest party):")
        lines.append("")
        lines.extend(
            _table(
                ["value", "count"],
                [[label, count] for label, count in sorted(decisions.items())],
            )
        )
        lines.append("")

    hist_rows = []
    for name in ("rounds_to_decision", "slot_occupancy", "trial_messages", "trial_signatures"):
        row = _histogram_row(name, totals)
        if row is not None:
            hist_rows.append(row)
    if hist_rows:
        lines.append("Distributions:")
        lines.append("")
        lines.extend(
            _table(
                ["histogram", "count", "mean"]
                + [q for q, _ in _QUANTILES]
                + ["max"],
                hist_rows,
            )
        )
        lines.append("")

    # Per-config message complexity against the paper's per-round bound:
    # every party addresses at most one message per recipient per round,
    # so no single round may carry more than n² messages *per trial* —
    # the quadratic communication the protocol claims.  The peak is
    # exact, not estimated: `round_messages` labels carry the round
    # index, so the busiest round across all of a config's trials is
    # recoverable from the artifact alone.
    config_rows = []
    bound_ok = True
    for name, config_meta, registry in _config_registries(payload):
        config_trials = registry.counter_total("trials")
        rounds_hist = registry.histograms.get("rounds_to_decision")
        mean_rounds = rounds_hist.mean if rounds_hist is not None else None
        messages = registry.counter_total("messages")
        round_messages: Dict[str, int] = {}
        for label, count in registry.labels("round_messages").items():
            round_key = label.split("/", 1)[0]
            round_messages[round_key] = round_messages.get(round_key, 0) + count
        peak = (
            max(round_messages.values()) / config_trials
            if round_messages and config_trials
            else None
        )
        num_parties = config_meta.get("num_parties")
        bound = num_parties**2 if isinstance(num_parties, int) else None
        within = peak <= bound if peak is not None and bound else None
        if within is False:
            bound_ok = False
        config_rows.append(
            [
                name,
                config_trials,
                round(messages / config_trials, 2) if config_trials else None,
                (
                    round(registry.counter_total("sig_verify_ops") / config_trials, 2)
                    if config_trials
                    else None
                ),
                round(mean_rounds, 2) if mean_rounds else None,
                round(peak, 2) if peak is not None else None,
                bound,
                within,
            ]
        )
    if config_rows:
        lines.append(
            "Message/signature complexity per config (paper bound: at most "
            "n² messages in any round of a trial):"
        )
        lines.append("")
        lines.extend(
            _table(
                [
                    "config",
                    "trials",
                    "msgs/trial",
                    "sig verifies/trial",
                    "mean rounds",
                    "peak msgs/round",
                    "n² bound",
                    "within bound",
                ],
                config_rows,
            )
        )
        lines.append("")
        if not bound_ok:
            lines.append(
                "**WARNING**: a config exceeds the per-round message bound."
            )
            lines.append("")

    faults = totals.labels("fault_hits")
    if faults:
        lines.append("Fault attribution (injected fault hits by kind):")
        lines.append("")
        lines.extend(
            _table(
                ["fault kind", "hits"],
                [[label, count] for label, count in sorted(faults.items())],
            )
        )
        lines.append("")
    return lines


def _telemetry_section(summary: Mapping[str, Any]) -> List[str]:
    lines = ["## Engine telemetry", ""]
    lines.append(
        f"{summary['records']} records, {summary['chunks']} chunk spans, "
        f"busy {_fmt(float(summary['busy_seconds']), 3)}s over "
        f"{summary['trials']} dispatched trials; spans "
        f"{'consistent' if summary['consistent'] else '**INCONSISTENT**'}."
    )
    lines.append("")
    pooled = [
        run
        for run in summary.get("runs", [])
        if run.get("utilization") is not None
    ]
    if pooled:
        lines.extend(
            _table(
                ["run", "workers", "chunks", "busy s", "wall s", "utilization"],
                [
                    [
                        run.get("label") or run.get("mode", "?"),
                        run.get("workers"),
                        run.get("chunks"),
                        round(run.get("busy_seconds", 0.0), 3),
                        run.get("wall_seconds"),
                        run.get("utilization"),
                    ]
                    for run in pooled
                ],
            )
        )
        lines.append("")
    hits = summary.get("probe_cache_hits", 0)
    misses = summary.get("probe_cache_misses", 0)
    if hits or misses:
        lines.append(
            f"Probe cache: {hits} hits / {misses} misses "
            "(batches on a warm table / probes run)."
        )
        lines.append("")
    batched = summary.get("vector_batched", 0)
    fell_back = summary.get("vector_fallback", 0)
    if batched or fell_back:
        lines.append(
            f"Vector batches: {batched} trials batched / {fell_back} fell "
            f"back, {summary.get('coins', 0)} coins evaluated."
        )
        lines.append("")
    fallbacks = summary.get("fallback_reasons") or {}
    if fallbacks:
        lines.append("Vector fallbacks by reason:")
        lines.append("")
        lines.extend(
            _table(
                ["reason", "count"],
                [[reason, count] for reason, count in sorted(fallbacks.items())],
            )
        )
        lines.append("")
    unknown = summary.get("unknown_types") or {}
    if unknown:
        lines.append(
            "Skipped unknown telemetry record types: "
            + ", ".join(
                f"{kind} ({count})" for kind, count in sorted(unknown.items())
            )
            + "."
        )
        lines.append("")
    return lines


def _profile_section(
    profile: Mapping[str, Any], busy_seconds: Optional[float]
) -> List[str]:
    lines = ["## Profile", ""]
    total = profile["total_seconds"]
    attribution = None
    if busy_seconds:
        attribution = total / busy_seconds
    lines.append(
        f"{profile['files']} profile dump(s), {_fmt(float(total), 3)}s of "
        f"profiled execution"
        + (
            f" — {attribution:.0%} of telemetry busy time attributed"
            if attribution is not None
            else ""
        )
        + "."
    )
    lines.append("")
    if profile["functions"]:
        lines.append("Hottest functions by own time:")
        lines.append("")
        lines.extend(
            _table(
                ["function", "calls", "own s", "cumulative s"],
                [
                    [
                        f"`{entry['function']}`",
                        entry["calls"],
                        _fmt(entry["own_seconds"], 4),
                        _fmt(entry["cumulative_seconds"], 4),
                    ]
                    for entry in profile["functions"]
                ],
            )
        )
        lines.append("")
    return lines


# ── top-level API ─────────────────────────────────────────────────────


def build_report(
    metrics: Optional[Mapping[str, Any]] = None,
    telemetry: Optional[Mapping[str, Any]] = None,
    profile: Optional[Mapping[str, Any]] = None,
) -> str:
    """Render the fused markdown report from pre-loaded inputs.

    Every argument is optional; sections render only for the inputs
    provided, so the same function backs ``repro report --metrics`` and
    a full three-artifact fusion.  Pure and deterministic: equal inputs
    render byte-equal markdown.
    """
    lines = ["# repro run report", ""]
    described = []
    if metrics is not None:
        described.append(f"metrics `{metrics.get('schema', '?')}`")
    if telemetry is not None:
        described.append(f"telemetry `{telemetry.get('schema', '?')}`")
    if profile is not None:
        described.append(f"{profile['files']} profile dump(s)")
    lines.append(
        "Inputs: " + (", ".join(described) if described else "none") + "."
    )
    lines.append("")
    if metrics is not None:
        lines.extend(_metrics_section(metrics))
    if telemetry is not None:
        lines.extend(_telemetry_section(telemetry))
    if profile is not None:
        busy = float(telemetry["busy_seconds"]) if telemetry else None
        lines.extend(_profile_section(profile, busy))
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines) + "\n"


def render_html(markdown: str) -> str:
    """Wrap the markdown report in a minimal self-contained HTML page.

    Deliberately not a markdown-to-HTML converter — the report stays
    readable as preformatted text and the wrapper adds zero rendering
    dependencies, which keeps the HTML artifact as deterministic as the
    markdown it embeds.
    """
    return (
        "<!doctype html>\n"
        "<html><head><meta charset=\"utf-8\">"
        "<title>repro run report</title></head>\n"
        "<body><pre>\n"
        f"{html.escape(markdown)}"
        "</pre></body></html>\n"
    )


def check_report(
    metrics: Optional[Mapping[str, Any]] = None,
    telemetry: Optional[Mapping[str, Any]] = None,
) -> List[str]:
    """Schema gate for ``repro report --check``; returns violations.

    * the metrics document must validate as ``repro-metrics/1``;
    * the telemetry digest must declare ``repro-telemetry/1`` and its
      spans must be mutually consistent.
    """
    violations: List[str] = []
    if metrics is not None:
        violations.extend(
            f"metrics: {problem}" for problem in validate_metrics_payload(metrics)
        )
    if telemetry is not None:
        if telemetry.get("schema") != TELEMETRY_SCHEMA:
            violations.append(
                f"telemetry: schema {telemetry.get('schema')!r} is not "
                f"{TELEMETRY_SCHEMA!r}"
            )
        if not telemetry.get("consistent", False):
            violations.append(
                "telemetry: spans are not consistent with wall time"
            )
    return violations


def load_report_inputs(
    metrics_path: Optional[str] = None,
    telemetry_path: Optional[str] = None,
    profile_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Load every requested artifact from disk; raises ``ObsFormatError``
    / ``OSError`` / ``ValueError`` on malformed inputs (the CLI maps
    those to exit 2)."""
    metrics = load_metrics_artifact(metrics_path) if metrics_path else None
    telemetry = None
    if telemetry_path:
        resolved = telemetry_path
        if os.path.isdir(resolved):
            resolved = os.path.join(resolved, "telemetry.jsonl")
        telemetry = summarize_telemetry(resolved)
    profile = None
    if profile_dir:
        if not os.path.isdir(profile_dir):
            raise ObsFormatError(f"{profile_dir}: not a profile directory")
        profile = load_profile_summary(profile_dir)
    return {
        "metrics": metrics,
        "telemetry": telemetry,
        "profile": profile,
    }
