"""Deterministic protocol metrics: counters + fixed-bucket histograms.

:class:`MetricsRegistry` is the aggregation substrate behind
``repro error-sweep --metrics`` and ``repro report``: cheap integer
counters and fixed-bucket histograms with a **pinned name vocabulary**
(:data:`METRIC_NAMES`, enforced at runtime on every ``inc`` /
``observe``), an **order-independent merge** so per-trial
registries collected by any number of workers in any completion order
fold to the same totals, and a canonical **varint pack/unpack** so
packed registries ride the engine's compact ``ChunkSummary`` transport.

Collection happens inside the simulator's delivery seam — a registry is
one of ``SyncSimulator``'s ``observers``, the interface ``Tracer`` shares:
the simulator calls :meth:`MetricsRegistry.on_message` /
:meth:`~MetricsRegistry.on_fault` per delivered message / injected fault,
and with no observers delivery does nothing extra.  A delivered message
is one update of the execution's *tally*, ``(round, message kind, sender
honest, carries a coin share)`` → ``[messages, signatures]``, read off
its *trace summary* (the ``summarize_payload`` string and
``count_signatures`` tally already stamped on every
:class:`~repro.network.trace.TraceEvent`);
:meth:`MetricsRegistry.finalize_delivery`, the one place that names the
delivery metrics, derives them from the tally once per execution.  So the
same metrics can be recomputed from a replayed JSONL trace —
:func:`metrics_from_trace` — and ``repro trace --stats`` and live
collection agree name-for-name, count-for-count.  The only additions the
live path can see that a trace cannot are payload internals: slot
occupancy of composite messages and per-class crypto-object counts.

The serialized artifact is ``repro-metrics/1``: a single canonical JSON
document (:func:`build_metrics_payload` / :func:`write_metrics_artifact`)
with per-config registries plus merged totals, deterministic for a given
``(seed, plan)`` regardless of worker count or backend — pinned by
``tests/engine/test_metrics_engine.py``.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from bisect import bisect_left
from types import MappingProxyType
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..network.metrics import count_signatures
from ..network.trace import FaultEvent, TraceEvent, summarize_payload
from .sinks import ObsFormatError

__all__ = [
    "DELIVERY_METRIC_NAMES",
    "HISTOGRAM_BUCKETS",
    "MESSAGE_KINDS",
    "METRICS_SCHEMA",
    "METRIC_NAMES",
    "Histogram",
    "MetricsRegistry",
    "build_metrics_payload",
    "load_metrics_artifact",
    "metrics_from_trace",
    "summary_kind",
    "validate_metrics_payload",
    "write_metrics_artifact",
]

#: Schema tag of the metrics artifact (``repro report`` input).
METRICS_SCHEMA = "repro-metrics/1"

#: The complete metric-name vocabulary.  Every ``inc``/``observe`` call
#: must name one of these; the registry raises ``ValueError`` otherwise.
METRIC_NAMES = frozenset(
    {
        "agreements",
        "coin_flip_rounds",
        "coin_share_msgs",
        "crypto_ops",
        "decisions",
        "fault_hits",
        "messages",
        "messages_corrupt",
        "messages_honest",
        "round_messages",
        "rounds_to_decision",
        "sig_combine_ops",
        "sig_verify_ops",
        "signatures_corrupt",
        "signatures_honest",
        "slot_occupancy",
        "trial_messages",
        "trial_signatures",
        "trials",
    }
)

#: Fixed bucket upper bounds per histogram metric (values above the last
#: bound land in the overflow bucket).  Fixed buckets are what make the
#: merge order-independent: merging histograms is element-wise addition.
HISTOGRAM_BUCKETS: Dict[str, Tuple[int, ...]] = {
    "rounds_to_decision": (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64, 96, 128),
    "slot_occupancy": (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64),
    "trial_messages": (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192),
    "trial_signatures": (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192),
}

#: Message-kind labels produced by :func:`summary_kind` (the label space
#: of the ``messages*`` counters).
MESSAGE_KINDS = frozenset(
    {
        "bool",
        "bytes",
        "collection",
        "int",
        "none",
        "object",
        "parallel",
        "sequence",
        "signature",
        "str",
    }
)

#: The trace-recoverable subset: metrics derived purely from delivery
#: summaries and fault records, therefore identical between live
#: collection and :func:`metrics_from_trace` replay (pinned by
#: ``tests/obs/test_metrics.py``).
DELIVERY_METRIC_NAMES = frozenset(
    {
        "coin_flip_rounds",
        "coin_share_msgs",
        "fault_hits",
        "messages",
        "messages_corrupt",
        "messages_honest",
        "round_messages",
        "sig_verify_ops",
        "signatures_corrupt",
        "signatures_honest",
        "trial_messages",
        "trial_signatures",
    }
)

_COUNTER_NAMES = METRIC_NAMES - frozenset(HISTOGRAM_BUCKETS)

if not frozenset(HISTOGRAM_BUCKETS) <= METRIC_NAMES:  # pragma: no cover
    raise AssertionError("HISTOGRAM_BUCKETS names must be in METRIC_NAMES")
if not DELIVERY_METRIC_NAMES <= METRIC_NAMES:  # pragma: no cover
    raise AssertionError("DELIVERY_METRIC_NAMES must be in METRIC_NAMES")


def summary_kind(summary: str) -> str:
    """Classify a ``summarize_payload`` string into a message kind.

    This is the bridge that lets trace replay and live collection share
    one vocabulary: both see the same summary string, so both label a
    message the same way.
    """
    if summary == "∅":
        return "none"
    if summary in ("True", "False"):
        return "bool"
    if summary.startswith("∥"):
        return "parallel"
    if summary.startswith("bytes["):
        return "bytes"
    if summary.startswith("{"):
        return "collection"
    if summary.startswith("("):
        return "sequence"
    if summary.startswith("'"):
        return "str"
    if summary.startswith("<"):
        return "signature"
    if summary.startswith("int(") or summary.lstrip("-").isdigit():
        return "int"
    return "object"


# ── varint codec (LEB128, same wire idiom as repro.engine.transport; the
#    obs layer cannot import engine, so the ~10 lines are duplicated) ───


def _write_varint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def _read_varint(blob: bytes, at: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if at >= len(blob):
            raise ObsFormatError("truncated metrics blob: varint runs past end")
        byte = blob[at]
        at += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, at
        shift += 7


def _read_varints(blob: bytes, at: int, n: int) -> Tuple[List[int], int]:
    values = []
    for _ in range(n):
        value, at = _read_varint(blob, at)
        values.append(value)
    return values, at


def _write_str(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _write_varint(buf, len(raw))
    buf.extend(raw)


def _read_str(blob: bytes, at: int) -> Tuple[str, int]:
    length, at = _read_varint(blob, at)
    end = at + length
    if end > len(blob):
        raise ObsFormatError("truncated metrics blob: string runs past end")
    try:
        return blob[at:end].decode("utf-8"), end
    except UnicodeDecodeError as error:
        raise ObsFormatError(
            f"corrupt metrics blob: string at offset {at} is not UTF-8 "
            f"({error.reason} at offset {at + error.start})"
        ) from None


_PACK_VERSION = 1


class Histogram:
    """A fixed-bucket integer histogram with exact count/total/min/max."""

    __slots__ = ("buckets", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, buckets: Sequence[int]) -> None:
        self.buckets: Tuple[int, ...] = tuple(buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError("histogram buckets must be strictly increasing")
        # counts has one slot per bucket plus a final overflow slot.
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0
        self.minimum: Optional[int] = None
        self.maximum: Optional[int] = None

    def observe(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"histogram values must be >= 0, got {value}")
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other: "Histogram", times: int = 1) -> None:
        """Fold ``other`` in ``times`` times over (min/max are idempotent)."""
        if self.buckets != other.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        theirs = other.counts if times == 1 else [n * times for n in other.counts]
        self.counts = list(map(operator.add, self.counts, theirs))
        self.count += other.count * times
        self.total += other.total * times
        for bound in (other.minimum, other.maximum):
            if bound is None:
                continue
            if self.minimum is None or bound < self.minimum:
                self.minimum = bound
            if self.maximum is None or bound > self.maximum:
                self.maximum = bound

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, fraction: float) -> Optional[int]:
        """Upper-bound estimate of the ``fraction`` quantile.

        Returns the upper bound of the first bucket whose cumulative
        count reaches the target rank; observations in the overflow
        bucket resolve to the exact maximum.  Deterministic and
        monotone in ``fraction``.
        """
        if not self.count:
            return None
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        target = fraction * self.count
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            if running >= target and n:
                # An exact histogram never reports a quantile below the
                # minimum or above the maximum it actually saw.
                assert self.minimum is not None and self.maximum is not None
                return min(max(bound, self.minimum), self.maximum)
        return self.maximum

    def copy(self) -> "Histogram":
        # Field-for-field: the buckets were validated when the source was built.
        dup = Histogram.__new__(Histogram)
        dup.buckets = self.buckets
        dup.counts = list(self.counts)
        dup.count = self.count
        dup.total = self.total
        dup.minimum = self.minimum
        dup.maximum = self.maximum
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.buckets == other.buckets
            and self.counts == other.counts
            and self.count == other.count
            and self.total == other.total
            and self.minimum == other.minimum
            and self.maximum == other.maximum
        )

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, total={self.total}, "
            f"min={self.minimum}, max={self.maximum})"
        )

    def as_payload(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "Histogram":
        """The histogram of an artifact entry; ``ValueError`` unless it
        is one :meth:`observe` could have built (see :meth:`check`)."""
        if not isinstance(payload, dict):
            raise _malformed("the entry", payload, "an object")
        buckets = payload.get("buckets")
        counts = payload.get("counts")
        for field, value in (("buckets", buckets), ("counts", counts)):
            if not (isinstance(value, list) and _are_counts(value)):
                raise _malformed(field, value, "a list of ints >= 0")
        hist = cls(buckets)
        hist.counts = list(counts)
        hist.count = payload.get("count")
        hist.total = payload.get("total")
        hist.minimum = payload.get("min")
        hist.maximum = payload.get("max")
        hist.check()
        return hist

    def check(self) -> None:
        """Raise :class:`~repro.obs.sinks.ObsFormatError` unless
        :meth:`observe` could have built these fields: one count per
        bucket plus overflow, summing to ``count``; ``total`` an int
        >= 0; ``0 <= min <= max`` if ``count``, else both null."""
        low, high, counts = self.minimum, self.maximum, self.counts
        if len(counts) != len(self.buckets) + 1:
            problem = f"{len(counts)} counts for {len(self.buckets)} buckets + overflow"
        elif not (_is_count(self.count) and self.count == sum(counts)):
            problem = f"count is {self.count!r}, not the sum {sum(counts)} of counts"
        elif not _is_count(self.total):
            problem = f"total is {self.total!r}, not an int >= 0"
        elif self.count and not (_is_count(low) and _is_count(high) and low <= high):
            problem = (f"histogram of {self.count} observations needs integer min "
                       f"and max with 0 <= min <= max, got {low!r} and {high!r}")
        elif not self.count and (low, high) != (None, None):
            problem = f"min {low!r} and max {high!r} of no observations are not null"
        else:
            return
        raise ObsFormatError(problem)


def _refuse(*_: Any) -> None:
    raise TypeError("a finalized MetricsRegistry is read-only; copy() it to change it")


class _ReadOnlyHistogram(Histogram):
    """A finalized registry's histogram: it reads as any other, and
    refuses to change."""

    __slots__ = ()
    observe = merge = _refuse


class MetricsRegistry:
    """Deterministic counters + histograms over one or many trials.

    The simulator-facing hooks (:meth:`on_corruptions`,
    :meth:`on_message`, :meth:`on_fault`) are the observer interface
    ``Tracer`` also implements.  A delivered message is one update of
    the execution's *tally*, keyed ``(round, message kind, sender
    honest, carries a coin share)`` → ``[messages, signatures]``;
    :meth:`finalize_delivery` derives every delivery metric from it, and
    is the one place that names them.  The engine calls
    :meth:`finalize_trial` once per execution to fold the tally and
    run-level outcomes (rounds to decision, agreement, decided values)
    into the registry.  ``merge`` is commutative and associative over
    finalized registries, and ``pack``/``unpack`` round-trip losslessly
    — both pinned by hypothesis property tests.

    :meth:`finalize_trial` ends by making the registry a **read-only
    value**, and :meth:`unpack` returns one (a blob is a finalized
    registry): ``counters``, ``histograms`` and the tally become
    read-only mappings, and ``inc``, ``observe``, the delivery hooks, a
    ``merge`` into it and a second ``finalize_trial`` all raise
    ``TypeError``.  The engine therefore gives every trial of one
    outcome class the class's one registry object; :meth:`merged` adds
    each distinct object once, scaled by how many inputs are that
    object, and :meth:`pack` encodes it once.  :meth:`copy`,
    :meth:`merged`, :meth:`delivery_view`, :meth:`from_payload` and
    :meth:`from_deliveries` return writable registries; the first and
    last carry a pending tally, which ``pack`` (so pickling), ``merge``,
    :meth:`merged` and :meth:`delivery_view` refuse with ``ValueError``.
    """

    __slots__ = ("counters", "histograms", "_blob", "_tally", "_memo_round", "_memo")

    def __init__(self) -> None:
        #: (name, label) → count.  Labels refine a metric (message kind,
        #: fault kind, crypto class, decided value); unlabelled metrics
        #: use the empty string.
        self.counters: Dict[Tuple[str, str], int] = {}
        #: Histogram name → :class:`Histogram`.
        self.histograms: Dict[str, Histogram] = {}
        self._blob: Optional[bytes] = None  # pack(), once read-only
        self._reset_trial()

    def _reset_trial(self) -> None:
        self._tally: Dict[Tuple[int, str, bool, bool], List[int]] = {}
        self._memo_round = -1  # no round yet: the first message makes the memo
        self._memo: Optional[Dict[int, tuple]] = None

    @property
    def read_only(self) -> bool:
        """Whether this is a finalized registry (see the class docstring)."""
        return type(self.counters) is MappingProxyType

    def _freeze(self) -> "MetricsRegistry":
        for hist in self.histograms.values():
            hist.__class__ = _ReadOnlyHistogram  # same slots: a retag, not a copy
        self.counters = MappingProxyType(self.counters)  # type: ignore[assignment]
        self.histograms = MappingProxyType(self.histograms)  # type: ignore[assignment]
        self._tally = MappingProxyType(self._tally)  # type: ignore[assignment]
        return self

    def _check_settled(self) -> None:
        """Refuse a read that would silently drop a pending tally."""
        if self._tally:
            raise ValueError("pending delivery tally: call finalize_delivery() first")

    # ── core mutation API (name vocabulary enforced) ──────────────────

    def inc(self, name: str, label: str = "", by: int = 1) -> None:
        if name not in _COUNTER_NAMES:
            raise ValueError(f"unknown counter metric {name!r}")
        if by < 0:
            raise ValueError(f"counter increments must be >= 0, got {by}")
        if not by:
            return
        # A read-only registry's mapping proxy raises TypeError here.
        counters = self.counters
        key = (name, label)
        counters[key] = counters.get(key, 0) + by

    def observe(self, name: str, value: int) -> None:
        buckets = HISTOGRAM_BUCKETS.get(name)
        if buckets is None:
            raise ValueError(f"unknown histogram metric {name!r}")
        histograms = self.histograms
        hist = histograms.get(name)
        if hist is None:
            hist = histograms[name] = Histogram(buckets)
        hist.observe(value)

    # ── simulator observer interface (shared with Tracer) ─────────────

    def on_corruptions(self, round_index: int, corrupted: Set[int]) -> None:
        """No-op: no metric in the vocabulary counts corruptions."""

    def on_message(
        self,
        round_index: int,
        sender: int,
        recipient: int,
        payload: Any,
        sender_honest: bool,
    ) -> None:
        """Tally one delivered message (live collection).

        The summary/signature reduction is memoized per distinct payload
        *object* per round — a sender multicasting one payload to n
        recipients costs one walk, exactly like the delivery loop's own
        signature dedup.
        """
        if round_index != self._memo_round:
            self._memo = {}
            self._memo_round = round_index
        cached = self._memo.get(id(payload))
        if cached is None:
            slots = len(payload) if isinstance(payload, dict) else -1
            cached = self._memo[id(payload)] = (
                summarize_payload(payload),
                count_signatures(payload),
                _crypto_class_counts(payload),
                slots,
            )
        summary, signatures, classes, slots = cached
        self.observe_delivery(round_index, summary, signatures, sender_honest)
        # Live-only extras: payload internals a trace summary cannot
        # recover (composite slot occupancy, per-class crypto objects).
        if slots >= 0:
            self.observe("slot_occupancy", slots)
        for class_name, count in classes:
            self.inc("crypto_ops", class_name, count)
            if "Signature" in class_name and "Share" not in class_name:
                self.inc("sig_combine_ops", class_name, count)

    def on_fault(
        self, round_index: int, kind: str, sender: int, recipient: int,
        detail: Optional[int] = None,
    ) -> None:
        self.inc("fault_hits", kind)

    def observe_delivery(
        self, round_index: int, summary: str, signatures: int, sender_honest: bool
    ) -> None:
        """Tally one delivery from its trace summary (shared live/replay path)."""
        coin = "coin_share" in summary
        key = (round_index, summary_kind(summary), sender_honest, coin)
        cell = self._tally.get(key)
        if cell is None:
            # A read-only registry's mapping proxy raises TypeError here.
            self._tally[key] = [1, signatures]
        else:
            cell[0] += 1
            cell[1] += signatures

    def finalize_delivery(self) -> None:
        """Derive the delivery metrics from the tally; call once per execution.

        The only code that names them: a zero increment is skipped, as
        :meth:`inc` skips it, so the counters are exactly those a
        per-message ``inc`` would have left.
        """
        if self.read_only:
            _refuse()
        inc = self.inc
        messages = signatures = 0
        coin_rounds = set()
        for (round_index, kind, honest, coin), (count, signed) in self._tally.items():
            inc("messages", kind, count)
            inc("round_messages", f"{round_index:04d}/{kind}", count)  # sorts by round
            if honest:
                inc("messages_honest", kind, count)
                inc("signatures_honest", "", signed)
            else:
                inc("messages_corrupt", kind, count)
                inc("signatures_corrupt", "", signed)
            inc("sig_verify_ops", "", signed)
            if coin:
                inc("coin_share_msgs", "", count)
                coin_rounds.add(round_index)
            messages += count
            signatures += signed
        inc("coin_flip_rounds", "", len(coin_rounds))
        self.observe("trial_messages", messages)
        self.observe("trial_signatures", signatures)
        self._reset_trial()

    def finalize_trial(self, result: Any) -> None:
        """Fold one finished ``ExecutionResult`` into run-level metrics."""
        self.finalize_delivery()
        self.inc("trials")
        self.inc("agreements", "agree" if result.honest_agree() else "disagree")
        for pid in result.honest_parties:
            finish = result.finish_rounds.get(pid)
            if finish is not None:
                self.observe("rounds_to_decision", finish)
        outputs = result.honest_outputs
        for pid in sorted(outputs):
            self.inc("decisions", summarize_payload(outputs[pid]))
        self._freeze()

    # ── delivery segments (the vector backend's probes) ───────────────

    @classmethod
    def from_deliveries(
        cls, parts: Iterable[Tuple["MetricsRegistry", int]]
    ) -> "MetricsRegistry":
        """The un-finalised registry of an execution made of ``parts``.

        Each part is ``(segment, round_offset)``: an un-finalised
        registry of one segment, replayed ``round_offset`` rounds later.
        Its counters and histograms are added as they are, its tally at
        the shifted rounds, so the result is what one registry observing
        the whole execution would hold before :meth:`finalize_trial`.
        """
        registry = cls()
        counters, tally = registry.counters, registry._tally
        for part, offset in parts:
            for key, value in part.counters.items():
                counters[key] = counters.get(key, 0) + value
            for name, hist in part.histograms.items():
                registry._add_histogram(name, hist)
            for (round_index, *rest), (count, signed) in part._tally.items():
                cell = tally.setdefault((round_index + offset, *rest), [0, 0])
                cell[0] += count
                cell[1] += signed
        return registry

    # ── merge / views ─────────────────────────────────────────────────

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (element-wise addition)."""
        if self.read_only:
            _refuse()
        self._add(other)

    def _add(self, other: "MetricsRegistry", times: int = 1) -> None:
        other._check_settled()
        counters = self.counters
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value * times
        for name, hist in other.histograms.items():
            self._add_histogram(name, hist, times)

    def _add_histogram(self, name: str, hist: Histogram, times: int = 1) -> None:
        mine = self.histograms.get(name)
        if mine is None:
            mine = self.histograms[name] = hist.copy()
            times -= 1
        if times:
            mine.merge(hist, times)

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """The left fold of :meth:`merge`, priced by distinct objects.

        An input seen again (by identity: the trials of one outcome
        class share their registry) is added once, scaled by how often
        it was seen: every field is an integer sum or an idempotent
        min/max, so the result is exactly the fold's.
        """
        seen: Dict[int, list] = {}  # id(registry) → [registry, sightings]
        for registry in registries:
            entry = seen.get(id(registry))
            if entry is None:
                seen[id(registry)] = [registry, 1]
            else:
                entry[1] += 1
        total = cls()
        for registry, times in seen.values():
            total._add(registry, times)
        return total

    def copy(self) -> "MetricsRegistry":
        """A writable registry with equal counters, histograms and tally, deep."""
        twin = MetricsRegistry()
        twin.counters = dict(self.counters)
        twin.histograms = {name: hist.copy() for name, hist in self.histograms.items()}
        twin._tally = {key: list(cell) for key, cell in self._tally.items()}
        return twin

    def delivery_view(self) -> "MetricsRegistry":
        """Restrict to :data:`DELIVERY_METRIC_NAMES` (the trace-recoverable
        subset used by the live-vs-replayed equivalence tests)."""
        self._check_settled()
        view = MetricsRegistry()
        for key, value in self.counters.items():
            if key[0] in DELIVERY_METRIC_NAMES:
                view.counters[key] = value
        for name, hist in self.histograms.items():
            if name in DELIVERY_METRIC_NAMES:
                view.histograms[name] = hist.copy()
        return view

    def counter_total(self, name: str) -> int:
        counters = self.counters
        return sum(value for (metric, _), value in counters.items() if metric == name)

    def labels(self, name: str) -> Dict[str, int]:
        """Sorted label → count mapping for one counter metric."""
        counters = self.counters
        return {
            label: counters[(metric, label)]
            for metric, label in sorted(counters)
            if metric == name
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return (
            self.counters == other.counters
            and self.histograms == other.histograms
            and self._tally == other._tally
        )

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"histograms={len(self.histograms)})"
        )

    def __reduce__(self):
        # The counters and histograms as their canonical bytes; a
        # read-only registry comes back read-only, a writable one writable.
        restore = type(self).unpack if self.read_only else type(self)._decode
        return restore, (self.pack(),)

    # ── canonical wire form (ChunkSummary transport) ──────────────────

    def pack(self) -> bytes:
        """Canonical varint encoding: equal registries pack identically."""
        if self._blob is not None:
            return self._blob
        self._check_settled()
        counters, histograms = self.counters, self.histograms
        buf = bytearray()
        _write_varint(buf, _PACK_VERSION)
        _write_varint(buf, len(counters))
        for (name, label) in sorted(counters):
            _write_str(buf, name)
            _write_str(buf, label)
            _write_varint(buf, counters[(name, label)])
        _write_varint(buf, len(histograms))
        for name in sorted(histograms):
            hist = histograms[name]
            _write_str(buf, name)
            _write_varint(buf, len(hist.buckets))
            for bound in hist.buckets:
                _write_varint(buf, bound)
            for count in hist.counts:
                _write_varint(buf, count)
            _write_varint(buf, hist.count)
            _write_varint(buf, hist.total)
            if hist.count:
                _write_varint(buf, hist.minimum or 0)
                _write_varint(buf, hist.maximum or 0)
        blob = bytes(buf)
        if self.read_only:
            self._blob = blob
        return blob

    @classmethod
    def unpack(cls, blob: bytes) -> "MetricsRegistry":
        """Inverse of :meth:`pack`: the read-only registry of ``blob``.
        A truncated or corrupt blob raises
        :class:`~repro.obs.sinks.ObsFormatError` naming where it broke."""
        return cls._decode(blob)._freeze()

    @classmethod
    def _decode(cls, blob: bytes) -> "MetricsRegistry":
        registry = cls()
        version, at = _read_varint(blob, 0)
        if version != _PACK_VERSION:
            raise ObsFormatError(f"unknown metrics pack version {version}")
        n_counters, at = _read_varint(blob, at)
        for _ in range(n_counters):
            name, at = _read_str(blob, at)
            label, at = _read_str(blob, at)
            value, at = _read_varint(blob, at)
            registry.counters[(name, label)] = value
        n_hists, at = _read_varint(blob, at)
        for _ in range(n_hists):
            name, at = _read_str(blob, at)
            start = at
            n_buckets, at = _read_varint(blob, at)
            buckets, at = _read_varints(blob, at, n_buckets)
            counts, at = _read_varints(blob, at, n_buckets + 1)
            (count, total), at = _read_varints(blob, at, 2)
            low = high = None
            if count:
                (low, high), at = _read_varints(blob, at, 2)
            try:
                hist = Histogram(buckets)
                hist.counts, hist.count, hist.total = counts, count, total
                hist.minimum, hist.maximum = low, high
                hist.check()
            except ValueError as error:
                raise ObsFormatError(
                    f"corrupt metrics blob: histogram {name!r} at offset "
                    f"{start}: {error}"
                ) from None
            registry.histograms[name] = hist
        if at != len(blob):
            raise ObsFormatError(
                f"metrics blob has {len(blob) - at} trailing bytes"
            )
        return registry

    # ── JSON artifact form ────────────────────────────────────────────

    def as_payload(self) -> Dict[str, Any]:
        counters: Dict[str, Dict[str, int]] = {}
        for (name, label) in sorted(self.counters):
            counters.setdefault(name, {})[label] = self.counters[(name, label)]
        return {
            "counters": counters,
            "histograms": {
                name: self.histograms[name].as_payload()
                for name in sorted(self.histograms)
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        """The registry of one artifact metrics section.  A malformed
        section, or one naming a metric or buckets outside the pinned
        vocabulary, raises :class:`~repro.obs.sinks.ObsFormatError`
        naming the path inside it."""
        registry = cls()
        counters = registry.counters
        section = payload.get("counters", {})
        if not isinstance(section, dict):
            raise _malformed("counters", section, "an object")
        for name, labels in section.items():
            if name not in _COUNTER_NAMES:
                raise ObsFormatError(f"counters[{name}]: unknown counter metric")
            if not isinstance(labels, dict):
                raise _malformed(f"counters[{name}]", labels, "an object")
            for label, value in labels.items():
                if type(value) is not int or value < 0:
                    where = f"counters[{name}][{label}]"
                    raise _malformed(where, value, "an int >= 0")
                counters[(name, label)] = value
        histograms = payload.get("histograms", {})
        if not isinstance(histograms, dict):
            raise _malformed("histograms", histograms, "an object")
        for name, entry in histograms.items():
            try:
                if name not in HISTOGRAM_BUCKETS:
                    raise ObsFormatError("unknown histogram metric")
                hist = registry.histograms[name] = Histogram.from_payload(entry)
                if hist.buckets != HISTOGRAM_BUCKETS[name]:
                    raise ObsFormatError("buckets diverge from the pinned vocabulary")
            except ValueError as error:
                raise ObsFormatError(f"histograms[{name}]: {error}") from None
        return registry


def _malformed(where: str, value: Any, expected: str) -> ObsFormatError:
    return ObsFormatError(f"{where} is {value!r}, not {expected}")


def _is_count(value: Any) -> bool:
    """An int >= 0 that is not a bool: what a counter or a bucket holds."""
    return type(value) is int and value >= 0


def _are_counts(values: List[Any]) -> bool:
    """:func:`_is_count` of every value, in two C-level passes."""
    return set(map(type, values)) <= {int} and min(values, default=0) >= 0


def _crypto_class_counts(payload: Any) -> Tuple[Tuple[str, int], ...]:
    """Count crypto-layer objects inside a payload, by class name.

    Same walk shape as ``count_signatures`` (dicts by keys+values,
    sequences element-wise, dataclass fields), reduced to a sorted
    ``(class_name, count)`` tuple so the result is hashable and
    memo-friendly.  Class names are surfaced the way trace summaries
    spell them (leading underscores stripped).
    """
    counts: Dict[str, int] = {}
    stack = [payload]
    while stack:
        value = stack.pop()
        if value is None or isinstance(value, (bool, int, float, str, bytes)):
            continue
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            cls = type(value)
            if cls.__module__.startswith("repro.crypto"):
                name = cls.__name__.lstrip("_")
                counts[name] = counts.get(name, 0) + 1
            for field in dataclasses.fields(value):
                stack.append(getattr(value, field.name))
        elif isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
    return tuple(sorted(counts.items()))


def metrics_from_trace(
    events: Iterable[TraceEvent], faults: Iterable[FaultEvent] = ()
) -> MetricsRegistry:
    """Recompute delivery metrics from replayed trace records.

    Uses the exact same :meth:`MetricsRegistry.observe_delivery` /
    :meth:`~MetricsRegistry.on_fault` path as live collection, so the
    result equals the live registry's :meth:`~MetricsRegistry.delivery_view`
    for the same execution.
    """
    registry = MetricsRegistry()
    for event in events:
        registry.observe_delivery(
            event.round_index, event.summary, event.signatures, event.sender_honest
        )
    for fault in faults:
        registry.on_fault(
            fault.round_index, fault.kind, fault.sender, fault.recipient,
            fault.detail,
        )
    registry.finalize_delivery()
    return registry


def build_metrics_payload(
    meta: Mapping[str, Any],
    configs: Mapping[str, Tuple[Mapping[str, Any], MetricsRegistry]],
) -> Dict[str, Any]:
    """Assemble the ``repro-metrics/1`` artifact document.

    ``configs`` maps config key → (config meta, merged registry); the
    totals section is the merge over all configs.  ``meta`` must be
    derived from the plan alone (never worker count or wall clock) so
    the artifact is identical across serial/pooled/vector runs.
    """
    totals = MetricsRegistry.merged(registry for _, registry in configs.values())
    return {
        "schema": METRICS_SCHEMA,
        "meta": dict(meta),
        "configs": {
            name: {"meta": dict(config_meta), "metrics": registry.as_payload()}
            for name, (config_meta, registry) in configs.items()
        },
        "totals": totals.as_payload(),
    }


def validate_metrics_payload(payload: Any) -> List[str]:
    """Schema violations in a parsed metrics artifact (empty = valid)."""
    violations: List[str] = []
    if not isinstance(payload, dict):
        return ["metrics artifact is not a JSON object"]
    schema = payload.get("schema")
    if schema != METRICS_SCHEMA:
        violations.append(f"schema is {schema!r}, expected {METRICS_SCHEMA!r}")
    if not isinstance(payload.get("meta", {}), dict):
        violations.append("meta is not an object")
    sections: List[Tuple[str, Any]] = [("totals", payload.get("totals"))]
    configs = payload.get("configs", {})
    if not isinstance(configs, dict):
        violations.append("configs section is not an object")
        configs = {}
    for name, entry in configs.items():
        if not isinstance(entry, dict):
            entry = {}
        elif not isinstance(entry.get("meta", {}), dict):
            violations.append(f"configs[{name}]: meta is not an object")
        sections.append((f"configs[{name}]", entry.get("metrics")))
    for where, section in sections:
        if not isinstance(section, dict):
            violations.append(f"{where}: missing metrics object")
            continue
        try:
            MetricsRegistry.from_payload(section)
        except ObsFormatError as error:
            violations.append(f"{where}: malformed metrics ({error})")
    return violations


def write_metrics_artifact(path: str, payload: Mapping[str, Any]) -> None:
    """Write a validated ``repro-metrics/1`` document, canonically."""
    violations = validate_metrics_payload(dict(payload))
    if violations:
        raise ObsFormatError(
            "refusing to write invalid metrics artifact: " + "; ".join(violations)
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2))
        handle.write("\n")


def load_metrics_artifact(path: str) -> Dict[str, Any]:
    """Load and validate a ``repro-metrics/1`` document."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise ObsFormatError(f"{path}: not valid JSON ({error})") from None
    violations = validate_metrics_payload(payload)
    if violations:
        raise ObsFormatError(f"{path}: " + "; ".join(violations))
    return payload
