"""Deterministic protocol metrics: counters + fixed-bucket histograms.

:class:`MetricsRegistry` is the aggregation substrate behind
``repro error-sweep --metrics`` and ``repro report``: cheap integer
counters and fixed-bucket histograms with a **pinned name vocabulary**
(:data:`METRIC_NAMES`, enforced at runtime here and statically by the
OBS603 check rule), an **order-independent merge** so per-trial
registries collected by any number of workers in any completion order
fold to the same totals, and a canonical **varint pack/unpack** so
packed registries ride the engine's compact ``ChunkSummary`` transport.

Collection happens inside the simulator's delivery seam — a registry is
one of ``SyncSimulator``'s ``observers``, the interface ``Tracer`` shares:
the simulator calls :meth:`MetricsRegistry.on_message` /
:meth:`~MetricsRegistry.on_fault` per delivered message / injected fault,
and with no observers delivery does nothing extra.  Everything a
delivered message contributes is derived from its *trace summary* (the
``summarize_payload`` string and ``count_signatures`` tally already
stamped on every :class:`~repro.network.trace.TraceEvent`), so the same
metrics can be recomputed from a replayed JSONL trace —
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
    "DeliveryContribution",
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
#: must name one of these — enforced at runtime by the registry and
#: statically by the OBS603 rule, which pins string-literal call sites
#: across obs/engine/cli/analysis to this frozenset.  Kept as a single
#: literal so the checks-layer AST index can recover the value without
#: importing this module.
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
    def from_payload(cls, payload: Mapping[str, Any]) -> "Histogram":
        hist = cls(payload["buckets"])
        counts = list(payload["counts"])
        if len(counts) != len(hist.buckets) + 1:
            raise ObsFormatError(
                f"histogram counts length {len(counts)} does not match "
                f"{len(hist.buckets)} buckets + overflow"
            )
        hist.counts = counts
        hist.count = int(payload["count"])
        hist.total = int(payload["total"])
        hist.minimum = payload.get("min")
        hist.maximum = payload.get("max")
        if hist.count and not (type(hist.minimum) is type(hist.maximum) is int):
            raise ObsFormatError(
                f"histogram of {hist.count} observations needs integer min and max"
            )
        return hist


def _round_label(round_index: int, kind: str) -> str:
    """The ``round_messages`` label: zero-padded so labels sort by round."""
    return f"{round_index:04d}/{kind}"


def _split_round_label(label: str) -> Tuple[int, str]:
    """Inverse of :func:`_round_label`."""
    round_text, kind = label.split("/", 1)
    return int(round_text), kind


@dataclasses.dataclass(frozen=True)
class DeliveryContribution:
    """What one execution segment delivered, frozen before finalization.

    The vector backend runs each cached probe with a registry attached
    and keeps this snapshot of it (:meth:`MetricsRegistry.freeze_delivery`);
    a trial's registry is then the round-shifted sum of the segments it
    walked (:meth:`MetricsRegistry.from_deliveries`) plus the usual
    :meth:`~MetricsRegistry.finalize_trial`.  ``round_messages`` and
    ``coin_rounds`` keep their round indices as integers so a segment can
    be replayed at any round offset; everything else is round-free.
    """

    counters: Tuple[Tuple[Tuple[str, str], int], ...]
    round_messages: Tuple[Tuple[int, str, int], ...]
    histograms: Tuple[Tuple[str, Histogram], ...]
    coin_rounds: Tuple[int, ...]
    messages: int
    signatures: int


@dataclasses.dataclass(eq=False)
class _State:
    """A registry's counters and histograms.  Once ``shared`` (see
    :meth:`MetricsRegistry.stamp`) a state is never mutated again, which
    is what lets ``blob`` cache its canonical packing."""

    counters: Dict[Tuple[str, str], int]
    histograms: Dict[str, Histogram]
    shared: bool = False
    blob: Optional[bytes] = None

    def copy(self) -> "_State":
        return _State(
            dict(self.counters),
            {name: hist.copy() for name, hist in self.histograms.items()},
        )


class MetricsRegistry:
    """Deterministic counters + histograms over one or many trials.

    The simulator-facing hooks (:meth:`on_corruptions`,
    :meth:`on_message`, :meth:`on_fault`) are the observer interface
    ``Tracer`` also implements; the engine calls :meth:`finalize_trial`
    once per execution to fold per-trial transients (coin rounds,
    message/signature totals) and run-level outcomes (rounds to
    decision, agreement, decided values) into the registry.  ``merge``
    is commutative and associative over finalized registries, and
    ``pack``/``unpack`` round-trip losslessly — both pinned by
    hypothesis property tests.

    The state is either this registry's own ``counters`` / ``histograms``
    or a snapshot shared with the registries :meth:`stamp` made from it
    — **never both**, and a shared snapshot is never mutated: the first
    mutation, or the first outside touch of ``counters`` /
    ``histograms``, copies it into private dicts and lets go of it.
    Trials of one outcome class therefore cost a pointer each,
    :meth:`merged` adds each snapshot once, scaled by how many inputs
    still share it, and ``==``, ``repr``, :meth:`pack` bytes,
    :meth:`copy` and pickling do not tell the two apart.
    """

    __slots__ = (
        "_state",
        "_coin_rounds",
        "_trial_messages",
        "_trial_signatures",
        "_memo_round",
        "_memo",
    )

    def __init__(self) -> None:
        self._state = _State({}, {})
        self._reset_trial()

    def _reset_trial(self) -> None:
        # Allocates nothing: a stamped twin pays five stores for these.
        self._coin_rounds: frozenset = frozenset()
        self._trial_messages = 0
        self._trial_signatures = 0
        self._memo_round = -1  # no round yet: the first message makes the memo
        self._memo: Optional[Dict[int, tuple]] = None

    # ── snapshot-or-own state ─────────────────────────────────────────

    @property
    def counters(self) -> Dict[Tuple[str, str], int]:
        """(name, label) → count, private to this registry.  Labels
        refine a metric (message kind, fault kind, crypto class, decided
        value); unlabelled metrics use the empty string."""
        return self._own().counters

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """Histogram name → :class:`Histogram`, private to this registry."""
        return self._own().histograms

    def _own(self) -> _State:
        """This registry's private state — a copy, if it was shared."""
        state = self._state
        if state.shared:
            state = self._state = state.copy()
        return state

    def stamp(self) -> "MetricsRegistry":
        """A registry equal to this finalized one, at pointer cost.

        Both hold this registry's state, from now on a shared snapshot;
        either copies it on its first touch, so a change to one can
        never show in the other.
        """
        self._state.shared = True
        twin = MetricsRegistry.__new__(MetricsRegistry)
        twin._state = self._state
        twin._reset_trial()
        return twin

    # ── core mutation API (name vocabulary enforced) ──────────────────

    def inc(self, name: str, label: str = "", by: int = 1) -> None:
        if name not in _COUNTER_NAMES:
            raise ValueError(f"unknown counter metric {name!r}")
        if by < 0:
            raise ValueError(f"counter increments must be >= 0, got {by}")
        if not by:
            return
        # _own(), inlined: every delivered message comes through here.
        counters = (self._own() if self._state.shared else self._state).counters
        key = (name, label)
        counters[key] = counters.get(key, 0) + by

    def observe(self, name: str, value: int) -> None:
        buckets = HISTOGRAM_BUCKETS.get(name)
        if buckets is None:
            raise ValueError(f"unknown histogram metric {name!r}")
        histograms = (self._own() if self._state.shared else self._state).histograms
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
        kind = summary_kind(summary)
        self.inc("messages", kind)
        self.inc("round_messages", _round_label(round_index, kind))
        if sender_honest:
            self.inc("messages_honest", kind)
            self.inc("signatures_honest", "", signatures)
        else:
            self.inc("messages_corrupt", kind)
            self.inc("signatures_corrupt", "", signatures)
        self.inc("sig_verify_ops", "", signatures)
        if "coin_share" in summary:
            self.inc("coin_share_msgs")
            self._coin_rounds |= {round_index}
        self._trial_messages += 1
        self._trial_signatures += signatures

    def finalize_delivery(self) -> None:
        """Fold per-trial delivery transients; call once per execution."""
        self.inc("coin_flip_rounds", "", len(self._coin_rounds))
        self.observe("trial_messages", self._trial_messages)
        self.observe("trial_signatures", self._trial_signatures)
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

    # ── frozen delivery segments (the vector backend's probes) ────────

    def freeze_delivery(self) -> DeliveryContribution:
        """Snapshot this *un-finalised* registry's delivery tallies."""
        counters = []
        round_messages = []
        for (name, label) in sorted(self.counters):
            value = self.counters[(name, label)]
            if name == "round_messages":
                round_messages.append((*_split_round_label(label), value))
            else:
                counters.append(((name, label), value))
        return DeliveryContribution(
            counters=tuple(counters),
            round_messages=tuple(round_messages),
            histograms=tuple(
                (name, self.histograms[name].copy())
                for name in sorted(self.histograms)
            ),
            coin_rounds=tuple(sorted(self._coin_rounds)),
            messages=self._trial_messages,
            signatures=self._trial_signatures,
        )

    @classmethod
    def from_deliveries(
        cls, parts: Iterable[Tuple[DeliveryContribution, int]]
    ) -> "MetricsRegistry":
        """The un-finalised registry of an execution made of ``parts``.

        Each part is ``(contribution, round_offset)``: a frozen segment
        replayed ``round_offset`` rounds later.  Equal to what one
        registry observing the whole execution would hold before
        :meth:`finalize_trial`, provided the shifted segments cover
        disjoint rounds.
        """
        registry = cls()
        counters = registry._state.counters
        for part, offset in parts:
            for key, value in part.counters:
                counters[key] = counters.get(key, 0) + value
            for round_index, kind, value in part.round_messages:
                key = ("round_messages", _round_label(round_index + offset, kind))
                counters[key] = counters.get(key, 0) + value
            for name, hist in part.histograms:
                registry._add_histogram(name, hist)
            registry._coin_rounds |= {r + offset for r in part.coin_rounds}
            registry._trial_messages += part.messages
            registry._trial_signatures += part.signatures
        return registry

    # ── merge / views ─────────────────────────────────────────────────

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (element-wise addition)."""
        self._add(other._state)

    def _add(self, state: _State, times: int = 1) -> None:
        counters = self._own().counters
        for key, value in state.counters.items():
            counters[key] = counters.get(key, 0) + value * times
        for name, hist in state.histograms.items():
            self._add_histogram(name, hist, times)

    def _add_histogram(self, name: str, hist: Histogram, times: int = 1) -> None:
        mine = self._state.histograms.get(name)
        if mine is None:
            mine = self._state.histograms[name] = hist.copy()
            times -= 1
        if times:
            mine.merge(hist, times)

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """The left fold of :meth:`merge`, priced by distinct snapshots.

        Inputs still on a shared snapshot are counted and the snapshot
        is added once, scaled: every field is an integer sum or an
        idempotent min/max, so the result is exactly the fold's.
        """
        total = cls()
        shared: Dict[_State, int] = {}
        for registry in registries:
            state = registry._state
            if state.shared:
                shared[state] = shared.get(state, 0) + 1
            else:
                total._add(state)
        for state, times in shared.items():
            total._add(state, times)
        return total

    def copy(self) -> "MetricsRegistry":
        """An independent registry with the same counters and histograms."""
        twin = MetricsRegistry()
        twin._state = self._state.copy()
        return twin

    def delivery_view(self) -> "MetricsRegistry":
        """Restrict to :data:`DELIVERY_METRIC_NAMES` (the trace-recoverable
        subset used by the live-vs-replayed equivalence tests)."""
        view = MetricsRegistry()
        for key, value in self._state.counters.items():
            if key[0] in DELIVERY_METRIC_NAMES:
                view._state.counters[key] = value
        for name, hist in self._state.histograms.items():
            if name in DELIVERY_METRIC_NAMES:
                view._state.histograms[name] = hist.copy()
        return view

    def counter_total(self, name: str) -> int:
        counters = self._state.counters
        return sum(value for (metric, _), value in counters.items() if metric == name)

    def labels(self, name: str) -> Dict[str, int]:
        """Sorted label → count mapping for one counter metric."""
        counters = self._state.counters
        return {
            label: counters[(metric, label)]
            for metric, label in sorted(counters)
            if metric == name
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        mine, theirs = self._state, other._state
        return mine.counters == theirs.counters and mine.histograms == theirs.histograms

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._state.counters)}, "
            f"histograms={len(self._state.histograms)})"
        )

    def __reduce__(self):
        # The finalized state as its canonical bytes, shared or own.
        return type(self).unpack, (self.pack(),)

    # ── canonical wire form (ChunkSummary transport) ──────────────────

    def pack(self) -> bytes:
        """Canonical varint encoding: equal registries pack identically."""
        state = self._state
        if state.blob is not None:
            return state.blob
        buf = bytearray()
        _write_varint(buf, _PACK_VERSION)
        _write_varint(buf, len(state.counters))
        for (name, label) in sorted(state.counters):
            _write_str(buf, name)
            _write_str(buf, label)
            _write_varint(buf, state.counters[(name, label)])
        _write_varint(buf, len(state.histograms))
        for name in sorted(state.histograms):
            hist = state.histograms[name]
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
        if state.shared:
            state.blob = blob
        return blob

    @classmethod
    def unpack(cls, blob: bytes) -> "MetricsRegistry":
        """Inverse of :meth:`pack`.  A truncated or corrupt blob raises
        :class:`~repro.obs.sinks.ObsFormatError` naming where it broke."""
        registry = cls()
        state = registry._state
        version, at = _read_varint(blob, 0)
        if version != _PACK_VERSION:
            raise ObsFormatError(f"unknown metrics pack version {version}")
        n_counters, at = _read_varint(blob, at)
        for _ in range(n_counters):
            name, at = _read_str(blob, at)
            label, at = _read_str(blob, at)
            value, at = _read_varint(blob, at)
            state.counters[(name, label)] = value
        n_hists, at = _read_varint(blob, at)
        for _ in range(n_hists):
            name, at = _read_str(blob, at)
            start = at
            n_buckets, at = _read_varint(blob, at)
            buckets = []
            for _ in range(n_buckets):
                bound, at = _read_varint(blob, at)
                buckets.append(bound)
            try:
                hist = Histogram(buckets)
            except ValueError as error:
                raise ObsFormatError(
                    f"corrupt metrics blob: histogram {name!r} at offset "
                    f"{start}: {error}"
                ) from None
            counts = []
            for _ in range(n_buckets + 1):
                count, at = _read_varint(blob, at)
                counts.append(count)
            hist.counts = counts
            hist.count, at = _read_varint(blob, at)
            hist.total, at = _read_varint(blob, at)
            if hist.count:
                hist.minimum, at = _read_varint(blob, at)
                hist.maximum, at = _read_varint(blob, at)
            state.histograms[name] = hist
        if at != len(blob):
            raise ObsFormatError(
                f"metrics blob has {len(blob) - at} trailing bytes"
            )
        return registry

    # ── JSON artifact form ────────────────────────────────────────────

    def as_payload(self) -> Dict[str, Any]:
        state = self._state
        counters: Dict[str, Dict[str, int]] = {}
        for (name, label) in sorted(state.counters):
            counters.setdefault(name, {})[label] = state.counters[(name, label)]
        return {
            "counters": counters,
            "histograms": {
                name: state.histograms[name].as_payload()
                for name in sorted(state.histograms)
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for name, labels in payload.get("counters", {}).items():
            for label, value in labels.items():
                registry.counters[(name, label)] = int(value)
        for name, hist_payload in payload.get("histograms", {}).items():
            registry.histograms[name] = Histogram.from_payload(hist_payload)
        return registry


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
    sections: List[Tuple[str, Any]] = [("totals", payload.get("totals"))]
    configs = payload.get("configs", {})
    if not isinstance(configs, dict):
        violations.append("configs section is not an object")
        configs = {}
    for name, entry in configs.items():
        sections.append(
            (f"configs[{name}]", entry.get("metrics") if isinstance(entry, dict) else None)
        )
    for where, section in sections:
        if not isinstance(section, dict):
            violations.append(f"{where}: missing metrics object")
            continue
        try:
            registry = MetricsRegistry.from_payload(section)
        except (ObsFormatError, KeyError, TypeError, ValueError) as error:
            violations.append(f"{where}: malformed metrics ({error})")
            continue
        for metric, _ in registry.counters:
            if metric not in _COUNTER_NAMES:
                violations.append(f"{where}: unknown counter metric {metric!r}")
        for metric, hist in registry.histograms.items():
            expected = HISTOGRAM_BUCKETS.get(metric)
            if expected is None:
                violations.append(f"{where}: unknown histogram metric {metric!r}")
            elif hist.buckets != expected:
                violations.append(
                    f"{where}: histogram {metric!r} buckets diverge from the "
                    "pinned vocabulary"
                )
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
