"""Batch-vectorized trial execution: the ``backend="vector"`` engine path.

Monte-Carlo sweeps run hundreds of trials that differ *only* in
``(seed, session)``.  For the ideal-crypto backend those two fields are
nearly inert: party and adversary RNG streams are drawn but never consumed
by the paper's protocols, and the session string only enters HMAC tag
*bytes* — never the validity structure of shares and quorums.  One round of
a supported protocol therefore evolves identically across the whole batch
except for the coin values, and a coin value is a pure function of the
dealt coin key and the trial session —
:func:`repro.crypto.coin.coin_evaluator`, built at most once per coin
index per configuration.  The crypto layer owns the formula and every
encoded byte of it; this module only supplies sessions.

This module exploits that structure as a **table of transitions**.  A
*state* is what an iteration's probe is keyed on (the parties' bits; for
the probabilistic-termination loop also who has halted or is about to).
A state's *row* is derived once: the iteration's outcome — per-party
Proxcensus value/grade, per-round message and signature tallies,
coin-combine success — comes from one probe, and the paper's extraction
``f(b, g, c) = 1 iff slot(b, g) ≥ c`` says the coin matters only through
where its cut falls among the parties' slots, so the row lists, per
*outcome of the cut* (at most n + 1, never one per coin value), the
state that follows and the parties that return.
:func:`_walk` runs every trial from the root state, breadth-first: at
each node, evaluate its trials' coins for the iteration, bucket them by
the child they lead to, stop at a leaf that holds the output template
every trial on that path shares.  No signature, share or message object
is ever materialized per trial, and coins are Python ints, so κ is
unbounded.

The seed only picks which cut a trial's coin lands on, so the table is
seed-free and outlives the batch that filled it: one :class:`_Table` per
configuration — whether :func:`unsupported_reason` admitted it, probes,
rows, coin evaluators, the walked tree and its leaves' templates and
registries — in one LRU keyed by ``TrialSpec.batch_key``, a type-exact
key of the fields that are *not* per-trial identity (``kappa=True`` is
not ``kappa=1``), read off a spec once and cached on it (the specs a
``monte_carlo`` plan stamps share their template's key object).  What
a configuration fixes is paid once per process: its admission (a refusal
is asked again), an outcome class's template.  A trial costs the coins
it reads and the result record it hands back; the rest is paid per run
of same-configuration specs: nothing per trial constructs a
``TrialSpec`` or a key, the chunk executor consults its group dict once
per run of specs whose key is (or equals) the previous one, and the walk
looks each node up once for all the trials that reach it.  Every model
builds its results in one place, :func:`_materialize`: a trial is a
pointer to its outcome class — one template per leaf (per coin value on
a valued leaf), verdict included, copied into a result only where
someone reads it — and a leaf's round count and tally rows are derived
once and every trial on it is stamped with the same frozen rows.

The transition itself is not re-derived by hand: it is obtained by running
the *object simulator* once per state on a single-iteration probe
program (the exact wire behavior of one ``Π_iter`` segment, including the
real adversary instance).  Nor is the probe program: it is the
protocol's own statement of its iteration
(:class:`repro.core.iteration.Iteration` — slots, Proxcensus, coin index,
subsession) run up to, but not through, extraction, and each row names
the statement it extracts from, so the walk reads the slot count and
the coin's index, range and session off the row.  A fixed-round BA's
model is one :func:`_fixed_round` over its
:class:`~repro.core.ba.FixedRoundBA` statement — iterations, length and
every iteration read off the record the program runs.  That
makes the vector backend bit-identical to the reference by
construction — the only arithmetic this module trusts is
the coin evaluator, :func:`repro.core.extraction.extract`'s closed form
and the slot positions it is property-tested against
(:func:`repro.proxcensus.base.slot_index`), all covered by the
equivalence suite in ``tests/engine/test_vectorized.py``.

**A coin is evaluated only where a party reads it.**  Honest parties sit
on two adjacent slots and pre-agreed ones on the extremal slot, where
``f`` is constant in ``c``; a row whose parties all sit on extremal
slots (or lack a coin, or — in the probabilistic-termination loop — keep
their graded value) leads to one next state whatever the coin, so the
walk skips the evaluator there, and a batch that never reads iteration
*k*'s coin never builds it.  This is exact, not approximate: a coin's
value enters a trial only through ``extract``, and no check consumes it.
The object path still flips every coin — the protocol really sends those
shares.

Metrics are native to this path.  Every probe runs with a
:class:`~repro.obs.metrics.MetricsRegistry` attached and keeps an
un-finalised copy of it beside its tallies: a delivery tally keyed by
round, not yet turned into counters.  Each model reports the leaf every
trial ended on, and a trial's registry is the sum of the copies on the
leaf's path, each tally shifted to the rounds its probe stood for, plus
``finalize_trial`` of its result — whose ``finalize_delivery`` derives
the counters, exactly as it does for a registry observing the object
simulator.  The leaf keeps that registry, so each outcome class is
composed once per process.  All metric names stay in
``repro.obs.metrics``; this module only names which probes ran when.

Anything the model cannot express — the real-RSA backend, trace
collection, (protocol, adversary) pairs no model in :data:`_MODELS` serves,
non-bit inputs, exotic adversary parameters — falls back per-spec to
:func:`repro.engine.runner.run_trial`, which is the same code path
``backend="object"`` uses, so results (and registries) are identical
either way.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from collections import Counter, OrderedDict
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.ablation import BA_ONE_HALF_GENERALIZED, BA_ONE_THIRD_CHUNKED
from ..core.ba import BA_ONE_HALF, BA_ONE_THIRD, FixedRoundBA, iteration_one_half
from ..core.feldman_micali import FELDMAN_MICALI
from ..core.micali_vaikuntanathan import MICALI_VAIKUNTANATHAN, MV_PKI
from ..core.extraction import coin_range, extract
from ..core.iteration import Iteration, threshold_coin_factory
from ..core.probabilistic import (
    FM_MAX_ITERATIONS,
    ProbTermOutput,
    iteration_fm_probabilistic,
)
from ..core.turpin_coan import (
    MULTIVALUED_BA,
    TURPIN_COAN_BA,
    multivalued_prefix,
    turpin_coan_prefix,
)
from ..crypto.coin import coin_evaluator
from ..crypto.vrf_coin import vrf_coin_extractor, vrf_evaluator
from ..network.metrics import RunMetrics
from ..network.simulator import ExecutionResult
from ..obs.metrics import MetricsRegistry
from ..proxcensus.base import slot_index
from .plan import TrialSpec, _stamp_trial
from .registry import LIFT_DEFAULT, build_adversary
from .runner import (
    TrialExecutionError,
    _build_simulator,
    _run_indexed_trial,
    _suite_for,
    run_trial,
)

__all__ = [
    "VectorModelError",
    "clear_probe_cache",
    "exact_law",
    "execute_chunk",
    "probe_cache_stats",
    "run_vector_batch",
    "unsupported_reason",
]


class VectorModelError(RuntimeError):
    """A vector-model invariant failed; callers fall back to the object path."""


# Probe executions run under a fixed session: transitions are
# session-independent (see module docstring), so any tag works.
_PROBE_SESSION = "vector-probe"


@dataclasses.dataclass(eq=False)
class _Table:
    """One configuration's table — everything its batches derive from its
    probes: ``probes`` by token, ``rows`` by state, ``coins`` (evaluators)
    by the coin index a row names and ``top``, the walk's first node with
    every child visited so far, whose leaves own their templates and
    finalized registries, ``admitted`` whether :func:`unsupported_reason`
    admitted its configuration and ``batched`` whether a batch ran on it.
    A configuration has one model, so tokens, states and coins are that
    model's own."""

    probes: Dict[Any, Any] = dataclasses.field(default_factory=dict)
    rows: Dict[Any, "_Row"] = dataclasses.field(default_factory=dict)
    coins: Dict[Any, Any] = dataclasses.field(default_factory=dict)
    top: Optional["_Node"] = None
    admitted: bool = False
    batched: bool = False


# spec.batch_key → that configuration's table: the one cross-batch
# cache, a bounded LRU, so pooled chunks — many small batches of the same
# configurations — find their tables warm.
# Hits count batches that found their table, misses probes run on the
# object simulator; both feed the ``probe_cache`` telemetry spans.
_TABLES: "OrderedDict[Any, _Table]" = OrderedDict()
_TABLE_LIMIT = 256
_HITS = _MISSES = 0


def _entry(spec: TrialSpec) -> _Table:
    """``spec``'s configuration's table, now most recent; new on a miss."""
    key = spec.batch_key
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _Table()
        while len(_TABLES) > _TABLE_LIMIT:
            _TABLES.popitem(last=False)
    else:
        _TABLES.move_to_end(key)
    return table


def _table(spec: TrialSpec) -> _Table:
    """The table a batch of ``spec``'s configuration runs on: a hit if
    an earlier batch ran on it."""
    global _HITS
    table = _entry(spec)
    _HITS += table.batched
    table.batched = True
    return table


def _verdict(spec: TrialSpec) -> Optional[str]:
    """:func:`unsupported_reason` of ``spec``'s configuration.  An
    admission is kept in its table and asked once; a refusal, or any
    verdict on a key that cannot hash, is asked afresh and takes no
    table."""
    try:
        table = _TABLES.get(spec.batch_key)
    except (TypeError, ValueError):
        return unsupported_reason(spec)
    if table is not None and table.admitted:
        return None
    reason = unsupported_reason(spec)
    if reason is None:
        _entry(spec).admitted = True
    return reason


def _probed(table: _Table, token: Any, build: Callable[[], Any]) -> Any:
    """The table's probe ``token``; ``build()`` runs it on a miss."""
    global _MISSES
    probe = table.probes.get(token)
    if probe is None:
        _MISSES += 1
        probe = table.probes[token] = build()
    return probe


def probe_cache_stats() -> Dict[str, int]:
    """Lifetime counters of the configuration cache for this process:
    ``hits`` (batches whose table was cached), ``misses`` (probes run on
    the object simulator), ``size`` / ``limit`` (configurations held)."""
    return dict(hits=_HITS, misses=_MISSES, size=len(_TABLES), limit=_TABLE_LIMIT)


def clear_probe_cache() -> None:
    """Drop every configuration's table — admission, probes, rows, coin
    evaluators and the registries and templates its leaves own — and
    reset the hit/miss counters."""
    global _HITS, _MISSES
    _TABLES.clear()
    _HITS = _MISSES = 0


@dataclasses.dataclass(frozen=True, eq=False)
class _Delivery:
    """What one probe execution put on the wire, in both metric vocabularies.

    ``metrics`` is the probe's ``RunMetrics``; ``contribution`` is an
    un-finalised copy of the ``MetricsRegistry`` that observed the same
    deliveries: its delivery tally not yet turned into counters, so
    :meth:`MetricsRegistry.from_deliveries` can shift it by rounds.
    """

    metrics: RunMetrics
    contribution: MetricsRegistry

    @property
    def rounds(self) -> int:
        return self.metrics.rounds


#: One trial's walk through cached probes: each delivery replayed
#: ``round_offset`` rounds after the trial's start.
_Path = Tuple[Tuple[_Delivery, int], ...]


def _freeze_delivery(result: ExecutionResult, registry: MetricsRegistry) -> _Delivery:
    """Freeze what ``registry`` and ``result.metrics`` saw of one probe run."""
    return _Delivery(result.metrics, registry.copy())


@dataclasses.dataclass(eq=False)
class _Leaf:
    """Where a walk ends: the result every trial on one path shares.

    ``outputs`` and ``finish`` are templates in the simulator's recording
    order (parties return in (round, pid) order), so results built from
    them are bit-identical down to dict insertion order.  ``path`` is
    one tuple shared by every trial that ends here; its ``metrics`` —
    each delivery's rows shifted by its offset — follow from it and are
    built once, here.  ``coins`` is
    how many coins a trial evaluated on the way.  A coin model's leaf is
    ``valued``: its trials output their own coin, ``outputs`` says which
    parties hold it, and the coin keys each outcome class that ended
    here (else there is one, at ``None``): ``templates`` holds its
    :meth:`ExecutionResult.template`, ``classes`` its finalized registry.
    """

    outputs: Dict[int, Any]
    finish: Dict[int, int]
    corrupted: frozenset
    path: _Path
    coins: int = 0
    valued: bool = False

    def __post_init__(self) -> None:
        self.metrics = RunMetrics(
            max((at + step.rounds for step, at in self.path), default=0),
            tuple(
                (at + round_index, hm, cm, hs, cs)
                for step, at in self.path
                for round_index, hm, cm, hs, cs in step.metrics.rows
            ),
        )
        self.templates: Dict[Any, Any] = {}
        self.classes: Dict[Any, MetricsRegistry] = {}

    def template(self, value: Any, inputs: Sequence[Any]):
        """The template of the class of coin ``value`` (``None`` on a leaf
        that is not valued), verdict included, built on first ask."""
        template = self.templates.get(value)
        if template is None:
            outputs = self.outputs if not self.valued else {
                pid: value if held else None for pid, held in self.outputs.items()
            }
            template = ExecutionResult.template(
                outputs, self.corrupted, dict(enumerate(inputs)), self.finish
            )
            if len(self.templates) < _VALUED_CLASSES:
                self.templates[value] = template
        return template


#: A valued leaf keeps this many classes — one per coin value it has
#: seen; a trial of any further class builds its own template and
#: composes its own registry.
_VALUED_CLASSES = 256

#: What a batch returns: per spec its result, leaf and coin (read only
#: on a valued leaf), and how many coins the batch read.
_Batch = Tuple[List[ExecutionResult], List[_Leaf], Sequence[Any], int]


def _materialize(
    leaves: List[_Leaf], inputs: Sequence[Any], values: Sequence[Any] = ()
) -> _Batch:
    """One ``ExecutionResult`` per trial of a batch, its leaf and coin,
    and the coins read.

    Every model's ``run_batch`` ends here.  ``leaves[row]`` is where
    trial ``row`` ended.  Every trial on one leaf — on a ``valued`` leaf,
    every trial whose coin ``values[row]`` its parties hold — is one
    outcome class, stamped from the template its leaf keeps
    (:meth:`_Leaf.template`) — or, for a class past those a leaf keeps,
    from one the batch keeps: a result copies the template's containers
    only when first read, and shares the leaf's one ``RunMetrics``.
    """
    stamp = ExecutionResult.stamp
    results = []
    spilled: Dict[Tuple[int, Any], Any] = {}
    for row, leaf in enumerate(leaves):
        value = values[row] if leaf.valued else None
        template = leaf.templates.get(value) or spilled.get((id(leaf), value))
        if template is None:
            template = spilled[id(leaf), value] = leaf.template(value, inputs)
        results.append(stamp(template, leaf.metrics))
    return results, leaves, values, sum(leaf.coins for leaf in leaves)


@dataclasses.dataclass(frozen=True)
class _IterationProbe:
    """The batch-invariant outcome of one iteration for one configuration.

    ``values``/``grades`` are the per-party Proxcensus outputs (already
    passed through ``Π_iter``'s non-bit guard; ``None`` for a party that
    had returned before the iteration and sent nothing), ``coin_ok``
    whether each party's coin combine succeeds (a structural fact: share
    counts), ``candidates`` what a multivalued lift's probe returns
    beside them, ``delivery`` what the iteration's rounds put on the
    wire, and ``corrupted`` the corruption set after the iteration.
    """

    values: Tuple[Optional[int], ...]
    grades: Tuple[Optional[int], ...]
    coin_ok: Tuple[bool, ...]
    candidates: Tuple[Any, ...]
    delivery: _Delivery
    corrupted: frozenset


def _bad_range(params: Dict[str, Any]) -> bool:
    """Whether ``params``' coin range ``[low, high]`` makes a coin raise."""
    low, high = params.get("low", 0), params.get("high", 1)
    return type(low) is not int or type(high) is not int or low > high


def _model_for(spec: TrialSpec) -> Optional[_Model]:
    """The model in :data:`_MODELS` that serves ``spec``'s (protocol,
    adversary) pair, or ``None``."""
    model = _MODELS.get(spec.protocol)
    if model is None or spec.adversary not in model.adversaries:
        return None
    return model


def unsupported_reason(spec: TrialSpec) -> Optional[str]:
    """Why this spec cannot take the vector path (``None`` = it can).

    The checks are deliberately conservative: any configuration whose
    object-path behavior the vector models have not proven to reproduce —
    including ones where the object path would *raise* — is routed to the
    object simulator.  It reads the spec's :class:`_Model` record and
    builds each reason here, once: the strings telemetry tallies.
    """
    if spec.faults is not None:
        # The models simulate the clean synchronous network only.
        return f"fault injection ({spec.faults!r}) is not vectorizable"
    if spec.backend != "ideal":
        return "real-RSA backend"
    model = _model_for(spec)
    if model is None:
        return f"no vector model registered for ({spec.protocol!r}, {spec.adversary!r})"
    if model.bits:
        for value in spec.inputs:
            # Strict ints only: bool inputs pass the protocols' `bit in
            # (0, 1)` check but tangle value identity in repr-keyed
            # tallies — the object path handles them, so they simply are
            # not vectorized.
            if type(value) is not int or value not in (0, 1):
                return f"non-bit input {value!r}"
    else:
        try:
            hash(spec.inputs)
        except TypeError:
            return "unhashable inputs"
    params = spec.param_dict
    if model.params is not None:
        # κ, where accepted, is required: its builders have no default.
        if not model.params & _KAPPA <= set(params) <= model.params:
            return f"unsupported protocol params {sorted(params)}"
        kappa = params.get("kappa", 1)
        if type(kappa) is not int or kappa < 1:
            return f"unsupported kappa {kappa!r}"
        if _bad_range(params):
            return "invalid coin range (object path raises)"
        regime = params.get("regime", "one_third")
        if regime != "one_third":
            return f"regime {regime!r} not modeled (multi-coin inner BA)"
    k = model.regime
    if k is not None and k * spec.max_faulty >= spec.num_parties:
        return f"regime violation {k}t >= n (object path raises)"
    if model.length is not None:
        try:
            length = model.length(params)
        except (TypeError, ValueError):
            return f"protocol params {params!r} rejected (object path raises)"
        if spec.max_rounds < length:
            if model.capped:
                return "max_rounds below the iteration cap (object path may raise)"
            return "max_rounds below protocol length (object path raises)"
    if spec.adversary is None:
        return None
    adversary = spec.adversary_param_dict
    if not set(adversary) <= model.adversaries[spec.adversary]:
        return f"unsupported adversary params {sorted(adversary)}"
    victims = adversary.get("victims")
    if not isinstance(victims, tuple) or not victims:
        return "adversary victims missing or not a sequence"
    for victim in victims:
        if type(victim) is not int or not (0 <= victim < spec.num_parties):
            return f"victim {victim!r} out of range"
    if len(set(victims)) > spec.max_faulty:
        return "corruption budget exceeded (object path raises)"
    if model.row is not None:
        # A walk rebuilds the adversary for each single-iteration probe:
        # proven for tuple down_groups and the standard iteration only.
        down_group = adversary.get("down_group")
        if down_group is not None and not isinstance(down_group, tuple):
            return "unsupported down_group value"
        if adversary.get("iteration_rounds", 3) != iteration_one_half(0).rounds:
            return "straddle12 with non-standard iteration_rounds"
    return model.adversary_check(spec)


# The name ``repro.engine`` exports it under.
vector_unsupported_reason = unsupported_reason


def run_vector_batch(specs: Sequence[TrialSpec]) -> List[ExecutionResult]:
    """Execute same-configuration supported specs as one batch.

    All specs must share a ``batch_key`` and be admitted by
    :func:`unsupported_reason`; results come back in spec order and are
    bit-identical to ``run_trial`` on each spec.
    """
    specs = list(specs)
    if not specs:
        return []
    first = specs[0]
    key = first.batch_key
    if any(spec.batch_key != key for spec in specs):
        raise VectorModelError("batch mixes configurations")
    reason = _verdict(first)
    if reason is not None:
        raise VectorModelError(f"unsupported spec in vector batch: {reason}")
    return _model_for(first).run_batch(specs)[0]


def _compose_registries(
    members: Sequence[Tuple[int, TrialSpec]],
    leaves: Sequence[_Leaf],
    values: Sequence[Any],
    metrics: Dict[int, Any],
) -> None:
    """Fill ``metrics`` with one registry per batched trial.

    A trial's registry is the round-shifted sum of the probe deliveries
    on its leaf's path, finalized with its class's result — exactly what
    a registry observing the object simulator would hold.  A finalized
    registry is read-only, so each outcome class is composed once, kept
    by its leaf, and every trial of the class gets that one object.  A
    class is a leaf and, on a valued leaf, a coin; a new one is finalized
    from its template's containers, so no trial's result is read.
    """
    inputs = members[0][1].inputs
    for row, ((index, _), leaf) in enumerate(zip(members, leaves)):
        value = values[row] if leaf.valued else None
        registry = leaf.classes.get(value)
        if registry is None:
            registry = MetricsRegistry.from_deliveries(
                (delivery.contribution, offset) for delivery, offset in leaf.path
            )
            template = leaf.template(value, inputs)
            registry.finalize_trial(ExecutionResult(
                template.outputs, template.corrupted, leaf.metrics,
                template.inputs, template.finish_rounds,
            ))
            if len(leaf.classes) < _VALUED_CLASSES:
                leaf.classes[value] = registry
        metrics[index] = registry


def execute_chunk(
    chunk: Sequence[Tuple[int, TrialSpec]],
    trace_dir: Optional[str] = None,
    metrics: Optional[Dict[int, Any]] = None,
) -> Tuple[List[Tuple[int, ExecutionResult]], Dict[str, Any]]:
    """Run a chunk of (index, spec) pairs, batching what the models support.

    The vector entry point the runner uses for ``backend="vector"``:
    eligible specs are grouped by ``TrialSpec.batch_key`` and executed
    in one batch each; everything else (plus whole batches whose probe
    invariants fail) takes the object simulator.  Returns the results in
    chunk order plus batching stats for telemetry: ``{"batched",
    "fallback", "coins", "batches": [{"config", "size"}, ...],
    "cache_hits", "cache_misses", "fallback_reasons": {reason: count}}``
    — ``coins`` counts the ``coin_evaluator`` evaluations the batches
    made, a pure function of the chunk's specs; the reason tally is what
    makes a silent fallback visible in ``repro error-sweep --telemetry``
    and what its ``--vector`` exit audits.

    ``metrics`` (a mutable index → registry mapping, filled in place)
    requests per-trial metrics collection, and costs no fallback: every
    probe runs with a registry attached, each model reports the probes a
    trial walked, and :func:`_compose_registries` sums them into the
    registry the object simulator would have produced — equal counter
    for counter, which is what makes vector-with-metrics artifacts
    byte-identical to serial/pooled ones.  Specs that fall back for
    another reason collect their registry on the object path.  Tracing
    needs the per-message deliveries themselves, so ``trace_dir`` still
    sends every spec to the object simulator.
    """
    cache_before = probe_cache_stats()
    results: Dict[int, ExecutionResult] = {}
    groups: Dict[Tuple[Any, ...], List[Tuple[int, TrialSpec]]] = {}
    fallback: List[Tuple[int, TrialSpec]] = []
    reasons: Counter = Counter()
    # Grouping by key is the proof that no batch mixes configurations,
    # and unsupported_reason reads no per-trial field: one reason per
    # configuration, kept in its table.  A run of specs with one key — a
    # monte_carlo plan's specs share the key object — joins its group
    # with one dict lookup.
    last: Any = None
    members: List[Tuple[int, TrialSpec]] = []
    for member in chunk:
        spec = member[1]
        if trace_dir is not None:
            reasons["trace collection requested"] += 1
            fallback.append(member)
            continue
        key = spec.batch_key
        try:
            if key is not last and key != last:
                members = groups.setdefault(key, [])
                last = key
        except (TypeError, ValueError):
            # A field value that cannot be hashed (or compared, like an
            # array) cannot key a group; such a spec keeps its named
            # per-spec fallback, and the run it interrupts goes on.
            reason = unsupported_reason(spec)
            if reason is None:
                raise
            reasons[reason] += 1
            fallback.append(member)
            continue
        members.append(member)

    batches: List[Dict[str, Any]] = []
    coins = 0
    for members in groups.values():
        specs = [spec for _, spec in members]
        first = specs[0]
        reason = _verdict(first)
        if reason is None:
            try:
                outcomes, leaves, values, read = _model_for(first).run_batch(specs)
            except VectorModelError as exc:
                # A probe invariant failed — the conservative answer is
                # the reference simulator, which is always correct.
                reason = f"vector model error: {exc}"
            except Exception as error:
                # A bug in the model or its probe: name the batch's first
                # member, whose spec replays it.
                original = f"{type(error).__name__}: {error}"
                cause = f"vector batch of {len(members)} trials: {original}"
                raise TrialExecutionError(*members[0], cause) from error
        if reason is not None:
            reasons[reason] += len(members)
            fallback.extend(members)
            continue
        coins += read
        for (index, _), result in zip(members, outcomes):
            results[index] = result
        if metrics is not None:
            _compose_registries(members, leaves, values, metrics)
        batches.append({"config": first.config_key, "size": len(members)})
    for index, spec in fallback:
        results[index] = _run_indexed_trial(index, spec, trace_dir, metrics)
    cache_after = probe_cache_stats()
    stats = {
        "batched": len(chunk) - len(fallback),
        "fallback": len(fallback),
        "coins": coins,
        "batches": batches,
        "cache_hits": cache_after["hits"] - cache_before["hits"],
        "cache_misses": cache_after["misses"] - cache_before["misses"],
        "fallback_reasons": dict(reasons),
    }
    return [(index, results[index]) for index, _ in chunk], stats


# ── Models as records ────────────────────────────────────────────────────


@dataclasses.dataclass(frozen=True, eq=False)
class _Model:
    """One vector model, as data: what it serves and how it runs.

    Every model is the paper's one construction — a Proxcensus
    expansion, a threshold coin, the extraction ``f(b, g, c)`` — run
    once, ⌈κ/2⌉ times or until parties halt, or a whole run no coin
    steers, so models differ only in these fields.
    :func:`unsupported_reason` reads ``adversaries`` (each served, the
    honest ``None`` among them, with the params it accepts), ``bits``
    (strict-bit inputs, else hashable ones), ``params`` (the protocol
    params accepted; ``None`` takes the protocol's own as given),
    ``regime`` (the ``k`` of ``t < n/k``), ``length(params)`` (the
    fewest rounds ``max_rounds`` must allow: the protocol's length, or
    where ``capped`` its iteration cap) and ``adversary_check(spec)``
    (what the model adds for a named adversary whose victims pass).
    ``exact`` marks a model :func:`exact_law` can expand.

    A walk model supplies ``root(first)`` — the state every trial starts
    in — and ``row(first, state)``, whose :class:`_Row` names the
    iteration, and so the coin, it extracts from (see :func:`_walk`);
    any other supplies ``batch(specs)``.  :meth:`run_batch` runs either.
    """

    adversaries: Dict[Optional[str], frozenset]
    bits: bool = False
    params: Optional[frozenset] = None
    regime: Optional[int] = None
    length: Optional[Callable[[Dict[str, Any]], int]] = None
    capped: bool = False
    adversary_check: Callable[[TrialSpec], Optional[str]] = lambda spec: None
    root: Optional[Callable[[TrialSpec], Any]] = None
    row: Optional[Callable[[TrialSpec, Any], "_Row"]] = None
    batch: Optional[Callable[[Sequence[TrialSpec]], Any]] = None
    exact: bool = False

    def run_batch(self, specs: Sequence[TrialSpec]) -> _Batch:
        return _walk(self, specs) if self.batch is None else self.batch(specs)


#: The params each adversary's builder takes: all a model can accept.
_ADVERSARY_PARAMS = {
    None: frozenset(),
    "straddle13": frozenset({"victims", "down_group"}),
    "straddle12": frozenset({"victims", "iteration_rounds"}),
    "bare_straddle12": frozenset({"victims", "iteration_rounds"}),
    "two_face": frozenset({"victims"}),
    "withhold_coin": frozenset({"victims", "index", "low", "high", "preferred", "session"}),
}
_KAPPA = frozenset({"kappa"})
_COIN_PARAMS = frozenset({"index", "low", "high"})


def _serving(*adversaries: str) -> Dict[Optional[str], frozenset]:
    """The honest run and ``adversaries``, each with the params it takes."""
    return {name: _ADVERSARY_PARAMS[name] for name in (None, *adversaries)}


def _cut_row(
    values: Sequence[Optional[int]],
    grades: Sequence[Optional[int]],
    coin_ok: Sequence[bool],
    slots: int,
) -> Tuple[List[int], List[Tuple[Optional[int], ...]]]:
    """Where a coin's cut can fall among the parties, and the bits each
    outcome leaves: ``(cuts, bits per outcome)``.

    ``f(b, g, c) = 1 iff slot(b, g) ≥ c``, so the parties' bits change
    only where ``c`` passes a held slot.  ``cuts`` lists, ascending, the
    inner slots held by a party whose coin combines: coin ``c`` lands on
    outcome ``bisect_left(cuts, c)`` and every coin of an outcome
    extracts the same bits.  The extremal slots 0 and ``s − 1`` are
    constant over the whole range ``[1, s − 1]`` and a party without a
    coin extracts at the default 1, so neither makes a cut, and a row
    without cuts reads no coin.  A ``None`` value marks a party that no
    longer extracts; its bit is ``None``.
    """
    top = slots - 1
    parties = list(zip(values, grades, coin_ok))
    cuts = sorted(
        {
            slot_index(value, grade, slots)
            for value, grade, ok in parties
            if ok and value is not None
        }
        - {0, top}
    )
    return cuts, [
        tuple(
            None if value is None else extract(value, grade, coin if ok else 1, slots)
            for value, grade, ok in parties
        )
        for coin in (*cuts, top)  # one coin of each outcome
    ]


#: What a branch of a row says: the state that follows (``None`` when
#: every party has returned) and the ``(pid, output)`` of the parties
#: that return at the end of this iteration, in pid order.
_Branch = Tuple[Any, Tuple[Tuple[int, Any], ...]]


@dataclasses.dataclass(frozen=True, eq=False)
class _Row:
    """A state's transitions: the :class:`Iteration` it extracts from —
    its coin's index, subsession and range ``coin_range(slots)`` — what
    its probe put on the wire, whom it left corrupted, and one
    :data:`_Branch` per outcome of the cut (``len(cuts) + 1`` of them;
    see :func:`_cut_row`).  Only the origin row, before the first
    iteration, has no ``iteration``."""

    iteration: Optional[Iteration]
    delivery: _Delivery
    corrupted: frozenset
    cuts: List[int]
    branches: Sequence[_Branch]


class _Node:
    """A state reached along one path from the root, and the children
    already visited from it, by outcome.  ``coin``/``suffix`` are set
    only where the row reads its coin; ``rounds`` counts the trial's
    rounds through this iteration, ``reads`` the coins it has read."""

    __slots__ = (
        "row", "path", "rounds", "outputs", "finish", "reads", "children",
        "coin", "suffix",
    )

    def __init__(self, row: _Row, path: _Path, rounds: int, outputs, finish, reads):
        self.row, self.path, self.rounds = row, path, rounds
        self.outputs, self.finish, self.reads = outputs, finish, reads
        self.children: List[Any] = [None] * len(row.branches)
        self.coin, self.suffix = None, ""


def _grow(model: _Model, first: TrialSpec, node: _Node, outcome: int) -> Any:
    """Visit ``node``'s child on ``outcome``: the one step that turns a
    row's branch into a :class:`_Node` or, once every party has
    returned, a :class:`_Leaf`.

    It fills ``first``'s table: ``row`` is asked once per distinct
    state, and the evaluator of the coin a row's iteration names is
    built on the first visit to a row that reads it.  A leaf carries the
    corruption set of the last probe on its own path; corruptions never
    heal, so a probe reporting fewer than its predecessor is a
    :class:`VectorModelError`.
    """
    table = _TABLES[first.batch_key]
    state, returning = node.row.branches[outcome]
    outputs = {**node.outputs, **dict(returning)}
    finish = {**node.finish, **{pid: node.rounds for pid, _ in returning}}
    if state is None:
        child: Any = _Leaf(outputs, finish, node.row.corrupted, node.path, node.reads)
    else:
        row = table.rows.get(state)
        if row is None:
            row = table.rows[state] = model.row(first, state)
        if not row.corrupted >= node.row.corrupted:
            raise VectorModelError(
                f"probe of state {state!r} healed corruptions "
                f"{sorted(node.row.corrupted - row.corrupted)}"
            )
        child = _Node(
            row,
            node.path + ((row.delivery, node.rounds),),
            node.rounds + row.delivery.rounds,
            outputs,
            finish,
            node.reads + bool(row.cuts),
        )
        if row.cuts:
            index = row.iteration.coin_index
            if index not in table.coins:
                table.coins[index] = _iteration_coin(first, row.iteration)
            child.coin, child.suffix = table.coins[index]
    node.children[outcome] = child
    return child


def _top(model: _Model, first: TrialSpec) -> _Node:
    """The node every trial of ``first``'s configuration starts from."""
    table = _table(first)
    if table.top is None:
        # Before the first iteration: nothing walked, one way on.
        origin = _Row(None, None, frozenset(), [], [(model.root(first), ())])
        table.top = _grow(model, first, _Node(origin, (), 0, {}, {}, 0), 0)
    return table.top


def exact_law(spec: TrialSpec):
    """``spec``'s configuration as exact laws: ``((P(disagree),
    E[rounds], E[coins read]), None)`` as ``Fraction``s, or ``(None,
    reason)`` where there is none.

    At a row, coin ``c`` in ``coin_range(slots) = [low, high]`` lands on
    outcome ``bisect_left(cuts, c)``, so outcome ``k`` covers the coins
    of ``(bounds[k], bounds[k + 1]]``, ``bounds = [low − 1, *cuts,
    high]``.  Every child of every row is visited with :func:`_grow` —
    the step the sampled walk takes — and weighted by its width over
    ``high − low + 1``.  Only a fixed-round model's tree is finite and
    its leaves' outcomes coin-free.  The expansion fills a table of its
    own, so the configuration's cached table — and what later batches
    probe — is as it was.
    """
    reason = unsupported_reason(spec)
    model = _model_for(spec)
    if reason is None and not model.exact:
        reason = f"no exact law for {spec.protocol!r}"
    if reason is not None:
        return None, reason
    key = spec.batch_key
    cached = _TABLES.pop(key, None)
    disagree = rounds = coins = Fraction(0)
    try:
        pending = [(_top(model, spec), Fraction(1))]
        while pending:
            node, weight = pending.pop()
            low, high = coin_range(node.row.iteration.slots)
            bounds = [low - 1, *node.row.cuts, high]
            for outcome, child in enumerate(node.children):
                if child is None:
                    child = _grow(model, spec, node, outcome)
                width = bounds[outcome + 1] - bounds[outcome]
                reach = weight * Fraction(width, high - low + 1)
                if child.__class__ is not _Leaf:
                    pending.append((child, reach))
                    continue
                disagree += reach * (not child.template(None, spec.inputs).agree)
                rounds += reach * child.metrics.rounds
                coins += reach * child.coins
    finally:
        _TABLES.pop(key, None)
        if cached is not None:
            _TABLES[key] = cached
    return (disagree, rounds, coins), None


def _walk(model: _Model, specs: Sequence[TrialSpec]) -> _Batch:
    """Walk every trial down ``model``'s transition table, breadth-first.

    The table is the configuration's :class:`_Table`, kept across
    batches.  The trials at a node move on together: where its row reads
    a coin, each trial's coin is evaluated and ``bisect``ed into the
    row's cuts, and each outcome's trials follow that child —
    :func:`_grow` visits it the first time — until they reach a leaf.
    A level is one iteration, so coin evaluators are built in iteration
    order.
    """
    first = specs[0]
    sessions = [spec.session for spec in specs]
    leaves: List[Any] = [None] * len(specs)
    level = [(_top(model, first), range(len(specs)))]  # (node, trials at it)
    while level:
        deeper = []
        for node, trials in level:
            cuts = node.row.cuts
            if cuts:
                coin, suffix = node.coin, node.suffix
                outcomes: List[Any] = [[] for _ in range(len(cuts) + 1)]
                for trial in trials:
                    outcome = bisect_left(cuts, coin(sessions[trial] + suffix))
                    outcomes[outcome].append(trial)
            else:
                outcomes = [trials]
            for outcome, reached in enumerate(outcomes):
                if not reached:
                    continue
                child = node.children[outcome]
                if child is None:
                    child = _grow(model, first, node, outcome)
                if child.__class__ is _Leaf:
                    for trial in reached:
                        leaves[trial] = child
                else:
                    deeper.append((child, reached))
        level = deeper
    return _materialize(leaves, first.inputs)


def _all_return(bits: Tuple[int, ...]) -> _Branch:
    """The branch of a protocol's last iteration: every party returns its bit."""
    return None, tuple(enumerate(bits))


def _extraction_row(
    probe: Any, iteration: Iteration, then: Callable[[Tuple[int, ...]], _Branch]
) -> _Row:
    """The row of a ``Π_iter`` probe that extracts from ``iteration``'s
    coin: ``then(bits)`` per outcome of the cut."""
    cuts, outcomes = _cut_row(
        probe.values, probe.grades, probe.coin_ok, iteration.slots
    )
    return _Row(
        iteration, probe.delivery, probe.corrupted, cuts,
        [then(bits) for bits in outcomes],
    )


def _simulate_probe(
    spec: TrialSpec, factory, inputs: Sequence[Any], adversary=None
) -> Tuple[ExecutionResult, _Delivery]:
    """Run a probe program on the object simulator, metrics attached.

    Fixed seed and session (see :func:`_run_probe`).  Every probe carries
    a registry: probes are cached, so the collector's cost is paid once
    per configuration and metrics need no second kind of probe.
    """
    registry = MetricsRegistry()
    simulator = _build_simulator(
        _stamp_trial(spec, 0, _PROBE_SESSION), adversary, (registry,)
    )
    result = simulator.run(factory, list(inputs))
    return result, _freeze_delivery(result, registry)


def _run_probe(
    spec: TrialSpec,
    token: Any,
    inputs: Sequence[Any],
    factory,
    rounds: int,
    returned: Sequence[int] = (),
) -> _IterationProbe:
    """One object-simulator execution of a single-iteration probe program.

    Memoized under ``token`` in the table of the spec's configuration —
    which the batch asking has fetched — so two specs differing only in
    per-trial identity share the probe.  The probe runs under a fixed
    session and seed — legitimate because supported protocols never
    consume party/adversary RNG streams and signature *structure* is
    session-independent; only coin values differ, and those are computed
    per trial by the configuration's
    :func:`~repro.crypto.coin.coin_evaluator`.

    ``factory`` programs return ``(prox_output, coin)`` or ``(prox_output,
    coin, candidate)`` raw, after exactly ``rounds`` rounds; the parties
    in ``returned`` are expected to return before the first instead.
    """

    def execute() -> _IterationProbe:
        adversary = build_adversary(spec.adversary, spec.adversary_param_dict, None)
        result, delivery = _simulate_probe(spec, factory, inputs, adversary)
        parties: List[Tuple[Any, ...]] = []  # (value, grade, coin_ok, candidate)
        for pid in range(spec.num_parties):
            if pid in returned:
                if result.finish_rounds.get(pid) != 0:
                    raise VectorModelError(f"returned probe party {pid} sent messages")
                parties.append((None, None, False, None))
                continue
            output = result.outputs.get(pid)
            if output is None or result.finish_rounds.get(pid) != rounds:
                raise VectorModelError(
                    f"probe party {pid} did not finish in {rounds} rounds"
                )
            (value, grade), coin, *rest = output
            if value not in (0, 1):  # Π_iter's defensive non-bit guard
                value, grade = 0, 0
            candidate = rest[0] if rest else None
            parties.append((int(value), int(grade), coin is not None, candidate))
        if result.metrics.rounds != rounds:
            raise VectorModelError("probe round count mismatch")
        return _IterationProbe(
            *zip(*parties), delivery=delivery, corrupted=frozenset(result.corrupted)
        )

    return _probed(_TABLES[spec.batch_key], token, execute)


def _exchange(iteration: Iteration):
    """The probe program of one iteration: ``core``'s own expand and
    coin-flip, returning ``(prox_output, coin)`` raw — extraction happens
    in the state's row."""
    return lambda ctx, bit: iteration.exchange(ctx, bit, threshold_coin_factory())


def _iteration_coin(first: TrialSpec, iteration: Iteration):
    """``(evaluator, session suffix)`` of the coin ``iteration`` flips."""
    suffix = "" if iteration.subsession is None else f"/{iteration.subsession}"
    low, high = coin_range(iteration.slots)
    return coin_evaluator(_suite_for(first).coin, iteration.coin_index, low, high), suffix


# ── Replay probes: one full reference execution, replicated per trial ────


def _replay_trial(spec: TrialSpec) -> _Leaf:
    """One real ``run_trial`` on ``spec`` (metrics attached), frozen as the
    leaf the configuration's trials end on.

    Unlike :func:`_run_probe` this runs the spec *as given* (its own seed
    and session) through the full object path — registry-resolved factory
    and adversary included — so the probe trial's result is correct by
    definition; replication to other trials rests on the
    session-invariance argument of the module docstring, pinned by the
    equivalence grid.
    """
    registry = MetricsRegistry()
    result = run_trial(spec, (registry,))
    return _Leaf(
        outputs=dict(result.outputs),
        finish=dict(result.finish_rounds),
        corrupted=frozenset(result.corrupted),
        path=((_freeze_delivery(result, registry), 0),),
    )


# Deterministic, coin-free protocol runs.  The Proxcensus family (and the
# other replayed protocols in the table below) consume no coins and no
# party randomness: the entire execution — outputs included — is a pure
# function of the inputs, the corruption schedule and the key material,
# none of which vary inside a batch.  One real trial (full registry
# resolution, real seed/session — correct by definition) is frozen and
# replicated across the batch; bit-identity across sessions is what the
# equivalence grid pins.  The trial runs the spec as given, so its
# protocol params are the protocol's own to accept or reject.


def _replay_batch(specs: Sequence[TrialSpec]) -> _Batch:
    first = specs[0]
    probe = _probed(_table(first), "replay", lambda: _replay_trial(first))
    return _materialize([probe] * len(specs), first.inputs)


def _replay(*adversaries: str) -> _Model:
    return _Model(adversaries=_serving(*adversaries), batch=_replay_batch)


# ── ba_one_third / ba_one_half: a FixedRoundBA's iterations ─────────────


def _fixed_round(ba: FixedRoundBA, adversary: str, *names: str, **defaults: Any) -> _Model:
    """The walk model of ``ba`` × {no adversary, ``adversary``}.

    Iterations are independent segments (the adversary's state is
    per-iteration), so each is one probe per distinct bit configuration:
    a state is ``(bits, iterations left)``, and its row extracts from
    iteration ``iterations(κ) − left``.  ``ba_one_third`` is a single
    iteration, its table one row; in ``ba_one_half``, once the parties
    agree every later row sits on the extremal slots and reads no coin.
    It passes κ, ``names`` and ``defaults`` (the protocol's) as the spec sets them.
    """

    def row(first: TrialSpec, state: Tuple[Tuple[int, ...], int]) -> _Row:
        bits, left = state
        params = {**defaults, **first.param_dict}
        # Any iteration's wire behavior is the first's — the one whose
        # subsession the fresh per-iteration adversary also derives.
        probed = ba.iteration(0, **params)
        probe = _run_probe(first, bits, bits, _exchange(probed), probed.rounds)
        then = _all_return if left == 1 else lambda after: ((after, left - 1), ())
        iteration = ba.iteration(ba.iterations(**params) - left, **params)
        return _extraction_row(probe, iteration, then)

    return _Model(
        adversaries=_serving(adversary), bits=True,
        params=_KAPPA.union(names, defaults), regime=ba.regime,
        length=lambda params: ba.rounds(**{**defaults, **params}),
        root=lambda first: (
            tuple(first.inputs), ba.iterations(**{**defaults, **first.param_dict})
        ),
        row=row, exact=True,
    )


_BA_ONE_THIRD = _fixed_round(BA_ONE_THIRD, "straddle13")
_BA_ONE_HALF = _fixed_round(BA_ONE_HALF, "straddle12")


# ── fm_probabilistic: per-iteration lockstep with halting parties ───────


_FM_HALTED = "h"  # probe token for a party that has already returned


def _fm_probe_program(ctx, token):
    # The loop's first iteration stands for all of them (structure is
    # iteration-independent; only coin *values* differ, derived per
    # trial/iteration).  A halted token returns before the first yield —
    # exactly what a returned party contributes to later rounds: nothing.
    if token == _FM_HALTED:
        return None
    return (yield from _exchange(iteration_fm_probabilistic(1))(ctx, token))


# ``fm_probabilistic`` × no adversary.  A state is ``(iteration, tokens,
# deciding)``: each party's working bit or the halted token, and the
# parties that decided in the previous iteration and return at the end
# of this one.  An iteration's wire dynamics come from one probe per
# token configuration, and the row applies the decide/adopt/coin-flip
# branching of :func:`~repro.core.probabilistic.fm_probabilistic_program`:
# only a party left at grade 0 adopts the coin's bit, so a row reads its
# coin only if one exists.  Parties halt in *different* rounds — the
# model reproduces the termination spread, per-party finish rounds
# included.


def _fm_row(first: TrialSpec, state) -> _Row:
    iteration, tokens, deciding = state
    step = iteration_fm_probabilistic(iteration)
    halted = [pid for pid, token in enumerate(tokens) if token == _FM_HALTED]
    probe = _run_probe(
        first, ("fm-state", tokens), tokens, _fm_probe_program, step.rounds, halted
    )
    idle = {*halted, *deciding}
    running = [pid for pid in range(len(tokens)) if pid not in idle]
    # A party keeping its graded value ignores the coin, as on the
    # extremal slot; the others — the probe's non-bit guard put any
    # non-bit value among them — extract from (0, 0).  Parties that
    # have returned, or return now, extract nothing.
    values: List[Optional[int]] = [None] * len(tokens)
    grades = list(values)
    for pid in running:
        keeps = probe.grades[pid] >= 1
        values[pid], grades[pid] = (probe.values[pid], 2) if keeps else (0, 0)
    decides = tuple(pid for pid in running if probe.grades[pid] == 2)
    # The post-decision helper iteration is done for ``deciding``.
    done = [(pid, ProbTermOutput(tokens[pid], iteration - 1)) for pid in deciding]

    def then(bits: Tuple[Optional[int], ...]) -> _Branch:
        if iteration == FM_MAX_ITERATIONS:
            # The program's cap: still-running parties return the
            # working value with decided_iteration = the cap.
            capped = [(pid, ProbTermOutput(bits[pid], iteration)) for pid in running]
            return None, tuple(sorted(done + capped))  # pids differ
        after = tuple(_FM_HALTED if bit is None else bit for bit in bits)
        return (iteration + 1, after, decides) if running else None, tuple(done)

    kept = dataclasses.replace(probe, values=tuple(values), grades=tuple(grades))
    return _extraction_row(kept, step, then)


_FM_PROBABILISTIC = _Model(
    adversaries=_serving(), bits=True, params=frozenset(), regime=3, capped=True,
    length=lambda params: FM_MAX_ITERATIONS * iteration_fm_probabilistic(1).rounds,
    root=lambda first: (1, tuple(first.inputs), ()), row=_fm_row,
)


# ── turpin_coan_classic / multivalued_ba: deterministic + one inner coin ─


def _lift(subsession: str, prefix, accepted: frozenset) -> _Model:
    """A multivalued lift × no adversary: one state, ``subsession``, and
    one probe of the whole protocol, whose row reads the inner BA's coin.

    The probe runs the lift's own deterministic ``prefix`` — two rounds
    that leave ``(candidate, bit)`` — and then the inner ``ba_one_third``'s
    iteration on ``bit`` without extracting, returning ``(prox_output,
    coin, candidate)``: extraction — and with it each party's choice
    between its candidate and the default — happens in the row.  The
    prefix and the inner BA's Proxcensus are deterministic and
    session-invariant; only the inner coin varies per trial.
    """

    def row(first: TrialSpec, token: str) -> _Row:
        # The inner BA is ba_one_third, run under its own subsession.
        iteration = BA_ONE_THIRD.iteration(0, first.param_dict["kappa"])._replace(
            subsession=subsession
        )
        default = first.param_dict.get("default", LIFT_DEFAULT)
        exchange = _exchange(iteration)

        def program(ctx, value):
            candidate, bit = yield from prefix(ctx, value, default)
            prox_output, coin = yield from exchange(ctx, bit)
            return prox_output, coin, candidate

        probe = _run_probe(first, token, first.inputs, program, 2 + iteration.rounds)
        # Per party: what it outputs on decision 0 and on decision 1.
        choices = [(default, candidate) for candidate in probe.candidates]

        def branch(bits: Tuple[int, ...]) -> _Branch:
            return None, tuple((pid, choices[pid][bit]) for pid, bit in enumerate(bits))

        return _extraction_row(probe, iteration, branch)

    return _Model(
        adversaries=_serving(), params=accepted, regime=3,
        length=lambda params: 2 + BA_ONE_THIRD.rounds(params["kappa"]),
        root=lambda first: subsession, row=row,
    )


_TURPIN_COAN = _lift(TURPIN_COAN_BA, turpin_coan_prefix, _KAPPA | {"default"})
# The t < n/3 regime only: the ``one_half`` regime's inner BA runs ⌈κ/2⌉
# coins, and those sweeps fall back per spec.
_MULTIVALUED = _lift(
    MULTIVALUED_BA,
    lambda ctx, value, default: multivalued_prefix(ctx, value),
    _KAPPA | {"regime", "default"},
)


# ── coin protocols: one round, value is a pure function of the keys ─────


def _coin_protocol_params(spec: TrialSpec) -> Tuple[Any, int, int]:
    params = spec.param_dict
    return params.get("index", 0), params.get("low", 0), params.get("high", 1)


def _coin_leaf(spec: TrialSpec, predicted: Any, coins: int) -> _Leaf:
    """``spec``'s trial, checked against its ``predicted`` coin, as a
    valued leaf — its outputs become which parties hold the coin, so it
    serves every session — unless no party holds the coin."""
    frozen = _replay_trial(spec)
    for pid, output in frozen.outputs.items():
        if output is not None and output != predicted:
            raise VectorModelError(
                f"coin probe mismatch for party {pid}: {output!r} != {predicted!r}"
            )
    held = {pid: output is not None for pid, output in frozen.outputs.items()}
    if not any(held.values()):  # no party outputs its coin: one class
        return dataclasses.replace(frozen, coins=coins)
    return dataclasses.replace(frozen, outputs=held, coins=coins, valued=True)


def _coin_batch(
    outcome: Callable[[TrialSpec], Callable[[str], Tuple[Any, Any]]], read: int
) -> Callable[[Sequence[TrialSpec]], _Batch]:
    """The batch of a coin model: ``outcome(first)`` is the configuration's
    ``session → (probe token, coin)``, kept in its table; each token's
    probe is checked against the first trial on it, and every trial reads
    ``read`` coins."""

    def batch(specs: Sequence[TrialSpec]) -> _Batch:
        first = specs[0]
        table = _table(first)
        coin_of = table.coins.get(0)
        if coin_of is None:
            coin_of = table.coins[0] = outcome(first)
        leaves, values = [], []
        for spec in specs:
            token, coin = coin_of(spec.session)
            probe = table.probes.get(token)
            if probe is None:
                probe = _probed(table, token, lambda: _coin_leaf(spec, coin, read))
            leaves.append(probe)
            values.append(coin)
        return _materialize(leaves, first.inputs, values)

    return batch


# ``threshold_coin`` × {no adversary, ``withhold_coin``}.  The threshold
# coin's value is a deterministic function of the key material, the
# session and the index — withholding shares can fail a flip but never
# steer it.  One probe trial pins *which* parties reach the threshold
# (session-invariant share delivery), so every session is on one token;
# the per-trial value is derived arithmetically, and is the one coin its
# trial reads.  ``withhold_coin`` never sees a ``"vrf"`` payload here, so
# it degenerates to silencing its victims — covered by the same probe.


def _threshold_outcome(first: TrialSpec) -> Callable[[str], Tuple[str, Any]]:
    coin = coin_evaluator(_suite_for(first).coin, *_coin_protocol_params(first))
    return lambda session: ("coin-ok", coin(session))


_THRESHOLD_COIN = _Model(
    adversaries=_serving("withhold_coin"), params=_COIN_PARAMS,
    batch=_coin_batch(_threshold_outcome, 1),
)


# ``vrf_coin`` × {no adversary, ``withhold_coin``}.  The VRF coin is pure
# arithmetic per trial: every party's evaluation is the hash of its
# unique signature on the coin tag, and the coin is derived from the
# minimum.  The withholding adversary's reveal scan is replicated exactly
# (same reference outcomes, same stable sort), so the model reproduces
# the *biased* coin, not the honest one.  One probe per reveal-count pins
# the wire dynamics and cross-checks the prediction against the object
# simulator.


def _vrf_withhold_check(spec: TrialSpec) -> Optional[str]:
    """What the reveal-scan replica does not cover: a pinned session,
    another coin's index, a range the adversary's own scan rejects."""
    adversary = spec.adversary_param_dict
    if adversary.get("session") is not None:
        return "session-pinned withhold_coin not modeled"
    if adversary.get("index", 0) != _coin_protocol_params(spec)[0]:
        return "adversary coin index differs from protocol (not modeled)"
    if _bad_range(adversary):
        return "invalid adversary coin range (object path raises)"
    return None


def _vrf_outcome(first: TrialSpec) -> Callable[[str], Tuple[int, Optional[int]]]:
    """The configuration's coin: ``session → (victims revealed, value)``."""
    n = first.num_parties
    index, low, high = _coin_protocol_params(first)
    adversary = first.adversary_param_dict if first.adversary else {}
    victims = tuple(dict.fromkeys(adversary.get("victims", ())))
    honest = [pid for pid in range(n) if pid not in victims]
    preferred = adversary.get("preferred", 1)
    evaluate = vrf_evaluator(_suite_for(first).plain, index)
    flip = scan = vrf_coin_extractor(index, low, high)
    # The reveal scan uses the adversary's own range and preference.
    adv_range = adversary.get("low", 0), adversary.get("high", 1)
    if victims and adv_range != (low, high):
        scan = vrf_coin_extractor(index, *adv_range)

    def outcome(session: str) -> Tuple[int, Optional[int]]:
        """(victims revealed, coin value) for one trial's session: one
        extraction per distinct (winner, range)."""
        values = evaluate(session)  # every party's evaluation, once
        valid = {pid: values[pid] for pid in honest}
        coin = scan(valid, session)
        revealed = 0
        if victims and valid and coin != preferred:
            # Mirror WithholdingCoinAdversary.decide: smallest
            # evaluation first, reveal the first that steers.  A
            # victim above the honest minimum (ties go to the lower
            # party id) leaves the winner, so the coin, as it is.
            lead = min(zip(valid.values(), valid))
            for pid in sorted(victims, key=values.__getitem__):
                if (values[pid], pid) > lead:
                    continue
                candidate = {**valid, pid: values[pid]}
                steered = scan(candidate, session)
                if steered == preferred:
                    valid, revealed, coin = candidate, 1, steered
                    break
        return revealed, coin if flip is scan else flip(valid, session)

    return outcome


# One probe per reveal count; VRF evaluations are no coins.
_VRF_COIN = _Model(
    adversaries=_serving("withhold_coin"), params=_COIN_PARAMS,
    adversary_check=_vrf_withhold_check, batch=_coin_batch(_vrf_outcome, 0),
)


#: Every protocol the vector backend batches, and its model: the pairs
#: it serves are the protocol with each adversary its model serves.
_MODELS = {
    "ba_one_third": _BA_ONE_THIRD,
    "ba_one_half": _BA_ONE_HALF,
    "feldman_micali": _fixed_round(FELDMAN_MICALI, "straddle13"),
    "micali_vaikuntanathan": _fixed_round(MICALI_VAIKUNTANATHAN, "straddle12"),
    "mv_pki": _fixed_round(MV_PKI, "straddle12"),
    "ba_one_third_chunked": _fixed_round(BA_ONE_THIRD_CHUNKED, "straddle13", "chunk"),
    "ba_one_half_generalized": _fixed_round(
        BA_ONE_HALF_GENERALIZED, "straddle12", prox_rounds=3, family="linear"
    ),
    "fm_probabilistic": _FM_PROBABILISTIC,
    "turpin_coan_classic": _TURPIN_COAN,
    "multivalued_ba": _MULTIVALUED,
    "threshold_coin": _THRESHOLD_COIN,
    "vrf_coin": _VRF_COIN,
    "prox_one_third": _replay("straddle13", "two_face"),
    "prox_linear_half": _replay("two_face", "bare_straddle12"),
    **dict.fromkeys(
        ("prox_quadratic_half", "dolev_strong", "prox_expand_once", "proxcast",
         "certificate_gradecast"),
        _replay(),
    ),
}
