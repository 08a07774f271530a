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
:meth:`_WalkModel.run_batch` walks every trial from the root state:
evaluate the iteration's coin, look the child up, stop at a leaf that
holds the output template every trial on that path shares.  No
signature, share or message object is ever materialized per trial, and
coins are Python ints, so κ is unbounded.

The seed only picks which cut a trial's coin lands on, so the table is
seed-free and outlives the batch that filled it: one :class:`_Table` per
configuration — probes, rows, coin evaluators, the walked tree and its
leaves' registries — in one LRU keyed by :func:`batch_key`.  What a
trial costs is therefore one table lookup per iteration, the coins it
reads and the result record it hands back; nothing per trial or per
batch rebuilds the table, and nothing per trial
constructs a ``TrialSpec``: the chunk executor keys each spec once with
:func:`batch_key` — a plain tuple of the fields that are *not*
per-trial identity — groups on it, and asks :func:`unsupported_reason`
once per group.  Every model builds its results in one place,
:func:`_materialize`: a trial is a pointer to its outcome class — one
template per leaf (per coin value on a valued leaf) per batch, verdict
included, copied into a result only where someone reads it — and a
leaf's round count and tally rows are derived once and every trial on
it is stamped with the same frozen rows.

The transition itself is not re-derived by hand: it is obtained by running
the *object simulator* once per state on a single-iteration probe
program (the exact wire behavior of one ``Π_iter`` segment, including the
real adversary instance).  Nor is the probe program: it is the
protocol's own statement of its iteration
(:class:`repro.core.iteration.Iteration` — slots, Proxcensus, coin index,
subsession) run up to, but not through, extraction, and a model reads
its row's slot count and its coin's index, range and session from that
same statement.  That makes the vector backend bit-identical to
the reference by construction — the only arithmetic this module trusts is
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
:class:`~repro.obs.metrics.MetricsRegistry` attached and keeps its frozen
delivery contribution beside its tallies; each model reports the leaf
every trial ended on, and a trial's registry is the round-shifted sum of
the contributions on the leaf's path plus ``finalize_trial`` of its
result — equal, counter for counter, to a registry observing the object
simulator.  The leaf keeps that registry, so each outcome class is
composed once per process.  All label arithmetic stays in
``repro.obs.metrics``; this module only names which probes ran when.

Anything the model cannot express — the real-RSA backend, trace
collection, protocols or adversaries without a registered vector model,
non-bit inputs, exotic adversary parameters — falls back per-spec to
:func:`repro.engine.runner.run_trial`, which is the same code path
``backend="object"`` uses, so results (and registries) are identical
either way.
"""

from __future__ import annotations

import dataclasses
import operator
from bisect import bisect_left
from collections import Counter, OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.ba import (
    iteration_one_half,
    iteration_one_third,
    iterations_one_half,
    rounds_one_half,
)
from ..core.extraction import coin_range, extract
from ..core.iteration import Iteration, threshold_coin_factory
from ..core.probabilistic import ProbTermOutput, iteration_fm_probabilistic
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
from ..obs.metrics import DeliveryContribution, MetricsRegistry
from ..proxcensus.base import slot_index
from .plan import TrialSpec, _stamp_trial
from .registry import build_adversary, register_vector_model, vector_model_for

__all__ = [
    "VectorModelError",
    "batch_key",
    "clear_probe_cache",
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
    by depth and ``top``, the walk's first node with every child visited
    so far, whose leaves own their finalized registries.  A configuration
    has one model, so tokens and states are that model's own."""

    probes: Dict[Any, Any] = dataclasses.field(default_factory=dict)
    rows: Dict[Any, "_Row"] = dataclasses.field(default_factory=dict)
    coins: Dict[int, Any] = dataclasses.field(default_factory=dict)
    top: Optional["_Node"] = None


# batch_key(spec) → that configuration's table: the one cross-batch
# cache, a bounded LRU, so AdaptiveRunner rounds and pooled chunks — many
# small batches of the same configurations — find their tables warm.
# Hits count batches that found their table, misses probes run on the
# object simulator; both feed the ``probe_cache`` telemetry spans.
_TABLES: "OrderedDict[Any, _Table]" = OrderedDict()
_TABLE_LIMIT = 256
_HITS = _MISSES = 0


def _table(spec: TrialSpec) -> _Table:
    """The table of ``spec``'s configuration — a new, empty one on a miss."""
    global _HITS
    key = batch_key(spec)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _Table()
        while len(_TABLES) > _TABLE_LIMIT:
            _TABLES.popitem(last=False)
    else:
        _TABLES.move_to_end(key)
        _HITS += 1
    return table


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
    """Drop every configuration's table — probes, rows, coin evaluators
    and the registries its leaves own — and reset the hit/miss counters."""
    global _HITS, _MISSES
    _TABLES.clear()
    _HITS = _MISSES = 0


@dataclasses.dataclass(frozen=True, eq=False)
class _Delivery:
    """What one probe execution put on the wire, in both metric vocabularies.

    ``tallies`` are the ``RunMetrics`` rows of its ``rounds`` rounds in
    execution order; ``contribution`` is the un-finalised
    ``MetricsRegistry`` snapshot of the same deliveries.
    """

    rounds: int
    tallies: Tuple[Tuple[int, int, int, int, int], ...]
    contribution: DeliveryContribution


#: One trial's walk through cached probes: each delivery replayed
#: ``round_offset`` rounds after the trial's start.
_Path = Tuple[Tuple[_Delivery, int], ...]


def _freeze_delivery(result: ExecutionResult, registry: MetricsRegistry) -> _Delivery:
    """Freeze what ``registry`` and ``result.metrics`` saw of one probe run."""
    return _Delivery(
        rounds=result.metrics.rounds,
        tallies=result.metrics.round_tallies(),
        contribution=registry.freeze_delivery(),
    )


@dataclasses.dataclass(eq=False)
class _Leaf:
    """Where a walk ends: the result every trial on one path shares.

    ``outputs`` and ``finish`` are templates in the simulator's recording
    order (parties return in (round, pid) order), so results built from
    them are bit-identical down to dict insertion order.  ``path`` is
    one tuple shared by every trial that ends here; the round count and
    tally rows follow from it and are derived once, here.  ``coins`` is
    how many coins a trial evaluated on the way.  A coin model's leaf is
    ``valued``: its trials output their own coin, ``outputs`` says which
    parties hold it, and the coin keys ``classes`` — the finalized
    registry of each outcome class that ended here (else one, at ``None``).
    """

    outputs: Dict[int, Any]
    finish: Dict[int, int]
    corrupted: frozenset
    path: _Path
    coins: int = 0
    valued: bool = False

    def __post_init__(self) -> None:
        self.rounds = max((at + step.rounds for step, at in self.path), default=0)
        self.tallies = tuple(
            (at + round_index, hm, cm, hs, cs)
            for step, at in self.path
            for round_index, hm, cm, hs, cs in step.tallies
        )
        self.classes: Dict[Any, MetricsRegistry] = {}


#: A valued leaf keeps this many classes — one per coin value it has
#: seen; a trial of any further class composes its own registry.
_VALUED_CLASSES = 256


def _materialize(
    leaves: List[_Leaf],
    inputs: Sequence[Any],
    values: Optional[List[Any]] = None,
) -> Tuple[List[ExecutionResult], List[_Leaf], int]:
    """One ``ExecutionResult`` per trial of a batch, its leaf, and the coins read.

    Every model's ``run_batch`` ends here.  ``leaves[row]`` is where
    trial ``row`` ended.  Every trial on one leaf — on a valued leaf,
    every trial whose coin ``values[row]`` its parties hold — is one
    outcome class, so the batch builds one template per class
    (:meth:`ExecutionResult.template`, verdict included) and stamps each
    trial from it: a result copies the template's outputs, corruption
    set, inputs or finish rounds only when first read, and shares the
    leaf's frozen tally rows, which ``RunMetrics`` holds as given.
    """
    inputs_map = dict(enumerate(inputs))
    classes = leaves if values is None else list(zip(leaves, values))
    templates = {}
    for key in dict.fromkeys(classes):
        leaf, value = (key, None) if values is None else key
        outputs = leaf.outputs if values is None else {
            pid: value if held else None for pid, held in leaf.outputs.items()
        }
        templates[key] = ExecutionResult.template(
            outputs, leaf.corrupted, inputs_map, leaf.finish
        )
    stamp, tallied = ExecutionResult.stamp, RunMetrics.from_round_tallies
    results = [
        stamp(templates[key], tallied(leaf.rounds, leaf.tallies))
        for key, leaf in zip(classes, leaves)
    ]
    return results, leaves, sum(leaf.coins for leaf in leaves)


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


#: The fields that tell one trial of a configuration from the next.
#: Every other ``TrialSpec`` field — including any added later — is part
#: of the batch key.  ``repro check`` (VEC504) pins ``seed`` and
#: ``session`` to this literal.
PER_TRIAL_FIELDS = ("seed", "session", "config")

_batch_fields = operator.attrgetter(
    *(
        field.name
        for field in dataclasses.fields(TrialSpec)
        if field.name not in PER_TRIAL_FIELDS
    )
)


def batch_key(spec: TrialSpec) -> Tuple[Any, ...]:
    """The spec's fields minus per-trial identity: equal keys ⇒ one batch.

    Trials agreeing on everything but :data:`PER_TRIAL_FIELDS` share
    dynamics (the module-docstring invariant), so the chunk executor
    groups by this key and the probe memo is keyed by it.  A plain
    tuple, read off the spec — building one constructs no ``TrialSpec``.
    """
    return _batch_fields(spec)


#: The complete vocabulary of exact fallback-reason strings the
#: ``*_reason`` helpers may return.  ``repro check`` (VEC503) pins every
#: constant return in this module to this set, so a reworded reason
#: cannot silently fork from the strings that dashboards and tests
#: aggregate on.  Parameterized reasons are covered by the prefix tuple
#: below instead.
FALLBACK_REASONS = frozenset(
    {
        "spec opted out (vectorizable=False)",
        "real-RSA backend",
        "adversary victims missing or not a sequence",
        "corruption budget exceeded (object path raises)",
        "regime violation 3t >= n (object path raises)",
        "regime violation 2t >= n (object path raises)",
        "max_rounds below protocol length (object path raises)",
        "max_rounds below the iteration cap (object path may raise)",
        "unsupported down_group value",
        "straddle12 with non-standard iteration_rounds",
        "unhashable inputs",
        "invalid coin range (object path raises)",
        "invalid adversary coin range (object path raises)",
        "session-pinned withhold_coin not modeled",
        "adversary coin index differs from protocol (not modeled)",
    }
)

#: Allowed heads for parameterized (f-string) fallback reasons.  A
#: reason that interpolates spec details must start with one of these.
FALLBACK_REASON_PREFIXES = (
    "fault injection",
    "no ",
    "non-bit input",
    "unsupported ",
    "victim ",
    "regime ",
    "invalid ",
    "vector model error:",
)


def unsupported_reason(spec: TrialSpec) -> Optional[str]:
    """Why this spec cannot take the vector path (``None`` = it can).

    The checks are deliberately conservative: any configuration whose
    object-path behavior the vector models have not proven to reproduce —
    including ones where the object path would *raise* — is routed to the
    object simulator.
    """
    if not spec.vectorizable:
        return "spec opted out (vectorizable=False)"
    if spec.faults is not None:
        # Unreachable through TrialSpec (__post_init__ forces the flag
        # off), kept as a guard: the models simulate the clean
        # synchronous network only.
        return f"fault injection ({spec.faults!r}) is not vectorizable"
    if spec.backend != "ideal":
        return "real-RSA backend"
    model = vector_model_for(spec.protocol, spec.adversary)
    if model is None:
        return (
            f"no vector model registered for "
            f"({spec.protocol!r}, {spec.adversary!r})"
        )
    return model.unsupported_reason(spec)


def supports(spec: TrialSpec) -> bool:
    """``True`` iff the vector backend would batch this spec."""
    return unsupported_reason(spec) is None


def run_vector_batch(specs: Sequence[TrialSpec]) -> List[ExecutionResult]:
    """Execute same-configuration supported specs as one batch.

    All specs must share :func:`batch_key` and pass :func:`supports`;
    results come back in spec order and are bit-identical to
    ``run_trial`` on each spec.
    """
    specs = list(specs)
    if not specs:
        return []
    first = specs[0]
    key = batch_key(first)
    if any(batch_key(spec) != key for spec in specs):
        raise VectorModelError("batch mixes configurations")
    reason = unsupported_reason(first)
    if reason is not None:
        raise VectorModelError(f"unsupported spec in vector batch: {reason}")
    return vector_model_for(first.protocol, first.adversary).run_batch(specs)[0]


def _compose_registries(
    members: Sequence[Tuple[int, TrialSpec]],
    outcomes: Sequence[ExecutionResult],
    leaves: Sequence[_Leaf],
    metrics: Dict[int, Any],
) -> None:
    """Fill ``metrics`` with one registry per batched trial.

    A trial's registry is the round-shifted sum of the probe deliveries
    on its leaf's path, finalized with its own result — exactly what a
    registry observing the object simulator would hold.  Trials of one
    outcome class share that registry's *value*, so each class is
    composed once, kept by its leaf, and every trial is stamped from it:
    a pointer to the shared snapshot, copied only if someone touches it.
    """
    for (index, _), result, leaf in zip(members, outcomes, leaves):
        key = tuple(result.outputs.values()) if leaf.valued else None
        registry = leaf.classes.get(key)
        if registry is None:
            registry = MetricsRegistry.from_deliveries(
                (delivery.contribution, offset) for delivery, offset in leaf.path
            )
            registry.finalize_trial(result)
            if len(leaf.classes) < _VALUED_CLASSES:
                leaf.classes[key] = registry
        metrics[index] = registry.stamp()


def execute_chunk(
    chunk: Sequence[Tuple[int, TrialSpec]],
    trace_dir: Optional[str] = None,
    metrics: Optional[Dict[int, Any]] = None,
) -> Tuple[List[Tuple[int, ExecutionResult]], Dict[str, Any]]:
    """Run a chunk of (index, spec) pairs, batching what the models support.

    The vector entry point the runner uses for ``backend="vector"``:
    eligible specs are grouped by :func:`batch_key` and executed in
    one batch each; everything else (plus whole batches whose probe
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
    from .runner import TrialExecutionError, _run_indexed_trial  # circular

    cache_before = probe_cache_stats()
    results: Dict[int, ExecutionResult] = {}
    groups: Dict[Tuple[Any, ...], List[Tuple[int, TrialSpec]]] = {}
    fallback: List[Tuple[int, TrialSpec]] = []
    reasons: Counter = Counter()
    # Grouping by key is the proof that no batch mixes configurations,
    # and unsupported_reason reads no per-trial field: one key per spec,
    # one reason per group.
    for member in chunk:
        spec = member[1]
        if trace_dir is not None:
            reasons["trace collection requested"] += 1
            fallback.append(member)
            continue
        key = batch_key(spec)
        try:
            members = groups.get(key)
        except TypeError:
            # An unhashable field value cannot key a group; such a spec
            # keeps its named per-spec fallback.
            reason = unsupported_reason(spec)
            if reason is None:
                raise
            reasons[reason] += 1
            fallback.append(member)
            continue
        if members is None:
            members = groups[key] = []
        members.append(member)

    batches: List[Dict[str, Any]] = []
    coins = 0
    for members in groups.values():
        specs = [spec for _, spec in members]
        first = specs[0]
        reason = unsupported_reason(first)
        if reason is None:
            try:
                outcomes, leaves, read = vector_model_for(
                    first.protocol, first.adversary
                ).run_batch(specs)
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
            _compose_registries(members, outcomes, leaves, metrics)
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


# ── Shared model machinery ───────────────────────────────────────────────


def _suite(spec: TrialSpec):
    from .runner import _suite_for  # circular at import time

    return _suite_for(spec)


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
    """A state's transitions: what its probe put on the wire, whom it
    left corrupted, and one :data:`_Branch` per outcome of the cut
    (``len(cuts) + 1`` of them; see :func:`_cut_row`)."""

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


class _WalkModel:
    """What the coin-consuming models share: ``run_batch`` walks every
    trial down the model's transition table.

    A model supplies ``root(first)`` — the state every trial starts in —
    ``row(first, state)`` and ``coin(first, depth)``, the ``(evaluator,
    session suffix)`` of the coin iteration ``depth`` flips.  The table
    is the configuration's :class:`_Table`, kept across batches and
    filled as trials reach it: ``row`` is asked once per distinct state,
    ``coin`` on the first visit to a state of that depth that reads it.
    A leaf carries the corruption set of the last probe on its own path;
    corruptions never heal, so a probe reporting fewer than its
    predecessor is a :class:`VectorModelError`.
    """

    @classmethod
    def run_batch(
        cls, specs: Sequence[TrialSpec]
    ) -> Tuple[List[ExecutionResult], List[_Leaf], int]:
        first = specs[0]
        table = _table(first)
        rows, coins = table.rows, table.coins

        def grow(node: _Node, outcome: int) -> Any:
            state, returning = node.row.branches[outcome]
            outputs = {**node.outputs, **dict(returning)}
            finish = {**node.finish, **{pid: node.rounds for pid, _ in returning}}
            if state is None:
                child: Any = _Leaf(
                    outputs, finish, node.row.corrupted, node.path, node.reads
                )
            else:
                row = rows.get(state)
                if row is None:
                    row = rows[state] = cls.row(first, state)
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
                    depth = len(node.path)
                    if depth not in coins:
                        coins[depth] = cls.coin(first, depth)
                    child.coin, child.suffix = coins[depth]
            node.children[outcome] = child
            return child

        top = table.top
        if top is None:
            # Before the first iteration: nothing walked, one way on.
            origin = _Row(None, frozenset(), [], [(cls.root(first), ())])
            top = table.top = grow(_Node(origin, (), 0, {}, {}, 0), 0)
        leaves = []
        for spec in specs:
            session, node = spec.session, top
            while True:
                cuts = node.row.cuts
                outcome = (
                    bisect_left(cuts, node.coin(session + node.suffix)) if cuts else 0
                )
                child = node.children[outcome]
                if child is None:
                    child = grow(node, outcome)
                if child.__class__ is _Leaf:
                    break
                node = child
            leaves.append(child)
        return _materialize(leaves, first.inputs)


def _all_return(bits: Tuple[int, ...]) -> _Branch:
    """The branch of a protocol's last iteration: every party returns its bit."""
    return None, tuple(enumerate(bits))


def _extraction_row(
    probe: Any, slots: int, then: Callable[[Tuple[int, ...]], _Branch]
) -> _Row:
    """The row of a ``Π_iter`` probe: ``then(bits)`` per outcome of the cut."""
    cuts, outcomes = _cut_row(probe.values, probe.grades, probe.coin_ok, slots)
    return _Row(
        probe.delivery, probe.corrupted, cuts, [then(bits) for bits in outcomes]
    )


def _simulate_probe(
    spec: TrialSpec, factory, inputs: Sequence[Any], adversary=None
) -> Tuple[ExecutionResult, _Delivery]:
    """Run a probe program on the object simulator, metrics attached.

    Fixed seed and session (see :func:`_run_probe`).  Every probe carries
    a registry: probes are cached, so the collector's cost is paid once
    per configuration and metrics need no second kind of probe.
    """
    from .runner import _build_simulator  # circular at import time

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

    return _probed(_TABLES[batch_key(spec)], token, execute)


def _exchange(iteration: Iteration):
    """The probe program of one iteration: ``core``'s own expand and
    coin-flip, returning ``(prox_output, coin)`` raw — extraction happens
    in the state's row."""
    return lambda ctx, bit: iteration.exchange(ctx, bit, threshold_coin_factory())


def _iteration_coin(first: TrialSpec, iteration: Iteration):
    """``(evaluator, session suffix)`` of the coin ``iteration`` flips."""
    suffix = "" if iteration.subsession is None else f"/{iteration.subsession}"
    low, high = coin_range(iteration.slots)
    return coin_evaluator(_suite(first).coin, iteration.coin_index, low, high), suffix


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
    from .runner import run_trial  # circular at import time

    registry = MetricsRegistry()
    result = run_trial(spec, (registry,))
    return _Leaf(
        outputs=dict(result.outputs),
        finish=dict(result.finish_rounds),
        corrupted=frozenset(result.corrupted),
        path=((_freeze_delivery(result, registry), 0),),
    )


def _bit_input_reason(spec: TrialSpec) -> Optional[str]:
    for value in spec.inputs:
        # Strict ints only: bool inputs pass the protocols' `bit in (0, 1)`
        # check but tangle value identity in repr-keyed tallies — the
        # object path handles them, so they simply are not vectorized.
        if type(value) is not int or value not in (0, 1):
            return f"non-bit input {value!r}"
    return None


def _kappa_reason(
    spec: TrialSpec, allowed: frozenset = frozenset({"kappa"})
) -> Optional[str]:
    params = spec.param_dict
    if not set(params) <= allowed or "kappa" not in params:
        return f"unsupported protocol params {sorted(params)}"
    kappa = params["kappa"]
    if type(kappa) is not int or kappa < 1:
        return f"unsupported kappa {kappa!r}"
    return None


def _victims_reason(spec: TrialSpec, allowed_params: frozenset) -> Optional[str]:
    params = spec.adversary_param_dict
    if not set(params) <= allowed_params:
        return f"unsupported adversary params {sorted(params)}"
    victims = params.get("victims")
    if not isinstance(victims, tuple) or not victims:
        return "adversary victims missing or not a sequence"
    for victim in victims:
        if type(victim) is not int or not (0 <= victim < spec.num_parties):
            return f"victim {victim!r} out of range"
    if len(set(victims)) > spec.max_faulty:
        return "corruption budget exceeded (object path raises)"
    return None


# ── ba_one_third: one Prox_{2^κ+1} iteration, coin in round κ+1 ─────────


class _BaOneThirdModel(_WalkModel):
    """Vector model for ``ba_one_third`` × {no adversary, ``straddle13``}.

    The whole protocol is a single ``Π_iter``: the probe covers all κ+1
    rounds, so the table is one row — the inputs' — and only which side
    of the cut a trial's coin falls on varies.
    """

    @staticmethod
    def unsupported_reason(spec: TrialSpec) -> Optional[str]:
        reason = _bit_input_reason(spec) or _kappa_reason(spec)
        if reason is not None:
            return reason
        n, t = spec.num_parties, spec.max_faulty
        if 3 * t >= n:
            return "regime violation 3t >= n (object path raises)"
        kappa = spec.param_dict["kappa"]
        if spec.max_rounds < kappa + 1:
            return "max_rounds below protocol length (object path raises)"
        if spec.adversary == "straddle13":
            reason = _victims_reason(
                spec, frozenset({"victims", "down_group"})
            )
            if reason is not None:
                return reason
            down_group = spec.adversary_param_dict.get("down_group")
            if down_group is not None and not isinstance(down_group, tuple):
                return "unsupported down_group value"
        elif spec.adversary is not None:
            return f"no ba_one_third vector model for {spec.adversary!r}"
        return None

    @staticmethod
    def root(first: TrialSpec) -> Tuple[int, ...]:
        return tuple(first.inputs)

    @staticmethod
    def row(first: TrialSpec, bits: Tuple[int, ...]) -> _Row:
        iteration = iteration_one_third(first.param_dict["kappa"])
        probe = _run_probe(first, bits, bits, _exchange(iteration), iteration.rounds)
        return _extraction_row(probe, iteration.slots, _all_return)

    @staticmethod
    def coin(first: TrialSpec, depth: int):
        return _iteration_coin(first, iteration_one_third(first.param_dict["kappa"]))


# ── ba_one_half: ⌈κ/2⌉ iterations of Π_iter^5, coin ∥ Prox round 3 ──────


class _BaOneHalfModel(_WalkModel):
    """Vector model for ``ba_one_half`` × {no adversary, ``straddle12``}.

    Iterations are independent 3-round segments (the adversary's state is
    per-iteration), so each is one probe per distinct bit configuration.
    A state is ``(bits, iterations left)``; once the parties agree every
    later row sits on the extremal slots and reads no coin.
    """

    @staticmethod
    def unsupported_reason(spec: TrialSpec) -> Optional[str]:
        reason = _bit_input_reason(spec) or _kappa_reason(spec)
        if reason is not None:
            return reason
        n, t = spec.num_parties, spec.max_faulty
        if 2 * t >= n:
            return "regime violation 2t >= n (object path raises)"
        if spec.max_rounds < rounds_one_half(spec.param_dict["kappa"]):
            return "max_rounds below protocol length (object path raises)"
        if spec.adversary == "straddle12":
            reason = _victims_reason(
                spec, frozenset({"victims", "iteration_rounds"})
            )
            if reason is not None:
                return reason
            rounds = spec.adversary_param_dict.get("iteration_rounds", 3)
            if rounds != iteration_one_half(0).rounds:
                return "straddle12 with non-standard iteration_rounds"
        elif spec.adversary is not None:
            return f"no ba_one_half vector model for {spec.adversary!r}"
        return None

    @staticmethod
    def root(first: TrialSpec) -> Tuple[Tuple[int, ...], int]:
        return tuple(first.inputs), iterations_one_half(first.param_dict["kappa"])

    @staticmethod
    def row(first: TrialSpec, state: Tuple[Tuple[int, ...], int]) -> _Row:
        bits, left = state
        # Any iteration's wire behavior is the first's — the one whose
        # subsession the fresh per-iteration adversary also derives.
        iteration = iteration_one_half(0)
        probe = _run_probe(first, bits, bits, _exchange(iteration), iteration.rounds)
        if left == 1:
            return _extraction_row(probe, iteration.slots, _all_return)
        return _extraction_row(
            probe, iteration.slots, lambda after: ((after, left - 1), ())
        )

    @staticmethod
    def coin(first: TrialSpec, depth: int):
        return _iteration_coin(first, iteration_one_half(depth))


# ── fm_probabilistic: per-iteration lockstep with halting parties ───────


_FM_HALTED = "h"  # probe token for a party that has already returned
_FM_MAX_ITERATIONS = 64  # fm_probabilistic_program's default cap


def _fm_probe_program(ctx, token):
    # The loop's first iteration stands for all of them (structure is
    # iteration-independent; only coin *values* differ, derived per
    # trial/iteration).  A halted token returns before the first yield —
    # exactly what a returned party contributes to later rounds: nothing.
    if token == _FM_HALTED:
        return None
    return (yield from _exchange(iteration_fm_probabilistic(1))(ctx, token))


class _FmProbabilisticModel(_WalkModel):
    """Vector model for ``fm_probabilistic`` × no adversary.

    A state is ``(iteration, tokens, deciding)``: each party's working
    bit or the halted token, and the parties that decided in the previous
    iteration and return at the end of this one.  An iteration's wire
    dynamics come from one probe per token configuration, and the row
    applies the decide/adopt/coin-flip branching of
    :func:`~repro.core.probabilistic.fm_probabilistic_program`: only a
    party left at grade 0 adopts the coin's bit, so a row reads its coin
    only if one exists.  Parties halt in *different* rounds — the model
    reproduces the termination spread, per-party finish rounds included.
    """

    @staticmethod
    def unsupported_reason(spec: TrialSpec) -> Optional[str]:
        reason = _bit_input_reason(spec)
        if reason is not None:
            return reason
        if spec.param_dict:
            return f"unsupported protocol params {sorted(spec.param_dict)}"
        if spec.adversary is not None:
            return f"no fm_probabilistic vector model for {spec.adversary!r}"
        n, t = spec.num_parties, spec.max_faulty
        if 3 * t >= n:
            return "regime violation 3t >= n (object path raises)"
        if spec.max_rounds < _FM_MAX_ITERATIONS * iteration_fm_probabilistic(1).rounds:
            return "max_rounds below the iteration cap (object path may raise)"
        return None

    @staticmethod
    def root(first: TrialSpec) -> Tuple[int, Tuple[Any, ...], Tuple[int, ...]]:
        return 1, tuple(first.inputs), ()

    @staticmethod
    def row(first: TrialSpec, state) -> _Row:
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
        cuts, outcomes = _cut_row(values, grades, probe.coin_ok, step.slots)
        decides = tuple(pid for pid in running if probe.grades[pid] == 2)
        # The post-decision helper iteration is done for ``deciding``.
        done = [(pid, ProbTermOutput(tokens[pid], iteration - 1)) for pid in deciding]
        branches: List[_Branch] = []
        for bits in outcomes:
            if iteration == _FM_MAX_ITERATIONS:
                # The program's cap: still-running parties return the
                # working value with decided_iteration = the cap.
                capped = [(pid, ProbTermOutput(bits[pid], iteration)) for pid in running]
                branches.append((None, tuple(sorted(done + capped))))  # pids differ
            else:
                after = tuple(_FM_HALTED if bit is None else bit for bit in bits)
                onward = (iteration + 1, after, decides) if running else None
                branches.append((onward, tuple(done)))
        return _Row(probe.delivery, probe.corrupted, cuts, branches)

    @staticmethod
    def coin(first: TrialSpec, depth: int):
        return _iteration_coin(first, iteration_fm_probabilistic(depth + 1))


# ── turpin_coan_classic / multivalued_ba: deterministic + one inner coin ─


def _hashable_inputs_reason(spec: TrialSpec) -> Optional[str]:
    try:
        hash(spec.inputs)
    except TypeError:
        return "unhashable inputs"
    return None


class _LiftModel(_WalkModel):
    """What the two multivalued lifts share: one probe of the whole
    protocol (cached under ``TOKEN``, the only state), one row, the
    inner BA's coin under ``SUBSESSION``, protocol params within
    ``PARAMS``.

    The probe runs the lift's own deterministic ``prefix`` — two rounds
    that leave ``(candidate, bit)`` — and then the inner ``ba_one_third``'s
    iteration on ``bit`` without extracting, returning ``(prox_output,
    coin, candidate)``: extraction — and with it each party's choice
    between its candidate and the default — happens in the row.
    """

    @classmethod
    def unsupported_reason(cls, spec: TrialSpec) -> Optional[str]:
        reason = _hashable_inputs_reason(spec) or _kappa_reason(spec, cls.PARAMS)
        if reason is not None:
            return reason
        regime = spec.param_dict.get("regime", "one_third")
        if regime != "one_third":
            return f"regime {regime!r} not modeled (multi-coin inner BA)"
        if spec.adversary is not None:
            return f"no {spec.protocol} vector model for {spec.adversary!r}"
        n, t = spec.num_parties, spec.max_faulty
        if 3 * t >= n:
            return "regime violation 3t >= n (object path raises)"
        if spec.max_rounds < 2 + iteration_one_third(spec.param_dict["kappa"]).rounds:
            return "max_rounds below protocol length (object path raises)"
        return None

    @classmethod
    def root(cls, first: TrialSpec) -> str:
        return cls.TOKEN

    @classmethod
    def row(cls, first: TrialSpec, token: str) -> _Row:
        iteration = iteration_one_third(first.param_dict["kappa"])
        default = first.param_dict.get("default", "∅")
        exchange = _exchange(iteration)

        def program(ctx, value):
            candidate, bit = yield from cls.prefix(ctx, value, default)
            prox_output, coin = yield from exchange(ctx.subsession(cls.SUBSESSION), bit)
            return prox_output, coin, candidate

        probe = _run_probe(first, token, first.inputs, program, 2 + iteration.rounds)
        # Per party: what it outputs on decision 0 and on decision 1.
        choices = [(default, candidate) for candidate in probe.candidates]
        return _extraction_row(
            probe,
            iteration.slots,
            lambda bits: (
                None,
                tuple((pid, choices[pid][bit]) for pid, bit in enumerate(bits)),
            ),
        )

    @classmethod
    def coin(cls, first: TrialSpec, depth: int):
        # The inner BA is ba_one_third, run under its own subsession.
        return _BaOneThirdModel.coin(first, depth)[0], f"/{cls.SUBSESSION}"


class _TurpinCoanModel(_LiftModel):
    """Vector model for ``turpin_coan_classic`` × no adversary.

    The two echo rounds and the inner BA's Proxcensus are deterministic
    and session-invariant; only the inner coin varies per trial.
    """

    TOKEN, SUBSESSION = "tc", TURPIN_COAN_BA
    PARAMS = frozenset({"kappa", "default"})
    prefix = staticmethod(turpin_coan_prefix)


class _MultivaluedBaModel(_LiftModel):
    """Vector model for ``multivalued_ba`` × no adversary (t < n/3 regime).

    Same structure as the Turpin–Coan model: a deterministic multivalued
    Proxcensus, then the inner binary BA whose single coin is the only
    per-trial variation.  The ``one_half`` regime is not modeled (its
    inner BA runs ⌈κ/2⌉ coins; those sweeps fall back per spec).
    """

    TOKEN, SUBSESSION = "mv", MULTIVALUED_BA
    PARAMS = frozenset({"kappa", "regime", "default"})

    @staticmethod
    def prefix(ctx, value, default):
        return multivalued_prefix(ctx, value)


# ── coin protocols: one round, value is a pure function of the keys ─────


_COIN_PARAMS = frozenset({"index", "low", "high"})
_WITHHOLD_PARAMS = frozenset(
    {"victims", "index", "low", "high", "preferred", "session"}
)


def _coin_params_reason(spec: TrialSpec) -> Optional[str]:
    params = spec.param_dict
    if not set(params) <= _COIN_PARAMS:
        return f"unsupported protocol params {sorted(params)}"
    low = params.get("low", 0)
    high = params.get("high", 1)
    if type(low) is not int or type(high) is not int or low > high:
        return "invalid coin range (object path raises)"
    return None


def _coin_protocol_params(spec: TrialSpec) -> Tuple[Any, int, int]:
    params = spec.param_dict
    return params.get("index", 0), params.get("low", 0), params.get("high", 1)


def _coin_leaf(spec: TrialSpec, predicted: Any, coins: int) -> _Leaf:
    """``spec``'s trial, checked against its ``predicted`` coin, as a
    valued leaf: its outputs — session-bound coin values — become which
    parties hold the coin, so the leaf serves every session."""
    frozen = _replay_trial(spec)
    for pid, output in frozen.outputs.items():
        if output is not None and output != predicted:
            raise VectorModelError(
                f"coin probe mismatch for party {pid}: {output!r} != {predicted!r}"
            )
    held = {pid: output is not None for pid, output in frozen.outputs.items()}
    return dataclasses.replace(frozen, outputs=held, coins=coins, valued=True)


class _ThresholdCoinModel:
    """Vector model for ``threshold_coin`` × {no adversary, ``withhold_coin``}.

    The threshold coin's value is a deterministic function of the key
    material, the session and the index — withholding shares can fail a
    flip but never steer it.  One probe trial pins *which* parties reach
    the threshold (session-invariant share delivery); the per-trial value
    is derived arithmetically.  ``withhold_coin`` never sees a ``"vrf"``
    payload here, so it degenerates to silencing its victims — covered by
    the same probe.
    """

    @staticmethod
    def unsupported_reason(spec: TrialSpec) -> Optional[str]:
        reason = _hashable_inputs_reason(spec) or _coin_params_reason(spec)
        if reason is not None:
            return reason
        if spec.adversary is None:
            return None
        if spec.adversary != "withhold_coin":
            return f"no threshold_coin vector model for {spec.adversary!r}"
        return _victims_reason(spec, _WITHHOLD_PARAMS)

    @staticmethod
    def run_batch(
        specs: List[TrialSpec],
    ) -> Tuple[List[ExecutionResult], List[_Leaf], int]:
        first = specs[0]
        table = _table(first)
        coin = table.coins.get(0)
        if coin is None:
            coin = table.coins[0] = coin_evaluator(
                _suite(first).coin, *_coin_protocol_params(first)
            )
        values = [coin(spec.session) for spec in specs]
        # Every trial that ends here evaluated its one coin.
        probe = _probed(table, "coin-ok", lambda: _coin_leaf(first, values[0], 1))
        return _materialize([probe] * len(specs), first.inputs, values)


class _VrfCoinModel:
    """Vector model for ``vrf_coin`` × {no adversary, ``withhold_coin``}.

    The VRF coin is pure arithmetic per trial: every party's evaluation
    is the hash of its unique signature on the coin tag, and the coin is
    derived from the minimum.  The withholding adversary's reveal scan is
    replicated exactly (same reference outcomes, same stable sort), so
    the model reproduces the *biased* coin, not the honest one.  One
    probe per reveal-count pins the wire dynamics and cross-checks the
    prediction against the object simulator.
    """

    @staticmethod
    def unsupported_reason(spec: TrialSpec) -> Optional[str]:
        reason = _hashable_inputs_reason(spec) or _coin_params_reason(spec)
        if reason is not None:
            return reason
        if spec.adversary is None:
            return None
        if spec.adversary != "withhold_coin":
            return f"no vrf_coin vector model for {spec.adversary!r}"
        reason = _victims_reason(spec, _WITHHOLD_PARAMS)
        if reason is not None:
            return reason
        adversary = spec.adversary_param_dict
        if adversary.get("session") is not None:
            return "session-pinned withhold_coin not modeled"
        index, _low, _high = _coin_protocol_params(spec)
        if adversary.get("index", 0) != index:
            return "adversary coin index differs from protocol (not modeled)"
        adv_low = adversary.get("low", 0)
        adv_high = adversary.get("high", 1)
        if type(adv_low) is not int or type(adv_high) is not int or (
            adv_low > adv_high
        ):
            return "invalid adversary coin range (object path raises)"
        return None

    @staticmethod
    def _outcome(first: TrialSpec) -> Callable[[str], Tuple[int, Optional[int]]]:
        """The configuration's coin: ``session → (victims revealed, value)``."""
        n = first.num_parties
        index, low, high = _coin_protocol_params(first)
        adversary = first.adversary_param_dict if first.adversary else {}
        victims = tuple(dict.fromkeys(adversary.get("victims", ())))
        honest = [pid for pid in range(n) if pid not in victims]
        preferred = adversary.get("preferred", 1)
        evaluate = vrf_evaluator(_suite(first).plain, index)
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

    @classmethod
    def run_batch(
        cls, specs: List[TrialSpec]
    ) -> Tuple[List[ExecutionResult], List[_Leaf], int]:
        first = specs[0]
        table = _table(first)
        outcome = table.coins.get(0)
        if outcome is None:
            outcome = table.coins[0] = cls._outcome(first)
        # One probe per reveal count, checked against the first trial on
        # it; VRF evaluations are no coins.
        leaves, values = [], []
        for spec in specs:
            revealed, coin = outcome(spec.session)
            probe = table.probes.get(revealed)
            if probe is None:
                probe = _probed(table, revealed, lambda: _coin_leaf(spec, coin, 0))
            leaves.append(probe)
            values.append(coin)
        return _materialize(leaves, first.inputs, values)


# ── deterministic protocols: whole-run replay ───────────────────────────


class _StaticReplayModel:
    """Vector model for deterministic, coin-free protocol runs.

    The Proxcensus family (and the other registered pairs below) consume
    no coins and no party randomness: the entire execution — outputs
    included — is a pure function of the inputs, the corruption schedule
    and the key material, none of which vary inside a batch.  One real
    trial (full registry resolution, real seed/session — correct by
    definition) is frozen and replicated across the batch; bit-identity
    across sessions is what the equivalence grid pins.
    """

    _ADVERSARY_PARAMS = {
        "straddle13": frozenset({"victims", "down_group"}),
        "bare_straddle12": frozenset({"victims", "iteration_rounds"}),
        "two_face": frozenset({"victims"}),
    }

    @classmethod
    def unsupported_reason(cls, spec: TrialSpec) -> Optional[str]:
        reason = _hashable_inputs_reason(spec)
        if reason is not None:
            return reason
        if spec.adversary is None:
            return None
        allowed = cls._ADVERSARY_PARAMS.get(spec.adversary)
        if allowed is None:
            return f"no replay model for adversary {spec.adversary!r}"
        return _victims_reason(spec, allowed)

    @staticmethod
    def run_batch(
        specs: List[TrialSpec],
    ) -> Tuple[List[ExecutionResult], List[_Leaf], int]:
        first = specs[0]
        probe = _probed(_table(first), "replay", lambda: _replay_trial(first))
        return _materialize([probe] * len(specs), first.inputs)


register_vector_model("ba_one_third", None, _BaOneThirdModel)
register_vector_model("ba_one_third", "straddle13", _BaOneThirdModel)
register_vector_model("ba_one_half", None, _BaOneHalfModel)
register_vector_model("ba_one_half", "straddle12", _BaOneHalfModel)
register_vector_model("fm_probabilistic", None, _FmProbabilisticModel)
register_vector_model("turpin_coan_classic", None, _TurpinCoanModel)
register_vector_model("multivalued_ba", None, _MultivaluedBaModel)
register_vector_model("threshold_coin", None, _ThresholdCoinModel)
register_vector_model("threshold_coin", "withhold_coin", _ThresholdCoinModel)
register_vector_model("vrf_coin", None, _VrfCoinModel)
register_vector_model("vrf_coin", "withhold_coin", _VrfCoinModel)
register_vector_model("prox_one_third", None, _StaticReplayModel)
register_vector_model("prox_one_third", "straddle13", _StaticReplayModel)
register_vector_model("prox_one_third", "two_face", _StaticReplayModel)
register_vector_model("prox_linear_half", None, _StaticReplayModel)
register_vector_model("prox_linear_half", "two_face", _StaticReplayModel)
register_vector_model("prox_linear_half", "bare_straddle12", _StaticReplayModel)
register_vector_model("prox_quadratic_half", None, _StaticReplayModel)
register_vector_model("dolev_strong", None, _StaticReplayModel)
register_vector_model("prox_expand_once", None, _StaticReplayModel)
register_vector_model("proxcast", None, _StaticReplayModel)
register_vector_model("certificate_gradecast", None, _StaticReplayModel)
