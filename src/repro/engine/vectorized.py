"""Batch-vectorized trial execution: the ``backend="vector"`` engine path.

Monte-Carlo sweeps run hundreds of trials that differ *only* in
``(seed, session)``.  For the ideal-crypto backend those two fields are
nearly inert: party and adversary RNG streams are drawn but never consumed
by the paper's protocols, and the session string only enters HMAC tag
*bytes* — never the validity structure of shares and quorums.  One round of
a supported protocol therefore evolves identically across the whole batch
except for the coin values, and a coin value is a pure function of the
dealt coin key and the trial session —
:func:`repro.crypto.coin.coin_evaluator`, which a model builds once per
batch and coin index and calls once per trial.  The crypto layer owns the
formula and every encoded byte of it; this module only supplies sessions.

This module exploits that structure.  Per-party bits live in a ``(B, n)``
numpy array; each iteration groups rows by bit configuration, resolves the
iteration *transition* (per-party Proxcensus value/grade, per-round message
and signature tallies, coin-combine success) **once per distinct
configuration**, then applies the paper's extraction function as a
vectorized array expression over the batch's coin column.  Signature counts
come out of the per-configuration tallies arithmetically — no signature,
share or message object is ever materialized per trial.

What a trial costs is therefore its coin, its row of array arithmetic
and the result record it hands back.  Nothing per trial constructs a
``TrialSpec``: the chunk executor keys each spec once with
:func:`batch_key` — a plain tuple of the fields that are *not*
per-trial identity — groups on it, and asks :func:`unsupported_reason`
once per group.  Every model builds its results in one place,
:func:`_materialize`, which derives each distinct path's round count and
tally rows once per batch and stamps every trial on it with the same
frozen rows.

The transition itself is not re-derived by hand: it is obtained by running
the *object simulator* once per configuration on a single-iteration probe
program (the exact wire behavior of one ``Π_iter`` segment, including the
real adversary instance).  That makes the vector backend bit-identical to
the reference by construction — the only arithmetic this module trusts is
the coin evaluator and :func:`repro.core.extraction.extract`'s
closed form, both covered by the equivalence suite in
``tests/engine/test_vectorized.py``.

Metrics are native to this path.  Every probe runs with a
:class:`~repro.obs.metrics.MetricsRegistry` attached and keeps its frozen
delivery contribution beside its tallies; each model reports the
``(probe delivery, round offset)`` path every trial walked, and a
trial's registry is the round-shifted sum of the contributions on its
path plus ``finalize_trial`` of its result — equal, counter for counter,
to a registry observing the object simulator.  All label arithmetic stays
in ``repro.obs.metrics``; this module only names which probes ran when.

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
from collections import Counter, OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # numpy is an engine-layer acceleration; protocol code never needs it
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain ships numpy
    _np = None

from ..core.extraction import extract
from ..core.probabilistic import ProbTermOutput
from ..crypto.coin import coin_evaluator, threshold_coin_program
from ..crypto.vrf_coin import vrf_coin_from_evaluations, vrf_evaluator
from ..network.messages import get_field
from ..network.metrics import RunMetrics
from ..network.party import resume_with, run_parallel
from ..network.simulator import ExecutionResult, SyncSimulator
from ..obs.metrics import DeliveryContribution, MetricsRegistry
from ..proxcensus.linear_half import prox_linear_half_program
from ..proxcensus.one_third import prox_one_third_program
from .plan import TrialSpec
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

# (batch_key(spec), probe token) → probe.  A bounded LRU, shared across
# chunks and batches: AdaptiveRunner streams many small batches of the
# same configurations, so evicting least-recently-used entries (rather
# than clearing wholesale) keeps the per-config probes hot across the
# whole run.  Hit/miss counters feed the ``probe_cache`` telemetry spans.
_PROBE_CACHE: "OrderedDict[Any, Any]" = OrderedDict()
_PROBE_CACHE_LIMIT = 1024
_PROBE_CACHE_HITS = 0
_PROBE_CACHE_MISSES = 0


def _probe_cached(key: Any, build) -> Any:
    """LRU-memoized probe lookup; ``build()`` runs on a miss."""
    global _PROBE_CACHE_HITS, _PROBE_CACHE_MISSES
    entry = _PROBE_CACHE.get(key)
    if entry is not None:
        _PROBE_CACHE.move_to_end(key)
        _PROBE_CACHE_HITS += 1
        return entry
    _PROBE_CACHE_MISSES += 1
    entry = build()
    _PROBE_CACHE[key] = entry
    while len(_PROBE_CACHE) > _PROBE_CACHE_LIMIT:
        _PROBE_CACHE.popitem(last=False)
    return entry


def probe_cache_stats() -> Dict[str, int]:
    """Lifetime probe-cache counters for this process."""
    return {
        "hits": _PROBE_CACHE_HITS,
        "misses": _PROBE_CACHE_MISSES,
        "size": len(_PROBE_CACHE),
        "limit": _PROBE_CACHE_LIMIT,
    }


def clear_probe_cache() -> None:
    """Drop all cached probes and registry classes; reset the hit/miss counters."""
    global _PROBE_CACHE_HITS, _PROBE_CACHE_MISSES
    _PROBE_CACHE.clear()
    _CLASS_CACHE.clear()
    _PROBE_CACHE_HITS = 0
    _PROBE_CACHE_MISSES = 0


@dataclasses.dataclass(frozen=True, eq=False)
class _Delivery:
    """What one probe execution put on the wire, in both metric vocabularies.

    ``tallies`` are the ``RunMetrics`` rows of its ``rounds`` rounds in
    execution order; ``contribution`` is the un-finalised
    ``MetricsRegistry`` snapshot of the same deliveries.  Compared and
    hashed by identity, because a trial's *path* — the ``(delivery,
    round_offset)`` sequence its model walked — keys the registry
    classes in :func:`_compose_registries`.
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


def _materialize(
    outputs: Any,
    paths: Sequence[_Path],
    inputs: Sequence[Any],
    corrupted: frozenset = frozenset(),
    finish: Optional[List[Dict[int, int]]] = None,
) -> Tuple[List[ExecutionResult], Sequence[_Path]]:
    """One ``ExecutionResult`` per trial of a batch, plus ``paths``.

    Every model's ``run_batch`` ends here.  ``outputs`` is the batch's
    ``(B, n)`` array of output bits (converted with one ``tolist``) or a
    list of ready ``{pid: output}`` dicts; ``finish`` lists each trial's
    ready ``{pid: round}`` dict, ``None`` meaning every party returns in
    its trial's last round.  A trial's round count and tally rows follow
    from its path, so they are derived once per *distinct* path and
    every trial on it is stamped with the same frozen rows, which
    ``RunMetrics`` holds as given.
    """
    if not isinstance(outputs, list):
        outputs = [dict(enumerate(row)) for row in outputs.tolist()]
    inputs_map = dict(enumerate(inputs))
    stamps: Dict[_Path, Tuple[int, tuple]] = {}
    path = None
    results = []
    for row, trial_outputs in enumerate(outputs):
        if paths[row] is not path:
            path = paths[row]
            stamp = stamps.get(path)
            if stamp is None:
                stamp = stamps[path] = (
                    max((at + step.rounds for step, at in path), default=0),
                    tuple(
                        (at + round_index, hm, cm, hs, cs)
                        for step, at in path
                        for round_index, hm, cm, hs, cs in step.tallies
                    ),
                )
            rounds, tallies = stamp
        results.append(
            ExecutionResult(
                outputs=trial_outputs,
                corrupted=set(corrupted),
                metrics=RunMetrics.from_round_tallies(rounds, tallies),
                inputs=inputs_map.copy(),
                finish_rounds=(
                    dict.fromkeys(trial_outputs, rounds)
                    if finish is None
                    else finish[row]
                ),
            )
        )
    return results, paths


@dataclasses.dataclass(frozen=True)
class _IterationProbe:
    """The batch-invariant outcome of one iteration for one configuration.

    ``values``/``grades`` are the per-party Proxcensus outputs (already
    passed through ``Π_iter``'s non-bit guard), ``coin_ok`` whether each
    party's coin combine succeeds (a structural fact: share counts),
    ``delivery`` what the iteration's rounds put on the wire, and
    ``corrupted`` the corruption set after the iteration.
    """

    values: Tuple[int, ...]
    grades: Tuple[int, ...]
    coin_ok: Tuple[bool, ...]
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
        "numpy unavailable",
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
    if _np is None:
        return "numpy unavailable"
    if not spec.vectorizable:
        return "spec opted out (vectorizable=False)"
    if spec.faults is not None:
        # Unreachable through TrialSpec (__post_init__ forces the flag
        # off), kept as a guard: the lockstep models simulate the clean
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
    """Execute same-configuration supported specs in one lockstep batch.

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


# (path, outputs, finish rounds, corrupted set) → the finalized registry
# of that outcome class.  An LRU beside the probe cache and cleared with
# it; a key holds its path's ``_Delivery`` objects, so a probe evicted
# and re-run gets a new key and can only miss, never alias.
_CLASS_CACHE: "OrderedDict[Any, MetricsRegistry]" = OrderedDict()
_CLASS_CACHE_LIMIT = 1024


def _compose_registries(
    members: Sequence[Tuple[int, TrialSpec]],
    outcomes: Sequence[ExecutionResult],
    paths: Sequence[_Path],
    metrics: Dict[int, Any],
) -> None:
    """Fill ``metrics`` with one registry per batched trial.

    A trial's registry is the round-shifted sum of the probe deliveries
    on its path, finalized with its own result — exactly what a registry
    observing the object simulator would hold.  Trials sharing a path
    and an outcome share that registry's *value*, so each such class is
    composed once per process and every trial is stamped from it: a
    pointer to the shared snapshot, copied only if someone touches it.
    """
    classes: Dict[Any, MetricsRegistry] = {}  # this batch's: one LRU touch each
    for (index, _), result, path in zip(members, outcomes, paths):
        key = (
            path,
            tuple(result.outputs.items()),
            tuple(result.finish_rounds.items()),
            frozenset(result.corrupted),
        )
        registry = classes.get(key)
        if registry is None:
            registry = _CLASS_CACHE.get(key)
            if registry is None:
                registry = _CLASS_CACHE[key] = MetricsRegistry.from_deliveries(
                    (delivery.contribution, offset) for delivery, offset in path
                )
                registry.finalize_trial(result)
                while len(_CLASS_CACHE) > _CLASS_CACHE_LIMIT:
                    _CLASS_CACHE.popitem(last=False)
            else:
                _CLASS_CACHE.move_to_end(key)
            classes[key] = registry
        metrics[index] = registry.stamp()


def execute_chunk(
    chunk: Sequence[Tuple[int, TrialSpec]],
    trace_dir: Optional[str] = None,
    metrics: Optional[Dict[int, Any]] = None,
) -> Tuple[List[Tuple[int, ExecutionResult]], Dict[str, Any]]:
    """Run a chunk of (index, spec) pairs, batching what the models support.

    The vector entry point the runner uses for ``backend="vector"``:
    eligible specs are grouped by :func:`batch_key` and executed in
    lockstep; everything else (plus whole batches whose probe invariants
    fail) takes the object simulator.  Returns the results in chunk order
    plus batching stats for telemetry: ``{"batched", "fallback",
    "batches": [{"config", "size"}, ...], "cache_hits", "cache_misses",
    "fallback_reasons": {reason: count}}`` — the reason tally is what
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
    for members in groups.values():
        specs = [spec for _, spec in members]
        first = specs[0]
        reason = unsupported_reason(first)
        if reason is None:
            try:
                outcomes, paths = vector_model_for(
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
        for (index, _), result in zip(members, outcomes):
            results[index] = result
        if metrics is not None:
            _compose_registries(members, outcomes, paths, metrics)
        batches.append({"config": first.config_key, "size": len(members)})
    for index, spec in fallback:
        results[index] = _run_indexed_trial(index, spec, trace_dir, metrics)
    cache_after = probe_cache_stats()
    stats = {
        "batched": len(chunk) - len(fallback),
        "fallback": len(fallback),
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


def _extract_array(values, grades_arr, coins, slots: int):
    """Vectorized :func:`repro.core.extraction.extract` over ``(B, n)`` arrays."""
    grades = (slots - 1) // 2
    parity = slots % 2
    hit_one = coins <= grades_arr + (grades + 1 - parity)
    hit_zero = coins <= (grades - grades_arr)
    return _np.where(values == 1, hit_one, hit_zero).astype(_np.int64)


def _simulate_probe(
    spec: TrialSpec, factory, inputs: Sequence[Any], adversary=None
) -> Tuple[ExecutionResult, _Delivery]:
    """Run a probe program on the object simulator, metrics attached.

    Fixed seed and session (see :func:`_run_probe`).  Every probe carries
    a registry: probes are cached, so the collector's cost is paid once
    per configuration and metrics need no second kind of probe.
    """
    registry = MetricsRegistry()
    simulator = SyncSimulator(
        num_parties=spec.num_parties,
        max_faulty=spec.max_faulty,
        crypto=_suite(spec),
        adversary=adversary,
        seed=0,
        session=_PROBE_SESSION,
        max_rounds=spec.max_rounds,
        observers=(registry,),
        collect_signatures=spec.collect_signatures,
    )
    result = simulator.run(factory, list(inputs))
    return result, _freeze_delivery(result, registry)


def _run_probe(
    spec: TrialSpec,
    bits: Tuple[int, ...],
    factory,
    iteration_rounds: int,
) -> _IterationProbe:
    """One object-simulator execution of a single-iteration probe program.

    Memoized on ``(batch_key(spec), bits)`` — the key tuple, so two specs
    differing only in per-trial identity share the probe.  The probe runs
    under a fixed session and seed — legitimate because supported
    protocols never consume party/adversary RNG streams and signature
    *structure* is session-independent; only coin values differ, and
    those are computed per trial by the batch's
    :func:`~repro.crypto.coin.coin_evaluator`.
    """
    memo_key = (batch_key(spec), bits)
    return _probe_cached(
        memo_key, lambda: _execute_probe(spec, bits, factory, iteration_rounds)
    )


def _execute_probe(
    spec: TrialSpec,
    bits: Tuple[int, ...],
    factory,
    iteration_rounds: int,
) -> _IterationProbe:
    adversary = build_adversary(spec.adversary, spec.adversary_param_dict, None)
    result, delivery = _simulate_probe(spec, factory, bits, adversary)

    n = spec.num_parties
    values: List[int] = []
    grades: List[int] = []
    coin_ok: List[bool] = []
    for pid in range(n):
        if result.outputs.get(pid) is None or result.finish_rounds.get(
            pid
        ) != iteration_rounds:
            raise VectorModelError(
                f"probe party {pid} did not finish in {iteration_rounds} rounds"
            )
        prox_output, coin = result.outputs[pid]
        value, grade = prox_output
        if value not in (0, 1):  # Π_iter's defensive non-bit guard
            value, grade = 0, 0
        values.append(int(value))
        grades.append(int(grade))
        coin_ok.append(coin is not None)
    if result.metrics.rounds != iteration_rounds:
        raise VectorModelError("probe round count mismatch")
    return _IterationProbe(
        values=tuple(values),
        grades=tuple(grades),
        coin_ok=tuple(coin_ok),
        delivery=delivery,
        corrupted=frozenset(result.corrupted),
    )


# ── Replay probes: one full reference execution, replicated per trial ────


@dataclasses.dataclass(frozen=True)
class _ReplayProbe:
    """A complete object-simulator execution, frozen for replication.

    ``outputs`` and ``finish`` preserve the simulator's recording order
    (parties return in (round, pid) order) so replicated results are
    bit-identical down to dict insertion order.
    """

    outputs: Tuple[Tuple[int, Any], ...]
    finish: Tuple[Tuple[int, int], ...]
    corrupted: frozenset
    delivery: _Delivery

    def replicate(
        self, outputs: List[Dict[int, Any]], inputs: Sequence[Any]
    ) -> Tuple[List[ExecutionResult], Sequence[_Path]]:
        """One result per ``outputs`` dict, each with this probe's wire outcome."""
        return _materialize(
            outputs,
            [((self.delivery, 0),)] * len(outputs),
            inputs,
            self.corrupted,
            [dict(self.finish) for _ in outputs],
        )


def _replay_trial(spec: TrialSpec) -> _ReplayProbe:
    """One real ``run_trial`` on ``spec`` (metrics attached), frozen."""
    from .runner import run_trial  # circular at import time

    registry = MetricsRegistry()
    result = run_trial(spec, (registry,))
    return _ReplayProbe(
        outputs=tuple(result.outputs.items()),
        finish=tuple(result.finish_rounds.items()),
        corrupted=frozenset(result.corrupted),
        delivery=_freeze_delivery(result, registry),
    )


def _run_replay_probe(spec: TrialSpec, token: Any) -> _ReplayProbe:
    """One real ``run_trial`` on ``spec``, frozen and LRU-cached.

    Unlike :func:`_run_probe` this runs the spec *as given* (its own seed
    and session) through the full object path — registry-resolved factory
    and adversary included — so the probe trial's result is correct by
    definition; replication to the rest of the batch rests on the
    session-invariance argument of the module docstring, pinned by the
    equivalence grid.
    """
    memo_key = (batch_key(spec), token)
    return _probe_cached(memo_key, lambda: _replay_trial(spec))


def _bit_input_reason(spec: TrialSpec) -> Optional[str]:
    for value in spec.inputs:
        # Strict ints only: bool inputs pass the protocols' `bit in (0, 1)`
        # check but tangle value identity in repr-keyed tallies — the
        # object path handles them, so they simply are not vectorized.
        if type(value) is not int or value not in (0, 1):
            return f"non-bit input {value!r}"
    return None


def _kappa_reason(spec: TrialSpec) -> Optional[str]:
    params = spec.param_dict
    if set(params) != {"kappa"}:
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


class _BaOneThirdModel:
    """Vector model for ``ba_one_third`` × {no adversary, ``straddle13``}.

    The whole protocol is a single ``Π_iter``: the probe covers all κ+1
    rounds, so the batch shares one transition and only the final
    extraction varies per trial.
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
    def _probe_factory(kappa: int):
        # Wire-identical to ba_one_third_program (Π_iter, overlap_coin
        # False), except it returns (prox_output, coin) instead of the
        # extracted bit — extraction happens vectorized, per trial.
        low, high = 1, 2 ** kappa

        def factory(ctx, bit):
            prox_output = yield from prox_one_third_program(ctx, bit, rounds=kappa)
            coin = yield from threshold_coin_program(
                ctx, ("ba13", kappa), low, high
            )
            return (prox_output, coin)

        return factory

    @classmethod
    def run_batch(
        cls, specs: List[TrialSpec]
    ) -> Tuple[List[ExecutionResult], List[_Path]]:
        first = specs[0]
        suite = _suite(first)
        kappa = first.param_dict["kappa"]
        slots = 2 ** kappa + 1
        low, high = 1, slots - 1

        probe = _run_probe(
            first, tuple(first.inputs), cls._probe_factory(kappa), kappa + 1
        )

        batch = len(specs)
        coin = coin_evaluator(suite.coin, ("ba13", kappa), low, high)
        coins = _np.fromiter(
            (coin(spec.session) for spec in specs), dtype=_np.int64, count=batch
        )
        values = _np.array(probe.values, dtype=_np.int64)[None, :]
        grades = _np.array(probe.grades, dtype=_np.int64)[None, :]
        ok = _np.array(probe.coin_ok, dtype=bool)[None, :]
        coin_matrix = _np.where(ok, coins[:, None], low)
        out_bits = _extract_array(values, grades, coin_matrix, slots)

        return _materialize(
            out_bits, [((probe.delivery, 0),)] * batch, first.inputs, probe.corrupted
        )


# ── ba_one_half: ⌈κ/2⌉ iterations of Π_iter^5, coin ∥ Prox round 3 ──────


class _BaOneHalfModel:
    """Vector model for ``ba_one_half`` × {no adversary, ``straddle12``}.

    Iterations are independent 3-round segments (the adversary's state is
    per-iteration), so each is one probe per distinct bit configuration;
    bit configurations are tracked lockstep in a ``(B, n)`` array and
    re-grouped per iteration as coins split the batch.
    """

    ITERATION_ROUNDS = 3

    @staticmethod
    def unsupported_reason(spec: TrialSpec) -> Optional[str]:
        reason = _bit_input_reason(spec) or _kappa_reason(spec)
        if reason is not None:
            return reason
        n, t = spec.num_parties, spec.max_faulty
        if 2 * t >= n:
            return "regime violation 2t >= n (object path raises)"
        kappa = spec.param_dict["kappa"]
        iterations = -(-kappa // 2)
        if spec.max_rounds < 3 * iterations:
            return "max_rounds below protocol length (object path raises)"
        if spec.adversary == "straddle12":
            reason = _victims_reason(
                spec, frozenset({"victims", "iteration_rounds"})
            )
            if reason is not None:
                return reason
            rounds = spec.adversary_param_dict.get("iteration_rounds", 3)
            if rounds != _BaOneHalfModel.ITERATION_ROUNDS:
                return "straddle12 with non-standard iteration_rounds"
        elif spec.adversary is not None:
            return f"no ba_one_half vector model for {spec.adversary!r}"
        return None

    @staticmethod
    def _probe_factory():
        # Wire-identical to one ba_one_half iteration: Π_iter^5 with the
        # 3-round Prox (rounds 1–2 driven directly, round 3 parallel with
        # the coin), under the iter0 subsession the fresh per-iteration
        # adversary also derives.  Returns (prox_output, coin) raw.
        def factory(ctx, bit):
            iteration_ctx = ctx.subsession("iter0")
            prox = prox_linear_half_program(iteration_ctx, bit, rounds=3)
            outbox = next(prox)
            for _ in range(2):
                inbox = yield outbox
                outbox = prox.send(inbox)
            results = yield from run_parallel(
                iteration_ctx,
                {
                    "prox": resume_with(prox, outbox),
                    "coin": threshold_coin_program(
                        iteration_ctx, ("ba12", 0), 1, 4
                    ),
                },
            )
            return (results["prox"], results["coin"])

        return factory

    @classmethod
    def run_batch(
        cls, specs: List[TrialSpec]
    ) -> Tuple[List[ExecutionResult], List[_Path]]:
        first = specs[0]
        suite = _suite(first)
        kappa = first.param_dict["kappa"]
        iterations = -(-kappa // 2)
        factory = cls._probe_factory()

        batch = len(specs)
        bits = _np.tile(_np.array(first.inputs, dtype=_np.int64), (batch, 1))
        walked: List[List[Tuple[_Delivery, int]]] = [[] for _ in range(batch)]
        corrupted: frozenset = frozenset()

        for iteration in range(iterations):
            # Group batch rows by bit configuration; probe each once.
            group_of: Dict[bytes, int] = {}
            inverse = _np.empty(batch, dtype=_np.int64)
            probes: List[_IterationProbe] = []
            for row in range(batch):
                config = bits[row].tobytes()
                group = group_of.get(config)
                if group is None:
                    group = group_of[config] = len(probes)
                    probes.append(
                        _run_probe(
                            first,
                            tuple(int(b) for b in bits[row]),
                            factory,
                            cls.ITERATION_ROUNDS,
                        )
                    )
                inverse[row] = group
            corrupted = probes[0].corrupted

            coin = coin_evaluator(suite.coin, ("ba12", iteration), 1, 4)
            coins = _np.fromiter(
                (coin(f"{spec.session}/iter{iteration}") for spec in specs),
                dtype=_np.int64,
                count=batch,
            )
            values = _np.array([p.values for p in probes], dtype=_np.int64)
            grades = _np.array([p.grades for p in probes], dtype=_np.int64)
            ok = _np.array([p.coin_ok for p in probes], dtype=bool)
            coin_matrix = _np.where(ok[inverse], coins[:, None], 1)
            bits = _extract_array(
                values[inverse], grades[inverse], coin_matrix, 5
            )

            offset = cls.ITERATION_ROUNDS * iteration
            steps = [(probe.delivery, offset) for probe in probes]
            for row, group in enumerate(inverse.tolist()):
                walked[row].append(steps[group])

        return _materialize(
            bits, [tuple(walk) for walk in walked], first.inputs, corrupted
        )


# ── fm_probabilistic: per-iteration lockstep with halting parties ───────


_FM_HALTED = "h"  # probe token for a party that has already returned
_FM_MAX_ITERATIONS = 64  # fm_probabilistic_program's default cap


@dataclasses.dataclass(frozen=True)
class _FmIterationProbe:
    """One fm iteration's transition for a (bit/halted) token configuration.

    Halted parties hold ``None`` values/grades (they sent nothing); the
    delivery covers the remaining active parties' three rounds.
    """

    values: Tuple[Optional[int], ...]
    grades: Tuple[Optional[int], ...]
    coin_ok: Tuple[bool, ...]
    delivery: _Delivery


def _fm_probe_factory():
    # Wire-identical to one fm_probabilistic iteration: the 2-round
    # Prox_5 followed by the coin, under the pt1 subsession (structure is
    # iteration-independent; only coin *values* differ, derived per
    # trial/iteration).  A halted token returns before the first yield —
    # exactly what a returned party contributes to later rounds: nothing.
    def factory(ctx, token):
        if token == _FM_HALTED:
            return None
        iteration_ctx = ctx.subsession("pt1")
        value, grade = yield from prox_one_third_program(
            iteration_ctx, token, rounds=2
        )
        coin = yield from threshold_coin_program(iteration_ctx, ("pt", 1), 1, 4)
        return (value, grade, coin)

    return factory


def _run_fm_probe(spec: TrialSpec, tokens: Tuple[Any, ...]) -> _FmIterationProbe:
    memo_key = (batch_key(spec), ("fm-state", tokens))
    return _probe_cached(memo_key, lambda: _execute_fm_probe(spec, tokens))


def _execute_fm_probe(spec: TrialSpec, tokens: Tuple[Any, ...]) -> _FmIterationProbe:
    result, delivery = _simulate_probe(spec, _fm_probe_factory(), tokens)
    rounds = 3
    values: List[Optional[int]] = []
    grades: List[Optional[int]] = []
    coin_ok: List[bool] = []
    for pid, token in enumerate(tokens):
        if token == _FM_HALTED:
            if result.finish_rounds.get(pid) != 0:
                raise VectorModelError(f"halted probe party {pid} sent messages")
            values.append(None)
            grades.append(None)
            coin_ok.append(False)
            continue
        if (
            result.outputs.get(pid) is None
            or result.finish_rounds.get(pid) != rounds
        ):
            raise VectorModelError(
                f"fm probe party {pid} did not finish in {rounds} rounds"
            )
        value, grade, coin = result.outputs[pid]
        values.append(value)
        grades.append(grade)
        coin_ok.append(coin is not None)
    if result.metrics.rounds != rounds:
        raise VectorModelError("fm probe round count mismatch")
    return _FmIterationProbe(
        values=tuple(values),
        grades=tuple(grades),
        coin_ok=tuple(coin_ok),
        delivery=delivery,
    )


class _FmProbabilisticModel:
    """Vector model for ``fm_probabilistic`` × no adversary.

    The probabilistic-termination loop is simulated iteration by
    iteration: each iteration's wire dynamics come from one probe per
    distinct (bit, halted) token configuration, the per-trial coin is the
    usual pure function of (key material, session, iteration), and the
    decide/adopt/coin-flip branching of
    :func:`~repro.core.probabilistic.fm_probabilistic_program` is applied
    in plain arithmetic.  Parties halt in *different* rounds — the model
    reproduces the termination spread, per-party finish rounds included.
    """

    ITERATION_ROUNDS = 3

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
        if spec.max_rounds < 3 * _FM_MAX_ITERATIONS:
            return "max_rounds below the iteration cap (object path may raise)"
        return None

    @classmethod
    def run_batch(
        cls, specs: List[TrialSpec]
    ) -> Tuple[List[ExecutionResult], List[_Path]]:
        first = specs[0]
        suite = _suite(first)
        n = first.num_parties
        coins: List[Any] = []  # coins[i]: iteration i + 1's evaluator

        outputs_of: List[Dict[int, ProbTermOutput]] = []
        finish_of: List[Dict[int, int]] = []
        paths: List[_Path] = []
        for spec in specs:
            bits = [int(b) for b in first.inputs]
            decided: Dict[int, Tuple[int, int]] = {}  # pid -> (value, iteration)
            halted: set = set()
            outputs: Dict[int, ProbTermOutput] = {}
            finish: Dict[int, int] = {}
            walked: List[Tuple[_Delivery, int]] = []
            for iteration in range(1, _FM_MAX_ITERATIONS + 1):
                if len(halted) == n:
                    break
                tokens = tuple(
                    _FM_HALTED if pid in halted else bits[pid] for pid in range(n)
                )
                probe = _run_fm_probe(first, tokens)
                if iteration > len(coins):
                    coins.append(coin_evaluator(suite.coin, ("pt", iteration), 1, 4))
                coin = coins[iteration - 1](f"{spec.session}/pt{iteration}")
                walked.append(
                    (probe.delivery, cls.ITERATION_ROUNDS * (iteration - 1))
                )
                rounds_total = cls.ITERATION_ROUNDS * iteration
                for pid in range(n):
                    if pid in halted:
                        continue
                    value, grade = probe.values[pid], probe.grades[pid]
                    trial_coin = coin if probe.coin_ok[pid] else 1
                    if pid in decided and decided[pid][1] < iteration:
                        # The post-decision helper iteration is done.
                        outputs[pid] = ProbTermOutput(*decided[pid])
                        finish[pid] = rounds_total
                        halted.add(pid)
                    elif value in (0, 1) and grade == 2:
                        decided[pid] = (value, iteration)
                        bits[pid] = value
                    elif value in (0, 1) and grade >= 1:
                        bits[pid] = value
                    else:
                        bits[pid] = extract(0, 0, trial_coin, 5)
                if iteration == _FM_MAX_ITERATIONS:
                    # The program's cap: still-running parties return the
                    # working value with decided_iteration = the cap.
                    for pid in range(n):
                        if pid not in halted:
                            outputs[pid] = ProbTermOutput(
                                value=bits[pid],
                                decided_iteration=_FM_MAX_ITERATIONS,
                            )
                            finish[pid] = rounds_total
                            halted.add(pid)
            order = sorted(range(n), key=lambda pid: (finish[pid], pid))
            paths.append(tuple(walked))
            outputs_of.append({pid: outputs[pid] for pid in order})
            finish_of.append({pid: finish[pid] for pid in order})
        return _materialize(outputs_of, paths, first.inputs, finish=finish_of)


# ── turpin_coan_classic / multivalued_ba: deterministic + one inner coin ─


@dataclasses.dataclass(frozen=True)
class _LiftProbe:
    """Per-party (candidate value, inner-BA prox value/grade, coin_ok)."""

    candidates: Tuple[Any, ...]
    values: Tuple[int, ...]
    grades: Tuple[int, ...]
    coin_ok: Tuple[bool, ...]
    delivery: _Delivery
    corrupted: frozenset


def _run_lift_probe(
    spec: TrialSpec, token: Any, factory, total_rounds: int
) -> _LiftProbe:
    memo_key = (batch_key(spec), token)
    return _probe_cached(
        memo_key, lambda: _execute_lift_probe(spec, factory, total_rounds)
    )


def _execute_lift_probe(spec: TrialSpec, factory, total_rounds: int) -> _LiftProbe:
    result, delivery = _simulate_probe(spec, factory, spec.inputs)
    candidates: List[Any] = []
    values: List[int] = []
    grades: List[int] = []
    coin_ok: List[bool] = []
    for pid in range(spec.num_parties):
        if result.outputs.get(pid) is None or result.finish_rounds.get(
            pid
        ) != total_rounds:
            raise VectorModelError(
                f"lift probe party {pid} did not finish in {total_rounds} rounds"
            )
        candidate, prox_output, coin = result.outputs[pid]
        value, grade = prox_output
        if value not in (0, 1):  # Π_iter's defensive non-bit guard
            value, grade = 0, 0
        candidates.append(candidate)
        values.append(int(value))
        grades.append(int(grade))
        coin_ok.append(coin is not None)
    if result.metrics.rounds != total_rounds:
        raise VectorModelError("lift probe round count mismatch")
    return _LiftProbe(
        candidates=tuple(candidates),
        values=tuple(values),
        grades=tuple(grades),
        coin_ok=tuple(coin_ok),
        delivery=delivery,
        corrupted=frozenset(result.corrupted),
    )


def _hashable_inputs_reason(spec: TrialSpec) -> Optional[str]:
    try:
        hash(spec.inputs)
    except TypeError:
        return "unhashable inputs"
    return None


def _lift_params_reason(spec: TrialSpec, allowed: frozenset) -> Optional[str]:
    params = spec.param_dict
    if not set(params) <= allowed or "kappa" not in params:
        return f"unsupported protocol params {sorted(params)}"
    kappa = params["kappa"]
    if type(kappa) is not int or kappa < 1:
        return f"unsupported kappa {kappa!r}"
    return None


class _TurpinCoanModel:
    """Vector model for ``turpin_coan_classic`` × no adversary.

    The two echo rounds and the inner BA's Proxcensus are deterministic
    and session-invariant; only the inner coin varies per trial.  The
    probe mirrors the program but returns ``(candidate, prox_output,
    coin)`` instead of extracting, so extraction (and the candidate vs
    default choice) happens per trial from the derived coin value.
    """

    @staticmethod
    def unsupported_reason(spec: TrialSpec) -> Optional[str]:
        reason = _hashable_inputs_reason(spec) or _lift_params_reason(
            spec, frozenset({"kappa", "default"})
        )
        if reason is not None:
            return reason
        if spec.adversary is not None:
            return f"no turpin_coan_classic vector model for {spec.adversary!r}"
        n, t = spec.num_parties, spec.max_faulty
        if 3 * t >= n:
            return "regime violation 3t >= n (object path raises)"
        kappa = spec.param_dict["kappa"]
        if spec.max_rounds < kappa + 3:
            return "max_rounds below protocol length (object path raises)"
        return None

    @staticmethod
    def _probe_factory(kappa: int):
        # Rounds 1–2 are copied from turpin_coan_classic_program; the
        # inner ba_one_third is unrolled to its Π_iter components so the
        # probe can return the pre-extraction state.
        def factory(ctx, value):
            n, t = ctx.num_parties, ctx.max_faulty
            bottom = ("tc-bottom",)
            inbox = yield ctx.broadcast({"tc1": value})
            tally = Counter()
            for payload in inbox.values():
                v = get_field(payload, "tc1")
                try:
                    hash(v)
                except TypeError:
                    continue
                tally[v] += 1
            echo = next((v for v, c in tally.items() if c >= n - t), bottom)

            inbox = yield ctx.broadcast({"tc2": echo})
            tally = Counter()
            for payload in inbox.values():
                v = get_field(payload, "tc2")
                try:
                    hash(v)
                except TypeError:
                    continue
                if v != bottom:
                    tally[v] += 1
            if tally:
                candidate, count = max(
                    tally.items(), key=lambda kv: (kv[1], repr(kv[0]))
                )
            else:
                candidate, count = None, 0
            bit = 1 if count >= n - t else 0
            ba_ctx = ctx.subsession("tc-ba")
            prox_output = yield from prox_one_third_program(
                ba_ctx, bit, rounds=kappa
            )
            coin = yield from threshold_coin_program(
                ba_ctx, ("ba13", kappa), 1, 2 ** kappa
            )
            return (candidate, prox_output, coin)

        return factory

    @classmethod
    def run_batch(
        cls, specs: List[TrialSpec]
    ) -> Tuple[List[ExecutionResult], List[_Path]]:
        first = specs[0]
        kappa = first.param_dict["kappa"]
        probe = _run_lift_probe(
            first, "tc", cls._probe_factory(kappa), kappa + 3
        )
        return _finish_lift_batch(specs, probe, "tc-ba", tally_is_candidate=True)


class _MultivaluedBaModel:
    """Vector model for ``multivalued_ba`` × no adversary (t < n/3 regime).

    Same structure as the Turpin–Coan model: a deterministic multivalued
    Proxcensus, then the inner binary BA whose single coin is the only
    per-trial variation.  The ``one_half`` regime is not modeled (its
    inner BA runs ⌈κ/2⌉ coins; those sweeps fall back per spec).
    """

    @staticmethod
    def unsupported_reason(spec: TrialSpec) -> Optional[str]:
        reason = _hashable_inputs_reason(spec) or _lift_params_reason(
            spec, frozenset({"kappa", "regime", "default"})
        )
        if reason is not None:
            return reason
        regime = spec.param_dict.get("regime", "one_third")
        if regime != "one_third":
            return f"regime {regime!r} not modeled (multi-coin inner BA)"
        if spec.adversary is not None:
            return f"no multivalued_ba vector model for {spec.adversary!r}"
        n, t = spec.num_parties, spec.max_faulty
        if 3 * t >= n:
            return "regime violation 3t >= n (object path raises)"
        kappa = spec.param_dict["kappa"]
        if spec.max_rounds < kappa + 3:
            return "max_rounds below protocol length (object path raises)"
        return None

    @staticmethod
    def _probe_factory(kappa: int):
        def factory(ctx, value):
            prox_ctx = ctx.subsession("mv-prox")
            output = yield from prox_one_third_program(prox_ctx, value, rounds=2)
            bit = 1 if output.grade == 2 else 0
            ba_ctx = ctx.subsession("mv-ba")
            prox_output = yield from prox_one_third_program(
                ba_ctx, bit, rounds=kappa
            )
            coin = yield from threshold_coin_program(
                ba_ctx, ("ba13", kappa), 1, 2 ** kappa
            )
            return (output.value, prox_output, coin)

        return factory

    @classmethod
    def run_batch(
        cls, specs: List[TrialSpec]
    ) -> Tuple[List[ExecutionResult], List[_Path]]:
        first = specs[0]
        kappa = first.param_dict["kappa"]
        probe = _run_lift_probe(
            first, "mv", cls._probe_factory(kappa), kappa + 3
        )
        return _finish_lift_batch(specs, probe, "mv-ba", tally_is_candidate=False)


def _finish_lift_batch(
    specs, probe: _LiftProbe, subsession: str, tally_is_candidate: bool
) -> Tuple[List[ExecutionResult], List[_Path]]:
    """Apply the per-trial coin + extraction to a multivalued-lift probe.

    The inner BA runs under ``subsession``.  ``tally_is_candidate``
    distinguishes Turpin–Coan (a ``None`` candidate means the echo tally
    was empty, so the *default* is the candidate too) from the
    Proxcensus lift (the candidate is the party's graded value, never
    substituted).
    """
    first = specs[0]
    kappa = first.param_dict["kappa"]
    default = first.param_dict.get("default", "∅")
    slots = 2 ** kappa + 1
    low, high = 1, slots - 1
    batch = len(specs)
    coin = coin_evaluator(_suite(first).coin, ("ba13", kappa), low, high)
    coins = _np.fromiter(
        (coin(f"{spec.session}/{subsession}") for spec in specs),
        dtype=_np.int64,
        count=batch,
    )
    values = _np.array(probe.values, dtype=_np.int64)[None, :]
    grades = _np.array(probe.grades, dtype=_np.int64)[None, :]
    ok = _np.array(probe.coin_ok, dtype=bool)[None, :]
    coin_matrix = _np.where(ok, coins[:, None], low)
    decisions = _extract_array(values, grades, coin_matrix, slots)

    # Per party: what it outputs on decision 0 and on decision 1.
    choices = [
        (default, default if tally_is_candidate and candidate is None else candidate)
        for candidate in probe.candidates
    ]
    outputs = [
        {pid: choices[pid][bit] for pid, bit in enumerate(row)}
        for row in decisions.tolist()
    ]
    return _materialize(
        outputs, [((probe.delivery, 0),)] * batch, first.inputs, probe.corrupted
    )


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
    ) -> Tuple[List[ExecutionResult], List[_Path]]:
        first = specs[0]
        suite = _suite(first)
        coin = coin_evaluator(suite.coin, *_coin_protocol_params(first))

        def build() -> _ReplayProbe:
            frozen = _replay_trial(first)
            expected = coin(first.session)
            ok: List[Tuple[int, Any]] = []
            for pid, output in frozen.outputs:
                if output is not None and output != expected:
                    raise VectorModelError(
                        f"threshold coin probe mismatch for party {pid}"
                    )
                ok.append((pid, output is not None))
            # Replace the session-bound coin values with the ok mask so a
            # cross-batch cache hit (different session) stays valid.
            return dataclasses.replace(frozen, outputs=tuple(ok))

        probe = _probe_cached((batch_key(first), "coin-ok"), build)
        values = [coin(spec.session) for spec in specs]
        return probe.replicate(
            [
                {pid: value if ok else None for pid, ok in probe.outputs}
                for value in values
            ],
            first.inputs,
        )


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

    @classmethod
    def run_batch(
        cls, specs: List[TrialSpec]
    ) -> Tuple[List[ExecutionResult], List[_Path]]:
        first = specs[0]
        n = first.num_parties
        index, low, high = _coin_protocol_params(first)
        adversary = first.adversary_param_dict if first.adversary else {}
        victims = tuple(dict.fromkeys(adversary.get("victims", ())))
        honest = [pid for pid in range(n) if pid not in victims]
        # The reveal scan uses the adversary's own range and preference.
        adv_range = adversary.get("low", 0), adversary.get("high", 1)
        preferred = adversary.get("preferred", 1)
        evaluate = vrf_evaluator(_suite(first).plain, index)

        def outcome(session: str) -> Tuple[int, Optional[int]]:
            """(victims revealed, coin value) for one trial's session."""
            values = evaluate(session)  # every party's evaluation, once
            valid = {pid: values[pid] for pid in honest}
            revealed = 0
            if victims and valid and preferred != vrf_coin_from_evaluations(
                valid, session, index, *adv_range
            ):
                # Mirror WithholdingCoinAdversary.decide: smallest
                # evaluation first, reveal the first that steers.
                for pid in sorted(victims, key=values.__getitem__):
                    candidate = {**valid, pid: values[pid]}
                    if preferred == vrf_coin_from_evaluations(
                        candidate, session, index, *adv_range
                    ):
                        valid, revealed = candidate, 1
                        break
            return revealed, vrf_coin_from_evaluations(
                valid, session, index, low, high
            )

        def probe_for(spec: TrialSpec, revealed: int, predicted) -> _ReplayProbe:
            def build() -> _ReplayProbe:
                frozen = _replay_trial(spec)
                for pid, output in frozen.outputs:
                    if output != predicted:
                        raise VectorModelError(
                            f"vrf coin probe mismatch for party {pid}: "
                            f"{output!r} != {predicted!r}"
                        )
                # Outputs are session-bound; keep only the recording order
                # so cross-batch cache hits stay valid.
                return dataclasses.replace(
                    frozen,
                    outputs=tuple((pid, None) for pid, _out in frozen.outputs),
                )

            memo_key = (batch_key(spec), ("vrf-reveal", revealed))
            return _probe_cached(memo_key, build)

        # One probe per reveal count; each stamps its own trials.
        rows_of: Dict[int, List[int]] = {}
        coins = []
        for row, spec in enumerate(specs):
            revealed, coin = outcome(spec.session)
            rows_of.setdefault(revealed, []).append(row)
            coins.append(coin)
        results: List[Any] = [None] * len(specs)
        paths: List[Any] = [None] * len(specs)
        for revealed, rows in rows_of.items():
            probe = probe_for(specs[rows[0]], revealed, coins[rows[0]])
            pids = [pid for pid, _none in probe.outputs]
            stamped = probe.replicate(
                [dict.fromkeys(pids, coins[row]) for row in rows], first.inputs
            )
            for row, result, path in zip(rows, *stamped):
                results[row], paths[row] = result, path
        return results, paths


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
    ) -> Tuple[List[ExecutionResult], List[_Path]]:
        probe = _run_replay_probe(specs[0], "replay")
        return probe.replicate(
            [dict(probe.outputs) for _ in specs], specs[0].inputs
        )


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
