"""Parallel Monte-Carlo execution: fan a :class:`TrialPlan` across workers.

The runner exploits the one structural fact every experiment shares:
trials are *independent* executions whose outcomes are pure functions of
their :class:`~repro.engine.plan.TrialSpec`.  So the fan-out is
embarrassingly parallel, and the contract is strict determinism:

    ``ParallelRunner(workers=k).run(plan)`` is byte-identical for every
    ``k`` — same outputs, same corrupted sets, same metrics, same order.

How that is kept true:

* every per-trial random stream (party RNGs, adversary RNG) derives from
  ``spec.seed``, fixed at plan-build time;
* key material derives from ``spec.setup_seed`` — dealing is a pure
  function of ``spec.suite_key``, cached per process, so it does not
  matter *where* a suite is dealt: a worker dealing on miss and the
  parent pre-dealing produce bit-identical keys;
* results are reassembled in plan order, whatever the completion order.

Two overheads are kept off the critical path:

* **IPC**: workers return one compact
  :class:`~repro.engine.transport.ChunkSummary` per chunk (varint-packed
  tallies and decisions) instead of pickled ``ExecutionResult`` trees;
  the parent rebuilds the dataclasses losslessly.
* **Setup**: for ``backend="real"`` plans the parent pre-deals each
  distinct ``suite_key`` once — fanning distinct keys across a dealing
  pool when there are several — and broadcasts the dealt suites to
  workers through the pool initializer, so threshold-RSA setup no longer
  repeats per worker process.

Dispatch is chunked: contiguous runs of trials ship as one task so the
per-task pickling/IPC overhead amortizes, with four chunks per worker to
keep the pool load-balanced when trial durations vary.

There is one way to run a plan: :meth:`ParallelRunner.run_iter` opens
it (directories, ``run_start``, pre-deal, pool) and streams its chunks —
in this process for ``workers=1`` (the default: no pool, no pickling),
else through the one worker entry point :func:`_run_chunk` — writing
their telemetry; ``run`` is ``run_iter`` collected.

Observability is opt-in and off the results path: ``trace_dir`` streams
one bounded-memory JSONL trace per trial (:mod:`repro.obs`) straight
from whichever process runs it to disk, and ``telemetry`` records
run/predeal/chunk scheduling spans for ``repro error-sweep
--telemetry``.
Neither changes what the trials compute — trace files are a pure
function of the spec, so serial and pooled runs write identical bytes.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import obs
from ..crypto.keys import CryptoSuite
from ..network.simulator import ExecutionResult, SyncSimulator
from ..network.trace import Tracer
from .plan import TrialPlan, TrialSpec
from .registry import build_adversary, build_fault_plan, build_protocol_factory

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from ..adversary.base import Adversary
    from ..network.faults import FaultCounts
    from ..obs.metrics import MetricsRegistry
    from ..obs.telemetry import TelemetryWriter
    from .transport import ChunkSummary

__all__ = [
    "ParallelRunner",
    "PlanResult",
    "TrialExecutionError",
    "WorkerLostError",
    "run_trial",
    "run_traced_trial",
    "run_measured_trial",
    "clamp_workers",
    "deal_suite",
    "predeal_suites",
    "clear_suite_cache",
]

SuiteKey = Tuple[str, int, int, int, int]
Chunk = Sequence[Tuple[int, TrialSpec]]
# A chunk's batching spans as data: ``(event, fields)``, label added on emit.
Spans = List[Tuple[str, Dict[str, Any]]]


def clamp_workers(requested: int) -> int:
    """Clamp a requested worker count to the CPUs actually present.

    A request below 1 is a ``ValueError``.  A request above
    ``os.cpu_count()`` is clamped down — extra processes on a saturated
    machine are pure scheduling overhead (the committed 1-CPU benchmark
    artifact measured a 0.79x "speedup" from a 4-process pool) — and the
    decision is logged so sweeps record why the pool shrank.  On a 1-CPU
    machine this returns 1, which makes the runner take the inline serial
    path: no pool, no IPC, no overhead.
    """
    cpus = os.cpu_count() or 1
    if requested < 1:
        raise ValueError("need at least one worker")
    if requested > cpus:
        import logging

        logging.getLogger(__name__).info(
            "clamping workers %d -> %d (cpu_count=%d): processes beyond the "
            "CPU count are pure overhead%s",
            requested,
            cpus,
            cpus,
            "; falling back to the inline serial path" if cpus == 1 else "",
        )
        return cpus
    return requested


# Per-process cache of dealt key material.  Worker processes are reused
# across chunks, so each (backend, n, t, setup_seed, rsa_bits) combination
# is dealt at most once per worker — for the real RSA backend this is the
# difference between usable and useless parallelism.  The cache is a
# small LRU: an n-sweep with the real backend visits many (n, t)
# combinations, and pinning every dealt RSA suite for the life of a
# long-lived worker process is a memory leak.
_SUITE_CACHE: "OrderedDict[SuiteKey, CryptoSuite]" = OrderedDict()
_SUITE_CACHE_MAX = 8


def clear_suite_cache() -> None:
    """Drop every cached suite (tests, memory-sensitive sweeps)."""
    _SUITE_CACHE.clear()


def deal_suite(suite_key: SuiteKey) -> CryptoSuite:
    """Deal the key material for one ``TrialSpec.suite_key``, uncached.

    Pure function of the key — the same derivation whether it runs in a
    worker on cache miss, in the parent for a pre-dealt broadcast, or in
    a dealing-pool task — which is what keeps every execution path
    bit-identical.
    """
    import random

    backend, num_parties, max_faulty, setup_seed, rsa_bits = suite_key
    rng = random.Random(setup_seed + 0x5E7)
    if backend == "real":
        return CryptoSuite.real(num_parties, max_faulty, rng, bits=rsa_bits)
    return CryptoSuite.ideal(num_parties, max_faulty, rng)


def _cache_suite(key: SuiteKey, suite: CryptoSuite) -> None:
    """Insert one dealt suite, evicting LRU entries past the bound."""
    _SUITE_CACHE[key] = suite
    _SUITE_CACHE.move_to_end(key)
    while len(_SUITE_CACHE) > _SUITE_CACHE_MAX:
        _SUITE_CACHE.popitem(last=False)


def _suite_for(spec: TrialSpec) -> CryptoSuite:
    key = spec.suite_key
    suite = _SUITE_CACHE.get(key)
    if suite is not None:
        _SUITE_CACHE.move_to_end(key)
        return suite
    suite = deal_suite(key)
    _cache_suite(key, suite)
    return suite


def _seed_suite_cache(dealt: Sequence[Tuple[SuiteKey, CryptoSuite]]) -> None:
    """Pool-worker initializer: preload pre-dealt key material.

    Runs once per worker process before any chunk; the broadcast suites
    land in the ordinary per-process cache, so chunk execution is
    oblivious to whether a suite was pre-dealt or dealt on miss (a miss
    — e.g. after LRU eviction — re-deals bit-identically).
    """
    for key, suite in dealt:
        _cache_suite(key, suite)


def predeal_suites(
    plan: TrialPlan, workers: int = 1
) -> List[Tuple[SuiteKey, CryptoSuite]]:
    """Deal every distinct real-backend suite the plan needs, once.

    Ideal-backend suites are microseconds to deal and are left to the
    workers.  Real (threshold-RSA) suites are the setup bottleneck: a
    256-bit 4-party suite costs 3 714 modular exponentiations, most of
    them in the safe-prime search.  So each distinct ``suite_key`` is
    dealt exactly once here — reusing the parent's cache when warm,
    fanning *distinct keys* across a dealing pool when there are several
    and ``workers`` allows — and the dealt material is returned for
    broadcast through the pool initializer.
    Dealing in the parent versus in a pool task is indistinguishable in
    the results: :func:`deal_suite` is a pure function of the key.
    """
    keys: List[SuiteKey] = []
    for spec in plan.trials:
        if spec.backend == "real" and spec.suite_key not in keys:
            keys.append(spec.suite_key)
    if not keys:
        return []

    dealt: "OrderedDict[SuiteKey, Optional[CryptoSuite]]" = OrderedDict()
    for key in keys:
        dealt[key] = _SUITE_CACHE.get(key)
    missing = [key for key, suite in dealt.items() if suite is None]
    if len(missing) > 1 and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(workers, len(missing))
        ) as dealing_pool:
            for key, suite in zip(missing, dealing_pool.map(deal_suite, missing)):
                dealt[key] = suite
    else:
        for key in missing:
            dealt[key] = deal_suite(key)
    for key, suite in dealt.items():
        _cache_suite(key, suite)
    return [(key, suite) for key, suite in dealt.items()]


class TrialExecutionError(RuntimeError):
    """A trial raised: which one, and the command that runs it again alone.

    Raised ``from`` the original exception by :func:`_run_indexed_trial`,
    the one function every plan's execution path runs a trial through,
    so inline, pooled and vector-fallback runs fail alike — by
    ``execute_chunk`` for a vector batch, named by its first member, and
    by the CLI for the single trial of ``repro run``.
    ``index`` is the trial's place in its plan and ``cause`` the
    original's ``Type: message``; the spec's identifying fields are
    attributes too.  Picklable — it crosses the pool's result pipe
    intact — and its message ends with the ``repro run`` line.
    """

    def __init__(self, index: int, spec: TrialSpec, cause: str) -> None:
        super().__init__(index, spec, cause)
        self.index = index
        self.spec = spec
        self.cause = cause
        self.config_key = spec.config_key
        for name in ("protocol", "adversary", "seed", "session", "backend"):
            setattr(self, name, getattr(spec, name))

    @property
    def replay_command(self) -> str:
        """The shell line that replays this one trial."""
        return _replay_command(self.spec)

    def __str__(self) -> str:
        return (
            f"trial {self.index} of {self.config_key!r} failed "
            f"(protocol={self.protocol}, adversary={self.adversary}, "
            f"seed={self.seed}, session={self.session!r}, "
            f"backend={self.backend}): {self.cause}\n"
            f"replay it alone with:\n{self.replay_command}"
        )


class WorkerLostError(RuntimeError):
    """A pool worker process died: which chunks went with it, and how to
    find the trial that killed it.

    Raised ``from`` the executor's ``BrokenProcessPool`` by the one
    chunk stream every pooled run shares (:meth:`ParallelRunner.run_iter`),
    so ``run`` and ``run_iter`` fail alike.  A dead process reports
    nothing, so the error names what can be known: ``chunks`` holds
    ``(number, first_index, last_index)`` for every chunk dispatched
    whose result had not come back (the dying trial is in one of them)
    and ``spec`` is the first spec of the lowest.
    Picklable; the message ends with that spec's ``repro run`` line.
    """

    def __init__(self, chunks: Sequence[Tuple[int, int, int]], spec: TrialSpec) -> None:
        super().__init__(chunks, spec)
        self.chunks = tuple(sorted(chunks))
        self.spec = spec

    def __str__(self) -> str:
        numbers = _ranges((number, number) for number, _, _ in self.chunks)
        indices = _ranges((first, last) for _, first, last in self.chunks)
        return (
            f"a pool worker died while chunks {numbers} (plan indices "
            f"{indices}) were running or queued; none of them completed. "
            f"Re-run with workers=1: the inline path runs the same trials "
            f"in plan order in this process\n"
            f"the first of them alone is:\n{_replay_command(self.spec)}"
        )


def _ranges(pairs: Iterator[Tuple[int, int]]) -> str:
    """``1, 3–7``: inclusive ranges in order, adjacent ones fused — a fixed
    run dispatches every chunk up front, so most of a plan can be lost."""
    merged: List[List[int]] = []
    for first, last in sorted(pairs):
        if merged and first <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], last)
        else:
            merged.append([first, last])
    return ", ".join(str(a) if a == b else f"{a}–{b}" for a, b in merged)


def _replay_command(spec: TrialSpec) -> str:
    import shlex

    try:
        return f"repro run --spec {shlex.quote(spec.to_json())}"
    except TypeError as error:
        return f"(no replay line: the spec is not JSON — {error})"


def _build_simulator(
    spec: TrialSpec, adversary: Optional[Adversary], observers: Sequence[Any] = ()
) -> SyncSimulator:
    """The only engine function that constructs a simulator.

    Everything but the adversary instance is read off ``spec`` (suite
    cached per-process); ``observers`` go to :class:`SyncSimulator`
    unchanged.
    """
    return SyncSimulator(
        num_parties=spec.num_parties,
        max_faulty=spec.max_faulty,
        crypto=_suite_for(spec),
        adversary=adversary,
        seed=spec.seed,
        session=spec.session,
        max_rounds=spec.max_rounds,
        observers=observers,
        collect_signatures=spec.collect_signatures,
        faults=build_fault_plan(spec.faults, spec.fault_param_dict),
    )


def _run_counted(
    spec: TrialSpec, observers: Sequence[Any] = ()
) -> Tuple[ExecutionResult, Optional[FaultCounts]]:
    """:func:`run_trial`, plus the run's fault tallies (``None`` without
    a fault plan) — what ``repro run`` prints beside the result."""
    factory = build_protocol_factory(spec.protocol, spec.param_dict)
    adversary = build_adversary(spec.adversary, spec.adversary_param_dict, factory)
    simulator = _build_simulator(spec, adversary, observers)
    return simulator.run(factory, list(spec.inputs)), simulator.last_fault_counts


def run_trial(spec: TrialSpec, observers: Sequence[Any] = ()) -> ExecutionResult:
    """Execute one trial in this process (suite cached per-process)."""
    return _run_counted(spec, observers)[0]


def _run_indexed_trial(
    index: int,
    spec: TrialSpec,
    trace_dir: Optional[str],
    registries: Optional[Dict[int, MetricsRegistry]],
) -> ExecutionResult:
    """Run plan trial ``index`` with the observers the run asked for.

    The one place that decides which observers a trial gets — every
    execution path (pool worker, inline, vector fallback)
    comes through here.

    ``trace_dir`` streams a per-trial JSONL trace there under
    :func:`trace_filename` (``trial-00042.trace.jsonl``), headed with
    enough metadata to identify the spec.  Memory stays bounded —
    records stream straight to disk — and the file content is a pure
    function of the spec, so serial and pooled runs write byte-identical
    traces.  If the trial raises, the half-written trace file is removed
    before the exception propagates: a truncated JSONL file fails
    :func:`repro.obs.replay.load_trace` anyway, and leaving it in
    ``trace_dir`` would make a failed pooled chunk litter the directory
    with orphans indistinguishable (by name) from good traces.  Trials
    that completed before the failure keep their complete files.

    ``registries`` (a mutable index → registry mapping) gets the trial's
    finalized :class:`~repro.obs.metrics.MetricsRegistry`.

    An exception the trial raises leaves as a
    :class:`TrialExecutionError` chained from it (interrupts pass bare).
    """
    tracer = None
    registry = None
    observers: List[Any] = []
    if trace_dir is not None:
        meta = {
            "index": index,
            "protocol": spec.protocol,
            "adversary": spec.adversary,
            "n": spec.num_parties,
            "t": spec.max_faulty,
            "seed": spec.seed,
            "session": spec.session,
        }
        if spec.faults is not None:
            meta["faults"] = spec.faults
        path = os.path.join(trace_dir, obs.trace_filename(index))
        tracer = Tracer(obs.JsonlTraceSink(path, meta=meta))
        observers.append(tracer)
    if registries is not None:
        registry = obs.MetricsRegistry()
        observers.append(registry)
    try:
        result = run_trial(spec, observers)
    except BaseException as error:
        if tracer is not None:
            tracer.close()
            try:
                os.remove(tracer.sink.path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        if isinstance(error, Exception):
            raise TrialExecutionError(
                index, spec, f"{type(error).__name__}: {error}"
            ) from error
        raise
    if tracer is not None:
        tracer.close()
    if registry is not None:
        registry.finalize_trial(result)
        registries[index] = registry
    return result


def run_traced_trial(spec: TrialSpec, trace_dir: str, index: int) -> ExecutionResult:
    """Run one trial with a streaming per-trial trace in ``trace_dir``."""
    return _run_indexed_trial(index, spec, trace_dir, None)


def run_measured_trial(spec: TrialSpec) -> Tuple[ExecutionResult, MetricsRegistry]:
    """Run one trial with a fresh metrics registry attached.

    Returns the execution result plus its finalized per-trial
    :class:`~repro.obs.metrics.MetricsRegistry`.  Observers never
    consume randomness, so the result is bit-identical to
    :func:`run_trial` for the same spec.
    """
    registries: Dict[int, MetricsRegistry] = {}
    result = _run_indexed_trial(0, spec, None, registries)
    return result, registries[0]


def _iter_chunk(
    chunk: Chunk,
    trace_dir: Optional[str],
    backend: str,
    registries: Optional[Dict[int, MetricsRegistry]],
    spans: Spans,
) -> Generator[Tuple[int, ExecutionResult], None, float]:
    """Run ``(index, spec)`` pairs in this process, in order; the
    generator's return value is the seconds spent executing trials here.

    ``backend="vector"`` runs the chunk through the batch-vectorized
    executor in one go (unsupported specs fall back per-spec to the
    object simulator inside it) and appends the fields of one
    ``vector_batch`` and one ``probe_cache`` telemetry span describing
    the batching to ``spans``; results are bit-identical either way.
    """
    busy = 0.0
    if backend != "vector":
        for index, spec in chunk:
            started = time.perf_counter()
            result = _run_indexed_trial(index, spec, trace_dir, registries)
            busy += time.perf_counter() - started
            yield index, result
        return busy
    from .vectorized import execute_chunk

    started = time.perf_counter()
    pairs, stats = execute_chunk(chunk, trace_dir, metrics=registries)
    busy = time.perf_counter() - started
    spans.append(("vector_batch", dict(
        batched=stats["batched"], fallback=stats["fallback"],
        coins=stats["coins"], batches=len(stats["batches"]),
        seconds=round(busy, 6), fallback_reasons=stats["fallback_reasons"],
    )))
    spans.append(("probe_cache", dict(
        hits=stats["cache_hits"], misses=stats["cache_misses"],
    )))
    yield from pairs
    return busy


@contextlib.contextmanager
def _profiled(path: Optional[str]) -> Iterator[None]:
    """Run the body under ``cProfile`` and dump its stats to ``path``
    (no-op for ``None``).  The dump happens after the body — outside
    whatever the body timed — and a body that raises dumps nothing."""
    if path is None:
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    with profiler:
        yield
    profiler.dump_stats(path)


def _run_chunk(
    chunk: Chunk,
    trace_dir: Optional[str] = None,
    backend: str = "object",
    metrics: bool = False,
    profile_path: Optional[str] = None,
) -> Tuple[float, ChunkSummary, Spans]:
    """Worker entry point: run a contiguous slice of the plan.

    The whole chunk returns as one packed :class:`ChunkSummary` — the
    parent rebuilds the ``ExecutionResult`` trees from the specs it
    already holds, so only tallies and decisions cross the pipe (traces
    never ride the result pipe).  With ``metrics`` each trial's registry
    is packed into the summary's ``metrics`` field.

    Beside the payload come the chunk's batching spans and its execution
    seconds, timed *inside* the worker because the parent only sees
    dispatch→completion spans, which include queue wait — summing those
    would overstate busy-time whenever chunks outnumber workers.  The
    profiled region (``profile_path``) is exactly the timed region, so
    profile seconds attribute directly to the chunk's ``chunk_complete``
    telemetry span.
    """
    from .transport import ChunkSummary

    registries: Optional[Dict[int, MetricsRegistry]] = {} if metrics else None
    spans: Spans = []
    with _profiled(profile_path):
        started = time.perf_counter()
        pairs = list(_iter_chunk(chunk, trace_dir, backend, registries, spans))
        payload = ChunkSummary.pack(pairs, metrics=registries)
        seconds = round(time.perf_counter() - started, 6)
    return seconds, payload, spans


@dataclass
class PlanResult:
    """All trial outcomes of one plan run, in plan order."""

    plan: TrialPlan
    results: List[ExecutionResult]
    workers: int
    wall_seconds: float
    # Per-trial metrics registries in plan order, present iff the runner
    # was built with metrics=True.  Deterministic for a given (seed,
    # plan): serial, pooled and vector runs all produce equal registries
    # (pinned by tests/engine/test_metrics_engine.py and the
    # tests/engine/test_vectorized.py grid).
    trial_metrics: Optional[List[MetricsRegistry]] = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ExecutionResult]:
        return iter(self.results)

    def disagreement_rate(self) -> float:
        """Fraction of trials whose honest parties did not all agree."""
        from ..analysis.stats import disagreement_rate

        return disagreement_rate(self.results)

    def metrics_payload(self) -> Dict[str, Any]:
        """The ``repro-metrics/1`` artifact document for this run.

        Metadata is derived from the plan alone — never worker count,
        backend or wall clock — so the document is identical across
        serial, pooled and vector runs of the same ``(seed, plan)``.
        """
        if self.trial_metrics is None:
            raise ValueError(
                "run was not collected with metrics=True; no registries"
            )
        configs: "OrderedDict[str, Tuple[Dict[str, Any], MetricsRegistry]]"
        configs = OrderedDict()
        for name, indices in self.plan.configs().items():
            spec = self.plan.trials[indices[0]]
            config_meta = {
                "protocol": spec.protocol,
                "adversary": spec.adversary,
                "num_parties": spec.num_parties,
                "max_faulty": spec.max_faulty,
                "backend": spec.backend,
                "faults": spec.faults,
                "trials": len(indices),
            }
            configs[name] = (
                config_meta,
                obs.MetricsRegistry.merged(
                    self.trial_metrics[index] for index in indices
                ),
            )
        meta = {"plan": self.plan.name, "trials": len(self.plan)}
        return obs.build_metrics_payload(meta, configs)


class ParallelRunner:
    """Runs :class:`TrialPlan`s, serially or across worker processes.

    ``workers=1`` executes inline; ``workers>1`` fans chunks out over a
    ``ProcessPoolExecutor`` whose workers each ship one packed
    :class:`ChunkSummary` per chunk, rebuilt losslessly on the parent
    side.  :meth:`run` is :meth:`run_iter` collected.
    """

    def __init__(
        self,
        workers: int = 1,
        trace_dir: Optional[str] = None,
        telemetry: Optional[TelemetryWriter] = None,
        backend: str = "object",
        metrics: bool = False,
        profile_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if backend not in ("object", "vector"):
            raise ValueError(
                f"backend must be 'object' or 'vector', got {backend!r}"
            )
        self.workers = workers
        self.trace_dir = trace_dir
        self.telemetry = telemetry
        # backend="vector" batches same-config supported trials through
        # repro.engine.vectorized; everything else (and every trial, with
        # "object") takes the reference simulator.  Bit-identical results.
        self.backend = backend
        # metrics=True yields one MetricsRegistry per trial (repro.obs.
        # metrics) — observed on the object path, composed from probe
        # deliveries on the vector path; registries ride back on the
        # compact transport and land on PlanResult.trial_metrics.
        self.metrics = metrics
        # profile_dir wraps every chunk — in a worker or inline — in
        # cProfile and dumps one .pstats file per chunk there (repro
        # error-sweep --profile); profiling never touches what the trials
        # compute.
        self.profile_dir = profile_dir

    def _pooled(self, plan: TrialPlan) -> bool:
        """Whether ``plan`` runs on a worker pool — decided here only."""
        return self.workers > 1 and len(plan) > 1

    def run(self, plan: TrialPlan) -> PlanResult:
        """Execute every trial, results in plan order: :meth:`run_iter` collected."""
        started = time.perf_counter()
        sink: Optional[Dict[int, MetricsRegistry]] = {} if self.metrics else None
        collected: List[Optional[ExecutionResult]] = [None] * len(plan)
        for index, result in self.run_iter(plan, sink):
            collected[index] = result
        missing = [i for i, result in enumerate(collected) if result is None]
        if missing:  # pragma: no cover - pool misbehavior, not reachable normally
            raise RuntimeError(f"trials {missing} produced no result")
        return PlanResult(
            plan=plan,
            results=collected,  # type: ignore[arg-type]
            workers=self.workers if self._pooled(plan) else 1,
            wall_seconds=time.perf_counter() - started,
            trial_metrics=(
                None if sink is None else [sink[i] for i in range(len(plan))]
            ),
        )

    def run_iter(
        self,
        plan: TrialPlan,
        metrics_sink: Optional[Dict[int, MetricsRegistry]] = None,
    ) -> Iterator[Tuple[int, ExecutionResult]]:
        """Stream ``(plan_index, result)`` pairs as trials complete.

        The streaming form of :meth:`run`: chunks are yielded in
        *completion* order (plan order within a chunk), so a consumer —
        a progress bar, an incremental estimator — sees results as soon
        as any worker finishes rather than after the whole plan.
        Re-running the pairs through a plan-indexed buffer reproduces
        :meth:`run` exactly; that is how :meth:`run` is implemented.

        The one place a plan is opened.  Before the first pair it makes
        the trace / profile directories, decides pooled or inline, emits
        ``run_start`` (``label, mode, workers, trials, backend``, a
        pooled run's ``chunks`` and ``chunk_size``, a faulted plan's
        ``faults``) and, when pooled, opens a worker pool with the plan's
        real-backend suites pre-dealt once and broadcast, so workers
        never repeat threshold-RSA setup.  The plan runs as
        ``_chunk_size`` slices when pooled, as one chunk inline — which
        lets a serial ``repro error-sweep --vector`` batch each
        configuration's trials in lockstep.  Chunks number from 0, and
        the telemetry of each — ``chunk_dispatch``, batching spans,
        ``chunk_complete``, ``profile`` — is emitted here for both modes;
        ``run_complete`` follows the last chunk (not an exception), and
        the pool shuts down with outstanding chunks cancelled.

        A failing trial surfaces as a :class:`TrialExecutionError` at
        the first completed failure and outstanding work is cancelled —
        late chunks cannot hide an early crash behind hours of
        remaining work.  A dead worker is a :class:`WorkerLostError`.

        With ``metrics=True`` pass ``metrics_sink``: per-trial registries
        land there keyed by plan index as their chunks complete.
        """
        if self.metrics and metrics_sink is None:
            raise ValueError(
                "metrics=True streaming needs a metrics_sink (or use run())"
            )
        for directory in (self.trace_dir, self.profile_dir):
            if directory is not None:
                os.makedirs(directory, exist_ok=True)
        tele = self.telemetry
        pooled = self._pooled(plan)
        registries = metrics_sink if self.metrics else None
        size = self._chunk_size(len(plan)) if pooled else max(1, len(plan))
        indexed = list(enumerate(plan.trials))
        chunks = [indexed[at : at + size] for at in range(0, len(indexed), size)]
        if tele is not None:
            # ``faults`` only on faulted plans: the others keep their shape.
            faults = sorted({s.faults for s in plan.trials if s.faults is not None})
            tele.emit(
                "run_start", label=plan.name,
                mode="pool" if pooled else "inline",
                workers=self.workers if pooled else 1, trials=len(plan),
                backend=self.backend,
                **({"chunks": len(chunks), "chunk_size": size} if pooled else {}),
                **({"faults": faults} if faults else {}),
            )
        pool: Optional[ProcessPoolExecutor] = None
        if pooled:
            import pickle
            from concurrent.futures import ProcessPoolExecutor, as_completed
            from concurrent.futures.process import BrokenProcessPool

            # What the workers run loads here, before they fork, so each
            # pool inherits it instead of compiling it again.
            from . import transport  # noqa: F401
            if self.backend == "vector":
                from . import vectorized  # noqa: F401
            if self.metrics:
                from ..obs import metrics  # noqa: F401
            if self.trace_dir is not None:
                from ..obs import sinks  # noqa: F401

            predeal_started = time.perf_counter()
            dealt = predeal_suites(plan, self.workers)
            if tele is not None and dealt:
                tele.emit(
                    "predeal", suites=len(dealt),
                    seconds=round(time.perf_counter() - predeal_started, 6),
                )
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_seed_suite_cache,
                initargs=(dealt,),
            )

        def profile_path(number: int) -> Optional[str]:
            if self.profile_dir is None:
                return None
            return os.path.join(self.profile_dir, f"chunk-{number:05d}.pstats")

        def complete(number: int, spans: Spans, seconds: float, **pipe: Any) -> None:
            for event, fields in spans:
                tele.emit(event, label=plan.name, **fields)
            tele.emit("chunk_complete", chunk=number, seconds=seconds, **pipe)
            path = profile_path(number)
            if path is not None:
                tele.emit("profile", chunk=number, path=path, seconds=seconds)

        try:
            if pool is None:
                for number, chunk in enumerate(chunks):
                    if tele is not None:
                        tele.emit("chunk_dispatch", chunk=number, trials=len(chunk))
                    spans: Spans = []
                    with _profiled(profile_path(number)):
                        busy = yield from _iter_chunk(
                            chunk, self.trace_dir, self.backend, registries, spans
                        )
                    if tele is not None:
                        complete(number, spans, round(busy, 6))
            else:
                in_flight: Dict[int, Chunk] = dict(enumerate(chunks))
                dispatched: Dict[Any, Tuple[int, float]] = {}
                try:
                    for number, chunk in enumerate(chunks):
                        future = pool.submit(
                            _run_chunk, chunk, self.trace_dir, self.backend,
                            self.metrics, profile_path(number),
                        )
                        opened = tele.elapsed() if tele is not None else 0.0
                        dispatched[future] = (number, opened)
                        if tele is not None:
                            tele.emit(
                                "chunk_dispatch", chunk=number, trials=len(chunk),
                                first_index=chunk[0][0],
                            )
                    for future in as_completed(dispatched):
                        # .result() re-raises the first worker failure
                        # promptly; the shutdown below then cancels
                        # everything still queued.
                        seconds, payload, spans = future.result()
                        number, opened = dispatched[future]
                        del in_flight[number]
                        if tele is not None:
                            complete(
                                number, spans, seconds,
                                span=round(tele.elapsed() - opened, 6),
                                payload_bytes=len(pickle.dumps(payload)),
                            )
                        if registries is not None:
                            registries.update(payload.unpack_metrics())
                        yield from payload.unpack(plan.trials)
                except BrokenProcessPool as error:
                    raise WorkerLostError(
                        [(n, chunk[0][0], chunk[-1][0]) for n, chunk in in_flight.items()],
                        in_flight[min(in_flight)][0][1],
                    ) from error
            if tele is not None:
                tele.emit("run_complete", label=plan.name, trials=len(plan))
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    def _chunk_size(self, total: int) -> int:
        """Trials per pool task: ~4 chunks per worker amortize IPC and
        keep the pool balanced."""
        return max(1, total // (self.workers * 4))
