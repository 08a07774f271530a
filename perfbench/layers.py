"""The traced run: one number per layer, all timed from outside.

Two kinds of measurement feed the per-layer metrics:

* **micro-timings** of single public calls into a layer (a share, a
  no-op simulator round, one ``Prox_s`` expansion, a vector batch), each
  repeated until a minimum duration and reported as a median; and
* **the workload's own specs** run through timing proxies
  (:mod:`perfbench.tracing`), through the metrics collector and the
  library tracer, and through inline, pooled and vector runners — which
  gives the self-time split, the overhead ratios and the engine counts.

Legs that are compared with each other run plans of the same config mix
but different seed streams: replaying one spec twice on a shared suite
would hit the ideal-crypto tag memo and flatter the second leg.
"""

from __future__ import annotations

import os
import pickle
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.crypto import encode_term, hash_to_range
from repro.engine import (
    ChunkSummary,
    ParallelRunner,
    TrialPlan,
    TrialSpec,
    clear_probe_cache,
    deal_suite,
    predeal_suites,
    run_measured_trial,
    run_traced_trial,
    run_trial,
    run_vector_batch,
)
from repro.engine.registry import build_adversary, build_protocol_factory
from repro.network import FaultPlan, SyncSimulator
from repro.obs import MetricsRegistry, TelemetryWriter, summarize_telemetry

from .configs import SWEEP21, Workload, build_plan, config_plan
from .measure import summarize
from .metrics import PER_LAYER, VECTOR_MODELS
from .tracing import TrialTracer, layer_of

__all__ = ["trace_workload"]

#: A full traced run (``--seconds 15``) repeats each micro-timing for at
#: least 0.3 s and makes 2000 direct ``run_trial`` calls; both scale
#: with ``--seconds``.
MICRO_SECONDS_PER_SECOND = 0.3 / 15
DIRECT_TRIALS_PER_SECOND = 2000 / 15
#: The compared legs run plans a quarter the size of the direct-call plan.
LEG_STRIDE = 4
POOL_WORKERS = 2
SESSION = "perfbench/micro"


def timeit(
    call: Callable[[Any], Any],
    min_seconds: float,
    prepare: Optional[Callable[[int], Any]] = None,
    min_batches: int = 5,
) -> Dict[str, Any]:
    """Seconds per ``call``: median/min/IQR over batches.

    ``call`` receives a running counter, so it can build a message it has
    never seen; with ``prepare`` it receives ``prepare(counter)`` instead,
    built outside the timed region, and every batch is one call.
    """
    inner = 1
    if prepare is None:
        started = perf_counter()
        call(0)
        once = perf_counter() - started
        inner = max(1, int(0.002 / max(once, 1e-9)))
    samples: List[float] = []
    counter = 1
    deadline = perf_counter() + min_seconds
    while len(samples) < min_batches or perf_counter() < deadline:
        if prepare is not None:
            argument = prepare(counter)
            started = perf_counter()
            call(argument)
            samples.append(perf_counter() - started)
        else:
            started = perf_counter()
            for value in range(counter, counter + inner):
                call(value)
            samples.append((perf_counter() - started) / inner)
        counter += inner
    return summarize(samples)


class _Sheet:
    """The metric values of one traced run, keyed by declared name."""

    def __init__(self) -> None:
        self.entries: Dict[str, Dict[str, Any]] = {}

    def timing(self, name: str, timing: Dict[str, Any], scale: float) -> None:
        self.entries[name] = {
            key: timing[key] * scale if key != "n" else timing[key]
            for key in ("value", "min", "max", "iqr", "n")
        }

    def value(self, name: str, value: float) -> None:
        self.entries[name] = {"value": value}


# ── crypto ───────────────────────────────────────────────────────────────


def _crypto_layer(sheet: _Sheet, micro: float) -> None:
    suite = deal_suite(("ideal", 10, 3, 0, 256))
    quorum, coin = suite.quorum, suite.coin
    message = ("vote", SESSION, -1)
    share = quorum.sign_share(2, message)
    shares = [(pid, quorum.sign_share(pid, message)) for pid in range(quorum.threshold)]
    tag = coin.combined_bytes(("coin-flip", SESSION, -1))
    term = ("prox13", SESSION, 3, (0, 1), tag)

    def us(name: str, call: Callable[[int], Any]) -> None:
        sheet.timing(name, timeit(call, micro), 1e6)

    us("crypto.encode_term_us", lambda i: encode_term(term))
    us("crypto.hash_to_range_us",
       lambda i: hash_to_range("coin-extract", (SESSION, i, tag), 0, 1))
    # A message never seen before: memo miss, full key walk and HMAC.
    us("crypto.ideal.sign_share_us",
       lambda i: quorum.sign_share(2, ("vote", SESSION, i)))
    us("crypto.ideal.verify_share_us",
       lambda i: quorum.verify_share(2, share, message))
    us("crypto.ideal.combine_us", lambda i: quorum.combine(shares, message))
    us("crypto.ideal.combined_bytes_us",
       lambda i: coin.combined_bytes(("coin-flip", SESSION, i)))
    sheet.timing(
        "crypto.deal_ideal_ms",
        timeit(lambda i: deal_suite(("ideal", 10, 3, i, 256)), micro), 1e3,
    )

    # Threshold-RSA dealing is a prime search whose length depends on the
    # setup seed, so it is timed over a fixed list of seeds.
    real = None
    deals = []
    for setup_seed in range(3):
        started = perf_counter()
        dealt = deal_suite(("real", 4, 1, setup_seed, 256))
        deals.append(perf_counter() - started)
        real = real or dealt
    sheet.timing("crypto.deal_real_ms", summarize(deals), 1e3)
    rsa = real.coin
    rsa_share = rsa.sign_share(1, message)
    rsa_shares = [(pid, rsa.sign_share(pid, message)) for pid in range(rsa.threshold)]
    us("crypto.rsa.sign_share_us", lambda i: rsa.sign_share(1, ("vote", SESSION, i)))
    us("crypto.rsa.verify_share_us", lambda i: rsa.verify_share(1, rsa_share, message))
    us("crypto.rsa.combine_us", lambda i: rsa.combine(rsa_shares, message))


# ── network ──────────────────────────────────────────────────────────────

_NOOP_ROUNDS = 20


def _noop_factory(rounds: int, payload: Any) -> Callable:
    def factory(ctx: Any, value: Any):
        for _ in range(rounds):
            yield ctx.broadcast(payload)
        return value

    return factory


def _simulate(num_parties: int, rounds: int, payload: Any, micro: float,
              **options: Any) -> float:
    """Median seconds to build a simulator and run a no-op protocol."""
    max_faulty = (num_parties - 1) // 3
    suite = deal_suite(("ideal", num_parties, max_faulty, 0, 256))
    factory = _noop_factory(rounds, payload)
    inputs = [0] * num_parties

    def call(counter: int) -> None:
        SyncSimulator(
            num_parties, max_faulty, suite, seed=counter, session=SESSION, **options
        ).run(factory, inputs)

    return timeit(call, micro)["value"]


def _network_layer(sheet: _Sheet, micro: float) -> None:
    plain = {"noop": 1}
    fixed = {
        n: _simulate(n, 0, plain, micro, collect_signatures=False) for n in (5, 10)
    }

    def per_round(num_parties: int, payload: Any, **options: Any) -> float:
        total = _simulate(num_parties, _NOOP_ROUNDS, payload, micro, **options)
        return (total - fixed[num_parties]) / _NOOP_ROUNDS

    sheet.value("network.sim_fixed_us", fixed[5] * 1e6)
    sheet.value("network.noop_round_us.n5",
                per_round(5, plain, collect_signatures=False) * 1e6)
    clean = per_round(10, plain, collect_signatures=False)
    sheet.value("network.noop_round_us.n10", clean * 1e6)
    faulty = per_round(10, plain, collect_signatures=False,
                       faults=FaultPlan(loss=0.05, delay=0.05))
    sheet.value("network.faulty_round_us.n10", faulty * 1e6)
    sheet.value("network.fault_overhead_ratio", faulty / clean)

    quorum = deal_suite(("ideal", 10, 3, 0, 256)).quorum
    signed = {
        "noop": 1,
        "shares": tuple(quorum.sign_share(pid, ("noop", SESSION)) for pid in range(4)),
    }
    sheet.value(
        "network.sigwalk_overhead_ratio",
        per_round(10, signed, collect_signatures=True)
        / per_round(10, signed, collect_signatures=False),
    )


# ── proxcensus / engine / vector micro-timings ───────────────────────────

_EXPANSIONS = (
    ("one_third", "prox_one_third", (0, 0, 1, 1), 1, 1),
    ("linear_half", "prox_linear_half", (1, 0, 1, 0, 1), 2, 2),
    ("quadratic_half", "prox_quadratic_half", (1, 0, 1, 0, 1), 2, 3),
)


def _protocol_layer(sheet: _Sheet, micro: float) -> None:
    for label, protocol, inputs, max_faulty, rounds in _EXPANSIONS:
        def call(counter: int) -> None:
            run_trial(TrialSpec(
                protocol=protocol, inputs=inputs, max_faulty=max_faulty,
                params={"rounds": rounds}, seed=counter,
                session=f"{SESSION}/{counter}", collect_signatures=False,
            ))

        sheet.timing(f"proxcensus.expand_ms.{label}", timeit(call, micro), 1e3)


def _config_plan(name: str, trials: int, seed: int) -> TrialPlan:
    config = next(config for config in SWEEP21 if config.name == name)
    return config_plan(config, trials, seed)


def _engine_layer(sheet: _Sheet, micro: float) -> None:
    batch = 1000
    sheet.timing(
        "engine.plan.build_us_per_spec",
        timeit(lambda i: _config_plan("ba13-k4", batch, i), micro), 1e6 / batch,
    )

    def build(counter: int) -> None:
        factory = build_protocol_factory("ba_one_third", {"kappa": 4})
        build_adversary("straddle13", {"victims": (3,)}, factory)

    sheet.timing("engine.registry.build_us", timeit(build, micro), 1e6)

    two_trials = _config_plan("ba13-k4", 2, 0)
    starts = []
    for _ in range(3):
        started = perf_counter()
        ParallelRunner(workers=POOL_WORKERS).run(two_trials)
        starts.append(perf_counter() - started)
    sheet.timing("engine.runner.pool_start_ms", summarize(starts), 1e3)


def _vector_layer(sheet: _Sheet, micro: float) -> None:
    batch = 1000
    for label, config_name in VECTOR_MODELS:
        timing = timeit(
            run_vector_batch, micro, min_batches=3,
            prepare=lambda i, name=config_name: _config_plan(name, batch, i).trials,
        )
        sheet.value(f"engine.vectorized.rate.{label}", batch / timing["value"])

    def cold(specs: Sequence[TrialSpec]) -> None:
        clear_probe_cache()
        run_vector_batch(specs)

    one_spec = lambda i: _config_plan("ba12-k4", 1, i).trials  # noqa: E731
    warm_ms = timeit(run_vector_batch, micro, prepare=one_spec)["value"] * 1e3
    cold_ms = timeit(cold, micro, prepare=one_spec)["value"] * 1e3
    sheet.value("engine.vectorized.batch_fixed_ms", warm_ms)
    sheet.value("engine.vectorized.probe_ms", cold_ms - warm_ms)


# ── the workload's own specs ─────────────────────────────────────────────


def _timed(call: Callable, *arguments: Any):
    started = perf_counter()
    value = call(*arguments)
    return perf_counter() - started, value


def _workload_legs(
    sheet: _Sheet, workload: Workload, seed: int, total: float, micro: float,
    tmp_dir: str, tracer: TrialTracer,
) -> Dict[str, Any]:
    """Everything measured on the workload's specs; returns the counts."""
    leg_total = total / LEG_STRIDE
    direct_plan = build_plan(workload, seed, 0, total)
    predeal_suites(direct_plan)  # dealing is set-up, not trial time

    # Direct run_trial calls: the per-trial distribution.
    direct_times, references = [], []
    for spec in direct_plan.trials:
        elapsed, result = _timed(run_trial, spec)
        direct_times.append(elapsed)
        references.append(result)
    ordered = sorted(direct_times)
    sheet.value("engine.trial_ms_p50", statistics.median(ordered) * 1e3)
    sheet.value("engine.trial_ms_p99", ordered[int(0.99 * (len(ordered) - 1))] * 1e3)

    # Interleaved legs, so that drift hits all of them alike: untraced and
    # proxied on the same spec (separate suites, so no shared memo), the
    # metrics collector and the library tracer on sibling seed streams.
    measured_plan = build_plan(workload, seed, 1, leg_total)
    lib_traced_plan = build_plan(workload, seed, 2, leg_total)
    base_plan = build_plan(workload, seed, 3, leg_total)
    for spec in base_plan.trials:
        tracer.suite_for(spec)  # threshold-RSA dealing is not trial time
    trace_dir = os.path.join(tmp_dir, "traces")
    os.makedirs(trace_dir)
    base = proxied = collected = lib_traced = 0.0
    registries: List[MetricsRegistry] = []
    mismatched = 0
    for index, spec in enumerate(base_plan.trials):
        elapsed, reference = _timed(run_trial, spec)
        base += elapsed
        elapsed, traced = _timed(tracer.traced_trial, spec, index)
        proxied += elapsed
        mismatched += traced != reference
        elapsed, (_, registry) = _timed(run_measured_trial, measured_plan.trials[index])
        collected += elapsed
        registries.append(registry)
        elapsed, _ = _timed(
            run_traced_trial, lib_traced_plan.trials[index], trace_dir, index
        )
        lib_traced += elapsed
    sheet.value("bench.trace_overhead_ratio", proxied / base)
    sheet.value("obs.metrics.overhead_ratio", collected / base)
    sheet.value("obs.trace.overhead_ratio", lib_traced / base)

    # The self-time split of the proxied trials.
    totals = tracer.recorder.totals()
    trial_seconds = totals["trial"]["seconds"]
    self_seconds: Dict[str, float] = {}
    crypto_calls = 0
    for name, entry in totals.items():
        layer = layer_of(name)
        self_seconds[layer] = self_seconds.get(layer, 0.0) + entry["self_seconds"]
        if layer == "crypto":
            crypto_calls += entry["count"]
    traced_trials = totals["trial"]["count"]
    steps = totals["protocol.step"]
    sheet.value("crypto.calls_per_trial", crypto_calls / traced_trials)
    sheet.value("crypto.busy_frac", self_seconds.get("crypto", 0.0) / trial_seconds)
    sheet.value("network.self_frac", self_seconds["network"] / trial_seconds)
    sheet.value("protocol.self_frac", self_seconds["protocol"] / trial_seconds)
    sheet.value("adversary.self_frac", self_seconds["adversary"] / trial_seconds)
    sheet.value("protocol.step_us", steps["seconds"] / steps["count"] * 1e6)
    count = len(references)
    sheet.value("network.rounds_per_trial",
                sum(r.metrics.rounds for r in references) / count)
    sheet.value("network.messages_per_trial",
                sum(r.metrics.total_messages for r in references) / count)
    sheet.value("network.signatures_per_trial",
                sum(r.metrics.total_signatures for r in references) / count)

    # obs.metrics: the registries the collector leg produced.
    blobs = [registry.pack() for registry in registries]
    sheet.timing(
        "obs.metrics.pack_us",
        timeit(lambda i: registries[i % len(registries)].pack(), micro), 1e6,
    )
    sheet.timing(
        "obs.metrics.merge_us",
        timeit(lambda i: MetricsRegistry.merged(registries), micro),
        1e6 / len(registries),
    )
    sheet.value("obs.metrics.bytes_per_trial", sum(map(len, blobs)) / len(blobs))

    # engine.transport on the direct-call results.
    pairs = list(enumerate(references))
    sheet.timing("engine.transport.pack_us_per_trial",
                 timeit(lambda i: ChunkSummary.pack(pairs), micro), 1e6 / count)
    summary = ChunkSummary.pack(pairs)
    sheet.timing(
        "engine.transport.unpack_us_per_trial",
        timeit(lambda i: summary.unpack(direct_plan.trials), micro), 1e6 / count,
    )
    sheet.value("engine.transport.bytes_per_trial", len(pickle.dumps(summary)) / count)

    # engine.runner: inline against the direct calls, pooled against inline,
    # telemetry on against off — sibling seed streams throughout.
    inline_wall, inline = _timed(
        ParallelRunner(workers=1).run, build_plan(workload, seed, 4, total)
    )
    sheet.value(
        "engine.runner.inline_overhead_frac",
        (inline_wall / len(inline)) / statistics.fmean(direct_times) - 1.0,
    )
    leg_inline_wall, leg_inline = _timed(
        ParallelRunner(workers=1).run, build_plan(workload, seed, 5, leg_total)
    )
    pooled_wall, pooled = _timed(
        ParallelRunner(workers=POOL_WORKERS).run,
        build_plan(workload, seed, 6, leg_total),
    )
    telemetry_path = os.path.join(tmp_dir, "pooled.jsonl")
    with TelemetryWriter(telemetry_path) as telemetry:
        observed_wall, _ = _timed(
            ParallelRunner(workers=POOL_WORKERS, telemetry=telemetry).run,
            build_plan(workload, seed, 7, leg_total),
        )
    digest = summarize_telemetry(telemetry_path)
    run = digest["runs"][0]
    sheet.value("engine.runner.chunks", digest["chunks"])
    sheet.value("engine.runner.busy_s", digest["busy_seconds"])
    sheet.value(
        "engine.runner.pool_idle_frac",
        1.0 - digest["busy_seconds"] / (run["wall_seconds"] * POOL_WORKERS),
    )
    sheet.value(
        "engine.runner.parallel_efficiency",
        (leg_inline_wall / len(leg_inline))
        / (pooled_wall / len(pooled) * POOL_WORKERS),
    )
    sheet.value("obs.telemetry.overhead_ratio", observed_wall / pooled_wall)
    with TelemetryWriter(os.path.join(tmp_dir, "emit.jsonl")) as telemetry:
        sheet.timing(
            "obs.telemetry.emit_us",
            timeit(
                lambda i: telemetry.emit(
                    "chunk_complete", chunk=i, seconds=0.25, span=0.3,
                    payload_bytes=4096,
                ),
                micro,
            ),
            1e6,
        )

    # engine.vectorized counts: the workload's plan on the vector backend,
    # with the workload's own metrics setting, cold probes.
    vector_path = os.path.join(tmp_dir, "vector.jsonl")
    clear_probe_cache()
    with TelemetryWriter(vector_path) as telemetry:
        ParallelRunner(
            workers=1, backend="vector", metrics=workload.metrics,
            telemetry=telemetry,
        ).run(build_plan(workload, seed, 8, total))
    digest = summarize_telemetry(vector_path)
    sheet.value("engine.vectorized.probe_hits", digest["probe_cache_hits"])
    sheet.value("engine.vectorized.probe_misses", digest["probe_cache_misses"])
    sheet.value("engine.vectorized.fallback_trials",
                sum(digest["fallback_reasons"].values()))
    return {
        "attempted": len(base_plan),
        "failed": mismatched,
        "accounted_frac": sum(
            self_seconds.get(layer, 0.0)
            for layer in ("crypto", "network", "protocol", "adversary")
        ) / trial_seconds,
    }


def trace_workload(
    workload: Workload, seed: int, seconds: float, tmp_dir: str,
    spans_path: Optional[str] = None,
) -> Dict[str, Any]:
    """The traced run of one workload: every per-layer metric, by name."""
    micro = MICRO_SECONDS_PER_SECOND * seconds
    total = DIRECT_TRIALS_PER_SECOND * seconds
    sheet = _Sheet()
    tracer = TrialTracer()
    _crypto_layer(sheet, micro)
    _network_layer(sheet, micro)
    _protocol_layer(sheet, micro)
    _engine_layer(sheet, micro)
    _vector_layer(sheet, micro)
    counts = _workload_legs(sheet, workload, seed, total, micro, tmp_dir, tracer)
    if spans_path:
        tracer.recorder.write(spans_path)

    declared = {name: unit for name, unit, _ in PER_LAYER}
    if set(sheet.entries) != set(declared):
        raise RuntimeError(
            "traced run and metric declaration disagree: "
            f"{sorted(set(sheet.entries) ^ set(declared))}"
        )
    for name, unit in declared.items():
        sheet.entries[name]["unit"] = unit
    failures = []
    if counts["failed"]:
        failures.append(
            f"{counts['failed']} traced trials differ from their untraced run"
        )
    return {
        "workload": workload.name,
        "workers": workload.workers(),
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "failures": failures,
        "accounted_frac": counts["accounted_frac"],
        "metrics": sheet.entries,
    }
