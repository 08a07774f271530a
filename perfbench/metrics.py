"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` declares the same names for the driver; ``--smoke``
asserts the two agree, so the declaration and the code cannot drift.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = [
    "END_TO_END",
    "FAILED_FRAC",
    "PER_LAYER",
    "VECTOR_MODELS",
    "result_line_names",
]

#: (name, unit, better, bound).  The bound is the share of the base
#: median by which a metric may get worse before it is a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("trials_per_s", "trials/s", "higher", 0.25),
    ("cpu_ms_per_trial", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    # failed_frac is 0 on a healthy tree, and a bound that is a share of
    # the base cannot be 0-based: BENCHMARK.json carries it as the
    # result line's failed/attempted counts, not as a bounded metric.
    ("failed_frac", "frac", "lower", 0.0),
]
FAILED_FRAC = "failed_frac"

#: Vector model label → the SWEEP21 config that exercises it.
VECTOR_MODELS: List[Tuple[str, str]] = [
    ("ba_one_third", "ba13-k4"),
    ("ba_one_half", "ba12-k4"),
    ("prox", "prox13-straddle"),
    ("fm_probabilistic", "fm-probabilistic"),
    ("turpin_coan", "turpin-coan"),
    ("multivalued_ba", "multivalued-ba"),
    ("threshold_coin", "coin-threshold-withhold"),
    ("vrf_coin", "coin-vrf-withhold"),
    ("static_replay", "proxcast-n9"),
]

#: (name, unit, better) of every per-layer metric of the traced run.
PER_LAYER: List[Tuple[str, str, str]] = [
    # crypto
    ("crypto.encode_term_us", "us", "lower"),
    ("crypto.hash_to_range_us", "us", "lower"),
    ("crypto.ideal.sign_share_us", "us", "lower"),
    ("crypto.ideal.verify_share_us", "us", "lower"),
    ("crypto.ideal.combine_us", "us", "lower"),
    ("crypto.ideal.combined_bytes_us", "us", "lower"),
    ("crypto.rsa.sign_share_us", "us", "lower"),
    ("crypto.rsa.verify_share_us", "us", "lower"),
    ("crypto.rsa.combine_us", "us", "lower"),
    ("crypto.deal_ideal_ms", "ms", "lower"),
    ("crypto.deal_real_ms", "ms", "lower"),
    ("crypto.calls_per_trial", "count", "lower"),
    ("crypto.busy_frac", "frac", "lower"),
    # network
    ("network.sim_fixed_us", "us", "lower"),
    ("network.noop_round_us.n5", "us", "lower"),
    ("network.noop_round_us.n10", "us", "lower"),
    ("network.faulty_round_us.n10", "us", "lower"),
    ("network.fault_overhead_ratio", "ratio", "lower"),
    ("network.sigwalk_overhead_ratio", "ratio", "lower"),
    ("network.self_frac", "frac", "lower"),
    ("network.rounds_per_trial", "count", "lower"),
    ("network.messages_per_trial", "count", "lower"),
    ("network.signatures_per_trial", "count", "lower"),
    # proxcensus / core / adversary
    ("protocol.step_us", "us", "lower"),
    ("protocol.self_frac", "frac", "lower"),
    ("adversary.self_frac", "frac", "lower"),
    ("proxcensus.expand_ms.one_third", "ms", "lower"),
    ("proxcensus.expand_ms.linear_half", "ms", "lower"),
    ("proxcensus.expand_ms.quadratic_half", "ms", "lower"),
    # engine
    ("engine.plan.build_us_per_spec", "us", "lower"),
    ("engine.registry.build_us", "us", "lower"),
    ("engine.trial_ms_p50", "ms", "lower"),
    ("engine.trial_ms_p99", "ms", "lower"),
    ("engine.runner.inline_overhead_frac", "frac", "lower"),
    ("engine.transport.pack_us_per_trial", "us", "lower"),
    ("engine.transport.unpack_us_per_trial", "us", "lower"),
    ("engine.transport.bytes_per_trial", "bytes", "lower"),
    ("engine.runner.pool_start_ms", "ms", "lower"),
    ("engine.runner.chunks", "count", "lower"),
    ("engine.runner.busy_s", "s", "lower"),
    ("engine.runner.pool_idle_frac", "frac", "lower"),
    ("engine.runner.parallel_efficiency", "ratio", "higher"),
    *[
        (f"engine.vectorized.rate.{label}", "trials/s", "higher")
        for label, _ in VECTOR_MODELS
    ],
    ("engine.vectorized.probe_ms", "ms", "lower"),
    ("engine.vectorized.batch_fixed_ms", "ms", "lower"),
    ("engine.vectorized.probe_hits", "count", "higher"),
    ("engine.vectorized.probe_misses", "count", "lower"),
    ("engine.vectorized.fallback_trials", "count", "lower"),
    # obs
    ("obs.metrics.overhead_ratio", "ratio", "lower"),
    ("obs.metrics.pack_us", "us", "lower"),
    ("obs.metrics.merge_us", "us", "lower"),
    ("obs.metrics.bytes_per_trial", "bytes", "lower"),
    ("obs.trace.overhead_ratio", "ratio", "lower"),
    ("obs.telemetry.emit_us", "us", "lower"),
    ("obs.telemetry.overhead_ratio", "ratio", "lower"),
    # the cost of the timing proxies themselves
    ("bench.trace_overhead_ratio", "ratio", "lower"),
]


def result_line_names(traced: bool) -> List[str]:
    """Metric names on the driver's result line, as BENCHMARK.json lists."""
    if traced:
        return [name for name, _, _ in PER_LAYER]
    return [name for name, _, _, _ in END_TO_END if name != FAILED_FRAC]
