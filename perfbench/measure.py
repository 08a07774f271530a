"""The untraced run protocol: warm-up, timed repetitions, set-up timing.

One call of :func:`run_workload` is one workload in *this* process — the
callers (``perfbench/run.py``, ``python -m perfbench run``) start a fresh
interpreter per workload so that heap state, caches and ``ru_maxrss``
never leak from one workload into the next.

**Why many short repetitions and a calibration loop.**  The reference
container is a 2-vCPU microVM whose speed drifts by ±30 % over minutes
(host frequency and sibling contention) with bursts of steal on top;
measured at ``4d26c47``, the median of five 3-second repetitions moved
15–30 % between back-to-back runs.  So a run makes twenty short
repetitions, each preceded by one pass of a fixed pure-Python/HMAC loop,
takes the *quiet* quartile of both (bursts only ever slow things down),
and reports host time corrected by the calibration loop's speed relative
to its nominal duration.  On the same data that halves the run-to-run
spread.  The uncorrected host-time figures ride along in the JSON.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.engine import (
    ChunkSummary,
    PlanResult,
    TrialPlan,
    clear_probe_cache,
    probe_cache_stats,
)
from repro.network import RunMetrics
from repro.obs import TelemetryWriter

from .checks import check_repetition
from .configs import REPETITIONS, Workload, build_plan, make_runner
from .metrics import END_TO_END

__all__ = [
    "calibration_pass",
    "cpu_seconds",
    "quiet_estimate",
    "run_workload",
    "summarize",
]

#: Fresh set-up-only interpreters per run.
SETUP_RUNS = 7
#: What one calibration pass takes on the reference container; corrected
#: figures are in "reference seconds" of this machine speed.
CALIBRATION_NOMINAL_SECONDS = 0.1
_CALIBRATION_KEY = b"perfbench-calibration-key-32-byte"

RUN_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def calibration_pass(iterations: int = 300_000) -> float:
    """Seconds for a fixed amount of interpreter, dict and HMAC work.

    Library code is deliberately not involved: the loop's speed depends
    on the machine's state and on nothing a commit can change.
    """
    started = time.perf_counter()
    counts: Dict[Any, int] = {}
    get = counts.get
    for index in range(iterations):
        key = (index & 1023, "s", index & 7)
        counts[key] = get(key, 0) + 1
        if not index & 31:
            hmac.new(_CALIBRATION_KEY, b"%d" % index, hashlib.sha256).digest()
    return time.perf_counter() - started


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Median plus the spread figures every reported metric carries."""
    ordered = sorted(values)
    quartiles = (
        statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    )
    return {
        "value": statistics.median(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "q1": quartiles[0],
        "q3": quartiles[2],
        "iqr": quartiles[2] - quartiles[0],
        "n": len(ordered),
    }


def quiet_estimate(
    samples: Sequence[float], calibration: Sequence[float], higher_is_quiet: bool
) -> Dict[str, Any]:
    """The quiet-quartile of ``samples`` corrected for machine speed.

    Interference only ever slows a repetition, so the quartile on the
    fast side estimates the undisturbed figure; the same quartile of the
    interleaved calibration passes says how fast the machine was then.
    ``machine_speed`` > 1 means faster than the reference container.
    """
    summary = summarize(samples)
    speed = CALIBRATION_NOMINAL_SECONDS / summarize(calibration)["q1"]
    raw = summary["q3"] if higher_is_quiet else summary["q1"]
    scale = 1.0 / speed if higher_is_quiet else speed
    return {
        "value": raw * scale,
        "host": raw,
        "host_median": summary["value"],
        "min": summary["min"] * scale,
        "max": summary["max"] * scale,
        "iqr": summary["iqr"] * scale,
        "n": summary["n"],
        "machine_speed": speed,
    }


def _setup_seconds(workload: Workload, seed: int, seconds: float,
                   repetitions: int) -> float:
    """Time one fresh interpreter from spawn to ready-to-run.

    CLOCK_MONOTONIC is shared by every process on the host, so the child
    reports the instant it became ready and the parent subtracts the
    instant just before the spawn: interpreter start-up is included,
    interpreter tear-down is not.
    """
    command = [
        sys.executable, RUN_SCRIPT, "--setup-only",
        "--workload", workload.name, "--seed", str(seed),
        "--seconds", repr(seconds), "--repetitions", str(repetitions),
    ]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    finished = subprocess.run(
        command, check=True, capture_output=True, text=True, timeout=120
    )
    return float(finished.stdout.split()[-1]) - started


def _reduce(workload: Workload, plan: TrialPlan, result: PlanResult) -> None:
    """What a sweep's user does with a result: rates and merged tallies."""
    for indices in plan.configs().values():
        sum(1 for index in indices if not result.results[index].honest_agree())
        RunMetrics.merged(result.results[index].metrics for index in indices)
    if workload.metrics:
        result.metrics_payload()


def _digest_update(digest: Any, result: PlanResult) -> None:
    metrics = (
        dict(enumerate(result.trial_metrics))
        if result.trial_metrics is not None
        else None
    )
    summary = ChunkSummary.pack(list(enumerate(result.results)), metrics=metrics)
    digest.update(summary.blob)
    digest.update(repr(summary.fallbacks).encode("utf-8"))
    for _, blob in summary.metrics:
        digest.update(blob)


def cpu_seconds() -> float:
    """User + system CPU of this process plus every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    tmp_dir: str,
    repetitions: int = REPETITIONS,
    setup_runs: int = SETUP_RUNS,
) -> Dict[str, Any]:
    """Warm up, run the timed repetitions, check them, time the set-up."""
    total_trials = workload.repetition_trials(seconds, repetitions)

    def run_once(plan: TrialPlan, label: str) -> PlanResult:
        telemetry: Optional[TelemetryWriter] = None
        if workload.telemetry:
            telemetry = TelemetryWriter(
                os.path.join(tmp_dir, f"telemetry-{label}.jsonl")
            )
        try:
            result = make_runner(workload, telemetry).run(plan)
            _reduce(workload, plan, result)
        finally:
            if telemetry is not None:
                telemetry.close()
        return result

    # The warm-up takes its own seed stream (index = repetitions), fills
    # the suite cache, the lazy imports and the vector probe cache, and is
    # thrown away.  Probes stay warm afterwards: a user's sweep is one
    # long run in which they are < 0.1 % of trials, and clearing them
    # before every short repetition would make them ~7 % of its time.
    clear_probe_cache()
    run_once(build_plan(workload, seed, repetitions, total_trials), "warmup")

    rows: List[Dict[str, Any]] = []
    failure_notes: List[str] = []
    attempted = failed = 0
    digest = hashlib.sha256()
    for repetition in range(repetitions):
        plan = build_plan(workload, seed, repetition, total_trials)
        probes_before = probe_cache_stats()
        gc.collect()
        calibration = calibration_pass()
        result: Optional[PlanResult] = None
        error: Optional[str] = None
        cpu_started = cpu_seconds()
        started = time.perf_counter()
        try:
            result = run_once(plan, f"r{repetition}")
        except Exception as exc:  # an aborted run fails every trial in it
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu_started

        probes = probe_cache_stats()
        bad = set(range(len(plan)))
        if result is not None:
            failures = check_repetition(workload, plan, result, repetitions)
            bad = {index for indices in failures.values() for index in indices}
            for name, indices in failures.items():
                failure_notes.append(
                    f"repetition {repetition}: {name} failed on "
                    f"{len(indices)} trials, first plan index {indices[0]}"
                )
            _digest_update(digest, result)
        else:
            failure_notes.append(f"repetition {repetition}: run aborted: {error}")
        attempted += len(plan)
        failed += len(bad)
        rows.append({
            "trials": len(plan),
            "wall_s": wall,
            "cpu_s": cpu,
            "calibration_s": calibration,
            "failed": len(bad),
            "probe_hits": probes["hits"] - probes_before["hits"],
            "probe_misses": probes["misses"] - probes_before["misses"],
        })
        # Drop the result and collect outside the timed window: the next
        # repetition must not pay for this one's garbage.
        del result, plan
        gc.collect()

    # Read before the set-up children run: RUSAGE_CHILDREN is a maximum
    # over every reaped child and must only see pool workers.
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup, setup_calibration = [], []
    for _ in range(setup_runs):
        setup_calibration.append(calibration_pass())
        setup.append(_setup_seconds(workload, seed, seconds, repetitions))

    calibration = [row["calibration_s"] for row in rows]
    measured = {
        "trials_per_s": quiet_estimate(
            [row["trials"] / row["wall_s"] for row in rows], calibration, True
        ),
        "cpu_ms_per_trial": quiet_estimate(
            [1000.0 * row["cpu_s"] / row["trials"] for row in rows],
            calibration, False,
        ),
        "setup_s": quiet_estimate(setup, setup_calibration, False),
        "peak_rss_mb": {
            "value": max(own_kib, children_kib) / 1024.0,
            "self_mb": own_kib / 1024.0,
            "children_mb": children_kib / 1024.0,
            "n": 1,
        },
        "failed_frac": {"value": failed / attempted, "n": attempted},
    }
    for name, unit, _, _ in END_TO_END:
        measured[name]["unit"] = unit
    return {
        "workload": workload.name,
        "workers": workload.workers(),
        "trials_per_repetition": rows[0]["trials"],
        "attempted": attempted,
        "failed": failed,
        "failures": failure_notes,
        "result_digest": digest.hexdigest(),
        "metrics": measured,
        "repetitions": rows,
    }
