"""Shared helpers for the benchmark suite.

Every ``bench_*`` module regenerates one table or figure from the paper
(see DESIGN.md §3 for the experiment index) by *running the protocols* and
printing a measured-vs-paper report; the pytest-benchmark fixture times a
representative execution.  Run with::

    pytest benchmarks/ --benchmark-only -s

(``-s`` shows the regenerated tables inline; they are also summarized in
EXPERIMENTS.md.)
"""

from __future__ import annotations

import os
import warnings

import pytest

collect_ignore: list = []


def bench_workers(default: int = 1) -> int:
    """Worker count from ``REPRO_BENCH_WORKERS``, robustly.

    An empty, non-numeric or non-positive value falls back to
    ``default`` with a warning instead of raising — a stray environment
    variable must never abort collection of the whole benchmark suite.
    A value above ``os.cpu_count()`` is clamped (extra processes on a
    saturated machine only add scheduling overhead; the clamp is logged
    by :func:`repro.engine.clamp_workers`).
    """
    from repro.engine import clamp_workers

    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring REPRO_BENCH_WORKERS={raw!r} (not an integer); "
            f"using {default} worker(s)"
        )
        return default
    if value < 1:
        warnings.warn(
            f"ignoring REPRO_BENCH_WORKERS={value} (must be >= 1); "
            f"using {default} worker(s)"
        )
        return default
    return clamp_workers(value)


#: The engine backends ``REPRO_BENCH_BACKEND`` may select.
VALID_BENCH_BACKENDS = ("object", "vector")


def bench_backend(default: str = "object") -> str:
    """Engine backend from ``REPRO_BENCH_BACKEND``, strictly.

    ``vector`` routes migrated benchmarks through the batch-vectorized
    executor (bit-identical results; unsupported specs fall back to the
    object simulator per spec).  An unrecognized value is an error, not
    a warning: a typo like ``REPRO_BENCH_BACKEND=vectro`` silently
    falling back to the object simulator would produce numbers labeled
    as one backend but measured on another.
    """
    raw = os.environ.get("REPRO_BENCH_BACKEND", "").strip()
    if not raw:
        return default
    if raw not in VALID_BENCH_BACKENDS:
        raise ValueError(
            f"unknown REPRO_BENCH_BACKEND={raw!r}; "
            f"valid backends: {', '.join(VALID_BENCH_BACKENDS)}"
        )
    return raw


def legacy_setup_seed(num_parties: int, max_faulty: int) -> int:
    """The engine ``setup_seed`` that reproduces the legacy bench suites.

    The historical serial harness dealt ideal key material from
    ``random.Random(0xBE7C4 + n * 31 + t)``; the engine deals from
    ``random.Random(setup_seed + 0x5E7)``
    (:func:`repro.engine.deal_suite`).  This offset makes an engine trial see bit-identical
    key material to a legacy benchmark run at the same ``(n, t)`` —
    which is what lets benchmark modules migrate onto
    :class:`~repro.engine.plan.TrialPlan` without a single measured
    number changing.
    """
    return 0xBE7C4 + num_parties * 31 + max_faulty - 0x5E7


def engine_spec(
    protocol,
    inputs,
    max_faulty,
    params=None,
    adversary=None,
    adversary_params=None,
    seed=0,
    session="bench",
    faults=None,
    fault_params=None,
    setup_seed=None,
    rsa_bits=256,
    backend="ideal",
):
    """A :class:`TrialSpec` matching a legacy ``run()`` call exactly.

    Seed, session and (via :func:`legacy_setup_seed`) key material all
    line up with the historical serial harness, so results are
    bit-identical — the only thing that changes is that a batch of specs
    can fan out across ``REPRO_BENCH_WORKERS`` processes.  Benchmarks
    that historically dealt from ``random.Random(seed + 0x5E7)`` pass
    that seed as ``setup_seed`` instead of the default legacy dealing seed.
    """
    from repro.engine import TrialSpec

    return TrialSpec(
        protocol=protocol,
        inputs=tuple(inputs),
        max_faulty=max_faulty,
        params=params,
        adversary=adversary,
        adversary_params=adversary_params,
        seed=seed,
        session=session,
        setup_seed=(
            legacy_setup_seed(len(inputs), max_faulty)
            if setup_seed is None
            else setup_seed
        ),
        rsa_bits=rsa_bits,
        backend=backend,
        faults=faults,
        fault_params=fault_params,
    )


def monte_carlo_specs(
    protocol,
    inputs,
    max_faulty,
    trials,
    params=None,
    adversary=None,
    adversary_params=None,
    seed=0,
    setup_seed=0,
):
    """:meth:`repro.engine.TrialPlan.monte_carlo`'s specs, as a list.

    Trial ``i`` runs with seed ``seed * 1_000_003 + i`` under session
    ``exp{seed}/{i}`` on the key material of ``setup_seed`` (0 by
    default) — the schedule the pre-engine Monte-Carlo loop used, so the
    migrated benchmarks reproduce every historical number bit-for-bit.
    """
    from repro.engine import TrialPlan

    return list(TrialPlan.monte_carlo(
        protocol, protocol, inputs, max_faulty, trials, params, adversary,
        adversary_params, seed, setup_seed,
    ).trials)


def run_plan(name, specs):
    """Execute hand-built specs through the engine; results in order.

    Worker count comes from :func:`bench_workers` and the backend from
    :func:`bench_backend`, so ``REPRO_BENCH_WORKERS`` and
    ``REPRO_BENCH_BACKEND=vector`` accelerate every migrated benchmark;
    with the defaults this is exactly the legacy serial loop.
    """
    from repro.engine import ParallelRunner, TrialPlan

    plan = TrialPlan(name=name, trials=tuple(specs))
    runner = ParallelRunner(workers=bench_workers(), backend=bench_backend())
    return runner.run(plan).results


@pytest.fixture(scope="session")
def report_sink():
    """Collects printed reports so they appear grouped at session end."""
    lines: list = []
    yield lines
    if lines:
        print("\n" + "\n".join(lines))
