"""Shared helpers for the benchmark suite.

Every ``bench_*`` module regenerates one table or figure from the paper
(see DESIGN.md §3 for the experiment index) by *running the protocols*,
asserts the paper's claim and prints a measured-vs-paper report.  It
times nothing: speeds are perfbench's job.  Run with::

    pytest benchmarks/ -s

(``-s`` shows the regenerated tables inline; they are also summarized in
EXPERIMENTS.md.)
"""

from __future__ import annotations

import pytest

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
    bit-identical to it.  Benchmarks that historically dealt from
    ``random.Random(seed + 0x5E7)`` pass that seed as ``setup_seed``
    instead of the default legacy dealing seed.
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


def run_plan(name, specs):
    """Execute hand-built specs through the engine; results in order.

    One worker, inline, on the vector backend: supported specs run
    batched, every other spec falls back to the reference simulator,
    and the results are bit-identical either way.
    """
    from repro.engine import ParallelRunner, TrialPlan

    plan = TrialPlan(name=name, trials=tuple(specs))
    return ParallelRunner(backend="vector").run(plan).results


@pytest.fixture(scope="session")
def report_sink():
    """Collects printed reports so they appear grouped at session end."""
    lines: list = []
    yield lines
    if lines:
        print("\n" + "\n".join(lines))
