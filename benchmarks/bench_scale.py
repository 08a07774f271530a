"""SCALE — simulator practicality: runtime vs n and vs κ.

Not a paper artifact, but the reproduction's enabling claim: a pure-Python
simulation of these protocols is *fast*, not just feasible.  Two sweeps
(both executed through the experiment engine's single-trial path):

* κ-sweep at n = 4 (t < n/3): the single-iteration protocol at κ = 64 is
  a Proxcensus with ``2^64 + 1`` slots and a ``2^64``-valued coin — grades
  are exact big integers and the expansion's output determination visits
  only observed grade bands, so cost stays linear in κ.
* n-sweep at κ = 8: message count is Θ(κ n²), so wall-time grows
  quadratically in n; n = 31 (t = 10) completes comfortably.

Plus the hot-path ledger: SCALE (c) times the n = 10 workload and pins
that tag memoization leaves the execution unchanged.
"""

from __future__ import annotations

import time

from repro.analysis.report import format_table
from repro.crypto.ideal import set_tag_memoization
from repro.engine import TrialSpec, run_trial


def _spec(n, t, kappa, session, collect_signatures=True):
    return TrialSpec(
        protocol="ba_one_third",
        inputs=tuple(i % 2 for i in range(n)),
        max_faulty=t,
        params=(("kappa", kappa),),
        seed=0,
        session=session,
        setup_seed=n * 31 + t,
    )


def _run_once(n, t, kappa, session):
    started = time.perf_counter()
    res = run_trial(_spec(n, t, kappa, session))
    elapsed = time.perf_counter() - started
    assert res.honest_agree()
    return elapsed, res.metrics


def test_kappa_scaling(report_sink):
    rows = []
    for kappa in (8, 16, 32, 64):
        elapsed, metrics = _run_once(4, 1, kappa, f"sk{kappa}")
        rows.append(
            [kappa, metrics.rounds, metrics.honest_messages, f"{elapsed * 1e3:.1f}ms"]
        )
        assert elapsed < 2.0, f"kappa={kappa} took {elapsed:.1f}s"
    report_sink.append(
        "\nSCALE (a)  t<n/3 BA vs kappa at n=4 (s = 2^kappa + 1 slots!)\n"
        + format_table(["kappa", "rounds", "messages", "wall time"], rows)
    )


def test_n_scaling(report_sink):
    rows = []
    timings = {}
    for n in (4, 10, 16, 31):
        t = (n - 1) // 3
        elapsed, metrics = _run_once(n, t, 8, f"sn{n}")
        timings[n] = elapsed
        rows.append(
            [n, t, metrics.honest_messages, f"{elapsed * 1e3:.1f}ms"]
        )
        assert elapsed < 10.0, f"n={n} took {elapsed:.1f}s"
    report_sink.append(
        "SCALE (b)  t<n/3 BA vs n at kappa=8 (messages = Θ(kappa n²))\n"
        + format_table(["n", "t", "messages", "wall time"], rows)
    )


def test_hot_path_caching_speedup(report_sink):
    """Times the cached hot path at n=10 and pins that caching is inert.

    Tag memoization off must reproduce the same execution, tallies
    included (the per-message reference signature walk is pinned against
    every protocol x adversary pair in tests/engine/test_transport.py).
    The pre-optimization path this test once raced is gone; its measured
    ratio is recorded in docs/performance.md.
    """
    repeats = 12

    def timed():
        started = time.perf_counter()
        for i in range(repeats):
            run_trial(_spec(10, 3, 8, f"hc{i}"))
        return time.perf_counter() - started

    timed()  # warm suite cache / allocator
    cached_elapsed = timed()

    fresh = run_trial(_spec(10, 3, 8, "hceq"))
    previous = set_tag_memoization(False)
    try:
        reference = run_trial(_spec(10, 3, 8, "hceq"))
    finally:
        set_tag_memoization(previous)
    assert fresh == reference

    report_sink.append(
        "SCALE (c)  hot path (n=10, kappa=8, "
        f"{repeats} runs): {cached_elapsed * 1e3:.0f}ms"
    )
