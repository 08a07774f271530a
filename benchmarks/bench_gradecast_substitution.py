"""GC-SUB — the §3.5 closing remark: Prox_4 proxcast vs certificate gradecast.

Paper: "the communication complexity of the MV protocol (for t < n/2) can
be reduced by a factor of n by substituting their 3-round {0,1,2}-gradecast
protocol by 3-round Prox_s^4, the single-sender version of Prox_4".

Both 3-round single-sender primitives are implemented here; this benchmark
measures their signature traffic side by side.  The certificate gradecast
forwards full ``n - t``-signature certificates in round 3 (Θ(n) signatures
per message → Θ(n³) total), while 4-slot proxcast relays at most two
dealer signatures per message (Θ(n²) total) — so the measured ratio grows
linearly in ``n``.  All executions drive the experiment engine.
"""

from __future__ import annotations

from repro.analysis.report import format_table

from .conftest import engine_spec, run_plan

SWEEP_N = (5, 9, 13, 17)


def test_prox4_substitution_saves_factor_n(report_sink):
    specs = []
    for n in SWEEP_N:
        t = (n - 1) // 2
        specs.append(
            engine_spec(
                "certificate_gradecast", ["v"] * n, t,
                params={"dealer": 0}, session=f"gc{n}",
            )
        )
        specs.append(
            engine_spec(
                "proxcast", ["v"] * n, t,
                params={"slots": 4, "dealer": 0}, session=f"px{n}",
            )
        )
    results = run_plan("gradecast-substitution", specs)
    rows = []
    ratios = []
    for position, n in enumerate(SWEEP_N):
        cert = results[2 * position].metrics.honest_signatures
        prox4 = results[2 * position + 1].metrics.honest_signatures
        ratio = cert / prox4
        ratios.append(ratio)
        rows.append([n, cert, prox4, f"{ratio:.2f}"])
    # factor-n shape: the ratio grows (roughly linearly) with n.
    assert ratios == sorted(ratios)
    assert ratios[-1] / ratios[0] > 2.0
    report_sink.append(
        "\nGC-SUB  3-round single-sender gradecast: certificate echo vs "
        "Prox_4 proxcast (honest signatures)\n"
        + format_table(["n", "cert gradecast", "Prox_4 proxcast", "ratio"], rows)
    )


def test_both_primitives_run_in_three_rounds():
    res_cert, res_prox = run_plan(
        "gradecast-three-rounds",
        [
            engine_spec(
                "certificate_gradecast", ["v"] * 5, 2,
                params={"dealer": 0}, session="gr3a",
            ),
            engine_spec(
                "proxcast", ["v"] * 5, 2,
                params={"slots": 4, "dealer": 0}, session="gr3b",
            ),
        ],
    )
    assert res_cert.metrics.rounds == res_prox.metrics.rounds == 3
