"""ABL — ablations of the paper's two design choices.

1. **Why one single iteration for t < n/3?**  Sweep the chunk size m of
   ``ba_one_third_chunked`` (j = ⌈κ/m⌉ iterations of ``Prox_{2^m+1}``):
   rounds are ``j(m+1)``, so error 2^-κ costs ``≈ κ(m+1)/m`` rounds —
   strictly decreasing in m.  m = 1 is fixed-round Feldman–Micali; m = κ
   is the paper's protocol; every intermediate point is measured.

2. **Why s = 5 (r = 3) for t < n/2?**  Paper footnote 6: "other choices of
   number of slots will not lead to efficiency improvements".  Sweep
   ``prox_rounds`` of ``ba_one_half_generalized`` for both the linear and
   the quadratic Proxcensus family and measure rounds to 2^-κ: r = 3
   (linear) is the unique maximizer of bits-per-round.

All sweeps drive the experiment engine (``ba_one_third_chunked`` and
``ba_one_half_generalized`` are registry protocols): each family of
design-space points is one plan.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.core.ablation import (
    bits_per_round_one_half,
    bits_per_round_one_third,
    rounds_one_half_generalized,
    rounds_one_third_chunked,
)

from .conftest import engine_spec, run_plan

KAPPA = 12

CHUNKS = (1, 2, 3, 4, 6, 12)
HALF_SWEEP = (
    ("linear", (2, 3, 4, 5)),
    ("quadratic", (4, 5, 6)),
)


def test_single_iteration_dominates_chunked(report_sink):
    results = run_plan(
        "ablation-one-third-chunked",
        [
            engine_spec(
                "ba_one_third_chunked", [1, 0, 1, 0], 1,
                params={"kappa": KAPPA, "chunk": chunk},
                session=f"ab13-{chunk}",
            )
            for chunk in CHUNKS
        ],
    )
    rows = []
    measured = {}
    for chunk, res in zip(CHUNKS, results):
        assert res.honest_agree()
        expected = rounds_one_third_chunked(KAPPA, chunk)
        assert res.metrics.rounds == expected, (chunk, res.metrics.rounds)
        measured[chunk] = res.metrics.rounds
        rows.append(
            [
                chunk,
                KAPPA // chunk if KAPPA % chunk == 0 else -(-KAPPA // chunk),
                res.metrics.rounds,
                f"{bits_per_round_one_third(chunk):.3f}",
            ]
        )
    # Monotone: bigger chunks, fewer rounds; endpoints are FM and ours.
    chunks = sorted(measured)
    for small, large in zip(chunks, chunks[1:]):
        assert measured[large] < measured[small]
    assert measured[1] == 2 * KAPPA          # Feldman-Micali
    assert measured[KAPPA] == KAPPA + 1      # the paper's protocol
    report_sink.append(
        f"\nABL (1)  t<n/3 iteration granularity, kappa={KAPPA} "
        "(chunk=1 is FM, chunk=kappa is the paper)\n"
        + format_table(["chunk m", "iterations", "rounds", "bits/round"], rows)
    )


def test_prox5_is_the_optimal_slot_count(report_sink):
    points = [
        (family, prox_rounds)
        for family, prox_rounds_list in HALF_SWEEP
        for prox_rounds in prox_rounds_list
    ]
    results = run_plan(
        "ablation-one-half-family",
        [
            engine_spec(
                "ba_one_half_generalized", [1, 0, 1, 0, 1], 2,
                params={
                    "kappa": KAPPA,
                    "prox_rounds": prox_rounds,
                    "family": family,
                },
                session=f"ab12-{family}-{prox_rounds}",
            )
            for family, prox_rounds in points
        ],
    )
    rows = []
    measured = {}
    for (family, prox_rounds), res in zip(points, results):
        assert res.honest_agree()
        expected = rounds_one_half_generalized(KAPPA, prox_rounds, family)
        assert res.metrics.rounds == expected
        measured[(family, prox_rounds)] = res.metrics.rounds
        rows.append(
            [
                family,
                prox_rounds,
                res.metrics.rounds,
                f"{bits_per_round_one_half(prox_rounds, family):.3f}",
            ]
        )
    # Footnote 6: the paper's (linear, r=3) minimizes total rounds.
    best = min(measured, key=lambda key: measured[key])
    assert best == ("linear", 3), (best, measured)
    report_sink.append(
        f"\nABL (2)  t<n/2 slot-count choice, kappa={KAPPA} "
        "(footnote 6: Prox_5 = linear r=3 is optimal)\n"
        + format_table(["family", "prox rounds", "BA rounds", "bits/round"], rows)
    )
