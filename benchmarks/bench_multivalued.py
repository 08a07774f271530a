"""TAB-MV — the multivalued extension costs (§3.5 / Turpin–Coan [21]).

Paper: "All protocols can be extended to arbitrary finite domains with an
additional cost of 2 (resp. 3) rounds when t < n/3 (resp. t < n/2)."

Measured here for both lifts: the classic Turpin–Coan reduction (t < n/3)
and the Proxcensus-based lift (both regimes), on top of both binary
protocols — the overhead must be exactly +2 / +3 rounds, and the lifted
protocol must agree on domain values, not just bits.

Runs through the experiment engine: the three executions are declared
as :class:`TrialSpec`s and dispatched in one batch.  Seeds, sessions
and key material match the historical serial harness bit for bit (see
``legacy_setup_seed`` in ``conftest.py``).
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.core.ba import rounds_one_half, rounds_one_third

from .conftest import engine_spec, run_plan

KAPPA = 8
DOMAIN = ["blk_A", "blk_B", "blk_C", "blk_A", "blk_B", "blk_A", "blk_C"]


def test_multivalued_overhead_is_two_or_three_rounds(report_sink):
    binary13 = rounds_one_third(KAPPA)
    binary12 = rounds_one_half(KAPPA)
    specs = [
        # t < n/3 (n = 7, t = 2): classic Turpin-Coan and the prox lift.
        engine_spec(
            "turpin_coan_classic", DOMAIN, 2,
            params={"kappa": KAPPA}, session="mv-tc",
        ),
        engine_spec(
            "multivalued_ba", DOMAIN, 2,
            params={"kappa": KAPPA, "regime": "one_third"},
            session="mv-l3",
        ),
        # t < n/2 (n = 7, t = 3): the prox lift.
        engine_spec(
            "multivalued_ba", DOMAIN, 3,
            params={"kappa": KAPPA, "regime": "one_half"},
            session="mv-l2",
        ),
    ]
    classic, lift13, lift12 = run_plan("bench-multivalued", specs)

    rows = []
    for res, binary, overhead, label, regime in (
        (classic, binary13, 2, "turpin-coan classic", "n/3"),
        (lift13, binary13, 2, "proxcensus lift", "n/3"),
        (lift12, binary12, 3, "proxcensus lift", "n/2"),
    ):
        assert res.honest_agree()
        assert res.metrics.rounds == binary + overhead
        rows.append(
            [label, regime, binary, res.metrics.rounds, f"+{overhead}"]
        )
    report_sink.append(
        f"\nTAB-MV  multivalued BA over a 3-value domain (kappa={KAPPA}, n=7)\n"
        + format_table(
            ["lift", "regime", "binary rounds", "multivalued rounds", "overhead"],
            rows,
        )
    )


def test_multivalued_validity_with_unanimous_domain_value():
    (res,) = run_plan(
        "bench-multivalued-validity",
        [
            engine_spec(
                "multivalued_ba", ["tx"] * 7, 2,
                params={"kappa": 4, "regime": "one_third"},
                session="mv-v",
            )
        ],
    )
    assert all(v == "tx" for v in res.outputs.values())
