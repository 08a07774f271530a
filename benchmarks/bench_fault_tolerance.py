"""FIG-FAULT — how the paper's guarantees degrade as synchrony bends.

The κ+1 / 3κ/2 round bounds and 2^-κ error probabilities are proved in
a clean synchronous network (PAPER.md §2.1).  This sweep measures what
actually happens when the network misbehaves: a grid of background
loss/delay rate × partition length (the ``degraded`` registry scenario:
i.i.d. loss and delay plus one healing split) crossed with two
protocols —

* ``ba_one_third`` (fixed κ+1 rounds): round count cannot move, so the
  degradation shows up purely as *error probability* — the agreement
  rate falls as the network eats messages;
* ``fm_probabilistic`` (probabilistic termination): agreement is
  enforced by termination detection, so the degradation shows up as
  *round count* — expected rounds stretch as coins and echoes go
  missing.

Every cell runs through ``engine_spec``/``run_plan`` (the legacy-seeded
engine path), so results are bit-identical on every run; the sweep
rewrites the committed ``BENCH_faults.json`` degradation curves, and CI
fails if the rewrite differs from the committed file.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import engine_spec, run_plan
from repro.analysis.report import format_table

TRIALS = 120
LOSS_RATES = (0.0, 0.05, 0.1, 0.2)
SPLIT_ROUNDS = (0, 2, 4)
KAPPA = 3

_ARTIFACT = os.path.join(os.path.dirname(__file__), "..", "BENCH_faults.json")


def _fault_args(rate, split_rounds):
    """(faults, fault_params) for one grid cell; the clean cell is None."""
    if rate == 0.0 and split_rounds == 0:
        return None, None
    params = {"rate": rate, "max_delay": 2}
    if split_rounds:
        params.update(split=(0, 1), heal=1 + split_rounds)
    return "degraded", params


def _cell(protocol, inputs, params, rate, split_rounds, seed_base):
    faults, fault_params = _fault_args(rate, split_rounds)
    specs = [
        engine_spec(
            protocol,
            inputs,
            (len(inputs) - 1) // 3,
            params=params,
            seed=seed_base + index,
            session=f"fault-{protocol}-{rate}-{split_rounds}-{index}",
            faults=faults,
            fault_params=fault_params,
        )
        for index in range(TRIALS)
    ]
    results = run_plan(f"fault-{protocol}-{rate}-{split_rounds}", specs)
    agreed = sum(1 for result in results if result.honest_agree())
    return {
        "loss": rate,
        "partition_rounds": split_rounds,
        "agreement_rate": agreed / TRIALS,
        "mean_rounds": sum(r.metrics.rounds for r in results) / TRIALS,
        "mean_messages": sum(r.metrics.total_messages for r in results) / TRIALS,
    }


def _sweep(protocol, inputs, params, seed_base):
    return [
        _cell(protocol, inputs, params, rate, split_rounds,
              seed_base + 10_000 * cell_index)
        for cell_index, (rate, split_rounds) in enumerate(
            (rate, split_rounds)
            for rate in LOSS_RATES
            for split_rounds in SPLIT_ROUNDS
        )
    ]


def _rows(cells, value_key, fmt):
    return [
        [cell["loss"], cell["partition_rounds"], fmt % cell[value_key]]
        for cell in cells
    ]


def test_fault_tolerance_degradation_curves(report_sink):
    ba_cells = _sweep("ba_one_third", (1, 0, 1, 0, 1), {"kappa": KAPPA}, 0)
    fm_cells = _sweep("fm_probabilistic", (1, 0, 1, 0), {}, 500_000)

    by_key = {
        (cell["loss"], cell["partition_rounds"]): cell for cell in ba_cells
    }
    clean = by_key[(0.0, 0)]
    worst = by_key[(LOSS_RATES[-1], SPLIT_ROUNDS[-1])]
    # The clean cell IS the paper's model: fault-free, no adversary, so
    # agreement is certain and the round count is exactly kappa + 1.
    assert clean["agreement_rate"] == 1.0
    assert clean["mean_rounds"] == KAPPA + 1
    # Degradation is monotone at the corners: the heaviest cell can
    # never beat the clean one.
    assert worst["agreement_rate"] <= clean["agreement_rate"]
    for cell in ba_cells:
        assert 0.0 <= cell["agreement_rate"] <= 1.0
        assert cell["mean_rounds"] == KAPPA + 1  # fixed-round, by design

    fm_by_key = {
        (cell["loss"], cell["partition_rounds"]): cell for cell in fm_cells
    }
    fm_clean = fm_by_key[(0.0, 0)]
    fm_worst = fm_by_key[(LOSS_RATES[-1], SPLIT_ROUNDS[-1])]
    # Probabilistic termination pays for faults in rounds, not safety.
    assert fm_worst["mean_rounds"] >= fm_clean["mean_rounds"]

    report_sink.append(
        "\nFIG-FAULT (a)  ba_one_third (kappa=3, fixed-round): agreement "
        f"rate vs loss x partition ({TRIALS} trials/cell)\n"
        + format_table(
            ["loss", "split rounds", "agreement"],
            _rows(ba_cells, "agreement_rate", "%.4f"),
        )
        + "\n\nFIG-FAULT (b)  fm_probabilistic: mean rounds to terminate "
        f"vs loss x partition ({TRIALS} trials/cell)\n"
        + format_table(
            ["loss", "split rounds", "mean rounds"],
            _rows(fm_cells, "mean_rounds", "%.2f"),
        )
    )

    artifact = {
        "schema": "repro-bench-faults/1",
        "scenario": "degraded",
        "kappa": KAPPA,
        "trials": TRIALS,
        "loss_rates": list(LOSS_RATES),
        "partition_rounds": list(SPLIT_ROUNDS),
        "protocols": {
            "ba_one_third": ba_cells,
            "fm_probabilistic": fm_cells,
        },
    }
    with open(_ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    report_sink.append(f"\nwrote {os.path.normpath(_ARTIFACT)}")
