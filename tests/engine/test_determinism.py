"""The engine's load-bearing guarantee: worker count never changes results.

Two regression suites:

* parallel (4 workers) == serial (1 worker), field for field, on a mixed
  plan covering both BA protocols and both straddle adversaries;
* the engine reproduces the pre-engine serial harness bit-for-bit for
  the same (setup seed, base seed) — outputs, corrupted sets, finish
  rounds and metrics — so the seed / session / key-dealing schedule the
  committed experiment numbers rest on cannot drift.
"""

import random

from repro.adversary.straddle import OneThirdStraddleAdversary
from repro.core.ba import ba_one_third_program
from repro.crypto.keys import CryptoSuite
from repro.engine import ParallelRunner, TrialPlan
from repro.network.simulator import run_protocol


def _mixed_plan(trials=4):
    return TrialPlan.concat(
        "determinism",
        [
            TrialPlan.monte_carlo(
                name="one_third",
                protocol="ba_one_third",
                inputs=(0, 0, 1, 1),
                max_faulty=1,
                trials=trials,
                params={"kappa": 2},
                adversary="straddle13",
                adversary_params={"victims": (3,)},
                seed=11,
            ),
            TrialPlan.monte_carlo(
                name="one_half",
                protocol="ba_one_half",
                inputs=(0, 0, 1, 1, 1),
                max_faulty=2,
                trials=trials,
                params={"kappa": 2},
                adversary="straddle12",
                adversary_params={"victims": (3, 4)},
                seed=12,
            ),
        ],
    )


class TestWorkerCountInvariance:
    def test_parallel_results_identical_to_serial(self):
        plan = _mixed_plan()
        serial = ParallelRunner(workers=1).run(plan)
        parallel = ParallelRunner(workers=4).run(plan)
        assert len(serial) == len(parallel) == len(plan)
        # ExecutionResult is a plain dataclass: == compares outputs,
        # corrupted, metrics (incl. per-round tallies), inputs and
        # finish_rounds field-for-field.
        assert serial.results == parallel.results

    def test_rerun_is_bit_identical(self):
        plan = _mixed_plan(trials=2)
        runner = ParallelRunner(workers=1)
        assert runner.run(plan).results == runner.run(plan).results


class TestLegacyHarnessEquivalence:
    def test_engine_reproduces_run_trials_exactly(self):
        base_seed, trials = 23, 5
        plan = TrialPlan.monte_carlo(
            name="legacy-equiv",
            protocol="ba_one_third",
            inputs=(0, 0, 1, 1),
            max_faulty=1,
            trials=trials,
            params={"kappa": 3},
            adversary="straddle13",
            adversary_params={"victims": (3,)},
            seed=base_seed,
            setup_seed=0,
        )
        engine_results = ParallelRunner(workers=1).run(plan).results

        # The pre-engine loop, written out: keys dealt once from
        # Random(setup seed + 0x5E7); trial i runs a fresh adversary at
        # seed base * 1_000_003 + i under session "exp{base}/{i}".
        crypto = CryptoSuite.ideal(4, 1, random.Random(0 + 0x5E7))
        legacy_results = [
            run_protocol(
                lambda ctx, bit: ba_one_third_program(ctx, bit, kappa=3),
                (0, 0, 1, 1),
                max_faulty=1,
                adversary=OneThirdStraddleAdversary([3]),
                seed=base_seed * 1_000_003 + trial,
                session=f"exp{base_seed}/{trial}",
                crypto=crypto,
            )
            for trial in range(trials)
        ]
        assert engine_results == legacy_results
