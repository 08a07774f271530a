"""Cross-module integration tests: the library end to end.

These tests exercise realistic compositions — the things a downstream user
actually does — rather than single modules: full BA over both crypto
backends, multivalued agreement feeding application data, adversaries
attacking complete stacks, and determinism of whole executions.
"""

import importlib
import importlib.util
import random
import re

import pytest

from repro import (
    CrashAdversary,
    CryptoSuite,
    IdealCoin,
    MalformedAdversary,
    TwoFaceAdversary,
    ba_one_half_program,
    ba_one_third_program,
    ideal_coin_factory,
    multivalued_ba_program,
    run_protocol,
)
from repro.engine import ParallelRunner, TrialPlan

from .conftest import run


class TestPublicApiSurface:
    def test_readme_quickstart(self):
        result = run_protocol(
            lambda ctx, bit: ba_one_third_program(ctx, bit, kappa=16),
            inputs=[1, 0, 1, 0],
            max_faulty=1,
            seed=7,
        )
        assert result.honest_agree()

    @pytest.mark.parametrize("package", [
        "repro", "repro.adversary", "repro.analysis", "repro.core",
        "repro.crypto", "repro.engine", "repro.network", "repro.obs",
        "repro.proxcensus",
    ])
    def test_all_public_names_importable(self, package):
        """Each lazy package resolves every ``__all__`` name from its
        export table, whose keys are its own direct submodules."""
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None
        table = module._EXPORTS
        exported = [name for names in table.values() for name in names]
        assert sorted(exported) == sorted(module.__all__)
        for key in table:
            assert re.fullmatch(r"\.[a-z_]+", key), key
            assert importlib.util.find_spec(key, package) is not None, key
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            module.no_such_name


class TestWholeStackScenarios:
    def test_committee_block_agreement(self):
        """An Algorand-flavoured scenario: a committee of 7 agrees on a
        block hash under a crash of 2 members (t < n/3 would allow 2)."""
        proposals = ["h_A", "h_A", "h_A", "h_A", "h_B", "h_B", "h_A"]

        def program(ctx, proposal):
            return multivalued_ba_program(
                ctx,
                proposal,
                lambda c, b: ba_one_third_program(c, b, kappa=8),
                regime="one_third",
                default="EMPTY_BLOCK",
            )

        res = run(
            program, proposals, max_faulty=2,
            adversary=CrashAdversary(victims=[5, 6], crash_round=2),
            session="blocks",
        )
        values = set(res.honest_outputs.values())
        assert len(values) == 1
        assert values <= {"h_A", "h_B", "EMPTY_BLOCK"}

    def test_dishonest_minority_stack(self):
        """t = 2 of n = 5 with equivocation on the full t < n/2 stack."""
        factory = lambda c, b: ba_one_half_program(c, b, kappa=8)
        for seed in range(5):
            adversary = TwoFaceAdversary(victims=[3, 4], factory=factory)
            res = run(
                factory, [0, 1, 0, 1, 1], max_faulty=2,
                adversary=adversary, seed=seed, session=f"dm{seed}",
            )
            assert res.honest_agree()

    def test_mixed_adversary_sequence(self):
        """Different attacks against the same protocol and keys."""
        factory = lambda c, b: ba_one_third_program(c, b, kappa=6)
        for adversary in (
            None,
            CrashAdversary(victims=[3], crash_round=3),
            MalformedAdversary(victims=[3]),
            TwoFaceAdversary(victims=[3], factory=factory),
        ):
            res = run(
                factory, [1, 1, 1, 1], max_faulty=1,
                adversary=adversary, session="mix",
            )
            assert all(v == 1 for v in res.honest_outputs.values())

    def test_execution_fully_deterministic(self):
        factory = lambda c, b: ba_one_half_program(c, b, kappa=4)
        runs = [
            run(factory, [0, 1, 1, 0, 1], max_faulty=2, seed=9, session="det")
            for _ in range(2)
        ]
        assert runs[0].outputs == runs[1].outputs
        assert runs[0].metrics.rows == runs[1].metrics.rows
        assert runs[0].metrics.total_messages == runs[1].metrics.total_messages


class TestMonteCarloSanity:
    def test_error_probability_orders_of_magnitude(self):
        """kappa = 1 (error <= 1/2) must fail sometimes under attack while
        kappa = 10 (error <= 2^-10) must not, over the same 40 trials."""

        def runner(kappa):
            plan = TrialPlan.monte_carlo(
                f"two-face-k{kappa}", "ba_one_third", [0, 0, 1, 1], 1, trials=40,
                params={"kappa": kappa},
                adversary="two_face", adversary_params={"victims": (3,)},
            )
            return ParallelRunner().run(plan).disagreement_rate()

        assert runner(1) > 0.0
        assert runner(10) == 0.0


@pytest.mark.slow
class TestRealBackendIntegration:
    def test_full_stack_over_shoup_rsa(self):
        crypto = CryptoSuite.real(4, 1, random.Random(123), bits=128)
        res = run(
            lambda c, v: multivalued_ba_program(
                c, v,
                lambda cc, b: ba_one_third_program(cc, b, kappa=2),
                regime="one_third",
                default="none",
            ),
            ["tx1", "tx1", "tx2", "tx1"],
            max_faulty=1,
            crypto=crypto,
            session="realstack",
        )
        assert res.honest_agree()
