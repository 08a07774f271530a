"""Tests for the synchronous simulator and adversary interposition."""

import random

import pytest

from repro.adversary.base import Adversary, RoundDecision
from repro.crypto.keys import CryptoSuite
from repro.network.errors import (
    AdversaryBudgetError,
    RoundLimitError,
    SimulationError,
)
from repro.network.metrics import RunMetrics
from repro.network.simulator import ExecutionResult, SyncSimulator, run_protocol

from ..conftest import ideal_suite, run


def one_round_echo(ctx, value):
    inbox = yield ctx.broadcast({"v": value})
    return sorted((s, p.get("v")) for s, p in inbox.items() if isinstance(p, dict))


class TestBasics:
    def test_delivery_is_complete_and_authenticated(self):
        res = run(one_round_echo, [10, 20, 30], max_faulty=0)
        assert res.outputs[0] == [(0, 10), (1, 20), (2, 30)]
        assert res.outputs[2] == [(0, 10), (1, 20), (2, 30)]

    def test_rounds_counted(self):
        def two_rounds(ctx, v):
            yield ctx.broadcast(None)
            yield ctx.broadcast(None)
            return v

        res = run(two_rounds, [1, 2], max_faulty=0)
        assert res.metrics.rounds == 2

    def test_zero_round_program(self):
        def instant(ctx, v):
            return v * 2
            yield  # pragma: no cover

        res = run(instant, [1, 2], max_faulty=0)
        assert res.outputs == {0: 2, 1: 4}
        assert res.metrics.rounds == 0

    def test_unicast_only_reaches_target(self):
        def directed(ctx, v):
            inbox = yield {1: {"v": v}}
            return sorted(inbox)

        res = run(directed, [0, 1, 2], max_faulty=0)
        assert res.outputs[1] == [0, 1, 2]
        assert res.outputs[0] == []
        assert res.outputs[2] == []

    def test_determinism(self):
        def coin_ish(ctx, _):
            inbox = yield ctx.broadcast({"r": ctx.rng.randrange(1000)})
            return sorted((s, p["r"]) for s, p in inbox.items())

        a = run(coin_ish, [None] * 3, max_faulty=0, seed=5)
        b = run(coin_ish, [None] * 3, max_faulty=0, seed=5)
        c = run(coin_ish, [None] * 3, max_faulty=0, seed=6)
        assert a.outputs == b.outputs
        assert a.outputs != c.outputs

    def test_input_length_mismatch_rejected(self):
        sim = SyncSimulator(3, 0, ideal_suite(3, 0))
        with pytest.raises(SimulationError):
            sim.run(one_round_echo, [1, 2])

    def test_crypto_size_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            SyncSimulator(4, 1, ideal_suite(3, 0))

    def test_round_limit_guards_nontermination(self):
        def forever(ctx, _):
            while True:
                yield ctx.broadcast(None)

        sim = SyncSimulator(2, 0, ideal_suite(2, 0), max_rounds=10)
        with pytest.raises(RoundLimitError):
            sim.run(forever, [None, None])

    def test_honest_exception_propagates(self):
        def broken(ctx, _):
            yield ctx.broadcast(None)
            raise ValueError("honest bug")

        with pytest.raises(ValueError):
            run(broken, [None, None], max_faulty=0)


class TestAdversaryInterposition:
    def test_rushing_adversary_sees_honest_traffic(self):
        seen = {}

        class Peek(Adversary):
            def initial_corruptions(self):
                return {2}

            def decide(self, view):
                seen[view.round_index] = view.outboxes[0][1]
                return RoundDecision()

        run(one_round_echo, [7, 8, 9], max_faulty=1, adversary=Peek())
        assert seen[1] == {"v": 7}

    def test_replacement_of_corrupted_messages(self):
        class Liar(Adversary):
            def initial_corruptions(self):
                return {2}

            def decide(self, view):
                from repro.network.messages import Broadcast

                return RoundDecision(replace={2: Broadcast({"v": 999})})

        res = run(one_round_echo, [1, 2, 3], max_faulty=1, adversary=Liar())
        assert (2, 999) in res.outputs[0]

    def test_equivocation_per_recipient(self):
        class TwoFaced(Adversary):
            def initial_corruptions(self):
                return {2}

            def decide(self, view):
                return RoundDecision(
                    replace={2: {0: {"v": "left"}, 1: {"v": "right"}}}
                )

        res = run(one_round_echo, [1, 2, 3], max_faulty=1, adversary=TwoFaced())
        assert (2, "left") in res.outputs[0]
        assert (2, "right") in res.outputs[1]

    def test_adaptive_corruption_drops_in_flight_messages(self):
        class Strike(Adversary):
            def decide(self, view):
                if view.round_index == 1:
                    return RoundDecision(corrupt={0: None})
                return RoundDecision()

        res = run(one_round_echo, [1, 2, 3], max_faulty=1, adversary=Strike())
        assert 0 in res.corrupted
        # party 0's round-1 broadcast was dropped before delivery
        assert all(s != 0 for (s, _) in res.outputs[1])

    def test_budget_enforced_for_initial(self):
        class Greedy(Adversary):
            def initial_corruptions(self):
                return {0, 1}

        with pytest.raises(AdversaryBudgetError):
            run(one_round_echo, [1, 2, 3], max_faulty=1, adversary=Greedy())

    def test_budget_enforced_for_adaptive(self):
        class Greedy(Adversary):
            def decide(self, view):
                return RoundDecision(corrupt={0: None, 1: None})

        with pytest.raises(AdversaryBudgetError):
            run(one_round_echo, [1, 2, 3], max_faulty=1, adversary=Greedy())

    def test_cannot_replace_honest_messages_without_corruption(self):
        class Cheater(Adversary):
            def decide(self, view):
                return RoundDecision(replace={0: None})

        with pytest.raises(SimulationError):
            run(one_round_echo, [1, 2, 3], max_faulty=1, adversary=Cheater())

    def test_observe_receives_corrupted_inboxes(self):
        observed = {}

        class Watcher(Adversary):
            def initial_corruptions(self):
                return {1}

            def observe(self, round_index, inboxes):
                observed[round_index] = inboxes

        run(one_round_echo, [5, 6, 7], max_faulty=1, adversary=Watcher())
        assert set(observed[1]) == {1}
        assert observed[1][1][0] == {"v": 5}

    def test_broken_corrupted_shadow_is_tolerated(self):
        def fragile(ctx, v):
            inbox = yield ctx.broadcast({"v": v})
            if ctx.party_id == 2:
                raise RuntimeError("shadow explodes")
            inbox = yield ctx.broadcast({"v": v})
            return True

        class Corruptor(Adversary):
            def initial_corruptions(self):
                return {2}

        res = run(fragile, [1, 2, 3], max_faulty=1, adversary=Corruptor())
        assert res.outputs[0] is True and res.outputs[1] is True


class TestHonestAgree:
    """The one-pass ``honest_agree`` == the definition it replaced."""

    @staticmethod
    def reference(result):
        values = list(result.honest_outputs.values())
        return all(value == values[0] for value in values) if values else True

    def test_equals_the_definition_over_a_grid(self):
        n = 4
        # Hashable and unhashable outputs, equal across types, and one
        # that is not even equal to itself.
        values = (0, 1, True, "a", [1], [1, 2], {"k": [0]}, None, float("nan"))
        orders = ([0, 1, 2, 3], [3, 1, 0, 2])  # fm-style finish order
        checked = 0
        for corrupted in (set(), {3}, {0}, {0, 1, 2}, {0, 1, 2, 3}):
            for unfinished in (set(), {1}, {0, 3}, {0, 1, 2, 3}):
                for order in orders:
                    for a in values:
                        for b in values:
                            outputs = {
                                pid: (a if pid % 2 else b)
                                for pid in order
                                if pid not in unfinished
                            }
                            outputs[7] = "stray"  # not a party: no input
                            result = ExecutionResult(
                                outputs=outputs,
                                corrupted=set(corrupted),
                                metrics=RunMetrics(),
                                inputs=dict(enumerate([0] * n)),
                                finish_rounds=dict.fromkeys(outputs, 1),
                            )
                            assert result.honest_agree() is self.reference(result)
                            checked += 1
        assert checked == 5 * 4 * 2 * 9 * 9


class TestRunProtocolHelper:
    def test_deals_keys_automatically(self):
        res = run_protocol(one_round_echo, [1, 2, 3], max_faulty=1, seed=3)
        assert res.honest_agree()

    def test_metrics_split_honest_corrupt(self):
        class Silent(Adversary):
            def initial_corruptions(self):
                return {0}

            def decide(self, view):
                return RoundDecision(replace={0: None})

        res = run_protocol(
            one_round_echo, [1, 2, 3], max_faulty=1, adversary=Silent()
        )
        assert res.metrics.honest_messages == 6  # 2 honest x 3 recipients
        assert res.metrics.corrupt_messages == 0
