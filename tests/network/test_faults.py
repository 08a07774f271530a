"""Unit tests for the fault-injection layer's semantics.

The load-bearing properties, each pinned directly against
``repro.network.faults`` or a small simulator run:

* construction validation fails loudly (bad rates, inverted windows,
  overlapping partition groups, half-configured membership rotation);
* the offline/partition schedules decode rounds exactly as documented;
* ``faults=None`` and a no-op plan are byte-identical to the
  pre-fault-layer simulator;
* extreme plans (``loss=1.0``, a never-healing split, a full crash
  window) degrade deliveries without ever crashing an honest party.
"""

from __future__ import annotations

import random

import pytest

from repro.core.ba import ba_one_third_program
from repro.network.faults import (
    Crash,
    FaultInjector,
    FaultPlan,
    Partition,
)
from repro.network.simulator import SyncSimulator

from ..conftest import ideal_suite


def _factory(kappa=3):
    return lambda ctx, value: ba_one_third_program(ctx, value, kappa=kappa)


def _run(inputs, faults, seed=0, session="faults", kappa=3):
    simulator = SyncSimulator(
        num_parties=len(inputs),
        max_faulty=(len(inputs) - 1) // 3,
        crypto=ideal_suite(len(inputs), (len(inputs) - 1) // 3),
        seed=seed,
        session=session,
        faults=faults,
    )
    result = simulator.run(_factory(kappa), inputs)
    return result, simulator.last_fault_counts


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty group"):
            Partition(groups=())
        with pytest.raises(ValueError, match="non-empty group"):
            Partition(groups=((), ()))
        with pytest.raises(ValueError, match="two partition groups"):
            Partition(groups=((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="start must be >= 1"):
            Partition(groups=((0,),), start=0)
        with pytest.raises(ValueError, match="heal round must exceed"):
            Partition(groups=((0,),), start=3, heal=3)

    def test_active_window(self):
        split = Partition(groups=((0, 1),), start=2, heal=4)
        assert [split.active(r) for r in (1, 2, 3, 4)] == [
            False, True, True, False,
        ]
        forever = Partition(groups=((0, 1),), start=1)
        assert forever.active(4096)

    def test_separates_with_implicit_rest_group(self):
        # Parties 0,1 are listed; 2,3 form the implicit rest group.
        split = Partition(groups=((0, 1),))
        assert split.separates(0, 2) and split.separates(3, 1)
        assert not split.separates(0, 1)
        assert not split.separates(2, 3)  # both in the rest group


class TestCrashAndPlanValidation:
    def test_crash_window(self):
        with pytest.raises(ValueError, match="pid must be >= 0"):
            Crash(pid=-1, down=1, up=2)
        with pytest.raises(ValueError, match="1 <= down < up"):
            Crash(pid=0, down=2, up=2)
        with pytest.raises(ValueError, match="1 <= down < up"):
            Crash(pid=0, down=0, up=2)

    @pytest.mark.parametrize("kwargs", [
        {"loss": -0.1}, {"loss": 1.5}, {"delay": 2.0}, {"max_delay": 0},
        {"epoch_length": 2}, {"disabled": ((0,),)}, {"epoch_length": -1},
    ])
    def test_plan_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_noop_detection(self):
        assert FaultPlan().is_noop()
        assert FaultPlan(max_delay=3).is_noop()  # no delay probability
        assert not FaultPlan(loss=0.01).is_noop()
        assert not FaultPlan(crashes=(Crash(0, 1, 2),)).is_noop()


class TestSchedules:
    def test_crash_offline_window(self):
        plan = FaultPlan(crashes=(Crash(pid=1, down=2, up=4),))
        assert plan.offline(1) == frozenset()
        assert plan.offline(2) == plan.offline(3) == frozenset({1})
        assert plan.offline(4) == frozenset()

    def test_membership_rotation(self):
        plan = FaultPlan(epoch_length=2, disabled=((0,), (), (3, 4)))
        # Epoch 0 = rounds 1-2, epoch 1 = rounds 3-4, epoch 2 = rounds
        # 5-6, then the rotation wraps.
        assert plan.offline(1) == plan.offline(2) == frozenset({0})
        assert plan.offline(3) == frozenset()
        assert plan.offline(5) == frozenset({3, 4})
        assert plan.offline(7) == frozenset({0})

    def test_crashes_and_rotation_union(self):
        plan = FaultPlan(
            crashes=(Crash(pid=2, down=1, up=3),),
            epoch_length=1,
            disabled=((0,),),
        )
        assert plan.offline(1) == frozenset({0, 2})


class TestInjector:
    def test_self_delivery_draws_no_randomness(self):
        rng = random.Random(1)
        injector = FaultInjector(FaultPlan(loss=1.0), 4, rng)
        state = rng.getstate()
        assert injector.route(1, 2, 2, frozenset()) == ("deliver", 0)
        assert rng.getstate() == state

    def test_route_precedence_offline_before_partition_before_loss(self):
        plan = FaultPlan(
            loss=1.0, partitions=(Partition(groups=((0,),)),),
        )
        injector = FaultInjector(plan, 4, random.Random(2))
        assert injector.route(1, 0, 1, frozenset({0}))[0] == "offline"
        assert injector.route(1, 0, 1, frozenset())[0] == "partition"
        assert injector.route(1, 1, 2, frozenset())[0] == "loss"

    def test_due_sorts_freshest_first(self):
        injector = FaultInjector(FaultPlan(delay=1.0), 4, random.Random(3))
        injector.defer(1, 2, 0, 1, "old", True)
        injector.defer(2, 1, 3, 1, "new", True)
        due = injector.due(3)
        assert [(m.sent_round, m.payload) for m in due] == [
            (2, "new"), (1, "old"),
        ]
        assert injector.pending() == 0


class TestSimulatorIntegration:
    def test_noop_plan_is_byte_identical_to_none(self):
        inputs = (1, 0, 1, 0, 1)
        baseline, _ = _run(inputs, None, seed=11)
        noop, counts = _run(inputs, FaultPlan(), seed=11)
        assert noop == baseline
        assert list(noop.outputs) == list(baseline.outputs)
        assert counts.suppressed == 0 and counts.delayed == 0

    def test_faulted_run_is_deterministic(self):
        inputs = (1, 0, 1, 0, 1, 0, 1)
        plan = FaultPlan(
            loss=0.2, delay=0.2, max_delay=2,
            partitions=(Partition(groups=((0, 1),), start=2, heal=4),),
            crashes=(Crash(pid=3, down=1, up=3),),
        )
        first, counts_a = _run(inputs, plan, seed=5)
        second, counts_b = _run(inputs, plan, seed=5)
        assert first == second
        assert counts_a == counts_b
        # A different seed draws a different fault sequence.
        third, counts_c = _run(inputs, plan, seed=6)
        assert counts_c != counts_a or third != first

    def test_total_loss_still_terminates_with_binary_outputs(self):
        # loss=1.0 eats every non-self message; the fixed-round program
        # still terminates on empty inboxes and outputs bits.
        inputs = (1, 0, 1, 0)
        result, counts = _run(inputs, FaultPlan(loss=1.0), seed=1)
        assert set(result.outputs.values()) <= {0, 1}
        # Only self-deliveries survive (n per round; they are internal
        # state, exempt from every fault) — all cross traffic is lost.
        rounds = result.metrics.rounds
        assert counts.delivered == len(inputs) * rounds
        assert counts.lost == len(inputs) * (len(inputs) - 1) * rounds
        assert result.metrics.total_messages == counts.delivered

    def test_crashed_party_recovers_and_finishes(self):
        inputs = (1, 1, 1, 1, 1)
        plan = FaultPlan(crashes=(Crash(pid=2, down=1, up=3),))
        result, counts = _run(inputs, plan, seed=2)
        assert 2 in result.outputs  # kept running, finished after recovery
        assert counts.offline > 0
        # Pre-agreement on 1 survives a crash window (validity needs
        # only the honest majority's messages).
        assert set(result.outputs.values()) == {1}

