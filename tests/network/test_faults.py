"""Unit tests for the fault-injection layer's semantics.

The load-bearing properties, each pinned directly against
``repro.network.faults`` or a small simulator run:

* construction validation fails loudly (bad rates, inverted windows,
  overlapping partition groups, half-configured membership rotation);
* the offline/partition schedules decode rounds exactly as documented;
* the per-round routing table decides fates with the precedence the
  per-message ``route`` had, the delivery loop draws from the fault RNG
  exactly as ``route`` did, and the process-wide table cache is bounded
  and never shared between different plans;
* a plan naming a party the run does not have is a named error;
* ``faults=None`` and a no-op plan are byte-identical to the
  pre-fault-layer simulator;
* extreme plans (``loss=1.0``, a never-healing split, a full crash
  window) degrade deliveries without ever crashing an honest party.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.ba import ba_one_half_program, ba_one_third_program
from repro.crypto.keys import CryptoSuite
from repro.engine import build_fault_plan
from repro.network import FaultPlanError
from repro.network import faults as faults_module
from repro.network.faults import (
    OFFLINE,
    PARTITION,
    Crash,
    FaultInjector,
    FaultPlan,
    Partition,
    routing_tables,
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


class _Fates:
    """Observer recording every delivery-loop verdict in order."""

    def __init__(self):
        self.events = []

    def on_message(self, round_index, sender, recipient, payload, honest):
        self.events.append((round_index, sender, recipient, "deliver", None))

    def on_fault(self, round_index, kind, sender, recipient, detail):
        self.events.append((round_index, sender, recipient, kind, detail))


def _deliver_round(plan, num_parties, rng, round_index, outboxes, injector=None):
    """One ``_deliver_faulty`` round; returns ``(fates, injector)``."""
    fates = _Fates()
    simulator = SyncSimulator(
        num_parties, 0, ideal_suite(num_parties, 0), observers=(fates,),
        collect_signatures=False, faults=plan,
    )
    injector = injector or FaultInjector(plan, num_parties, rng)
    simulator._deliver_faulty(
        round_index, outboxes, set(),
        {pid: {} for pid in range(num_parties)}, injector,
    )
    return fates.events, injector


def _broadcasts(num_parties):
    return {
        sender: {recipient: "m" for recipient in range(num_parties)}
        for sender in range(num_parties)
    }


def _reference_route(plan, rng, round_index, sender, recipient, offline):
    """The per-message decision the routing table replaced, verbatim."""
    if sender == recipient:
        return "deliver", None
    if sender in offline or recipient in offline:
        return "offline", None
    if plan.partitioned(round_index, sender, recipient):
        return "partition", None
    if plan.loss and rng.random() < plan.loss:
        return "loss", None
    if plan.delay and rng.random() < plan.delay:
        return "delay", rng.randint(1, plan.max_delay)
    return "deliver", None


class _RecordingRandom(random.Random):
    """A ``random.Random`` that logs each draw the fault layer makes."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def random(self):
        value = super().random()
        self.calls.append(("random", value))
        return value

    def randint(self, a, b):
        value = super().randint(a, b)
        self.calls.append(("randint", a, b, value))
        return value


class TestInjector:
    def test_self_delivery_draws_no_randomness(self):
        rng = random.Random(1)
        state = rng.getstate()
        fates, _ = _deliver_round(
            FaultPlan(loss=1.0), 4, rng, 1, {2: {2: "m"}, 0: {}, 1: {}, 3: {}}
        )
        assert fates == [(1, 2, 2, "deliver", None)]
        assert rng.getstate() == state
        # ... not even when the party is offline: the diagonal is exempt.
        crashed = FaultPlan(loss=1.0, crashes=(Crash(pid=2, down=1, up=2),))
        assert crashed.routing(4, 1).rows[2][2] == 0
        assert routing_tables(crashed, 4)(1).offline == frozenset({2})

    def test_route_precedence_offline_before_partition_before_loss(self):
        plan = FaultPlan(
            loss=1.0,
            partitions=(Partition(groups=((0,),)),),
            crashes=(Crash(pid=0, down=2, up=3),),
        )
        # Round 1, nobody offline: 0 is split off, 1 -> 2 only risks loss.
        healthy = plan.routing(4, 1).rows
        assert healthy[0][1] == PARTITION and healthy[1][2] == 0
        # Round 2, 0 offline too: the cell keeps both flags and the
        # delivery loop reports offline first.
        assert plan.routing(4, 2).rows[0][1] == OFFLINE | PARTITION
        outboxes = {0: {1: "m"}, 1: {2: "m"}, 2: {}, 3: {}}
        fates, injector = _deliver_round(plan, 4, random.Random(2), 1, outboxes)
        assert [fate[3] for fate in fates] == ["partition", "loss"]
        fates, _ = _deliver_round(plan, 4, None, 2, outboxes, injector)
        assert [fate[3] for fate in fates] == ["offline", "loss"]

    @pytest.mark.parametrize("scenario, params", [
        ("lossy", {}),
        ("delaying", {}),
        ("degraded", {"rate": 0.05, "split": (0, 1, 2), "heal": 3}),
    ])
    def test_loop_draws_exactly_what_route_drew(self, scenario, params):
        """Same fates from the same RNG calls, in the same order."""
        n, rounds = 6, 5
        plan = build_fault_plan(scenario, params)
        reference_rng = _RecordingRandom(41)
        expected = []
        for round_index in range(1, rounds + 1):
            offline = plan.offline(round_index)
            for sender in range(n):
                for recipient in range(n):
                    expected.append((round_index, sender, recipient) + _reference_route(
                        plan, reference_rng, round_index, sender, recipient, offline
                    ))
        rng = _RecordingRandom(41)
        injector = None
        current = []
        for round_index in range(1, rounds + 1):
            fates, injector = _deliver_round(
                plan, n, rng, round_index, _broadcasts(n), injector
            )
            # The drain's verdicts on delayed copies follow the n*n
            # current-round ones and draw nothing.
            current.extend(fates[: n * n])
        assert current == expected
        assert rng.calls == reference_rng.calls
        assert rng.calls  # the scenario did exercise the RNG

    def test_drain_keeps_a_message_whose_sender_crashed_after_sending(self):
        # 0 -> 1 is delayed in round 1; 0 is offline in round 2.  The
        # cell (0, 1) then carries OFFLINE, but the drain only asks
        # whether the *recipient* is offline or a partition is active.
        plan = FaultPlan(delay=1.0, crashes=(Crash(pid=0, down=2, up=3),))
        outboxes = {0: {1: "m"}, 1: {}, 2: {}}
        fates, injector = _deliver_round(plan, 3, random.Random(4), 1, outboxes)
        assert fates == [(1, 0, 1, "delay", 1)]
        fates, _ = _deliver_round(plan, 3, None, 2, {0: {}, 1: {}, 2: {}}, injector)
        assert fates == [(2, 0, 1, "deliver", None)]
        assert injector.counts.delivered_late == 1

    def test_due_sorts_freshest_first(self):
        injector = FaultInjector(FaultPlan(delay=1.0), 4, random.Random(3))
        injector.defer(1, 2, 0, 1, "old", True)
        injector.defer(2, 1, 3, 1, "new", True)
        due = injector.due(3)
        assert [(m.sent_round, m.payload) for m in due] == [
            (2, "new"), (1, "old"),
        ]
        assert injector.pending() == 0


class TestRoutingTableCache:
    def test_equal_plans_share_tables_and_different_plans_never_do(self):
        def build(heal):
            return FaultPlan(
                loss=0.1, partitions=(Partition(groups=((0, 1),), heal=heal),)
            )

        tables = routing_tables(build(3), 5)
        assert routing_tables(build(3), 5) is tables  # built by another trial
        assert tables(2) is tables(2)
        assert tables(2) == build(3).routing(5, 2)
        other = routing_tables(build(4), 5)
        assert other is not tables
        assert other(3) != tables(3)  # healed in one plan only
        assert routing_tables(build(3), 6) is not tables
        assert len(routing_tables(build(3), 6)(1).rows) == 6

    def test_both_cache_levels_are_bounded(self):
        for pid in range(faults_module._PLANS_HELD + 5):
            routing_tables(FaultPlan(crashes=(Crash(pid, 1, 2),)), 100)
        info = routing_tables.cache_info()
        assert info.maxsize == faults_module._PLANS_HELD
        assert info.currsize <= info.maxsize
        tables = routing_tables(FaultPlan(loss=0.5), 3)
        for round_index in range(1, faults_module._ROUNDS_HELD + 5):
            tables(round_index)
        info = tables.cache_info()
        assert info.currsize == info.maxsize == faults_module._ROUNDS_HELD


class TestPartiesOutOfRange:
    @pytest.mark.parametrize("plan, pid", [
        (FaultPlan(crashes=(Crash(99, 1, 3),)), 99),
        (FaultPlan(partitions=(Partition(groups=((0, 7),)),)), 7),
        (FaultPlan(epoch_length=1, disabled=((9,),)), 9),
        (FaultPlan(partitions=(Partition(groups=((0,), (-1,))),)), -1),
        (FaultPlan(partitions=(Partition(groups=(("a",),)),)), "a"),
    ])
    def test_named_error_instead_of_a_silent_noop(self, plan, pid):
        message = f"fault plan names party {pid!r}; this run has parties 0..3"
        with pytest.raises(FaultPlanError) as raised:
            plan.check_parties(4)
        assert str(raised.value) == message
        with pytest.raises(FaultPlanError) as raised:
            _run((0, 0, 1, 1), plan)
        assert str(raised.value) == message
        assert isinstance(raised.value, ValueError)

    def test_the_same_plan_is_fine_in_a_run_that_has_the_party(self):
        plan = FaultPlan(partitions=(Partition(groups=((0, 7),)),))
        plan.check_parties(8)
        result, counts = _run((0,) * 8, plan)
        assert counts.partitioned > 0 and len(result.outputs) == 8


# FaultCounts of ba_one_half (n=9, t=4, kappa=4) measured at the commit
# before the routing table, field order as in the dataclass: delivered,
# delivered_late, lost, delayed, partitioned, offline, stale.
_PINNED_COUNTS = {
    ("lossy", 3): (443, 0, 43, 0, 0, 0, 0),
    ("lossy", 17): (438, 0, 48, 0, 0, 0, 0),
    ("delaying", 3): (445, 3, 0, 41, 0, 0, 26),
    ("delaying", 17): (450, 5, 0, 36, 0, 0, 23),
    ("degraded", 3): (391, 0, 15, 8, 72, 0, 6),
    ("degraded", 17): (392, 0, 12, 10, 72, 0, 8),
    ("crash_recover", 3): (454, 0, 0, 0, 0, 32, 0),
    ("crash_recover", 17): (454, 0, 0, 0, 0, 32, 0),
    ("partitioned", 3): (378, 0, 0, 0, 108, 0, 0),
    ("partitioned", 17): (378, 0, 0, 0, 108, 0, 0),
    ("rotating_membership", 3): (394, 0, 0, 0, 0, 92, 0),
    ("rotating_membership", 17): (394, 0, 0, 0, 0, 92, 0),
}
_PINNED_PARAMS = {
    "lossy": {},
    "delaying": {},
    "degraded": {"rate": 0.05, "split": (0, 1, 2), "heal": 3},
    "crash_recover": {"crashes": ((0, 2, 4),)},
    "partitioned": {"groups": ((0, 1, 2),), "start": 2, "heal": 5},
    "rotating_membership": {"epoch_length": 2, "disabled": ((0,), (), (3, 4))},
}


class TestSimulatorIntegration:
    @pytest.mark.parametrize("scenario, seed", sorted(_PINNED_COUNTS))
    def test_fault_counts_match_the_per_message_injector(self, scenario, seed):
        simulator = SyncSimulator(
            9, 4, CryptoSuite.ideal(9, 4, random.Random(7)), seed=seed,
            session=f"pin-{scenario}-{seed}",
            faults=build_fault_plan(scenario, _PINNED_PARAMS[scenario]),
        )
        simulator.run(
            lambda ctx, value: ba_one_half_program(ctx, value, kappa=4),
            [0] * 4 + [1] * 5,
        )
        counts = dataclasses.astuple(simulator.last_fault_counts)
        assert counts == _PINNED_COUNTS[scenario, seed]

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

