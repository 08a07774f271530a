"""Chaos testing: hypothesis-drawn network fault plans.

The Byzantine suite (``test_byzantine``) draws adversarial *parties*;
this one draws adversarial *networks* — arbitrary combinations of
message loss, delay, healing partitions, crash-recover windows and
membership rotation — and asserts the properties that must survive any
of them:

* no honest party ever raises (fixed-round programs terminate on empty
  inboxes; crashed parties keep running and recover cleanly),
* honest outputs stay in the protocol's domain,
* the run is a pure function of ``(seed, plan)`` — replaying is
  byte-identical,
* a no-op plan is indistinguishable from ``faults=None``,
* the per-round routing table the delivery loop reads says exactly what
  the plan's ``offline`` / ``partitioned`` predicates say.

Deliberately *not* asserted: agreement.  Faults break the synchrony
assumption the paper's proofs live in; how much they break it is the
degradation question ``benchmarks/bench_fault_tolerance.py`` measures,
not an invariant.
"""

from __future__ import annotations

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ba import ba_one_third_program
from repro.network.faults import (
    OFFLINE,
    PARTITION,
    Crash,
    FaultPlan,
    Partition,
    routing_tables,
)
from repro.network.simulator import SyncSimulator

from ..conftest import ideal_suite
from .conftest import examples

MAX_PARTIES = 7


@st.composite
def fault_plans(draw, num_parties=MAX_PARTIES):
    loss = draw(st.sampled_from((0.0, 0.05, 0.15, 0.3, 0.5)))
    delay = draw(st.sampled_from((0.0, 0.1, 0.25, 0.5)))
    max_delay = draw(st.integers(min_value=1, max_value=3))

    partitions = ()
    if draw(st.booleans()):
        group = draw(
            st.sets(
                st.integers(0, num_parties - 1),
                min_size=1, max_size=num_parties - 1,
            )
        )
        start = draw(st.integers(min_value=1, max_value=4))
        heal = draw(
            st.one_of(
                st.none(),
                st.integers(min_value=start + 1, max_value=start + 4),
            )
        )
        partitions = (
            Partition(groups=(tuple(sorted(group)),), start=start, heal=heal),
        )

    crash_seeds = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_parties - 1),  # pid
                st.integers(1, 5),                # down
                st.integers(1, 3),                # window length
            ),
            max_size=2,
            unique_by=lambda entry: entry[0],
        )
    )
    crashes = tuple(
        Crash(pid=pid, down=down, up=down + length)
        for pid, down, length in crash_seeds
    )

    epoch_length = 0
    disabled = ()
    if draw(st.booleans()):
        epoch_length = draw(st.integers(min_value=1, max_value=3))
        disabled = tuple(
            tuple(sorted(draw(
                st.sets(st.integers(0, num_parties - 1), max_size=2)
            )))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        )
        if not any(disabled):
            epoch_length, disabled = 0, ()

    return FaultPlan(
        loss=loss,
        delay=delay,
        max_delay=max_delay,
        partitions=partitions,
        crashes=crashes,
        epoch_length=epoch_length,
        disabled=disabled,
    )


@st.composite
def fault_cases(draw):
    inputs = draw(st.lists(st.integers(0, 1), min_size=4, max_size=MAX_PARTIES))
    plan = draw(fault_plans(num_parties=len(inputs)))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return tuple(inputs), plan, seed


def _run(inputs, plan, seed, session="chaos-net"):
    n = len(inputs)
    t = (n - 1) // 3
    simulator = SyncSimulator(
        num_parties=n,
        max_faulty=t,
        crypto=ideal_suite(n, t),
        seed=seed,
        session=session,
        faults=plan,
    )
    result = simulator.run(
        lambda ctx, value: ba_one_third_program(ctx, value, kappa=3), inputs
    )
    return result, simulator.last_fault_counts


class TestFaultChaos:
    @given(case=fault_cases())
    @settings(
        max_examples=examples(40), deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_any_fault_plan_terminates_with_binary_outputs(self, case):
        inputs, plan, seed = case
        result, counts = _run(inputs, plan, seed)
        # Every party ran to completion — no honest exception, even for
        # parties that spent rounds crashed or partitioned away.
        assert sorted(result.outputs) == list(range(len(inputs)))
        assert set(result.outputs.values()) <= {0, 1}
        # Validity degrades gracefully, never into garbage: with a
        # unanimous input and zero suppression, pre-agreement survives.
        if len(set(inputs)) == 1 and counts.suppressed == 0:
            assert set(result.outputs.values()) == set(inputs)

    @given(case=fault_cases())
    @settings(
        max_examples=examples(25), deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_same_seed_and_plan_replay_byte_identically(self, case):
        inputs, plan, seed = case
        first, counts_a = _run(inputs, plan, seed)
        second, counts_b = _run(inputs, plan, seed)
        assert first == second
        assert counts_a == counts_b
        assert list(first.outputs) == list(second.outputs)
        assert first.metrics.rows == second.metrics.rows

    @given(
        inputs=st.lists(st.integers(0, 1), min_size=4, max_size=MAX_PARTIES),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    @settings(max_examples=examples(15), deadline=None)
    def test_noop_plan_matches_faults_none(self, inputs, seed):
        inputs = tuple(inputs)
        baseline, _ = _run(inputs, None, seed)
        noop, counts = _run(inputs, FaultPlan(), seed)
        assert noop == baseline
        assert counts.suppressed == 0 and counts.delayed == 0

    @given(
        data=st.data(),
        num_parties=st.integers(min_value=3, max_value=10),
        round_index=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=examples(60), deadline=None)
    def test_routing_table_equals_the_plan_predicates(
        self, data, num_parties, round_index
    ):
        plan = data.draw(fault_plans(num_parties=num_parties))
        if data.draw(st.booleans()):
            # A second, two-group split overlapping the first in time.
            pids = data.draw(st.permutations(range(num_parties)))
            cut = data.draw(st.integers(1, num_parties - 2))
            plan = dataclasses.replace(plan, partitions=plan.partitions + (
                Partition(
                    groups=(tuple(pids[:cut]), tuple(pids[cut:-1])),
                    start=data.draw(st.integers(1, 6)),
                ),
            ))
        table = routing_tables(plan, num_parties)(round_index)
        offline = plan.offline(round_index)
        assert table.offline == offline
        assert table == plan.routing(num_parties, round_index)  # cache == pure
        for sender in range(num_parties):
            for recipient in range(num_parties):
                expected = 0
                if sender != recipient:
                    if sender in offline or recipient in offline:
                        expected |= OFFLINE
                    if plan.partitioned(round_index, sender, recipient):
                        expected |= PARTITION
                assert table.rows[sender][recipient] == expected
