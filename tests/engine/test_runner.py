"""ParallelRunner mechanics: chunking, streaming, aggregation, suite reuse."""

import multiprocessing
import os
import pickle
import re
import shlex
import time
from dataclasses import replace

import pytest

from repro.core.ba import ba_one_third_program
from repro.crypto.threshold_rsa import ThresholdRsaScheme
from repro.engine import (
    ParallelRunner,
    PlanResult,
    TrialExecutionError,
    TrialPlan,
    TrialSpec,
    WorkerLostError,
    clear_probe_cache,
    clear_suite_cache,
    register_protocol,
    run_trial,
    vectorized,
)
from repro.engine.runner import _SUITE_CACHE, _SUITE_CACHE_MAX, _suite_for
from repro.engine.transport import ChunkSummary
from repro.obs import load_trace, trace_filename
from tests.conftest import swap_vector_model


def _plan(trials=6, seed=5, kappa=2, collect_signatures=True):
    return TrialPlan.monte_carlo(
        name="runner-test",
        protocol="ba_one_third",
        inputs=(0, 0, 1, 1),
        max_faulty=1,
        trials=trials,
        params={"kappa": kappa},
        adversary="straddle13",
        adversary_params={"victims": (3,)},
        seed=seed,
        collect_signatures=collect_signatures,
    )


def _real_plan(trials=3, seed=5):
    """perfbench's ``ba13-n4-real`` row, on a modulus small enough to deal
    in a unit test."""
    return TrialPlan.monte_carlo(
        name="ba13-n4-real",
        protocol="ba_one_third",
        inputs=(0, 0, 1, 1),
        max_faulty=1,
        trials=trials,
        params={"kappa": 4},
        adversary="straddle13",
        adversary_params={"victims": (3,)},
        seed=seed,
        backend="real",
        rsa_bits=128,
    )


def _faulted_plan(faults, fault_params=None, trials=3, seed=8):
    return TrialPlan.monte_carlo(
        name=f"runner-{faults}",
        protocol="ba_one_half",
        inputs=(0, 0, 1, 1, 1),
        max_faulty=2,
        trials=trials,
        params={"kappa": 2},
        adversary="straddle12",
        adversary_params={"victims": (3, 4)},
        seed=seed,
        faults=faults,
        fault_params=fault_params,
    )


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ParallelRunner(workers=0)


class TestSerialRun:
    def test_runs_all_trials_in_plan_order(self):
        plan = _plan(trials=4)
        result = ParallelRunner(workers=1).run(plan)
        assert isinstance(result, PlanResult)
        assert len(result) == 4
        assert result.workers == 1
        assert result.wall_seconds > 0
        for execution in result:
            assert set(execution.inputs) == {0, 1, 2, 3}

    def test_disagreement_rate_and_mean_rounds(self):
        result = ParallelRunner(workers=1).run(_plan(trials=8))
        rate = result.disagreement_rate()
        assert 0.0 <= rate <= 1.0

    def test_empty_result_helpers_raise(self):
        empty = PlanResult(
            plan=TrialPlan(name="empty"), results=[], workers=1, wall_seconds=0.0
        )
        with pytest.raises(ValueError):
            empty.disagreement_rate()


class TestParallelRun:
    def test_small_plans_run_inline(self):
        result = ParallelRunner(workers=4).run(_plan(trials=1))
        assert result.workers == 1  # pool skipped, nothing to parallelize

    def test_chunked_dispatch_covers_every_trial(self):
        plan = _plan(trials=17)  # two-trial chunks, the last one short
        result = ParallelRunner(workers=2).run(plan)
        assert len(result) == 17
        assert all(execution is not None for execution in result)

    def test_auto_chunk_size_targets_four_chunks_per_worker(self):
        runner = ParallelRunner(workers=2)
        assert runner._chunk_size(80) == 10
        assert runner._chunk_size(3) == 1  # never zero


class TestDeterminism:
    """Every way of running a plan computes the serial object run's
    results; only the wall clock differs."""

    @pytest.mark.parametrize("backend", ["object", "vector"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_byte_identical_across_worker_counts(self, workers, backend):
        plan = _plan(trials=9, collect_signatures=False)
        serial = ParallelRunner(workers=1).run(plan)
        result = ParallelRunner(workers=workers, backend=backend).run(plan)
        assert result.results == serial.results

    @pytest.mark.parametrize("streamed", [False, True], ids=["run", "run_iter"])
    def test_a_reused_runner_reruns_bit_identically(self, streamed):
        plan = _plan(trials=6)
        runner = ParallelRunner(workers=2, metrics=True)

        def once():
            if not streamed:
                outcome = runner.run(plan)
                return outcome.results, outcome.trial_metrics
            sink = {}
            pairs = dict(runner.run_iter(plan, sink))
            return (
                [pairs[i] for i in range(len(plan))],
                [sink[i] for i in range(len(plan))],
            )

        assert once() == once()


class TestCampaignLayers:
    """Real-crypto and faulted specs: what only the object path runs."""

    def test_serial_and_pooled_bytes_equal_on_a_real_and_faulted_mix(self):
        plan = TrialPlan.concat("campaign", [
            _faulted_plan("degraded", {"rate": 0.2, "split": (0, 1), "heal": 3}),
            _real_plan(),
            _faulted_plan("crash_recover", {"crashes": ((0, 2, 4),)}),
            _faulted_plan("delaying", {"rate": 0.3}),
        ])
        serial = ParallelRunner(workers=1).run(plan)
        # Again, now that every memo and routing table is warm.
        assert ParallelRunner(workers=1).run(plan).results == serial.results
        pooled = ParallelRunner(workers=2).run(plan)
        assert pooled.results == serial.results
        assert ChunkSummary.pack(
            list(enumerate(pooled.results))
        ) == ChunkSummary.pack(list(enumerate(serial.results)))

    def test_real_backend_checks_each_distinct_share_once_per_trial(
        self, monkeypatch
    ):
        asked, checked = [], []
        verify, check = ThresholdRsaScheme.verify_share, ThresholdRsaScheme._check_share
        monkeypatch.setattr(
            ThresholdRsaScheme, "verify_share",
            lambda self, *question: asked.append(question) or verify(self, *question),
        )
        monkeypatch.setattr(
            ThresholdRsaScheme, "_check_share",
            lambda self, *question: checked.append(question) or check(self, *question),
        )
        # A seed no other test runs: sessions, hence shares, are fresh.
        for spec in _real_plan(trials=3, seed=20240601).trials:
            del asked[:], checked[:]
            run_trial(spec)
            assert len(asked) >= 4 * len(set(asked))  # every party asks
            assert sorted(map(repr, checked)) == sorted(map(repr, set(asked)))

    def test_out_of_range_fault_party_is_a_trial_execution_error(self):
        plan = _faulted_plan("crash_recover", {"crashes": ((99, 1, 3),)})
        for runner in (ParallelRunner(workers=1), ParallelRunner(workers=2)):
            with pytest.raises(TrialExecutionError) as raised:
                runner.run(plan)
            error = raised.value
            assert error.cause == (
                "FaultPlanError: fault plan names party 99; "
                "this run has parties 0..4"
            )
            command = shlex.split(str(error).splitlines()[-1])
            assert command[:3] == ["repro", "run", "--spec"]
            assert TrialSpec.from_json(command[3]) == plan.trials[error.index]


class TestSuiteCache:
    def test_same_suite_key_reuses_dealt_keys(self):
        plan = _plan(trials=2)
        first, second = plan.trials
        assert first.suite_key == second.suite_key
        suite = _suite_for(first)
        assert _suite_for(second) is suite
        assert _SUITE_CACHE[first.suite_key] is suite

    def test_distinct_setup_seed_deals_fresh_keys(self):
        a = _plan(trials=1).trials[0]
        b = replace(a, setup_seed=a.setup_seed + 1)
        assert _suite_for(a) is not _suite_for(b)

    def test_cache_is_bounded_lru(self):
        # A long-lived worker sweeping many (n, t, setup_seed) combos
        # must not pin every dealt suite forever.
        clear_suite_cache()
        base = _plan(trials=1).trials[0]
        specs = [
            replace(base, setup_seed=seed)
            for seed in range(_SUITE_CACHE_MAX + 3)
        ]
        for spec in specs:
            _suite_for(spec)
        assert len(_SUITE_CACHE) == _SUITE_CACHE_MAX
        # Oldest entries evicted, newest retained.
        assert specs[0].suite_key not in _SUITE_CACHE
        assert specs[-1].suite_key in _SUITE_CACHE

    def test_lru_touch_on_hit_protects_hot_suites(self):
        clear_suite_cache()
        base = _plan(trials=1).trials[0]
        specs = [
            replace(base, setup_seed=seed)
            for seed in range(_SUITE_CACHE_MAX + 1)
        ]
        for spec in specs[:_SUITE_CACHE_MAX]:
            _suite_for(spec)
        _suite_for(specs[0])  # re-touch the oldest...
        _suite_for(specs[-1])  # ...so this eviction hits specs[1] instead
        assert specs[0].suite_key in _SUITE_CACHE
        assert specs[1].suite_key not in _SUITE_CACHE

    def test_eviction_does_not_change_results(self):
        # Dealing is deterministic in setup_seed, so an evicted suite
        # re-deals bit-identically — eviction is invisible to trials.
        clear_suite_cache()
        plan = _plan(trials=2)
        before = ParallelRunner(workers=1).run(plan).results
        for seed in range(1, _SUITE_CACHE_MAX + 2):
            _suite_for(replace(plan.trials[0], setup_seed=seed))
        assert plan.trials[0].suite_key not in _SUITE_CACHE  # evicted
        assert ParallelRunner(workers=1).run(plan).results == before

    def test_clear_suite_cache(self):
        _suite_for(_plan(trials=1).trials[0])
        assert _SUITE_CACHE
        clear_suite_cache()
        assert not _SUITE_CACHE


class TestStreamingAndFailures:
    def test_run_iter_serial_streams_in_plan_order(self):
        plan = _plan(trials=4)
        pairs = list(ParallelRunner(workers=1).run_iter(plan))
        assert [index for index, _result in pairs] == [0, 1, 2, 3]
        assert pairs == list(enumerate(ParallelRunner(workers=1).run(plan).results))

    def test_run_iter_parallel_covers_plan_reassembles_to_run(self):
        plan = _plan(trials=7)
        runner = ParallelRunner(workers=2)
        collected = {}
        for index, result in runner.run_iter(plan):
            collected[index] = result
        assert sorted(collected) == list(range(7))
        assert [collected[i] for i in range(7)] == runner.run(plan).results

    def test_worker_failure_propagates(self):
        # An unregistered protocol raises inside the worker; the runner
        # must surface it, not swallow it behind missing results.
        bad = replace(_plan(trials=1).trials[0], protocol="no_such_protocol")
        plan = TrialPlan(name="poisoned", trials=(bad,) * 4)
        with pytest.raises(TrialExecutionError, match="no_such_protocol"):
            ParallelRunner(workers=2).run(plan)

    @pytest.mark.parametrize(
        "runner",
        [
            ParallelRunner(workers=1),
            ParallelRunner(workers=2),
            ParallelRunner(workers=1, backend="vector"),
            ParallelRunner(workers=1, backend="vector", metrics=True),
        ],
        ids=["inline", "pooled", "vector-fallback", "vector-fallback-metrics"],
    )
    def test_failure_names_the_trial_and_how_to_replay_it(self, runner):
        good = _plan(trials=3).trials
        bad = replace(good[1], protocol="no_such_protocol")
        plan = TrialPlan(name="poisoned", trials=(good[0], bad, good[2]))
        with pytest.raises(TrialExecutionError) as raised:
            runner.run(plan)
        error = raised.value
        assert (error.index, error.spec) == (1, bad)
        assert (
            error.config_key, error.protocol, error.adversary,
            error.seed, error.session, error.backend,
        ) == (
            "runner-test", "no_such_protocol", "straddle13",
            bad.seed, bad.session, "ideal",
        )
        assert error.cause.startswith("KeyError: ")
        # Chained from the original — across the pool's pipe that is the
        # worker's formatted traceback, which still names it.
        assert isinstance(error.__cause__, KeyError) or "KeyError" in str(
            error.__cause__
        )
        # The message ends with the line that replays that one trial.
        command = shlex.split(str(error).splitlines()[-1])
        assert command[:3] == ["repro", "run", "--spec"]
        assert TrialSpec.from_json(command[3]) == bad
        copy = pickle.loads(pickle.dumps(error))
        assert (str(copy), copy.args) == (str(error), error.args)

    @pytest.mark.parametrize("where", ["probe", "run_batch"])
    @pytest.mark.parametrize(
        "run, trials",
        [
            (lambda plan: ParallelRunner(workers=1, backend="vector").run(plan), 6),
            # 16 trials on 2 workers: two-trial chunks.
            (
                lambda plan: ParallelRunner(
                    workers=2, backend="vector", metrics=True
                ).run(plan),
                16,
            ),
            (
                lambda plan: list(
                    ParallelRunner(workers=1, backend="vector").run_iter(plan)
                ),
                6,
            ),
        ],
        ids=["inline", "pooled", "streamed"],
    )
    def test_vector_model_failure_names_its_batch(
        self, monkeypatch, run, trials, where
    ):
        """A bug inside a vector model — not the audited VectorModelError
        fallback — ends like any failing trial: named, chained, replayable."""

        def broken(*_args, **_kwargs):
            raise ZeroDivisionError("model bug")

        if where == "probe":
            monkeypatch.setattr(vectorized, "_simulate_probe", broken)
        else:
            swap_vector_model(monkeypatch, "ba_one_third", "straddle13", batch=broken)
        clear_probe_cache()  # pool workers fork with the patch and no probes
        plan = _plan(trials=trials)
        with pytest.raises(TrialExecutionError) as raised:
            run(plan)
        error = raised.value
        assert error.spec == plan.trials[error.index]
        assert error.index % 2 == 0  # its batch's first member
        assert (error.config_key, error.seed) == ("runner-test", error.spec.seed)
        assert re.fullmatch(
            r"vector batch of [26] trials: ZeroDivisionError: model bug",
            error.cause,
        )
        assert isinstance(error.__cause__, ZeroDivisionError) or (
            "ZeroDivisionError" in str(error.__cause__)
        )
        command = shlex.split(str(error).splitlines()[-1])
        assert command[:3] == ["repro", "run", "--spec"]
        assert TrialSpec.from_json(command[3]) == error.spec

    def test_vector_model_interrupt_is_not_wrapped(self, monkeypatch):
        def interrupt(_specs):
            raise KeyboardInterrupt

        swap_vector_model(monkeypatch, "ba_one_third", "straddle13", batch=interrupt)
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(workers=1, backend="vector").run(_plan(trials=2))

    def test_interrupts_are_not_wrapped(self):
        register_protocol("test_interrupting", _interrupting_builder)
        spec = replace(_plan(trials=1).trials[0], protocol="test_interrupting")
        with pytest.raises(KeyboardInterrupt):
            ParallelRunner(workers=1).run(TrialPlan(name="stop", trials=(spec,)))

    def test_early_failure_cancels_outstanding_chunks(self, tmp_path):
        # The failing chunk is FIRST; every later chunk is slow and
        # drops a marker file when it runs.  With submission-order
        # result consumption the error surfaced only after every slow
        # chunk ran to completion; with as_completed + cancellation the
        # queued chunks never execute at all.
        register_protocol("test_slow_marker", _slow_marker_builder)
        good = replace(
            _plan(trials=1).trials[0],
            protocol="test_slow_marker",
            params={"marker_dir": str(tmp_path), "delay": 0.05},
        )
        bad = replace(good, protocol="no_such_protocol", params={})
        # 31 trials on 2 workers: eleven chunks of (at most) three trials.
        plan = TrialPlan(name="fail-fast", trials=(bad,) + (good,) * 30)
        with pytest.raises(TrialExecutionError, match="no_such_protocol") as raised:
            ParallelRunner(workers=2).run(plan)
        assert (raised.value.index, raised.value.spec) == (0, bad)
        # At most the chunks already in flight when the failure landed
        # ran; the others were cancelled on the spot.
        markers = list(tmp_path.iterdir())
        assert len(markers) < 20, f"{len(markers)} slow trials ran after failure"


def _interrupting_builder(**_params):
    raise KeyboardInterrupt


def _dying_builder(victim):
    """Builder for a protocol whose process exits, uncaught and unreported,
    in the trial whose session is ``victim`` (registry inherited via fork)."""

    def program(ctx, bit):
        if ctx.session == victim:
            time.sleep(0.3)  # the chunks before it finish and report first
            os._exit(17)
        return (yield from ba_one_third_program(ctx, bit, 1))

    return program


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying protocol is registered in this process: workers see "
    "it only when they fork from it",
)
class TestDeadWorker:
    """A pool worker that dies is a named error that says what was lost
    and how to find the trial — from every runner, and through the CLI."""

    DYING = 14

    def _plan(self):
        """16 trials in eight two-trial configs: two-trial chunks on 2
        workers."""
        register_protocol("test_dying", _dying_builder)
        specs = _plan(trials=16).trials
        params = {"victim": specs[self.DYING].session}
        return TrialPlan(name="dying", trials=tuple(
            replace(
                spec, protocol="test_dying", params=params,
                config=f"dying-{index // 2}",
            )
            for index, spec in enumerate(specs)
        ))

    @pytest.mark.parametrize("kind", ["run", "run_iter"])
    def test_names_the_lost_chunks_and_a_way_to_reproduce(self, tmp_path, kind):
        plan = self._plan()
        fixed = ParallelRunner(workers=2, trace_dir=str(tmp_path))
        with pytest.raises(WorkerLostError) as raised:
            if kind == "run":
                fixed.run(plan)
            else:
                list(fixed.run_iter(plan))
        error = raised.value
        assert type(error.__cause__).__name__ == "BrokenProcessPool"
        # Two-trial chunks in plan order: chunk k holds trials 2k, 2k+1.
        assert 1 <= len(error.chunks) <= 2
        for number, first, last in error.chunks:
            assert (first, last) == (2 * number, 2 * number + 1)
        assert any(first <= self.DYING <= last for _, first, last in error.chunks)
        assert error.spec == plan.trials[error.chunks[0][1]]
        message = str(error)
        # The victim's chunk is the plan's last; the CLI test pins the format.
        assert message.startswith("a pool worker died while chunks ")
        assert "–15) were running or queued; none of them completed" in message
        assert "Re-run with workers=1" in message
        command = shlex.split(message.splitlines()[-1])
        assert command[:3] == ["repro", "run", "--spec"]
        assert TrialSpec.from_json(command[3]) == error.spec
        copy = pickle.loads(pickle.dumps(error))
        assert (str(copy), copy.chunks, copy.spec) == (
            message, error.chunks, error.spec
        )
        # Chunks that completed before the worker died left whole traces.
        lost = {number for number, _, _ in error.chunks}
        for index in range(len(plan)):
            if index // 2 not in lost:
                load_trace(os.path.join(tmp_path, trace_filename(index)))

    def test_cli_prints_one_message_and_exits_2(self, capsys, monkeypatch):
        from repro.cli import main

        spec = _plan(trials=1).trials[0]
        error = WorkerLostError([(2, 4, 5), (1, 2, 3), (7, 14, 15)], spec)

        def lost(self, plan):
            raise error

        monkeypatch.setattr(ParallelRunner, "run", lost)
        assert main(["error-sweep", "--kappas", "1", "--trials", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == (
            "repro error-sweep: a pool worker died while chunks 1–2, 7 (plan "
            "indices 2–5, 14–15) were running or queued; none of them completed. "
            "Re-run with workers=1: the inline path runs the same trials in "
            "plan order in this process\nthe first of them alone is:\n"
            f"repro run --spec {shlex.quote(spec.to_json())}\n"
        )


def _slow_marker_builder(marker_dir, delay):
    """Builder for a deliberately slow protocol that logs its execution.

    Runs in the worker process (registry inherited via fork); the marker
    file is the evidence a cancelled chunk would have left behind.
    """
    import os
    import time as _time
    import uuid

    _time.sleep(delay)
    with open(os.path.join(marker_dir, uuid.uuid4().hex), "w"):
        pass
    return lambda ctx, bit: ba_one_third_program(ctx, bit, 1)
