"""Vector backend equivalence: lockstep batches vs the object simulator.

The contract under test is absolute: for every spec, a runner with
``backend="vector"`` returns results *bit-identical* to the reference
object simulator — same outputs, corrupted sets, inputs, finish rounds,
and ``RunMetrics`` down to per-round tally values **and insertion
order**.  Specs the vector models don't support must silently take the
object path inside the same run, so the guarantee holds for arbitrary
mixed plans.
"""

import dataclasses
import hashlib
import hmac
import random
from collections import Counter

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.engine import (
    ChunkSummary,
    ParallelRunner,
    TrialPlan,
    TrialSpec,
    run_measured_trial,
    vector_model_pairs,
    vector_supports,
    vector_unsupported_reason,
)
from repro.engine.registry import vector_model_for
from repro.engine.runner import _suite_for
from repro.engine.vectorized import (
    PER_TRIAL_FIELDS,
    batch_key,
    clear_probe_cache,
    execute_chunk,
    run_vector_batch,
)
from repro.obs import MetricsRegistry
from tests.conftest import PROTOCOL_SHAPES


def canon(result):
    """Everything an ExecutionResult holds, as comparable plain data.

    ``per_round`` is canonicalized as an *ordered list*, not a dict —
    insertion order is part of the object simulator's observable output
    (``RunMetrics.as_tallies`` packs in that order) and the vector
    backend must reproduce it.
    """
    return (
        dict(result.outputs),
        set(result.corrupted),
        dict(result.inputs),
        dict(result.finish_rounds),
        result.metrics.rounds,
        [
            (
                index,
                stats.honest_messages,
                stats.corrupt_messages,
                stats.honest_signatures,
                stats.corrupt_signatures,
            )
            for index, stats in result.metrics.per_round.items()
        ],
    )


def packed(run):
    """A run's results and registries as one chunk's wire bytes."""
    return ChunkSummary.pack(
        list(enumerate(run.results)),
        metrics=dict(enumerate(run.trial_metrics)),
    )


def assert_equivalent(plan):
    """Both backends, serially, trial for trial — metrics included.

    Collecting runs pin vector-native registries (composed from probe
    deliveries) to the object simulator's live ones, registry for
    registry and byte for byte on the wire; a plain vector run pins that
    collecting changed nothing.
    """
    obj_run = ParallelRunner(workers=1, backend="object", metrics=True).run(plan)
    vec_run = ParallelRunner(workers=1, backend="vector", metrics=True).run(plan)
    obj, vec = obj_run.results, vec_run.results
    assert len(obj) == len(vec) == len(plan)
    for index, (a, b) in enumerate(zip(obj, vec)):
        assert canon(a) == canon(b), f"trial {index} diverged"
    for index, (a, b) in enumerate(
        zip(obj_run.trial_metrics, vec_run.trial_metrics)
    ):
        assert a == b, f"trial {index} registry diverged"
    assert packed(obj_run) == packed(vec_run)
    plain = ParallelRunner(workers=1, backend="vector").run(plan).results
    assert [canon(r) for r in plain] == [canon(r) for r in vec]
    return obj


# Adversaries with a vector model, with valid params per protocol.
VECTOR_ADVERSARIES = {
    "ba_one_third": [
        (None, None),
        ("straddle13", {"victims": (3,)}),
        ("straddle13", {"victims": (3,), "down_group": (0,)}),
    ],
    "ba_one_half": [
        (None, None),
        ("straddle12", {"victims": (3, 4)}),
    ],
    "prox_one_third": [
        (None, None),
        ("straddle13", {"victims": (3,)}),
        ("two_face", {"victims": (3,)}),
    ],
    "prox_linear_half": [
        (None, None),
        ("two_face", {"victims": (3, 4)}),
        ("bare_straddle12", {"victims": (3, 4)}),
    ],
    "threshold_coin": [
        (None, None),
        ("withhold_coin", {"victims": (3,), "preferred": 1}),
    ],
    "vrf_coin": [
        (None, None),
        ("withhold_coin", {"victims": (3,), "preferred": 1}),
    ],
}

#: Every pair ISSUE 8 newly modeled — the registry must keep them all.
NEW_PAIRS = (
    ("fm_probabilistic", None),
    ("turpin_coan_classic", None),
    ("multivalued_ba", None),
    ("threshold_coin", None),
    ("threshold_coin", "withhold_coin"),
    ("vrf_coin", None),
    ("vrf_coin", "withhold_coin"),
    ("prox_one_third", "straddle13"),
    ("prox_one_third", "two_face"),
    ("prox_linear_half", "two_face"),
    ("prox_linear_half", "bare_straddle12"),
    ("dolev_strong", None),
    ("prox_expand_once", None),
    ("proxcast", None),
    ("certificate_gradecast", None),
)


class TestRegistry:
    def test_both_protocols_registered_with_and_without_adversary(self):
        pairs = set(vector_model_pairs())
        assert ("ba_one_third", None) in pairs
        assert ("ba_one_third", "straddle13") in pairs
        assert ("ba_one_half", None) in pairs
        assert ("ba_one_half", "straddle12") in pairs

    def test_every_newly_modeled_pair_is_registered(self):
        pairs = set(vector_model_pairs())
        missing = [pair for pair in NEW_PAIRS if pair not in pairs]
        assert not missing, missing

    def test_duplicate_registration_names_the_existing_model(self):
        from repro.engine import register_vector_model
        from repro.engine.registry import _VECTOR_MODELS

        existing = _VECTOR_MODELS[("ba_one_third", None)]
        # Same object again: idempotent (module re-imports must not blow up).
        register_vector_model("ba_one_third", None, existing)
        impostor = object()
        with pytest.raises(ValueError) as excinfo:
            register_vector_model("ba_one_third", None, impostor)
        message = str(excinfo.value)
        assert "ba_one_third" in message
        assert repr(existing) in message
        # The claim is unchanged after the failed overwrite.
        assert _VECTOR_MODELS[("ba_one_third", None)] is existing


class TestProtocolGrid:
    """Every registered protocol × the adversaries that apply to it.

    Vector-supported pairs exercise the lockstep models; everything else
    exercises the per-spec fallback — either way the runner's output
    must match the object path exactly.
    """

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_SHAPES))
    def test_no_adversary(self, protocol):
        inputs, max_faulty, params = PROTOCOL_SHAPES[protocol]
        plan = TrialPlan.monte_carlo(
            f"grid-{protocol}", protocol, inputs, max_faulty,
            trials=4, params=params, seed=17,
        )
        assert_equivalent(plan)

    @pytest.mark.parametrize(
        "protocol,adversary,adversary_params",
        [
            (proto, adv, advp)
            for proto, combos in VECTOR_ADVERSARIES.items()
            for adv, advp in combos
            if adv is not None
        ],
    )
    def test_vector_adversaries(self, protocol, adversary, adversary_params):
        inputs, max_faulty, params = PROTOCOL_SHAPES[protocol]
        plan = TrialPlan.monte_carlo(
            f"grid-{protocol}-{adversary}", protocol, inputs, max_faulty,
            trials=6, params=params, adversary=adversary,
            adversary_params=adversary_params, seed=23,
        )
        spec = plan.trials[0]
        assert vector_supports(spec), vector_unsupported_reason(spec)
        assert_equivalent(plan)


class TestRandomizedSweep:
    """Hypothesis-style randomized configurations, derandomized.

    A fixed-seed PRNG draws (protocol, κ, inputs, adversary, seeds) so
    the sweep covers a fresh corner of the space on every parameter draw
    while staying reproducible in CI.
    """

    @pytest.mark.parametrize("draw", range(8))
    def test_random_config_matches_object_path(self, draw):
        rng = random.Random(0xFEED + draw)
        protocol = rng.choice(["ba_one_third", "ba_one_half"])
        kappa = rng.randint(1, 5)
        if protocol == "ba_one_third":
            n = rng.choice([4, 7])
            t = (n - 1) // 3
        else:
            n = rng.choice([5, 9])
            t = (n - 1) // 2
        inputs = tuple(rng.randint(0, 1) for _ in range(n))
        adversary, adversary_params = rng.choice(
            VECTOR_ADVERSARIES[protocol][:2]
        )
        if adversary is not None:
            victims = tuple(range(n - t, n))
            adversary_params = {"victims": victims}
        plan = TrialPlan.monte_carlo(
            f"rand-{draw}", protocol, inputs, t,
            trials=9, params={"kappa": kappa},
            adversary=adversary, adversary_params=adversary_params,
            seed=rng.randint(0, 10_000), setup_seed=rng.randint(0, 100),
        )
        assert vector_supports(plan.trials[0])
        assert_equivalent(plan)

    @pytest.mark.parametrize("draw", range(10))
    def test_random_new_pair_matches_object_path(self, draw):
        """Randomized sweeps over the pairs ISSUE 8 newly modeled."""
        rng = random.Random(0xACE0 + draw)
        kind = draw % 5
        if kind == 0:
            protocol, params = "fm_probabilistic", None
            n, t = 4, 1
            inputs = tuple(rng.randint(0, 1) for _ in range(n))
            adversary, adversary_params = None, None
        elif kind == 1:
            protocol = rng.choice(["turpin_coan_classic", "multivalued_ba"])
            params = {"kappa": rng.randint(1, 3)}
            n, t = 4, 1
            inputs = tuple(rng.choice("abc") for _ in range(n))
            adversary, adversary_params = None, None
        elif kind == 2:
            protocol = rng.choice(["threshold_coin", "vrf_coin"])
            low = rng.randint(0, 3)
            high = low + rng.randint(0, 3)
            index = rng.randint(0, 5)
            params = {"index": index, "low": low, "high": high}
            n, t = 4, 1
            inputs = (None,) * n
            adversary = "withhold_coin"
            adversary_params = {
                "victims": (3,), "index": index, "low": low, "high": high,
                "preferred": rng.randint(low, high),
            }
        elif kind == 3:
            protocol = "prox_one_third"
            params = {"rounds": rng.randint(2, 4)}
            n, t = 4, 1
            inputs = tuple(rng.randint(0, 1) for _ in range(n))
            adversary = rng.choice(["straddle13", "two_face"])
            adversary_params = {"victims": (3,)}
        else:
            protocol = "prox_linear_half"
            params = {"rounds": rng.randint(2, 4)}
            n, t = 5, 2
            inputs = tuple(rng.randint(0, 1) for _ in range(n))
            adversary = rng.choice(["two_face", "bare_straddle12"])
            adversary_params = {"victims": (3, 4)}
        plan = TrialPlan.monte_carlo(
            f"randnew-{draw}", protocol, inputs, t,
            trials=6, params=params,
            adversary=adversary, adversary_params=adversary_params,
            seed=rng.randint(0, 10_000), setup_seed=rng.randint(0, 100),
        )
        spec = plan.trials[0]
        assert vector_supports(spec), vector_unsupported_reason(spec)
        assert_equivalent(plan)

    def test_collect_signatures_off_still_matches(self):
        plan = TrialPlan.monte_carlo(
            "nosig", "ba_one_half", (0, 0, 1, 1, 1), 2,
            trials=6, params={"kappa": 3}, adversary="straddle12",
            adversary_params={"victims": (3, 4)}, seed=5,
            collect_signatures=False,
        )
        assert vector_supports(plan.trials[0])
        assert_equivalent(plan)


class TestFallback:
    def test_vectorizable_false_opts_out_but_matches(self):
        plan = TrialPlan.monte_carlo(
            "optout", "ba_one_third", (0, 0, 1, 1), 1,
            trials=4, params={"kappa": 2}, seed=3, vectorizable=False,
        )
        spec = plan.trials[0]
        assert not vector_supports(spec)
        assert "vectorizable" in vector_unsupported_reason(spec)
        assert_equivalent(plan)

    def test_unsupported_adversary_falls_back(self):
        plan = TrialPlan.monte_carlo(
            "crash", "ba_one_third", (0, 0, 1, 1), 1,
            trials=4, params={"kappa": 2},
            adversary="crash", adversary_params={"victims": (3,)}, seed=3,
        )
        assert not vector_supports(plan.trials[0])
        assert_equivalent(plan)

    def test_unregistered_protocol_falls_back(self):
        plan = TrialPlan.monte_carlo(
            "fm", "feldman_micali", (0, 0, 1, 1), 1,
            trials=3, params={"kappa": 2}, seed=3,
        )
        assert not vector_supports(plan.trials[0])
        assert_equivalent(plan)

    def test_non_bit_inputs_fall_back(self):
        spec = TrialSpec(
            protocol="ba_one_third", inputs=(0, 2, 1, 1), max_faulty=1,
            params={"kappa": 2},
        )
        reason = vector_unsupported_reason(spec)
        assert reason is not None and "bit" in reason

    def test_unhashable_inputs_keep_their_named_fallback(self):
        # A list inside the inputs tuple cannot be hashed, so such a
        # spec cannot key a batch group; it must still fall back by
        # name, counted per trial, not surface the TypeError.
        plan = TrialPlan.monte_carlo(
            "unhashable", "turpin_coan_classic", ([1], [1], [1], [1]), 1,
            trials=3, params={"kappa": 2}, seed=4,
        )
        assert vector_unsupported_reason(plan.trials[0]) == "unhashable inputs"
        batched = TrialPlan.monte_carlo(
            "hashable", "ba_one_third", (0, 0, 1, 1), 1,
            trials=2, params={"kappa": 2}, seed=4,
        )
        chunk = list(enumerate(batched.trials + plan.trials))
        pairs, stats = execute_chunk(chunk)
        assert stats["fallback_reasons"] == {"unhashable inputs": 3}
        assert (stats["batched"], stats["fallback"]) == (2, 3)
        reference = ParallelRunner(workers=1).run(plan).results
        for (_, got), expected in zip(pairs[2:], reference):
            assert canon(got) == canon(expected)

    def test_mixed_chunk_groups_and_falls_back_per_spec(self):
        vec_plan = TrialPlan.monte_carlo(
            "mix-vec", "ba_one_third", (0, 0, 1, 1), 1,
            trials=3, params={"kappa": 2}, seed=1,
        )
        obj_plan = TrialPlan.monte_carlo(
            "mix-obj", "feldman_micali", (0, 0, 1, 1), 1,
            trials=2, params={"kappa": 2}, seed=1,
        )
        plan = TrialPlan.concat("mix", [vec_plan, obj_plan])
        chunk = list(enumerate(plan.trials))
        pairs, stats = execute_chunk(chunk)
        assert [index for index, _ in pairs] == list(range(len(plan)))
        assert stats["batched"] == 3
        assert stats["fallback"] == 2
        assert len(stats["batches"]) == 1
        # The fallback audit accounts for every demoted spec, by reason.
        assert sum(stats["fallback_reasons"].values()) == 2
        assert all(stats["fallback_reasons"])
        reference = ParallelRunner(workers=1).run(plan).results
        for (_, got), expected in zip(pairs, reference):
            assert canon(got) == canon(expected)


#: One strategy per TrialSpec field, over domains small enough that two
#: draws often agree.  A new field must be added here — the exhaustive
#: test below fails until it is.
SPEC_FIELDS = {
    "protocol": st.sampled_from(["ba_one_third", "ba_one_half"]),
    "inputs": st.sampled_from([(0, 0, 1, 1), (0, 1, 1, 0), (1, 1, 1, 1, 1)]),
    "max_faulty": st.integers(0, 1),
    "params": st.sampled_from([(), {"kappa": 1}, {"kappa": 2}]),
    "adversary": st.sampled_from([None, "straddle13"]),
    "adversary_params": st.sampled_from([(), {"victims": (3,)}]),
    "seed": st.integers(0, 3),
    "session": st.text(max_size=3),
    "setup_seed": st.integers(0, 1),
    "backend": st.sampled_from(["ideal", "real"]),
    "max_rounds": st.sampled_from([12, 4096]),
    "collect_signatures": st.booleans(),
    "config": st.text(max_size=3),
    "rsa_bits": st.sampled_from([128, 256]),
    "vectorizable": st.booleans(),
    "faults": st.sampled_from([None, "lossy", "crash_recover"]),
    "fault_params": st.sampled_from([(), {"drop": 0.5}]),
}


def _identity_erased(spec):
    return dataclasses.replace(spec, seed=0, session="", config="")


class TestBatchKey:
    def test_every_field_is_in_the_key_or_declared_per_trial(self):
        names = [field.name for field in dataclasses.fields(TrialSpec)]
        assert sorted(names) == sorted(SPEC_FIELDS)
        assert set(PER_TRIAL_FIELDS) == {"seed", "session", "config"}
        spec = TrialSpec("ba_one_third", (0, 0, 1, 1), 1)
        keyed = [name for name in names if name not in PER_TRIAL_FIELDS]
        assert batch_key(spec) == tuple(getattr(spec, name) for name in keyed)

    @given(
        fields=st.fixed_dictionaries(SPEC_FIELDS),
        changes=st.fixed_dictionaries({}, optional=SPEC_FIELDS),
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_keys_iff_equal_up_to_trial_identity(self, fields, changes):
        try:
            a = TrialSpec(**fields)
            b = dataclasses.replace(a, **changes)
        except ValueError:  # fault_params without a faults scenario
            reject()
        assert (batch_key(a) == batch_key(b)) == (
            _identity_erased(a) == _identity_erased(b)
        )
        assert batch_key(a) == batch_key(_identity_erased(a))
        assert hash(batch_key(a)) == hash(batch_key(_identity_erased(a)))

    def test_public_batch_entry_still_rejects_a_mixed_batch(self):
        from repro.engine.vectorized import VectorModelError

        one = TrialPlan.monte_carlo(
            "k2", "ba_one_third", (0, 0, 1, 1), 1, trials=2, params={"kappa": 2}
        )
        other = TrialPlan.monte_carlo(
            "k3", "ba_one_third", (0, 0, 1, 1), 1, trials=2, params={"kappa": 3}
        )
        assert len(run_vector_batch(one.trials)) == 2
        with pytest.raises(VectorModelError, match="mixes configurations"):
            run_vector_batch(one.trials + other.trials)


class TestHotPathCounts:
    """What one chunk does per trial, pinned by count rather than by clock."""

    CONFIGS = (
        ("ba_one_third", (0, 0, 1, 1), 1, {"kappa": 3},
         "straddle13", {"victims": (3,)}),
        ("ba_one_half", (0, 0, 1, 1, 1), 2, {"kappa": 2},
         "straddle12", {"victims": (3, 4)}),
        ("threshold_coin", (None,) * 4, 1, {"low": 1, "high": 8}, None, None),
        ("vrf_coin", (None,) * 4, 1, {"index": 1}, "withhold_coin",
         {"victims": (3,), "index": 1, "preferred": 1}),
    )

    def _plan(self, seed, trials=70):
        return TrialPlan.concat(
            "hot",
            [
                TrialPlan.monte_carlo(
                    f"hot-{protocol}", protocol, inputs, max_faulty,
                    trials=trials, params=params, adversary=adversary,
                    adversary_params=adversary_params, seed=seed,
                )
                for protocol, inputs, max_faulty, params, adversary,
                adversary_params in self.CONFIGS
            ],
        )

    def test_chunk_builds_no_specs_asks_once_per_config_and_spares_the_memo(
        self, monkeypatch
    ):
        clear_probe_cache()
        execute_chunk(list(enumerate(self._plan(seed=1).trials)))  # warm probes
        plan = self._plan(seed=2)
        chunk = list(enumerate(plan.trials))
        assert len(chunk) >= 200
        # Interleave the configs: grouping, not plan order, makes batches.
        random.Random(0).shuffle(chunk)

        built, asked = [], []
        post_init = TrialSpec.__post_init__
        monkeypatch.setattr(
            TrialSpec, "__post_init__",
            lambda spec: (built.append(spec), post_init(spec))[1],
        )
        for protocol, _, _, _, adversary, _ in self.CONFIGS:
            model = vector_model_for(protocol, adversary)
            reason = model.unsupported_reason
            monkeypatch.setattr(
                model, "unsupported_reason",
                staticmethod(
                    lambda spec, reason=reason: (asked.append(spec), reason(spec))[1]
                ),
            )
        # The coin evaluators leave the threshold scheme's memo alone,
        # the VRF evaluator the plain scheme's.
        memos = [
            _suite_for(plan.trials[first]).coin._tags
            for first in (0, 70, 140)
        ] + [_suite_for(plan.trials[210]).plain._tags]
        sizes = [len(memo) for memo in memos]

        pairs, stats = execute_chunk(chunk)

        assert (stats["batched"], stats["fallback"]) == (len(chunk), 0)
        assert stats["cache_misses"] == 0
        assert built == []
        assert sorted(spec.protocol for spec in asked) == sorted(
            config[0] for config in self.CONFIGS
        )
        assert [len(memo) for memo in memos] == sizes
        assert [index for index, _ in pairs] == [index for index, _ in chunk]
        monkeypatch.undo()
        reference = ParallelRunner(workers=1).run(plan).results
        for index, got in pairs:
            assert canon(got) == canon(reference[index])

    def test_a_trial_costs_its_coin_bytes(self, monkeypatch):
        """Primitive calls per trial, probes warm: one HMAC and one
        SHA-256 per coin, one of each per VRF evaluation plus the
        extractions the reveal scan makes."""
        clear_probe_cache()
        execute_chunk(list(enumerate(self._plan(seed=3).trials)))  # warm probes
        calls = Counter()
        for module, name in ((hmac, "digest"), (hashlib, "sha256")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *args, _real=real, _name=name: (
                    calls.update([_name]), _real(*args)
                )[1],
            )
        trials = 70
        plan = self._plan(seed=4, trials=trials)
        per_config = {}
        for at, config in enumerate(self.CONFIGS):
            calls.clear()
            chunk = list(enumerate(plan.trials))[at * trials:(at + 1) * trials]
            _, stats = execute_chunk(chunk)
            assert (stats["batched"], stats["cache_misses"]) == (trials, 0)
            per_config[config[0]] = (calls["digest"], calls["sha256"])
        n, victims = 4, 1
        assert per_config["ba_one_third"] == (trials, trials)
        # ⌈κ/2⌉ coins per ba_one_half trial: one at κ = 2.
        assert per_config["ba_one_half"] == (trials, trials)
        assert per_config["threshold_coin"] == (trials, trials)
        vrf_hmacs, vrf_hashes = per_config["vrf_coin"]
        assert vrf_hmacs == n * trials
        # n evaluations, then baseline, at most one candidate per
        # victim, and the trial's coin.
        assert (n + 2) * trials <= vrf_hashes <= (n + 2 + victims) * trials


    def _counted(self, monkeypatch, calls, owner, name, wrap=lambda f: f):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name,
            wrap(lambda *args, **kw: (calls.update([name]), real(*args, **kw))[1]),
        )

    def test_metrics_cost_their_classes_not_their_trials(self, monkeypatch):
        """2 000 trials of one config: registries are composed, folded,
        encoded and decoded once per outcome class — and a class seen in
        one chunk is not composed again in the next."""
        trials = 2000
        plans = [
            TrialPlan.monte_carlo(
                "classes", *self.CONFIGS[0][:3], trials=trials,
                params=self.CONFIGS[0][3], adversary=self.CONFIGS[0][4],
                adversary_params=self.CONFIGS[0][5], seed=seed,
            )
            for seed in (11, 12)
        ]
        calls = Counter()
        # Called on the class only: a plain function serves for both.
        self._counted(monkeypatch, calls, MetricsRegistry, "from_deliveries",
                      staticmethod)
        self._counted(monkeypatch, calls, MetricsRegistry, "unpack", staticmethod)
        self._counted(monkeypatch, calls, MetricsRegistry, "finalize_trial")
        self._counted(monkeypatch, calls, MetricsRegistry, "_add")
        clear_probe_cache()
        runner = ParallelRunner(workers=1, backend="vector", metrics=True)
        cold = runner.run(plans[0])
        summary = packed(cold)
        blobs = [blob for _, blob in summary.metrics]
        # One bytes object per class: a second encoding would be a second object.
        classes = len({id(blob) for blob in blobs})
        assert (len(blobs), len(set(blobs))) == (trials, classes)
        assert 1 < classes <= 8
        assert calls["from_deliveries"] == calls["finalize_trial"] == classes
        assert calls["_add"] == 0

        # Per config, one fold per class; the totals fold the one config.
        cold.metrics_payload()
        assert calls["_add"] == classes + 1
        # The pooled parent decodes by class and so merges by class too.
        rebuilt = summary.unpack_metrics()
        assert calls["unpack"] == classes
        assert [rebuilt[index] for index in range(trials)] == cold.trial_metrics
        calls.clear()
        assert MetricsRegistry.merged(rebuilt.values()) == cold.metrics_registry()
        assert calls["_add"] == 2 * classes

        # Fresh seeds, classes warm: nothing is composed, encoded or copied.
        calls.clear()
        warm = runner.run(plans[1])
        assert set(blob for _, blob in packed(warm).metrics) == set(blobs)
        assert {id(blob) for _, blob in packed(warm).metrics} == {
            id(blob) for blob in blobs
        }
        assert calls["from_deliveries"] == calls["finalize_trial"] == 0
        monkeypatch.undo()
        for index in (0, 1, trials - 1):
            assert warm.trial_metrics[index] == run_measured_trial(
                plans[1].trials[index]
            )[1]

    def test_class_cache_is_bounded_evicts_to_a_miss_and_clears(self, monkeypatch):
        from repro.engine import vectorized

        bound = 3
        monkeypatch.setattr(vectorized, "_CLASS_CACHE_LIMIT", bound)
        clear_probe_cache()
        seen = set()
        for seed in (1, 2):  # the second sweep recomposes what the first evicted
            plan = self._plan(seed=seed, trials=40)
            for at in range(len(self.CONFIGS)):
                chunk = list(enumerate(plan.trials))[at * 40:(at + 1) * 40]
                sink = {}
                execute_chunk(chunk, metrics=sink)
                assert len(vectorized._CLASS_CACHE) <= bound
                seen.update(registry.pack() for registry in sink.values())
                for index, spec in chunk[:3]:
                    assert sink[index] == run_measured_trial(spec)[1]
        assert len(seen) > bound
        assert len(vectorized._CLASS_CACHE) == bound
        clear_probe_cache()
        assert len(vectorized._CLASS_CACHE) == 0


class TestProbeCache:
    """The cross-batch probe cache must be invisible except in speed."""

    def test_cache_on_off_bit_identity_and_stats(self):
        from repro.engine import clear_probe_cache, probe_cache_stats

        plan = TrialPlan.monte_carlo(
            "cache", "ba_one_third", (0, 0, 1, 1), 1,
            trials=6, params={"kappa": 2}, adversary="straddle13",
            adversary_params={"victims": (3,)}, seed=21,
        )
        clear_probe_cache()
        cold = ParallelRunner(workers=1, backend="vector").run(plan).results
        stats_cold = probe_cache_stats()
        assert stats_cold["misses"] >= 1
        assert stats_cold["size"] >= 1
        warm = ParallelRunner(workers=1, backend="vector").run(plan).results
        stats_warm = probe_cache_stats()
        assert stats_warm["hits"] > stats_cold["hits"]
        assert [canon(a) for a in cold] == [canon(b) for b in warm]
        obj = ParallelRunner(workers=1).run(plan).results
        assert [canon(a) for a in obj] == [canon(b) for b in warm]
        clear_probe_cache()
        assert probe_cache_stats()["size"] == 0

    def test_cache_hits_across_distinct_sessions(self):
        """Same frozen config under different seeds/sessions shares probes.

        ``batch_key`` strips seed/session/config, so a second Monte-Carlo
        sweep of the same configuration hits the cache even though every
        trial's session string differs — and stays bit-identical to the
        object path either way.
        """
        from repro.engine import clear_probe_cache, probe_cache_stats

        clear_probe_cache()
        first = TrialPlan.monte_carlo(
            "sessions-a", "prox_one_third", (0, 0, 1, 1), 1,
            trials=4, params={"rounds": 3}, adversary="straddle13",
            adversary_params={"victims": (3,)}, seed=100,
        )
        second = TrialPlan.monte_carlo(
            "sessions-b", "prox_one_third", (0, 0, 1, 1), 1,
            trials=4, params={"rounds": 3}, adversary="straddle13",
            adversary_params={"victims": (3,)}, seed=999,
        )
        assert_equivalent(first)
        before = probe_cache_stats()
        assert_equivalent(second)
        after = probe_cache_stats()
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]

    def test_probe_cache_telemetry_span(self, tmp_path):
        import json

        from repro.engine import clear_probe_cache
        from repro.obs import TelemetryWriter, summarize_telemetry

        clear_probe_cache()
        path = str(tmp_path / "telemetry.jsonl")
        plan = TrialPlan.monte_carlo(
            "tele-cache", "ba_one_third", (0, 0, 1, 1), 1,
            trials=4, params={"kappa": 2}, seed=8,
        )
        with TelemetryWriter(path) as telemetry:
            runner = ParallelRunner(
                workers=1, backend="vector", telemetry=telemetry
            )
            runner.run(plan)
            runner.run(plan)
        summary = summarize_telemetry(path)
        assert summary["consistent"]
        assert summary["probe_cache_misses"] >= 1
        assert summary["probe_cache_hits"] >= 1
        spans = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if '"probe_cache"' in line
        ]
        assert len(spans) == 2
        assert all("hits" in span and "misses" in span for span in spans)


class TestRunnerIntegration:
    def test_pooled_vector_matches_serial_object(self):
        plan = TrialPlan.monte_carlo(
            "pooled", "ba_one_half", (0, 0, 1, 1, 1), 2,
            trials=12, params={"kappa": 2}, adversary="straddle12",
            adversary_params={"victims": (3, 4)}, seed=9,
        )
        obj = ParallelRunner(workers=1).run(plan).results
        vec = ParallelRunner(
            workers=2, backend="vector", chunk_size=5
        ).run(plan).results
        assert [canon(a) for a in obj] == [canon(b) for b in vec]

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelRunner(backend="gpu")

    def test_adaptive_runner_vector_matches_object(self):
        from repro.engine import AdaptiveRunner

        plan = TrialPlan.monte_carlo(
            "adaptive-vec", "ba_one_third", (0, 0, 1, 1), 1,
            trials=20, params={"kappa": 2}, adversary="straddle13",
            adversary_params={"victims": (3,)}, seed=13,
        )
        kwargs = dict(workers=1, batch_size=7, early_stop=False)
        obj = AdaptiveRunner(**kwargs).run(plan, bounds=0.25)
        vec = AdaptiveRunner(backend="vector", **kwargs).run(plan, bounds=0.25)
        assert [canon(r) for r in obj.executed_results()] == [
            canon(r) for r in vec.executed_results()
        ]
        assert obj.verdicts() == vec.verdicts()

    def test_vector_batch_telemetry_span(self, tmp_path):
        from repro.obs import TelemetryWriter, summarize_telemetry

        path = str(tmp_path / "telemetry.jsonl")
        plan = TrialPlan.monte_carlo(
            "tele", "ba_one_third", (0, 0, 1, 1), 1,
            trials=5, params={"kappa": 2}, seed=2,
        )
        with TelemetryWriter(path) as telemetry:
            ParallelRunner(
                workers=1, backend="vector", telemetry=telemetry
            ).run(plan)
        summary = summarize_telemetry(path)
        assert summary["consistent"]
        import json

        events = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if '"vector_batch"' in line
        ]
        assert len(events) == 1
        assert events[0]["batched"] == 5
        assert events[0]["fallback"] == 0
        assert events[0]["batches"] == 1
