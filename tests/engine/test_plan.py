"""TrialSpec / TrialPlan: validation, seed schedule, immutability."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import (
    TrialPlan,
    TrialSpec,
    derive_trial_seed,
    derive_trial_session,
)
from repro.engine import plan as plan_module


class TestSeedSchedule:
    def test_matches_legacy_run_trials_schedule(self):
        # The schedule every committed number rests on (it predates the
        # engine): seed*1_000_003 + trial / f"exp{seed}/{trial}".
        assert derive_trial_seed(7, 0) == 7 * 1_000_003
        assert derive_trial_seed(7, 12) == 7 * 1_000_003 + 12
        assert derive_trial_session(7, 12) == "exp7/12"

    def test_streams_never_collide_below_stride(self):
        seen = set()
        for base in (0, 1, 2):
            for index in range(100):
                seen.add(derive_trial_seed(base, index))
        assert len(seen) == 300


class TestTrialSpec:
    def _spec(self, **overrides):
        fields = dict(
            protocol="ba_one_third",
            inputs=(0, 1, 1, 0),
            max_faulty=1,
            params=(("kappa", 2),),
        )
        fields.update(overrides)
        return TrialSpec(**fields)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="0 <= t < n"):
            self._spec(max_faulty=4)
        with pytest.raises(ValueError, match="0 <= t < n"):
            self._spec(max_faulty=-1)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            self._spec(backend="quantum")

    def test_from_json_knows_the_json_type_of_every_field(self):
        from repro.engine.plan import _JSON_TYPES

        names = [field.name for field in dataclasses.fields(TrialSpec)]
        assert sorted(_JSON_TYPES) == sorted(names)

    def test_coerces_inputs_to_tuple(self):
        spec = self._spec(inputs=[1, 0, 1, 0])
        assert spec.inputs == (1, 0, 1, 0)
        assert spec.num_parties == 4

    def test_param_dict_views(self):
        spec = self._spec(
            adversary="straddle13", adversary_params=(("victims", (3,)),)
        )
        assert spec.param_dict == {"kappa": 2}
        assert spec.adversary_param_dict == {"victims": (3,)}

    def test_suite_key_ignores_protocol_and_seed(self):
        a = self._spec(seed=1)
        b = self._spec(seed=2, protocol="ba_one_half", params=(("kappa", 9),))
        assert a.suite_key == b.suite_key == ("ideal", 4, 1, 0, 256)

    def test_is_hashable_and_picklable(self):
        spec = self._spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, self._spec()}) == 1

    def test_dict_params_normalize_to_frozen_form(self):
        # The natural direct construction: plain dicts.  They must come
        # out identical to the canonical frozen-tuple form, or the spec
        # is unhashable and breaks the runner's picklable contract.
        direct = self._spec(
            params={"kappa": 2},
            adversary="straddle13",
            adversary_params={"victims": (3,)},
        )
        frozen = self._spec(
            params=(("kappa", 2),),
            adversary="straddle13",
            adversary_params=(("victims", (3,)),),
        )
        assert direct == frozen
        assert hash(direct) == hash(frozen)
        assert pickle.loads(pickle.dumps(direct)) == direct

    def test_dict_params_with_unhashable_values_are_frozen_deeply(self):
        spec = self._spec(
            adversary="straddle13", adversary_params={"victims": [3]}
        )
        assert spec.adversary_params == (("victims", (3,)),)
        assert len({spec}) == 1  # hashable

    def test_params_are_canonically_sorted(self):
        a = self._spec(params={"b": 1, "a": 2})
        b = self._spec(params={"a": 2, "b": 1})
        assert a == b
        assert a.params == (("a", 2), ("b", 1))

    def test_non_mapping_params_rejected_loudly(self):
        with pytest.raises(TypeError, match="params"):
            self._spec(params=3)
        with pytest.raises(TypeError, match="params"):
            self._spec(params="kappa=2")
        with pytest.raises(TypeError, match="adversary_params"):
            self._spec(adversary_params=("victims", (3,)))  # not pairs

    @pytest.mark.parametrize("field, value", [
        ("params", {"kappa": lambda: 2}),
        ("adversary_params", {"victims": (v for v in (3,))}),
        ("adversary_params", [("victims", (3, lambda: 4))]),
        ("fault_params", {"rate": {"nested": [derive_trial_seed]}}),
    ])
    def test_behaviour_in_params_is_rejected_naming_the_key(self, field, value):
        """A function, generator or coroutine in any params field, at any
        depth, is a ``TypeError`` naming its key — where the spec is
        built, not when a worker tries to unpickle it."""
        key = next(iter(dict(value)))
        faults = {"faults": "lossy"} if field == "fault_params" else {}
        with pytest.raises(TypeError, match=f"param {key!r} holds a "):
            self._spec(**{field: value}, **faults)
        with pytest.raises(TypeError, match=f"param {key!r} holds a "):
            TrialPlan.monte_carlo(
                "p", "ba_one_third", (0, 0, 1, 1), 1, trials=2,
                **{field: dict(value)}, **faults,
            )


class TestTrialPlan:
    def _plan(self, trials=5, seed=3, **overrides):
        fields = dict(
            name="p",
            protocol="ba_one_third",
            inputs=(0, 0, 1, 1),
            max_faulty=1,
            trials=trials,
            params={"kappa": 2},
            adversary="straddle13",
            adversary_params={"victims": (3,)},
            seed=seed,
        )
        fields.update(overrides)
        return TrialPlan.monte_carlo(**fields)

    def test_monte_carlo_applies_seed_schedule(self):
        plan = self._plan(trials=4, seed=9)
        assert [spec.seed for spec in plan] == [
            derive_trial_seed(9, i) for i in range(4)
        ]
        assert [spec.session for spec in plan] == [
            derive_trial_session(9, i) for i in range(4)
        ]

    def test_monte_carlo_freezes_params_canonically(self):
        plan = self._plan(trials=1, params={"kappa": 2})
        assert plan.trials[0].params == (("kappa", 2),)

    def test_monte_carlo_specs_are_the_directly_built_ones(self):
        # The plan validates its template once and stamps seed/session
        # onto copies; every copy must be indistinguishable from the
        # spec TrialSpec(...) validates from scratch.  Lists in the
        # params exercise the deep-freeze the copies skip.
        plan = self._plan(
            trials=6, seed=9, adversary_params={"victims": [3]},
            faults="lossy", fault_params={"drop": 0.1},
        )
        for index, spec in enumerate(plan):
            direct = TrialSpec(
                protocol="ba_one_third", inputs=(0, 0, 1, 1), max_faulty=1,
                params={"kappa": 2}, adversary="straddle13",
                adversary_params={"victims": [3]},
                seed=derive_trial_seed(9, index),
                session=derive_trial_session(9, index), config="p",
                faults="lossy", fault_params={"drop": 0.1},
            )
            assert spec == direct and hash(spec) == hash(direct)
            assert pickle.dumps(spec) == pickle.dumps(direct)

    def test_monte_carlo_validates_user_values_once(self, monkeypatch):
        calls = []
        post_init = TrialSpec.__post_init__
        monkeypatch.setattr(
            TrialSpec, "__post_init__",
            lambda spec: (calls.append(1), post_init(spec))[1],
        )
        self._plan(trials=50)
        assert len(calls) == 1
        with pytest.raises(ValueError, match="0 <= t < n"):
            self._plan(max_faulty=4)

    def test_monte_carlo_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="at least one"):
            self._plan(trials=0)

    def test_concat_preserves_order(self):
        merged = TrialPlan.concat(
            "both", [self._plan(trials=2, seed=1), self._plan(trials=3, seed=2)]
        )
        assert len(merged) == 5
        assert [spec.seed for spec in merged] == [
            derive_trial_seed(1, 0),
            derive_trial_seed(1, 1),
            derive_trial_seed(2, 0),
            derive_trial_seed(2, 1),
            derive_trial_seed(2, 2),
        ]

    def test_describe_summarizes(self):
        merged = TrialPlan.concat(
            "both",
            [
                self._plan(trials=2),
                self._plan(
                    trials=2,
                    protocol="ba_one_half",
                    inputs=(0, 0, 1, 1, 1),
                    max_faulty=2,
                    adversary="straddle12",
                    adversary_params={"victims": (3, 4)},
                ),
            ],
        )
        assert merged.describe() == {
            "name": "both",
            "trials": 4,
            "protocols": ["ba_one_half", "ba_one_third"],
            "adversaries": ["straddle12", "straddle13"],
            "num_parties": [4, 5],
        }

    def test_plan_is_picklable(self):
        plan = self._plan()
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_monte_carlo_stamps_config_name(self):
        plan = self._plan(trials=3)
        assert all(spec.config == "p" for spec in plan)
        assert all(spec.config_key == "p" for spec in plan)

    def test_configs_group_in_plan_order(self):
        merged = TrialPlan.concat(
            "sweep", [self._plan(trials=2, seed=1), self._plan(trials=3, seed=2, name="q")]
        )
        assert merged.configs() == {"p": (0, 1), "q": (2, 3, 4)}
        assert list(merged.configs()) == ["p", "q"]

    def test_unnamed_specs_group_by_derived_key(self):
        from repro.engine import TrialSpec

        a = TrialSpec(
            protocol="ba_one_third", inputs=(0, 1, 1, 0), max_faulty=1,
            params={"kappa": 2}, seed=1, session="s1",
        )
        b = TrialSpec(
            protocol="ba_one_third", inputs=(0, 1, 1, 0), max_faulty=1,
            params={"kappa": 2}, seed=2, session="s2",
        )
        c = TrialSpec(
            protocol="ba_one_third", inputs=(0, 1, 1, 0), max_faulty=1,
            params={"kappa": 3}, seed=3, session="s3",
        )
        plan = TrialPlan(name="hand-built", trials=(a, b, c))
        groups = plan.configs()
        assert len(groups) == 2  # seeds/sessions don't split configs
        assert list(groups.values()) == [(0, 1), (2,)]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), max_size=12))
    def test_configs_equal_the_per_trial_fold(self, picks):
        """Runs of one configuration, repeats and interleavings — stamped
        specs sharing a name, hand-built ones sharing only a derived key
        — group exactly as one dict lookup per trial groups them."""
        stamped = self._plan(trials=2).trials + self._plan(trials=2, name="q").trials
        hand = [
            TrialSpec("ba_one_third", (0, 1, 1, 0), 1, {"kappa": kappa}, seed=seed)
            for kappa, seed in ((2, 1), (2, 2), (3, 1))
        ]
        pool = (*stamped, *hand, dataclasses.replace(stamped[0], config=""))
        trials = [pool[at] for at, repeat in picks for _ in range(repeat)]
        fold = {}
        for index, spec in enumerate(trials):
            fold.setdefault(spec.config_key, []).append(index)
        groups = TrialPlan("mixed", trials).configs()
        assert list(groups.items()) == [(key, tuple(got)) for key, got in fold.items()]


class TestBatchKeyCache:
    """``TrialSpec.batch_key`` is read off a spec once and is derived
    data: a monte_carlo plan reads it once per template, and nothing that
    compares, prints, serializes or copies a spec sees the cache."""

    def _plan(self, trials=6, name="k", **overrides):
        fields = dict(
            protocol="ba_one_half", inputs=(0, 0, 1, 1, 1), max_faulty=2,
            params={"kappa": 2}, adversary="straddle12",
            adversary_params={"victims": [3, 4]}, seed=5,
        )
        fields.update(overrides)
        return TrialPlan.monte_carlo(name, trials=trials, **fields)

    def _counted(self, monkeypatch):
        calls = []
        read = plan_module._batch_fields
        monkeypatch.setattr(
            plan_module, "_batch_fields", lambda spec: (calls.append(1), read(spec))[1]
        )
        return calls

    def test_every_monte_carlo_spec_holds_its_templates_key(self):
        plan = self._plan()
        key = plan.trials[0].batch_key
        assert all("batch_key" in vars(spec) for spec in plan)
        assert all(spec.batch_key is key for spec in plan)

    def test_a_plan_reads_its_key_once_per_template(self, monkeypatch):
        calls = self._counted(monkeypatch)
        plan = TrialPlan.concat(
            "two", [self._plan(trials=50), self._plan(trials=30, name="j", seed=6)]
        )
        assert len(calls) == 2
        assert len({id(spec.batch_key) for spec in plan}) == 2
        assert len(calls) == 2

    def test_copies_read_the_key_afresh(self, monkeypatch):
        spec = self._plan().trials[3]
        key = spec.batch_key
        calls = self._counted(monkeypatch)
        for other in (
            pickle.loads(pickle.dumps(spec)),
            copy.copy(spec),
            copy.deepcopy(spec),
            dataclasses.replace(spec),
            dataclasses.replace(spec, seed=1, session="other", config="other"),
        ):
            assert "batch_key" not in vars(other)
            assert other.batch_key == key and other.batch_key is not key
        assert len(calls) == 5
        for changes in ({"params": {"kappa": 3}}, {"max_rounds": 99}, {"inputs": (1,) * 5}):
            assert dataclasses.replace(spec, **changes).batch_key != key

    def test_the_cache_is_invisible_to_what_reads_fields(self):
        """Equality, hash, repr, JSON and pickle bytes of a spec whose key
        is cached equal those of the same spec built by hand, unread."""
        spec = self._plan().trials[2]
        assert "batch_key" in vars(spec)
        direct = TrialSpec(
            "ba_one_half", (0, 0, 1, 1, 1), 2, {"kappa": 2}, adversary="straddle12",
            adversary_params={"victims": [3, 4]}, seed=spec.seed,
            session=spec.session, config="k",
        )
        assert "batch_key" not in vars(direct)
        assert spec == direct and hash(spec) == hash(direct)
        assert repr(spec) == repr(direct) and "batch_key" not in repr(spec)
        assert spec.to_json() == direct.to_json()
        assert pickle.dumps(spec) == pickle.dumps(direct)
        assert "batch_key" in vars(spec)  # pickling leaves the cache in place
