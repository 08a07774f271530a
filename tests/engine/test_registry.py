"""Protocol/adversary/fault registries: resolution, errors, extensibility."""

import pytest

from repro.adversary.base import Adversary
from repro.engine import TrialSpec, run_trial
from repro.engine.registry import (
    adversary_names,
    build_adversary,
    build_fault_plan,
    build_protocol_factory,
    protocol_names,
    register_adversary,
    register_fault_plan,
    register_protocol,
)


def _constant_program(ctx, value):
    return value
    yield  # pragma: no cover - makes this a generator program


def _constant_builder():
    return _constant_program


def _capture_builder(factory, victims):
    adversary = Adversary()
    adversary.factory = factory
    return adversary


class TestResolution:
    def test_stock_protocols_are_registered(self):
        names = protocol_names()
        for expected in (
            "ba_one_third",
            "ba_one_half",
            "dolev_strong",
            "feldman_micali",
            "micali_vaikuntanathan",
            "mv_pki",
            "prox_one_third",
            "prox_linear_half",
            "prox_quadratic_half",
        ):
            assert expected in names

    def test_stock_adversaries_are_registered(self):
        names = adversary_names()
        for expected in (
            "straddle13",
            "straddle12",
            "crash",
            "malformed",
            "two_face",
        ):
            assert expected in names

    def test_unknown_protocol_raises_keyerror_listing_names(self):
        with pytest.raises(KeyError, match="unknown protocol 'nope'"):
            build_protocol_factory("nope", {})

    def test_unknown_adversary_raises_keyerror_listing_names(self):
        factory = build_protocol_factory("ba_one_third", {"kappa": 1})
        with pytest.raises(KeyError, match="unknown adversary 'nope'"):
            build_adversary("nope", {}, factory)

    def test_none_adversary_resolves_to_none(self):
        factory = build_protocol_factory("ba_one_third", {"kappa": 1})
        assert build_adversary(None, {}, factory) is None

    def test_unknown_fault_scenario_raises_keyerror_listing_names(self):
        assert build_fault_plan(None, {}) is None
        with pytest.raises(KeyError, match="unknown fault scenario 'nope'.*lossy"):
            build_fault_plan("nope", {})

    @pytest.mark.parametrize("scenario, params, takes, reason, original", [
        ("lossy", {"bogus": 2}, "(rate)",
         "got an unexpected keyword argument 'bogus'", TypeError),
        ("partitioned", {}, "(groups, start, heal)",
         "missing a required argument: 'groups'", TypeError),
        ("crash_recover", {"crashes": [["a", 1, 3]]}, "(crashes)",
         "'<' not supported between instances of 'str' and 'int'", TypeError),
        ("crash_recover", {"crashes": [[1, 3]]}, "(crashes)",
         "not enough values to unpack (expected 3, got 2)", ValueError),
        ("degraded", {"rate": 2}, "(rate, max_delay, split, heal)",
         "loss must be in [0, 1], got 2", ValueError),
    ])
    def test_rejected_fault_params_name_the_scenario_and_what_it_takes(
        self, scenario, params, takes, reason, original
    ):
        with pytest.raises(ValueError) as raised:
            build_fault_plan(scenario, params)
        message = str(raised.value)
        assert message == f"fault scenario {scenario!r} takes {takes}: {reason}"
        assert "<lambda>" not in message
        assert type(raised.value.__cause__) is original

    def test_non_callable_builder_rejected(self):
        with pytest.raises(TypeError):
            register_protocol("bad", "not-callable")
        with pytest.raises(TypeError):
            register_adversary("bad", 42)


class TestExtensibility:
    # Builders live at module level: registering the same object again
    # is a no-op, so these tests can run twice in one process.
    def test_registered_protocol_runs_through_engine(self):
        register_protocol("test_constant", _constant_builder)
        spec = TrialSpec(
            protocol="test_constant", inputs=(7, 7, 7), max_faulty=0, session="reg"
        )
        result = run_trial(spec)
        assert result.outputs == {0: 7, 1: 7, 2: 7}
        assert result.finish_rounds == {0: 0, 1: 0, 2: 0}

    def test_registered_adversary_receives_factory(self):
        register_adversary("test_capture", _capture_builder)
        factory = build_protocol_factory("ba_one_third", {"kappa": 1})
        adversary = build_adversary("test_capture", {"victims": (0,)}, factory)
        assert adversary.factory is factory

    @pytest.mark.parametrize("register, name", [
        (register_protocol, "ba_one_third"),
        (register_adversary, "straddle13"),
        (register_fault_plan, "lossy"),
    ])
    def test_a_claimed_name_refuses_a_different_builder(self, register, name):
        with pytest.raises(ValueError, match=f"{name!r} is already registered"):
            register(name, _constant_builder)

    def test_registering_the_same_builder_again_is_a_no_op(self):
        register_protocol("test_constant", _constant_builder)
        register_protocol("test_constant", _constant_builder)
        with pytest.raises(ValueError, match="'test_constant' is already"):
            register_protocol("test_constant", lambda: _constant_program)
