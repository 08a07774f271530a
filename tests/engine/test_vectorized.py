"""Vector backend equivalence: table-walk batches vs the object simulator.

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
import itertools
import os
import random
import re
import subprocess
import sys
from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.crypto import ideal
from repro.crypto.random_oracle import exact_key
from repro.engine import (
    ChunkSummary,
    ParallelRunner,
    TrialPlan,
    TrialSpec,
    adversary_names,
    protocol_names,
    run_measured_trial,
    vector_unsupported_reason,
)
from repro.engine.runner import _suite_for
from repro.core.extraction import extract
from repro.engine.plan import PER_TRIAL_FIELDS
from repro.engine.vectorized import (
    VectorModelError,
    _cut_row,
    _extraction_row,
    _IterationProbe,
    _Leaf,
    _Model,
    _model_for,
    _MODELS,
    clear_probe_cache,
    execute_chunk,
    run_vector_batch,
)
from repro.network.metrics import RunMetrics
from repro.network.simulator import ExecutionResult
from repro.obs import MetricsRegistry, TelemetryWriter, summarize_telemetry
from tests.conftest import PROTOCOL_SHAPES, swap_vector_model, type_exact_equal


def canon(result):
    """Everything an ExecutionResult holds, as comparable plain data.

    ``RunMetrics.rows`` is an ordered tuple — row order is part of the
    object simulator's observable output (the transport packs in that
    order) and the vector backend must reproduce it.
    """
    return (
        dict(result.outputs),
        set(result.corrupted),
        dict(result.inputs),
        dict(result.finish_rounds),
        result.metrics.rounds,
        result.metrics.rows,
    )


@pytest.fixture
def fresh_tables():
    """Empty configuration cache before and after a test whose tables
    must not outlive it — built from synthetic probes, or around patched
    primitives — nor meet the tables other tests left."""
    clear_probe_cache()
    yield
    clear_probe_cache()


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
    "feldman_micali": [
        (None, None),
        ("straddle13", {"victims": (3,)}),
    ],
    "micali_vaikuntanathan": [
        (None, None),
        ("straddle12", {"victims": (3, 4)}),
    ],
    "mv_pki": [
        (None, None),
        ("straddle12", {"victims": (3, 4)}),
    ],
    "ba_one_third_chunked": [
        (None, None),
        ("straddle13", {"victims": (3,)}),
    ],
    "ba_one_half_generalized": [
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


def served_pairs():
    """Every (protocol, adversary) pair ``_MODELS`` serves, sorted."""
    return sorted(
        ((protocol, adversary)
         for protocol, model in _MODELS.items()
         for adversary in model.adversaries),
        key=repr,
    )


class TestRegistry:
    def test_both_protocols_registered_with_and_without_adversary(self):
        pairs = set(served_pairs())
        assert ("ba_one_third", None) in pairs
        assert ("ba_one_third", "straddle13") in pairs
        assert ("ba_one_half", None) in pairs
        assert ("ba_one_half", "straddle12") in pairs

    def test_every_newly_modeled_pair_is_registered(self):
        pairs = set(served_pairs())
        missing = [pair for pair in NEW_PAIRS if pair not in pairs]
        assert not missing, missing

    def test_every_model_names_registered_protocols_and_adversaries(self):
        """A misspelt name would match no spec, and every spec of the
        pair would fall back to the object simulator: correct, and
        silently slower."""
        protocols, adversaries = set(protocol_names()), set(adversary_names())
        assert set(_MODELS) <= protocols, sorted(set(_MODELS) - protocols)
        served = {name for model in _MODELS.values() for name in model.adversaries}
        assert served - {None} <= adversaries, sorted(served - {None} - adversaries)

    def test_the_table_registers_these_pairs_and_no_others(self):
        honest_only = (
            "prox_quadratic_half", "dolev_strong", "prox_expand_once",
            "proxcast", "certificate_gradecast", "fm_probabilistic",
            "turpin_coan_classic", "multivalued_ba",
        )
        expected = {(protocol, None) for protocol in honest_only} | {
            (protocol, adversary)
            for protocol, combos in VECTOR_ADVERSARIES.items()
            for adversary, _ in combos
        }
        assert served_pairs() == sorted(expected, key=repr)
        assert len(expected) == 32


class TestProtocolGrid:
    """Every registered protocol × the adversaries that apply to it.

    Vector-supported pairs exercise the vector models; everything else
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
        assert vector_unsupported_reason(spec) is None
        assert_equivalent(plan)


class TestStatementParams:
    """``_fixed_round`` passes a statement's own params through: the
    chunked and generalized families off their defaults, straddled."""

    @pytest.mark.parametrize(
        "protocol,inputs,max_faulty,params,adversary,victims",
        [
            ("ba_one_third_chunked", (0, 0, 1, 1), 1, {"kappa": 3, "chunk": 1},
             "straddle13", (3,)),
            ("ba_one_third_chunked", (0, 0, 1, 1), 1, {"kappa": 5, "chunk": 3},
             "straddle13", (3,)),
            ("ba_one_half_generalized", (0, 0, 1, 1, 1), 2,
             {"kappa": 3, "prox_rounds": 2}, "straddle12", (3, 4)),
            ("ba_one_half_generalized", (0, 0, 1, 1, 1), 2,
             {"kappa": 4, "prox_rounds": 3, "family": "quadratic"},
             "straddle12", (3, 4)),
        ],
    )
    def test_off_default_params_match_the_object_path(
        self, protocol, inputs, max_faulty, params, adversary, victims
    ):
        plan = TrialPlan.monte_carlo(
            f"params-{protocol}", protocol, inputs, max_faulty, trials=6,
            params=params, adversary=adversary,
            adversary_params={"victims": victims}, seed=29,
        )
        assert vector_unsupported_reason(plan.trials[0]) is None
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
        assert vector_unsupported_reason(plan.trials[0]) is None
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
        assert vector_unsupported_reason(spec) is None
        assert_equivalent(plan)

    def test_collect_signatures_off_still_matches(self):
        plan = TrialPlan.monte_carlo(
            "nosig", "ba_one_half", (0, 0, 1, 1, 1), 2,
            trials=6, params={"kappa": 3}, adversary="straddle12",
            adversary_params={"victims": (3, 4)}, seed=5,
            collect_signatures=False,
        )
        assert vector_unsupported_reason(plan.trials[0]) is None
        assert_equivalent(plan)


class TestFallback:
    def test_unsupported_adversary_falls_back(self):
        plan = TrialPlan.monte_carlo(
            "crash", "ba_one_third", (0, 0, 1, 1), 1,
            trials=4, params={"kappa": 2},
            adversary="crash", adversary_params={"victims": (3,)}, seed=3,
        )
        assert vector_unsupported_reason(plan.trials[0]) is not None
        assert_equivalent(plan)

    def test_unregistered_protocol_falls_back(self):
        plan = TrialPlan.monte_carlo(
            "two-face", "ba_one_third", (0, 0, 1, 1), 1,
            trials=3, params={"kappa": 2}, adversary="two_face",
            adversary_params={"victims": (3,)}, seed=3,
        )
        assert vector_unsupported_reason(plan.trials[0]) is not None
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
            "mix-obj", "ba_one_third", (0, 0, 1, 1), 1,
            trials=2, params={"kappa": 2}, adversary="two_face",
            adversary_params={"victims": (3,)}, seed=1,
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


_BITS, _HALF, _WORDS, _COINS = (0, 0, 1, 1), (0, 0, 1, 1, 1), ("a", "b", "a", "a"), (None,) * 4
_STRADDLE13 = dict(adversary="straddle13")
_STRADDLE12 = dict(adversary="straddle12")
_WITHHOLD = dict(adversary="withhold_coin")

#: ``(spec, the exact reason vector_unsupported_reason gives)``, one row
#: per branch of the eligibility check — ``None`` where the spec batches.
#: Dashboards, telemetry and the ``--vector`` audit tally these strings,
#: so a reworded reason is a failing row here, not a silent new bucket.
FALLBACK_REASON_TABLE = [
    # Spec-level guards, before any model is consulted.
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, faults="lossy"),
     "fault injection ('lossy') is not vectorizable"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, faults="crash_recover",
               fault_params={"crashes": [(3, 1, 2)]}),
     "fault injection ('crash_recover') is not vectorizable"),
    # The faults guard runs first: a faulted real-RSA spec names its faults.
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, faults="lossy",
               backend="real"),
     "fault injection ('lossy') is not vectorizable"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, backend="real"),
     "real-RSA backend"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, adversary="two_face",
               adversary_params={"victims": (3,)}),
     "no vector model registered for ('ba_one_third', 'two_face')"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, adversary="crash",
               adversary_params={"victims": (3,)}),
     "no vector model registered for ('ba_one_third', 'crash')"),
    (TrialSpec("fm_probabilistic", _BITS, 1, adversary="straddle13",
               adversary_params={"victims": (3,)}),
     "no vector model registered for ('fm_probabilistic', 'straddle13')"),
    (TrialSpec("multivalued_ba", _WORDS, 1, {"kappa": 2}, adversary="two_face",
               adversary_params={"victims": (3,)}),
     "no vector model registered for ('multivalued_ba', 'two_face')"),
    (TrialSpec("vrf_coin", _COINS, 1, adversary="crash",
               adversary_params={"victims": (3,)}),
     "no vector model registered for ('vrf_coin', 'crash')"),
    (TrialSpec("dolev_strong", _BITS, 1, adversary="two_face",
               adversary_params={"victims": (3,)}),
     "no vector model registered for ('dolev_strong', 'two_face')"),
    # Inputs: strict bits for the binary walks, hashable for the rest.
    (TrialSpec("ba_one_third", (0, 2, 1, 1), 1, {"kappa": 2}), "non-bit input 2"),
    (TrialSpec("ba_one_half", (0, True, 1, 1, 1), 2, {"kappa": 2}),
     "non-bit input True"),
    (TrialSpec("fm_probabilistic", ("a", 0, 1, 1), 1), "non-bit input 'a'"),
    (TrialSpec("turpin_coan_classic", ([1], [1], [1], [1]), 1, {"kappa": 2}),
     "unhashable inputs"),
    (TrialSpec("threshold_coin", ([1],) * 4, 1), "unhashable inputs"),
    (TrialSpec("prox_one_third", ([0], [0], [1], [1]), 1, {"rounds": 3}),
     "unhashable inputs"),
    # Protocol params.
    (TrialSpec("ba_one_third", _BITS, 1), "unsupported protocol params []"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2, "extra": 1}),
     "unsupported protocol params ['extra', 'kappa']"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 0}), "unsupported kappa 0"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": True}), "unsupported kappa True"),
    (TrialSpec("ba_one_half", _HALF, 2, {"kappa": "2"}), "unsupported kappa '2'"),
    (TrialSpec("fm_probabilistic", _BITS, 1, {"kappa": 2}),
     "unsupported protocol params ['kappa']"),
    (TrialSpec("turpin_coan_classic", _WORDS, 1),
     "unsupported protocol params []"),
    (TrialSpec("turpin_coan_classic", _WORDS, 1, {"kappa": 2, "regime": "one_third"}),
     "unsupported protocol params ['kappa', 'regime']"),
    (TrialSpec("multivalued_ba", _WORDS, 1, {"kappa": -1}), "unsupported kappa -1"),
    (TrialSpec("multivalued_ba", _WORDS, 1, {"kappa": 2, "regime": "one_half"}),
     "regime 'one_half' not modeled (multi-coin inner BA)"),
    (TrialSpec("threshold_coin", _COINS, 1, {"index": 0, "extra": 1}),
     "unsupported protocol params ['extra', 'index']"),
    (TrialSpec("threshold_coin", _COINS, 1, {"low": 2, "high": 1}),
     "invalid coin range (object path raises)"),
    (TrialSpec("threshold_coin", _COINS, 1, {"low": "0"}),
     "invalid coin range (object path raises)"),
    (TrialSpec("vrf_coin", _COINS, 1, {"high": 1.5}),
     "invalid coin range (object path raises)"),
    # Regime and protocol length.
    (TrialSpec("ba_one_third", (0, 0, 1), 1, {"kappa": 2}),
     "regime violation 3t >= n (object path raises)"),
    (TrialSpec("ba_one_half", _BITS, 2, {"kappa": 2}),
     "regime violation 2t >= n (object path raises)"),
    (TrialSpec("fm_probabilistic", (0, 0, 1), 1),
     "regime violation 3t >= n (object path raises)"),
    (TrialSpec("multivalued_ba", ("a", "b", "c"), 1, {"kappa": 2}),
     "regime violation 3t >= n (object path raises)"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 3}, max_rounds=3),
     "max_rounds below protocol length (object path raises)"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 3}, max_rounds=4), None),
    (TrialSpec("ba_one_half", _HALF, 2, {"kappa": 3}, max_rounds=5),
     "max_rounds below protocol length (object path raises)"),
    (TrialSpec("ba_one_half", _HALF, 2, {"kappa": 3}, max_rounds=6), None),
    (TrialSpec("turpin_coan_classic", _WORDS, 1, {"kappa": 2}, max_rounds=4),
     "max_rounds below protocol length (object path raises)"),
    (TrialSpec("turpin_coan_classic", _WORDS, 1, {"kappa": 2}, max_rounds=5), None),
    (TrialSpec("ba_one_third_chunked", _BITS, 1, {"kappa": 2}),
     "protocol params {'kappa': 2} rejected (object path raises)"),
    (TrialSpec("ba_one_third_chunked", _BITS, 1, {"kappa": 2, "chunk": 3}),
     "protocol params {'chunk': 3, 'kappa': 2} rejected (object path raises)"),
    (TrialSpec("ba_one_half_generalized", _HALF, 2, {"kappa": 2, "family": "cubic"}),
     "protocol params {'family': 'cubic', 'kappa': 2} rejected (object path raises)"),
    (TrialSpec("ba_one_half_generalized", _HALF, 2,
               {"kappa": 3, "family": "quadratic", "prox_rounds": 3}, max_rounds=8),
     "max_rounds below protocol length (object path raises)"),
    (TrialSpec("ba_one_half_generalized", _HALF, 2,
               {"kappa": 3, "family": "quadratic", "prox_rounds": 3}, max_rounds=9),
     None),
    (TrialSpec("fm_probabilistic", _BITS, 1, max_rounds=191),
     "max_rounds below the iteration cap (object path may raise)"),
    (TrialSpec("fm_probabilistic", _BITS, 1, max_rounds=192), None),
    # Adversary params and victims.
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": (3,), "extra": 1}),
     "unsupported adversary params ['extra', 'victims']"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13),
     "adversary victims missing or not a sequence"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": ()}),
     "adversary victims missing or not a sequence"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": 3}),
     "adversary victims missing or not a sequence"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": (4,)}),
     "victim 4 out of range"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": ("3",)}),
     "victim '3' out of range"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": (2, 3)}),
     "corruption budget exceeded (object path raises)"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": (3, 3)}), None),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": (3,), "down_group": 0}),
     "unsupported down_group value"),
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": (3,), "down_group": (0,)}), None),
    (TrialSpec("ba_one_half", _HALF, 2, {"kappa": 2}, **_STRADDLE12,
               adversary_params={"victims": (3, 4), "down_group": (0,)}),
     "unsupported adversary params ['down_group', 'victims']"),
    (TrialSpec("ba_one_half", _HALF, 2, {"kappa": 2}, **_STRADDLE12,
               adversary_params={"victims": (3, 4), "iteration_rounds": 2}),
     "straddle12 with non-standard iteration_rounds"),
    (TrialSpec("ba_one_half", _HALF, 2, {"kappa": 2}, **_STRADDLE12,
               adversary_params={"victims": (3, 4), "iteration_rounds": 3}), None),
    (TrialSpec("threshold_coin", _COINS, 1, **_WITHHOLD,
               adversary_params={"victims": (3,), "extra": 1}),
     "unsupported adversary params ['extra', 'victims']"),
    (TrialSpec("threshold_coin", _COINS, 1, {"index": 1}, **_WITHHOLD,
               adversary_params={"victims": (3,), "session": "s", "index": 2}),
     None),
    (TrialSpec("vrf_coin", _COINS, 1, **_WITHHOLD,
               adversary_params={"victims": (5,)}),
     "victim 5 out of range"),
    (TrialSpec("vrf_coin", _COINS, 1, **_WITHHOLD,
               adversary_params={"victims": (3,), "session": "s"}),
     "session-pinned withhold_coin not modeled"),
    (TrialSpec("vrf_coin", _COINS, 1, **_WITHHOLD,
               adversary_params={"victims": (3,), "index": 1}),
     "adversary coin index differs from protocol (not modeled)"),
    (TrialSpec("vrf_coin", _COINS, 1, {"index": 1}, **_WITHHOLD,
               adversary_params={"victims": (3,), "index": 1}), None),
    (TrialSpec("vrf_coin", _COINS, 1, **_WITHHOLD,
               adversary_params={"victims": (3,), "low": 2, "high": 1}),
     "invalid adversary coin range (object path raises)"),
    (TrialSpec("vrf_coin", _COINS, 1, **_WITHHOLD,
               adversary_params={"victims": (3,), "high": "1"}),
     "invalid adversary coin range (object path raises)"),
    (TrialSpec("prox_one_third", _BITS, 1, {"rounds": 3}, **_STRADDLE13,
               adversary_params={"victims": (3,), "down_group": 0}), None),
    (TrialSpec("prox_one_third", _BITS, 1, {"rounds": 3}, adversary="two_face",
               adversary_params={"victims": (2, 3)}),
     "corruption budget exceeded (object path raises)"),
    (TrialSpec("prox_linear_half", _HALF, 2, {"rounds": 3}, adversary="two_face",
               adversary_params={"victims": (3, 4), "iteration_rounds": 3}),
     "unsupported adversary params ['iteration_rounds', 'victims']"),
    (TrialSpec("prox_linear_half", _HALF, 2, {"rounds": 3},
               adversary="bare_straddle12",
               adversary_params={"victims": (3, 4), "iteration_rounds": 2}), None),
    # What batches: one spec of each model.
    (TrialSpec("ba_one_third", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": (3,)}), None),
    (TrialSpec("ba_one_half", _HALF, 2, {"kappa": 2}), None),
    (TrialSpec("feldman_micali", _BITS, 1, {"kappa": 2}, **_STRADDLE13,
               adversary_params={"victims": (3,)}), None),
    (TrialSpec("micali_vaikuntanathan", _HALF, 2, {"kappa": 2}), None),
    (TrialSpec("mv_pki", _HALF, 2, {"kappa": 2}, **_STRADDLE12,
               adversary_params={"victims": (3, 4)}), None),
    (TrialSpec("ba_one_third_chunked", _BITS, 1, {"kappa": 4, "chunk": 2}), None),
    (TrialSpec("ba_one_half_generalized", _HALF, 2, {"kappa": 3}), None),
    (TrialSpec("fm_probabilistic", _BITS, 1), None),
    (TrialSpec("turpin_coan_classic", _WORDS, 1, {"kappa": 2, "default": "x"}), None),
    (TrialSpec("multivalued_ba", _WORDS, 1, {"kappa": 2, "regime": "one_third"}),
     None),
    (TrialSpec("threshold_coin", _COINS, 1, {"low": 1, "high": 8}), None),
    (TrialSpec("vrf_coin", _COINS, 1, {"index": 1}), None),
    (TrialSpec("prox_one_third", _BITS, 1, {"rounds": 3, "unchecked": 1}), None),
]


class TestFallbackReasons:
    @pytest.mark.parametrize(
        "spec,reason", FALLBACK_REASON_TABLE,
        ids=[f"{at:02d}-{spec.protocol}" for at, (spec, _) in enumerate(
            FALLBACK_REASON_TABLE
        )],
    )
    def test_each_branch_gives_its_exact_reason(self, spec, reason):
        assert vector_unsupported_reason(spec) == reason


#: One strategy per TrialSpec field, over domains small enough that two
#: draws often agree, with equal values of other types (``True`` beside
#: ``1``) where a field's check reads types.  A new field must be added
#: here — the exhaustive test below fails until it is.
SPEC_FIELDS = {
    "protocol": st.sampled_from(["ba_one_third", "ba_one_half"]),
    "inputs": st.sampled_from([(0, 0, 1, 1), (0, 1, 1, 0), (1, 1, 1, 1, 1)]),
    "max_faulty": st.sampled_from([0, 1, True]),
    "params": st.sampled_from(
        [(), {"kappa": 1}, {"kappa": 2}, {"kappa": True}, {"kappa": 1.0}]
    ),
    "adversary": st.sampled_from([None, "straddle13"]),
    "adversary_params": st.sampled_from([(), {"victims": (3,)}]),
    "seed": st.integers(0, 3),
    "session": st.text(max_size=3),
    "setup_seed": st.integers(0, 1),
    "backend": st.sampled_from(["ideal", "real"]),
    "max_rounds": st.sampled_from([12, 4096]),
    "collect_signatures": st.sampled_from([True, False, 1, 0]),
    "config": st.text(max_size=3),
    "rsa_bits": st.sampled_from([128, 256]),
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
        fields = tuple(getattr(spec, name) for name in keyed)
        assert spec.batch_key == exact_key(fields)

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
        erased = [dataclasses.astuple(_identity_erased(spec)) for spec in (a, b)]
        assert (a.batch_key == b.batch_key) == type_exact_equal(*erased)
        assert a.batch_key == _identity_erased(a).batch_key
        assert hash(a.batch_key) == hash(_identity_erased(a).batch_key)

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


class _Hashed(int):
    """An int that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        _Hashed.hashes += 1
        return int.__hash__(self)


class TestRunGrouping:
    """``execute_chunk`` groups runs of one batch key: a run joins its
    group with one dict lookup, and interleaved runs of a configuration
    still make one batch."""

    def _plans(self, trials, max_rounds=4096):
        return (
            TrialPlan.monte_carlo(
                "A", "ba_one_half", (0, 0, 1, 1, 1), 2, trials=trials,
                params={"kappa": 4}, adversary="straddle12",
                adversary_params={"victims": (3, 4)}, seed=3, max_rounds=max_rounds,
            ).trials,
            TrialPlan.monte_carlo(
                "B", "ba_one_third", (0, 0, 1, 1), 1, trials=trials,
                params={"kappa": 3}, adversary="straddle13",
                adversary_params={"victims": (3,)}, seed=5, max_rounds=max_rounds,
            ).trials,
        )

    def test_interleaved_hand_built_and_replaced_specs_batch_once(self, fresh_tables):
        """A, B, A runs; a hand-built spec equal to a stamped one; a
        ``replace``d spec of A's configuration and one of a new
        configuration that keeps B's name.  The stats are the ones the
        per-spec grouping gave."""
        a, b = self._plans(6)
        hand = TrialSpec(
            "ba_one_third", (0, 0, 1, 1), 1, {"kappa": 3}, adversary="straddle13",
            adversary_params={"victims": (3,)}, seed=b[3].seed,
            session=b[3].session, config="B",
        )
        assert hand == b[3] and hand.batch_key is not b[3].batch_key
        moved = dataclasses.replace(a[0], seed=77, session="moved")
        renamed = dataclasses.replace(b[0], params={"kappa": 5})
        specs = [*a[:3], *b[:3], *a[3:], hand, moved, renamed]
        pairs, stats = execute_chunk(list(enumerate(specs)))
        assert stats == {
            "batched": 12, "fallback": 0, "coins": 15,
            "batches": [
                {"config": "A", "size": 7}, {"config": "B", "size": 4},
                {"config": "B", "size": 1},
            ],
            "cache_hits": 0, "cache_misses": 6, "fallback_reasons": {},
        }
        assert [index for index, _ in pairs] == list(range(len(specs)))
        from repro.engine import run_trial

        for (_, got), spec in zip(pairs, specs):
            assert canon(got) == canon(run_trial(spec))

    def test_an_unhashable_spec_inside_a_run_keeps_its_named_fallback(self):
        a, _ = self._plans(3)
        odd = TrialSpec("turpin_coan_classic", ([1], [1], [1], [1]), 1, {"kappa": 2})
        specs = [a[0], a[1], odd, a[2]]
        pairs, stats = execute_chunk(list(enumerate(specs)))
        assert stats["batches"] == [{"config": "A", "size": 3}]
        assert stats["fallback_reasons"] == {"unhashable inputs": 1}
        assert [index for index, _ in pairs] == [0, 1, 2, 3]
        batched = run_vector_batch([a[0], a[1], a[2]])
        assert [canon(got) for _, got in pairs[:2]] == [canon(r) for r in batched[:2]]
        assert canon(pairs[3][1]) == canon(batched[2])

    def test_a_run_consults_the_group_dict_once(self):
        """Hashing the key is the lookup: an A, B, A chunk hashes its
        keys as often with 20 trials a run as with 1."""
        max_rounds = _Hashed(4096)

        def chunk(trials):
            a, b = self._plans(2 * trials, max_rounds)
            return list(enumerate([*a[:trials], *b, *a[trials:]]))

        execute_chunk(chunk(20))  # every node of the smaller chunk grown
        counts = []
        for trials in (1, 20):
            _Hashed.hashes = 0
            _, stats = execute_chunk(chunk(trials))
            assert [batch["size"] for batch in stats["batches"]] == [2 * trials] * 2
            counts.append(_Hashed.hashes)
        assert counts[0] == counts[1] < 20


class TestVerdictCache:
    """A configuration's admission by :func:`unsupported_reason` is kept
    in its table; a refusal is asked again and kept nowhere."""

    def test_a_refusal_is_asked_each_time_and_takes_no_table(self, fresh_tables):
        from repro.engine import probe_cache_stats

        inputs, max_faulty, params = PROTOCOL_SHAPES["ba_one_third"]
        plan = TrialPlan.monte_carlo(
            "two-face", "ba_one_third", inputs, max_faulty, trials=6,
            params=params, adversary="two_face",
            adversary_params={"victims": (3,)}, seed=5,
        )
        chunk = list(enumerate(plan.trials))
        refused = "no vector model registered for ('ba_one_third', 'two_face')"
        for _ in range(2):  # asked each time, and kept nowhere
            _, stats = execute_chunk(chunk)
            assert stats["fallback_reasons"] == {refused: 6}
        assert probe_cache_stats()["size"] == 0

    # (protocol, inputs, t, params, adversary, adversary params, twin's
    # changes, twin's reason): the twin's spec equals the admitted one's.
    TWINS = [
        ("ba_one_third", (0, 0, 1, 1), 1, {"kappa": 1}, None, None,
         {"params": {"kappa": True}}, "unsupported kappa True"),
        ("threshold_coin", (None,) * 4, 1, {"low": 0, "high": 1}, None, None,
         {"params": {"low": 0, "high": 1.0}},
         "invalid coin range (object path raises)"),
        ("ba_one_third", (0, 0, 1, 1), 1, {"kappa": 2}, None, None,
         {"inputs": (False, 0, 1, 1)}, "non-bit input False"),
        ("ba_one_third", (0, 0, 1, 1), 1, {"kappa": 2}, "straddle13",
         {"victims": (3,)}, {"adversary_params": {"victims": (3.0,)}},
         "victim 3.0 out of range"),
    ]

    @pytest.mark.parametrize("twin_first", [False, True], ids=["int", "twin"])
    @pytest.mark.parametrize(
        "twin", TWINS, ids=lambda twin: next(iter(twin[6].values())).__repr__()
    )
    def test_an_equal_key_of_other_types_is_asked_afresh(
        self, twin, twin_first, fresh_tables
    ):
        """``kappa=True`` equals ``kappa=1``, yet only the int is admitted:
        run in either order in one process, each keeps its own verdict —
        the twin falls back with its reason, or raises as ``run_trial``
        does, and ``run_vector_batch`` refuses it — and the admitted
        configuration alone holds a table."""
        from repro.engine import probe_cache_stats, run_trial
        from repro.engine.runner import TrialExecutionError

        protocol, inputs, max_faulty, params, adversary, adversary_params = twin[:6]
        changes, reason = twin[6:]
        fields = dict(
            inputs=inputs, params=params, adversary_params=adversary_params
        )
        plans = {
            name: TrialPlan.monte_carlo(
                name, protocol, max_faulty=max_faulty, trials=4,
                adversary=adversary, seed=3, **{**fields, **extra},
            )
            for name, extra in (("int", {}), ("twin", changes))
        }
        int_spec, twin_spec = plans["int"].trials[0], plans["twin"].trials[0]
        assert _identity_erased(int_spec) == _identity_erased(twin_spec)
        assert int_spec.batch_key != twin_spec.batch_key
        for name in ("twin", "int") if twin_first else ("int", "twin"):
            specs = plans[name].trials
            chunk = list(enumerate(specs))
            if name == "int":
                _, stats = execute_chunk(chunk)
                assert (stats["batched"], stats["fallback"]) == (4, 0)
                continue
            with pytest.raises(VectorModelError, match=re.escape(reason)):
                run_vector_batch(specs)
            try:
                expected = [repr(run_trial(spec)) for spec in specs]
            except Exception as exc:
                with pytest.raises(TrialExecutionError, match=type(exc).__name__):
                    execute_chunk(chunk)
                continue
            pairs, stats = execute_chunk(chunk)
            assert stats["fallback_reasons"] == {reason: 4}
            assert [repr(result) for _, result in pairs] == expected
        assert probe_cache_stats()["size"] == 1

    @pytest.mark.parametrize("twin_first", [False, True], ids=["int", "twin"])
    @pytest.mark.parametrize(
        "twin", TWINS, ids=lambda twin: next(iter(twin[6].values())).__repr__()
    )
    def test_twins_in_one_chunk_are_grouped_apart(
        self, twin, twin_first, fresh_tables
    ):
        """One chunk, and one ``run_vector_batch`` call, holding both
        twins: grouping is as type-exact as the tables, so the twin never
        runs under the int's admission or stamps the int's inputs — it
        falls back with its own reason and its own inputs, or raises as
        ``run_trial`` does."""
        from repro.engine import run_trial
        from repro.engine.runner import TrialExecutionError

        protocol, inputs, max_faulty, params, adversary, adversary_params = twin[:6]
        changes, reason = twin[6:]
        fields = dict(
            inputs=inputs, params=params, adversary_params=adversary_params
        )
        plans = {
            name: TrialPlan.monte_carlo(
                name, protocol, max_faulty=max_faulty, trials=2,
                adversary=adversary, seed=3, **{**fields, **extra},
            )
            for name, extra in (("int", {}), ("twin", changes))
        }
        order = ("twin", "int") if twin_first else ("int", "twin")
        specs = [spec for name in order for spec in plans[name].trials]
        with pytest.raises(VectorModelError, match="batch mixes configurations"):
            run_vector_batch(specs)
        chunk = list(enumerate(specs))
        try:
            expected = [repr(run_trial(spec)) for spec in specs]
        except Exception as exc:
            with pytest.raises(TrialExecutionError, match=type(exc).__name__):
                execute_chunk(chunk)
            return
        pairs, stats = execute_chunk(chunk)
        assert (stats["batched"], stats["fallback"]) == (2, 2)
        assert stats["fallback_reasons"] == {reason: 2}
        assert [repr(result) for _, result in pairs] == expected
        at = order.index("twin") * 2
        for spec, (_, result) in zip(specs[at:at + 2], pairs[at:at + 2]):
            assert [type(value) for value in result.inputs.values()] == [
                type(value) for value in spec.inputs
            ]

    def test_a_key_that_cannot_be_hashed_caches_nothing(self, fresh_tables):
        from repro.engine import probe_cache_stats

        odd = TrialSpec("turpin_coan_classic", ([1], [1], [1], [1]), 1, {"kappa": 2})
        for _ in range(2):
            _, stats = execute_chunk([(0, odd)])
            assert stats["fallback_reasons"] == {"unhashable inputs": 1}
            with pytest.raises(VectorModelError, match="unhashable inputs"):
                run_vector_batch([odd])
        assert probe_cache_stats()["size"] == 0


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
        """A configuration's verdict is asked once per process: on its
        first chunk, once per configuration; on a warm chunk, never."""
        from repro.engine import vectorized

        asked = []
        reason = vectorized.unsupported_reason
        monkeypatch.setattr(
            vectorized, "unsupported_reason",
            lambda spec: (asked.append(spec), reason(spec))[1],
        )
        clear_probe_cache()
        execute_chunk(list(enumerate(self._plan(seed=1).trials)))  # warm probes
        assert sorted(spec.protocol for spec in asked) == sorted(
            config[0] for config in self.CONFIGS
        )
        plan = self._plan(seed=2)
        chunk = list(enumerate(plan.trials))
        assert len(chunk) >= 200
        # Interleave the configs: grouping, not plan order, makes batches.
        random.Random(0).shuffle(chunk)

        built = []
        asked.clear()
        post_init = TrialSpec.__post_init__
        monkeypatch.setattr(
            TrialSpec, "__post_init__",
            lambda spec: (built.append(spec), post_init(spec))[1],
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
        assert built == asked == []
        assert [len(memo) for memo in memos] == sizes
        assert [index for index, _ in pairs] == [index for index, _ in chunk]
        monkeypatch.undo()
        reference = ParallelRunner(workers=1).run(plan).results
        for index, got in pairs:
            assert canon(got) == canon(reference[index])

    def test_a_trial_costs_its_coin_bytes(self, monkeypatch, fresh_tables):
        """Primitive calls per trial, tables warm: one MAC and one
        SHA-256 per coin *read*, one of each per VRF evaluation plus one
        extraction per distinct (winner, range).  The coin evaluators
        capture both primitives when a configuration's table is built,
        so the counters go in before the warm-up builds it: every MAC
        ``_keyed_mac`` returns from then on counts its calls.  A MAC
        copies its pad states rather than calling ``hashlib.sha256``, so
        the SHA-256 count is extractions only."""
        configs = self.CONFIGS + (
            # Pre-agreed: every party on the extremal slot, no coin read.
            ("ba_one_half", (1, 1, 1, 1, 1), 2, {"kappa": 4}, None, None),
            ("fm_probabilistic", (1, 0, 1, 0), 1, None, None, None),
        )
        trials = 70
        plans = {
            seed: [
                TrialPlan.monte_carlo(
                    f"hot-{at}", protocol, inputs, max_faulty, trials=trials,
                    params=params, adversary=adversary,
                    adversary_params=adversary_params, seed=seed,
                )
                for at, (protocol, inputs, max_faulty, params, adversary,
                         adversary_params) in enumerate(configs)
            ]
            for seed in (3, 4)
        }
        calls = Counter()

        def counting(name, real):
            return lambda *args: (calls.update([name]), real(*args))[1]

        keyed_mac = ideal._keyed_mac
        monkeypatch.setattr(
            ideal, "_keyed_mac",
            lambda *args: counting("mac", keyed_mac(*args)),
        )
        monkeypatch.setattr(hashlib, "sha256", counting("sha256", hashlib.sha256))
        clear_probe_cache()
        for plan in plans[3]:  # build the tables, counted primitives inside
            execute_chunk(list(enumerate(plan.trials)))
        counted = []
        for plan in plans[4]:
            calls.clear()
            _, stats = execute_chunk(list(enumerate(plan.trials)))
            assert (stats["batched"], stats["cache_misses"]) == (trials, 0)
            counted.append((calls["mac"], calls["sha256"], stats["coins"]))
        third, half, threshold, vrf, agreed, fm = counted
        # The straddle leaves the honest parties on two inner slots.
        assert third == (trials, trials, trials)
        # ⌈κ/2⌉ coins per ba_one_half trial: one at κ = 2.
        assert half == (trials, trials, trials)
        assert threshold == (trials, trials, trials)
        assert agreed == (0, 0, 0)
        # One coin per trial settles these inputs; the object path flips
        # one per iteration, three iterations at least.
        assert fm[0] == fm[1] == fm[2] and trials <= fm[0] < 3 * trials
        n, victims = 4, 1
        vrf_macs, vrf_hashes, vrf_coins = vrf
        assert (vrf_macs, vrf_coins) == (n * trials, 0)  # evaluations are no coins
        # n evaluations, then the honest winner's coin and at most one
        # per victim that undercuts it.
        assert (n + 1) * trials <= vrf_hashes <= (n + 2 + victims) * trials

    def _counted(self, monkeypatch, calls, owner, name, wrap=lambda f: f):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name,
            wrap(lambda *args, **kw: (calls.update([name]), real(*args, **kw))[1]),
        )

    def test_metrics_cost_their_classes_not_their_trials(self, monkeypatch):
        """2 000 trials of one config: registries are composed, folded,
        encoded and decoded once per outcome class — and a class seen in
        one run is not composed again in the next: its leaf keeps it for
        the process."""
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
        assert MetricsRegistry.merged(rebuilt.values()) == MetricsRegistry.merged(
            cold.trial_metrics
        )
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

    def test_a_coin_no_party_holds_is_one_class(self, fresh_tables):
        """Withheld below its threshold, the coin reaches no party: the
        trials of every coin value are one outcome class, composed once."""
        plan = TrialPlan.monte_carlo(
            "unheld", "threshold_coin", (None,) * 4, 2, trials=20,
            params={"low": 0, "high": 7}, adversary="withhold_coin",
            adversary_params={"victims": (2, 3)}, seed=3,
        )
        run = ParallelRunner(workers=1, backend="vector", metrics=True).run(plan)
        assert len({id(registry) for registry in run.trial_metrics}) == 1
        assert assert_equivalent(plan)[0].outputs == dict.fromkeys(range(4))

    def test_config_lru_is_bounded_and_evicts_to_a_miss(self, monkeypatch):
        """The one cache holds whole configurations: past its bound the
        least recently used one goes — probes, rows and registries at
        once — and comes back by re-running its probes, to equal bytes."""
        from repro.engine import probe_cache_stats, vectorized

        bound = 3
        monkeypatch.setattr(vectorized, "_TABLE_LIMIT", bound)
        clear_probe_cache()
        packs, misses = [], []
        for seed in (1, 2):  # the second sweep rebuilds what the first evicted
            plan = self._plan(seed=seed, trials=40)
            for at in range(len(self.CONFIGS)):
                chunk = list(enumerate(plan.trials))[at * 40:(at + 1) * 40]
                sink = {}
                before = probe_cache_stats()["misses"]
                execute_chunk(chunk, metrics=sink)
                misses.append(probe_cache_stats()["misses"] - before)
                assert len(vectorized._TABLES) == probe_cache_stats()["size"]
                assert probe_cache_stats()["size"] <= bound
                packs.append({registry.pack() for registry in sink.values()})
                for index, spec in chunk[:3]:
                    assert sink[index] == run_measured_trial(spec)[1]
        # Four configurations through three places: every batch is cold.
        assert all(misses) and misses[:4] == misses[4:]
        # Fresh seeds, same outcome classes, rebuilt to the same bytes.
        assert all(packs[at] & packs[at + 4] for at in range(4))
        assert probe_cache_stats()["size"] == bound
        clear_probe_cache()
        assert probe_cache_stats()["size"] == len(vectorized._TABLES) == 0


def _party_states(slots):
    """Every (value, grade, coin_ok) a party of an ``s``-slot row can hold."""
    return [
        (value, grade, ok)
        for value in (0, 1)
        for grade in range((slots - 1) // 2 + 1)
        for ok in (True, False)
    ]


class TestCutRow:
    """Soundness of the skip: a row's outcomes are ``extract``, coin by coin."""

    @staticmethod
    def check(parties, slots):
        values, grades, coin_ok = zip(*parties)
        cuts, outcomes = _cut_row(values, grades, coin_ok, slots)
        assert len(outcomes) == len(cuts) + 1
        by_coin = [
            tuple(
                extract(value, grade, coin if ok else 1, slots)
                for value, grade, ok in parties
            )
            for coin in range(1, slots)
        ]
        # Outcome-keyed lookup == extract for every coin of the range.
        assert by_coin == [
            outcomes[bisect_left(cuts, coin)] for coin in range(1, slots)
        ]
        if cuts:  # the row reads its coin: the coin can change the state
            assert len(set(by_coin)) == len(outcomes) >= 2
        else:  # the row reads no coin: every coin leads to one state
            assert len(set(by_coin)) == 1

    @pytest.mark.parametrize("slots", [3, 5, 9, 17])
    def test_exhaustive_for_up_to_two_parties(self, slots):
        for n in (1, 2):
            for parties in itertools.product(_party_states(slots), repeat=n):
                self.check(parties, slots)

    @given(data=st.data(), slots=st.sampled_from([3, 5, 9, 17]))
    @settings(max_examples=400, deadline=None)
    def test_random_rows_of_up_to_five_parties(self, data, slots):
        one = st.sampled_from(_party_states(slots))
        self.check(data.draw(st.lists(one, min_size=1, max_size=5)), slots)

    def test_a_returned_party_extracts_nothing_and_makes_no_cut(self):
        cuts, outcomes = _cut_row((None, 1), (None, 0), (False, True), 5)
        assert (cuts, outcomes) == ([2], [(None, 1), (None, 0)])
        assert _cut_row((None, 1), (None, 2), (False, True), 5) == ([], [(None, 1)])


def _walk_plan(trials=24, **overrides):
    shape = dict(
        name="walk", protocol="ba_one_half", inputs=(0, 0, 1, 1, 1),
        max_faulty=2, trials=trials, params={"kappa": 4},
        adversary="straddle12", adversary_params={"victims": (3, 4)}, seed=77,
    )
    shape.update(overrides)
    return TrialPlan.monte_carlo(**shape)


class TestWalk:
    @pytest.mark.parametrize("plan", [
        _walk_plan(trials=24, params={"kappa": 6}),
        _walk_plan(
            trials=24, protocol="fm_probabilistic", inputs=(0, 1, 0, 1), max_faulty=1,
            params={}, adversary=None, adversary_params={},
        ),
    ], ids=["ba_one_half", "fm_probabilistic"])
    @given(order=st.permutations(range(24)))
    @settings(max_examples=20, deadline=None)
    def test_the_walk_does_not_depend_on_trial_order(self, plan, order):
        """The trials at a node move on together: any order of the same
        specs ends each on the same leaf with the same result, and the
        batch reads as many coins."""
        specs = plan.trials
        model = _model_for(specs[0])
        results, leaves, _, coins = model.run_batch(specs)
        got, got_leaves, _, got_coins = model.run_batch([specs[at] for at in order])
        assert got_coins == coins
        for at, result, leaf in zip(order, got, got_leaves):
            assert leaf is leaves[at] and canon(result) == canon(results[at])

    def _driver(self, corrupted_after):
        """A two-iteration model from two hand-built probes: the root
        splits on its coin, and the branch where the coin is 1 walks on
        to a second probe that reports ``corrupted_after``.  Its table
        sits under the real ``ba_one_half`` configuration's key, so
        callers take ``fresh_tables``."""
        from repro.core.iteration import Iteration
        from repro.engine.vectorized import _Delivery

        plan = _walk_plan(trials=40)
        # Four slots: the coin "walk" in [1, 3], read where a row cuts.
        iteration = Iteration(4, None, 0, "walk", False)

        def delivery():
            return _Delivery(
                RunMetrics(1, ((1, 5, 0, 0, 0),)), MetricsRegistry()
            )

        first = _IterationProbe(
            (0, 1), (0, 0), (True, True), (None, None), delivery(), frozenset({4}),
        )
        second = _IterationProbe(
            (1, 1), (1, 1), (True, True), (None, None), delivery(), corrupted_after,
        )
        rows = {
            "root": _extraction_row(
                first, iteration,
                lambda bits: ("next", ()) if bits == (1, 1) else (
                    None, tuple(enumerate(bits))
                ),
            ),
            "next": _extraction_row(
                second, iteration, lambda bits: (None, tuple(enumerate(bits)))
            ),
        }

        model = _Model(
            adversaries={None: frozenset()},
            root=lambda first: "root",
            row=lambda first, state: rows[state],
        )
        return model.run_batch(plan.trials)

    def test_a_trial_carries_the_corruptions_of_its_own_path(self, fresh_tables):
        results, leaves, _, coins = self._driver(frozenset({3, 4}))
        by_depth = {len(leaf.path): result for result, leaf in zip(results, leaves)}
        assert sorted(by_depth) == [1, 2]
        assert by_depth[1].corrupted == {4}
        assert by_depth[2].corrupted == {3, 4}
        assert (by_depth[1].metrics.rounds, by_depth[2].metrics.rounds) == (1, 2)
        assert by_depth[2].finish_rounds == {0: 2, 1: 2}
        # The second row sits on the extremal slot: nobody reads its coin.
        assert coins == len(results)

    def test_a_probe_that_heals_a_corruption_is_a_model_error(self, fresh_tables):
        with pytest.raises(VectorModelError, match=r"healed corruptions \[4\]"):
            self._driver(frozenset({3}))

    def test_mutating_one_result_never_shows_in_another(self):
        plan = _walk_plan()
        reference = [canon(r) for r in ParallelRunner(workers=1).run(plan).results]
        for victim in range(len(plan)):
            results = run_vector_batch(plan.trials)
            result = results[victim]
            result.outputs[0] = "mutated"
            result.outputs[99] = "added"
            result.finish_rounds[0] = -1
            result.corrupted.add(99)
            result.inputs[0] = "mutated"
            with pytest.raises(AttributeError):  # one leaf's stamps share it
                result.metrics.rounds = -1
            result.metrics = result.metrics._replace(rows=())
            others = [canon(r) for r in results]
            del others[victim]
            assert others == reference[:victim] + reference[victim + 1:]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_coins_are_a_function_of_the_plan(self, tmp_path, workers):
        plan = TrialPlan.concat(
            "coins",
            [
                _walk_plan(),  # one coin, a second in a quarter of the trials
                _walk_plan(name="agreed", inputs=(1,) * 5, adversary=None,
                           adversary_params=None),  # none
                _walk_plan(name="third", protocol="ba_one_third",
                           inputs=(0, 0, 1, 1), max_faulty=1,
                           adversary="straddle13",
                           adversary_params={"victims": (3,)}),  # one
            ],
        )
        path = str(tmp_path / "telemetry.jsonl")
        with TelemetryWriter(path) as telemetry:
            ParallelRunner(
                workers=workers, backend="vector", telemetry=telemetry
            ).run(plan)
        summary = summarize_telemetry(path)
        assert summary["vector_batched"] == len(plan) == 72
        assert summary["vector_fallback"] == 0
        assert summary["coins"] == 54  # 24 + 6 second coins, 0, 24

    def test_coin_evaluators_are_built_only_where_read(
        self, monkeypatch, fresh_tables
    ):
        """A table builds the evaluator of a coin its rows name on the
        first read and keeps it: none where the parties agree, at most
        one per iteration under attack, none for a warm batch."""
        from repro.engine import vectorized

        built = []
        evaluator = vectorized.coin_evaluator

        def counted(scheme, index, low, high):
            built.append(index)
            return evaluator(scheme, index, low, high)

        monkeypatch.setattr(vectorized, "coin_evaluator", counted)
        run_vector_batch(_walk_plan(inputs=(1,) * 5, params={"kappa": 6}).trials)
        assert built == []
        attacked = _walk_plan(trials=40, params={"kappa": 6}).trials
        run_vector_batch(attacked)
        assert 1 <= len(built) <= 3
        assert built == [("ba12", index) for index in range(len(built))]
        # Kept by the coin index the row names, not by path depth.
        assert list(vectorized._TABLES[attacked[0].batch_key].coins) == built
        reads = list(built)
        run_vector_batch(_walk_plan(trials=40, params={"kappa": 6}, seed=78).trials)
        assert built == reads


def coins_read(plan):
    """Coins a fully batched run of ``plan`` evaluates (no fallback allowed)."""
    _, stats = execute_chunk(list(enumerate(plan.trials)))
    assert (stats["batched"], stats["fallback"]) == (len(plan), 0), stats
    return stats["coins"]


class TestWalkGrid:
    """The walk's corners: no coin read, many iterations, staggered
    halting, empty tallies, κ past a machine word."""

    @pytest.mark.parametrize("protocol,inputs,max_faulty,params", [
        ("ba_one_third", (1, 1, 1, 1), 1, {"kappa": 3}),
        ("ba_one_half", (0, 0, 0, 0, 0), 2, {"kappa": 6}),
        ("ba_one_half", (1, 0, 1, 0, 1), 2, {"kappa": 4}),  # clean: settles itself
        ("turpin_coan_classic", ("a", "a", "a", "a"), 1, {"kappa": 2}),
        ("multivalued_ba", ("a", "a", "a", "b"), 1, {"kappa": 2}),
    ])
    def test_pre_agreed_and_clean_configs_read_no_coin(
        self, protocol, inputs, max_faulty, params
    ):
        plan = TrialPlan.monte_carlo(
            "agreed", protocol, inputs, max_faulty, trials=8, params=params,
            seed=31,
        )
        assert coins_read(plan) == 0
        assert_equivalent(plan)

    @pytest.mark.parametrize("kappa", range(1, 9))
    @pytest.mark.parametrize("protocol", ["ba_one_third", "ba_one_half"])
    def test_every_kappa_of_both_regimes(self, protocol, kappa):
        inputs, max_faulty, _ = PROTOCOL_SHAPES[protocol]
        adversary, adversary_params = VECTOR_ADVERSARIES[protocol][-1]
        plan = TrialPlan.monte_carlo(
            f"k{kappa}", protocol, inputs, max_faulty, trials=24,
            params={"kappa": kappa}, adversary=adversary,
            adversary_params=adversary_params, seed=400 + kappa,
        )
        # At least the first iteration's coin, never more than one each.
        assert len(plan) <= coins_read(plan) <= len(plan) * -(-kappa // 2)
        assert_equivalent(plan)

    def test_fm_on_the_simulator_settles_in_two_or_three_iterations(self):
        # Without an adversary every party sees the same messages, so the
        # real probes only ever walk these two shapes; the tails and the
        # staggered halting are driven through synthetic probes below.
        plans = [
            TrialPlan.monte_carlo(
                f"fm-{seed}", "fm_probabilistic", inputs, 1, trials=40, seed=seed,
            )
            for seed, inputs in enumerate(
                [(1, 0, 1, 0), (0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)], start=50
            )
        ]
        results = assert_equivalent(TrialPlan.concat("fm", plans))
        finishes = Counter(
            tuple(result.finish_rounds.values()) for result in results
        )
        assert finishes == {(9,) * 4: 80, (6,) * 4: 80}

    @pytest.mark.parametrize("cap", [64, 4])
    def test_fm_walk_matches_the_per_trial_loop_on_asymmetric_probes(
        self, monkeypatch, cap, fresh_tables
    ):
        """Probes no honest run produces — parties graded apart, coins
        that fail to combine — against ``fm_probabilistic_program``'s
        branching applied trial by trial: staggered halting, tails of
        five iterations and more, and (with a low cap) the cap.  The
        synthetic tables live under the real configurations' keys, hence
        ``fresh_tables``."""
        from repro.core.probabilistic import ProbTermOutput
        from repro.crypto.coin import coin_evaluator
        from repro.engine import vectorized

        halted, n, trials = vectorized._FM_HALTED, 4, 2000
        monkeypatch.setattr(vectorized, "FM_MAX_ITERATIONS", cap)
        plans = [
            TrialPlan.monte_carlo(
                "fm-synthetic", "fm_probabilistic", inputs, 1,
                trials=trials // 4, seed=seed,
            )
            for seed, inputs in enumerate(
                [(1, 0, 1, 0), (0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 0, 1)]
            )
        ]
        probes = {}

        def probe(_spec, token, tokens, _factory, rounds, returned):
            assert token == ("fm-state", tokens) and rounds == 3
            assert list(returned) == [
                pid for pid, held in enumerate(tokens) if held == halted
            ]
            if tokens not in probes:
                rng = random.Random(repr(tokens))
                running = [held != halted for held in tokens]
                probes[tokens] = _IterationProbe(
                    tuple(held if on else None for held, on in zip(tokens, running)),
                    tuple(rng.choice((0, 0, 1, 2)) if on else None for on in running),
                    tuple(on and rng.random() < 0.8 for on in running),
                    (None,) * n,
                    vectorized._Delivery(
                        RunMetrics(
                            3, ((1, 4, 0, 0, 0), (2, 4, 0, 4, 0), (3, 4, 0, 4, 0))
                        ),
                        MetricsRegistry(),
                    ),
                    frozenset(),
                )
            return probes[tokens]

        monkeypatch.setattr(vectorized, "_run_probe", probe)
        suite = _suite_for(plans[0].trials[0])
        coins = {}

        def reference(spec):
            """The loop the walk replaced, one trial at a time."""
            bits, decided, outputs, finish = list(spec.inputs), {}, {}, {}
            for iteration in range(1, cap + 1):
                if len(outputs) == n:
                    break
                tokens = tuple(
                    halted if pid in outputs else bits[pid] for pid in range(n)
                )
                shape = probe(
                    spec, ("fm-state", tokens), tokens, None, 3,
                    [pid for pid in range(n) if pid in outputs],
                )
                if iteration not in coins:
                    coins[iteration] = coin_evaluator(
                        suite.coin, ("pt", iteration), 1, 4
                    )
                coin = coins[iteration](f"{spec.session}/pt{iteration}")
                for pid in range(n):
                    if pid in outputs:
                        continue
                    value, grade = shape.values[pid], shape.grades[pid]
                    if pid in decided and decided[pid][1] < iteration:
                        outputs[pid], finish[pid] = decided[pid], 3 * iteration
                    elif grade == 2:
                        decided[pid], bits[pid] = (value, iteration), value
                    elif grade >= 1:
                        bits[pid] = value
                    else:
                        bits[pid] = extract(0, 0, coin if shape.coin_ok[pid] else 1, 5)
                if iteration == cap:
                    for pid in range(n):
                        if pid not in outputs:
                            outputs[pid], finish[pid] = (bits[pid], cap), 3 * cap
            order = sorted(range(n), key=lambda pid: (finish[pid], pid))
            return (
                [(pid, *outputs[pid]) for pid in order],
                [(pid, finish[pid]) for pid in order],
            )

        model = _MODELS["fm_probabilistic"]
        batches = [model.run_batch(plan.trials) for plan in plans]
        specs = [spec for plan in plans for spec in plan.trials]
        results = [result for batch in batches for result in batch[0]]
        paths = [leaf.path for batch in batches for leaf in batch[1]]
        read = sum(batch[3] for batch in batches)
        flipped = 0
        for spec, result, path in zip(specs, results, paths):
            expected_outputs, expected_finish = reference(spec)
            assert [
                (pid, out.value, out.decided_iteration)
                for pid, out in result.outputs.items()
            ] == expected_outputs
            assert all(
                isinstance(out, ProbTermOutput) for out in result.outputs.values()
            )
            assert list(result.finish_rounds.items()) == expected_finish
            assert result.metrics.rounds == max(result.finish_rounds.values())
            assert [at for _, at in path] == list(range(0, result.metrics.rounds, 3))
            flipped += len(path)
        finishes = [set(result.finish_rounds.values()) for result in results]
        assert sum(len(rounds) > 1 for rounds in finishes) > trials // 10
        if cap == 64:
            assert max(max(rounds) for rounds in finishes) >= 3 * 5
        else:
            assert sum(max(rounds) == 3 * cap for rounds in finishes) > 10
        # Fewer coins than the iterations walked: the skip is real here too.
        assert 0 < read < flipped

    @pytest.mark.parametrize("protocol", ["turpin_coan_classic", "multivalued_ba"])
    @pytest.mark.parametrize("inputs", [
        ("a", "b", "a", "a"),
        ("a", "b", "c", "d"),  # no echo reaches n − t: every tally is empty
        ("a", "a", "b", "b"),
    ])
    def test_lifts_with_and_without_an_empty_tally(self, protocol, inputs):
        for params in ({"kappa": 2}, {"kappa": 3, "default": "fallback"}):
            plan = TrialPlan.monte_carlo(
                "lift", protocol, inputs, 1, trials=8, params=params, seed=61,
            )
            coins_read(plan)
            assert_equivalent(plan)

    def test_serial_and_pooled_pack_the_same_bytes(self):
        plan = TrialPlan.concat(
            "pack",
            [
                _walk_plan(trials=30, params={"kappa": 6}),
                TrialPlan.monte_carlo(
                    "pack-fm", "fm_probabilistic", (1, 0, 1, 0), 1, trials=30,
                    seed=5,
                ),
            ],
        )
        runs = [
            ParallelRunner(workers=workers, backend=backend, metrics=True).run(plan)
            for workers, backend in ((1, "vector"), (2, "vector"), (1, "object"))
        ]
        assert packed(runs[0]).blob == packed(runs[1]).blob == packed(runs[2]).blob
        assert packed(runs[0]) == packed(runs[1]) == packed(runs[2])

    @pytest.mark.parametrize("kappa", [63, 64, 70])
    @pytest.mark.parametrize("protocol,inputs,adversary,adversary_params", [
        ("ba_one_third", (0, 0, 1, 1), "straddle13", {"victims": (3,)}),
        ("multivalued_ba", ("a", "b", "a", "a"), None, None),
        ("turpin_coan_classic", ("a", "b", "a", "a"), None, None),
    ])
    def test_kappa_past_a_machine_word(
        self, protocol, inputs, adversary, adversary_params, kappa
    ):
        plan = TrialPlan.monte_carlo(
            "wide", protocol, inputs, 1, trials=4, params={"kappa": kappa},
            adversary=adversary, adversary_params=adversary_params, seed=kappa,
        )
        coins_read(plan)
        assert_equivalent(plan)


_STDLIB_ONLY = """
import sys
import repro.engine
from perfbench.configs import SWEEP21, config_plan
from repro.engine import ParallelRunner, TrialPlan
plan = TrialPlan.concat(
    "sweep21", [config_plan(config, 4, at) for at, config in enumerate(SWEEP21)]
)
ParallelRunner().run(plan)
loaded = [name for name in (
    "repro.engine.vectorized", "repro.engine.transport", "repro.obs.metrics",
    "repro.obs.report", "repro.obs.replay", "repro.analysis.tables",
    "repro.analysis.theory", "repro.crypto.threshold_rsa", "multiprocessing",
    "concurrent.futures.process",
) if name in sys.modules]
assert loaded == [], f"an inline object sweep imported {loaded}"
ParallelRunner(workers=2, backend="vector").run(plan)
assert "repro.engine.vectorized" in sys.modules, "each pool compiles the backend"
import importlib, pkgutil, repro  # now load every library module, as eager exports did
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        importlib.import_module(module.name)
assert "numpy" not in sys.modules, "importing the library imported numpy"
sys.modules["numpy"] = None  # from here on, importing it raises ImportError
from repro.engine.vectorized import execute_chunk
_, stats = execute_chunk(list(enumerate(plan.trials)))
assert (stats["batched"], stats["fallback"]) == (4 * 21, 0), stats
assert len(stats["batches"]) == 21, stats
"""


class TestStdlibOnly:
    def test_library_never_imports_numpy_and_batches_without_it(self):
        """The fast backend is stdlib only: a numpy-free install gets it,
        not a silent fallback, and no process pays numpy's import.  A
        process also loads only what its run executes: an inline object
        sweep imports no vector backend, transport, pool, metrics, report
        or threshold RSA, and a pooled vector run loads the backend in
        the parent, before its workers fork."""
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), root]),
        )
        finished = subprocess.run(
            [sys.executable, "-c", _STDLIB_ONLY], env=env, cwd=root,
            capture_output=True, text=True, timeout=120,
        )
        assert finished.returncode == 0, finished.stderr


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

        ``TrialSpec.batch_key`` strips seed/session/config, so a second Monte-Carlo
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


def table_leaves(table):
    """Every leaf a configuration's table holds: under its walk's first
    node, or — for the replay and coin models — among its probes."""
    leaves = [probe for probe in table.probes.values() if isinstance(probe, _Leaf)]
    stack = [table.top] if table.top is not None else []
    while stack:
        for child in stack.pop().children:
            if isinstance(child, _Leaf):
                leaves.append(child)
            elif child is not None:
                stack.append(child)
    return leaves


class TestWarmTables:
    """A configuration's table is kept across batches, and nothing about
    a trial may depend on whether it was: one batch, one batch per trial,
    pooled chunks and an inline run read bit-identical results,
    registries and coin counts, with the table warm or cold."""

    #: One configuration of each of the eight model classes.
    CONFIGS = (
        ("ba_one_third", (0, 0, 1, 1), 1, {"kappa": 3},
         "straddle13", {"victims": (3,)}),
        ("ba_one_half", (0, 0, 1, 1, 1), 2, {"kappa": 6},
         "straddle12", {"victims": (3, 4)}),
        ("fm_probabilistic", (1, 0, 1, 0), 1, None, None, None),
        ("turpin_coan_classic", ("a", "b", "a", "a"), 1, {"kappa": 2}, None, None),
        ("multivalued_ba", ("a", "b", "a", "a"), 1, {"kappa": 2}, None, None),
        ("threshold_coin", (None,) * 4, 1, {"low": 1, "high": 8},
         "withhold_coin", {"victims": (3,)}),
        ("vrf_coin", (None,) * 4, 1, {"index": 1}, "withhold_coin",
         {"victims": (3,), "index": 1, "preferred": 1}),
        ("prox_one_third", (0, 0, 1, 1), 1, {"rounds": 3},
         "straddle13", {"victims": (3,)}),
    )
    TRIALS = 12

    def _plan(self):
        return TrialPlan.concat(
            "warm",
            [
                TrialPlan.monte_carlo(
                    f"warm-{protocol}", protocol, inputs, max_faulty,
                    trials=self.TRIALS, params=params, adversary=adversary,
                    adversary_params=adversary_params, seed=71,
                )
                for protocol, inputs, max_faulty, params, adversary,
                adversary_params in self.CONFIGS
            ],
        )

    @staticmethod
    def _run(chunks):
        """Results, registry bytes and coins of ``execute_chunk`` over
        ``chunks``, in plan order."""
        pairs, sink, coins = {}, {}, 0
        for chunk in chunks:
            got, stats = execute_chunk(chunk, metrics=sink)
            assert stats["fallback"] == 0, stats
            pairs.update(got)
            coins += stats["coins"]
        return (
            [canon(pairs[index]) for index in sorted(pairs)],
            [sink[index].pack() for index in sorted(sink)],
            coins,
        )

    @staticmethod
    def _observed(runner_run, tmp_path, name):
        """A runner's run, with its results and telemetry coins."""
        path = str(tmp_path / f"{name}.jsonl")
        with TelemetryWriter(path) as telemetry:
            run = runner_run(telemetry)
        summary = summarize_telemetry(path)
        assert summary["vector_fallback"] == 0
        return run, ([canon(result) for result in run.results], summary["coins"])

    def test_one_batch_batches_of_one_pooled_and_inline_agree(
        self, tmp_path, fresh_tables
    ):
        from repro.engine import probe_cache_stats

        plan = self._plan()
        indexed = list(enumerate(plan.trials))
        assert len({_MODELS[c[0]] for c in self.CONFIGS}) == 8
        cold = self._run([indexed])
        assert cold[2] > 0
        assert self._run([[member] for member in indexed]) == cold
        # Three workers: eight-trial chunks, which straddle configurations.
        pooled_run, pooled = self._observed(
            lambda telemetry: ParallelRunner(
                workers=3, backend="vector", metrics=True, telemetry=telemetry
            ).run(plan),
            tmp_path, "pooled",
        )
        assert pooled == (cold[0], cold[2])
        assert [registry.pack() for registry in pooled_run.trial_metrics] == cold[1]
        _inline_run, inline = self._observed(
            lambda telemetry: ParallelRunner(
                workers=1, backend="vector", telemetry=telemetry
            ).run(plan),
            tmp_path, "inline",
        )
        assert inline == (cold[0], cold[2])
        # The object simulator is the reference, not another vector run.
        reference = [run_measured_trial(spec) for spec in plan.trials]
        assert cold[0] == [canon(result) for result, _ in reference]
        assert cold[1] == [registry.pack() for _, registry in reference]

        assert probe_cache_stats()["size"] == len(self.CONFIGS)
        clear_probe_cache()
        assert probe_cache_stats()["size"] == 0
        assert self._run([indexed]) == cold

    def test_rows_and_classes_are_built_once_per_process(
        self, monkeypatch, fresh_tables
    ):
        """``row`` once per distinct state and ``from_deliveries`` once per
        outcome class, however many batches — every class is the one its
        leaf keeps, and a second, third and fourth pass build nothing."""
        from repro.engine import vectorized

        rows, composed = Counter(), []
        for protocol, *_, adversary, _ in self.CONFIGS:
            model = _MODELS[protocol]
            if model.row is not None:
                swap_vector_model(
                    monkeypatch, protocol, adversary,
                    row=lambda first, state, _row=model.row, _model=model: (
                        rows.update([(_model, state)]), _row(first, state)
                    )[1],
                )
        compose = MetricsRegistry.from_deliveries
        monkeypatch.setattr(MetricsRegistry, "from_deliveries", staticmethod(
            lambda parts: (composed.append(1), compose(parts))[1]
        ))
        plan = self._plan()
        indexed = list(enumerate(plan.trials))
        first = self._run([indexed])
        built = (dict(rows), len(composed))
        assert set(built[0].values()) == {1}
        tables = list(vectorized._TABLES.values())
        assert sum(len(table.rows) for table in tables) == len(rows)
        assert len(composed) == sum(
            len(leaf.classes) for table in tables for leaf in table_leaves(table)
        )
        assert self._run([[member] for member in indexed]) == first
        ParallelRunner(workers=1, backend="vector").run(plan)
        assert self._run([indexed[::2], indexed[1::2]]) == first
        assert (dict(rows), len(composed)) == built


FIELDS = ("outputs", "corrupted", "metrics", "inputs", "finish_rounds")


def _config_plan(config, trials):
    protocol, inputs, max_faulty, params, adversary, adversary_params = config
    return TrialPlan.monte_carlo(
        f"stamp-{protocol}", protocol, inputs, max_faulty, trials=trials,
        params=params, adversary=adversary, adversary_params=adversary_params,
        seed=29,
    )


class TestStampedResults:
    """A vector result is a stamp of its outcome class's template, and
    nothing may tell it from the result the constructor would build:
    each field is private to its result, ``honest_agree`` follows every
    change, and ``==`` / ``repr`` / pickling / ``copy`` / ``dataclasses``
    match the object path — one config of each of the eight model
    classes, the two valued coin models among them."""

    TRIALS = 16

    @pytest.fixture(
        scope="class", params=TestWarmTables.CONFIGS, ids=lambda config: config[0]
    )
    def batch(self, request):
        """``(config, specs, references)``: one config's batch and the
        object simulator's results for it, trial for trial.
        ``run_vector_batch(specs)`` stamps a fresh batch each call."""
        from repro.engine import run_trial

        specs = _config_plan(request.param, self.TRIALS).trials
        return request.param, specs, [run_trial(spec) for spec in specs]

    @staticmethod
    def _change(result, field, assign):
        """Change ``field`` of ``result``: mutate what a read returns, or
        assign a new value without reading the old one."""
        if assign:
            value = RunMetrics(rounds=-1) if field == "metrics" else {-1: "assigned"}
            setattr(result, field, set(value) if field == "corrupted" else value)
        elif field == "metrics":
            with pytest.raises(AttributeError):  # one leaf's stamps share it
                result.metrics.rounds = -1
            result.metrics = result.metrics._replace(rounds=-1)
        elif field == "corrupted":
            result.corrupted.add(99)
        else:
            getattr(result, field)[99] = "added"

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("assign", [False, True], ids=["read-mutate", "assign"])
    def test_a_change_to_one_stamp_never_shows_in_another(self, batch, field, assign):
        _, specs, references = batch
        reference = [canon(result) for result in references]
        for victim in (0, len(specs) - 1):
            results = run_vector_batch(specs)
            assert all("_template" in vars(result) for result in results)
            self._change(results[victim], field, assign)
            assert canon(results[victim]) != reference[victim]
            del results[victim]
            assert [canon(r) for r in results] == reference[:victim] + reference[
                victim + 1:
            ]
            # Nor in the template: a fresh batch of the same classes.
            assert [canon(r) for r in run_vector_batch(specs)] == reference

    def test_honest_agree_follows_a_flipped_output_and_new_corruptions(self, batch):
        _, specs, references = batch
        for index, reference in enumerate(references):
            assert run_vector_batch(specs)[index].honest_agree() is (
                reference.honest_agree()
            )
            honest = [pid for pid in reference.honest_parties if pid in reference.outputs]
            if len(honest) >= 2:
                flipped = run_vector_batch(specs)[index]
                flipped.outputs[honest[0]] = object()  # equal to nothing
                assert flipped.honest_agree() is False
                flipped.corrupted = flipped.corrupted | {honest[0]}
                expected = dataclasses.replace(
                    reference, corrupted=reference.corrupted | {honest[0]}
                )
                assert flipped.honest_agree() is expected.honest_agree()
            # Assigned, never read: the stamp must not answer from its template.
            for corrupted in (set(), set(reference.inputs) - {0}):
                assigned = run_vector_batch(specs)[index]
                assigned.corrupted = corrupted
                expected = dataclasses.replace(reference, corrupted=corrupted)
                assert assigned.honest_agree() is expected.honest_agree()

    def test_eq_repr_pickle_copy_and_dataclasses_match_the_object_path(self, batch):
        import copy
        import inspect
        import pickle

        _, specs, references = batch
        assert [field.name for field in dataclasses.fields(ExecutionResult)] == list(
            FIELDS
        )
        assert list(inspect.signature(ExecutionResult).parameters) == list(FIELDS)
        views = (
            lambda result: result,
            repr,
            dataclasses.asdict,
            lambda result: dataclasses.replace(result),
            lambda result: pickle.loads(pickle.dumps(result)),
            copy.copy,
            copy.deepcopy,
        )
        for index, reference in enumerate(references):
            for view in views:
                stamp = run_vector_batch(specs)[index]
                assert dataclasses.is_dataclass(stamp)
                assert view(stamp) == view(reference)
            stamp = run_vector_batch(specs)[index]
            assert list(stamp.__getstate__()) == list(FIELDS)
            assert b"_template" not in pickle.dumps(stamp)
            for twin in (copy.copy(stamp), pickle.loads(pickle.dumps(stamp))):
                assert "_template" not in vars(twin)

    def test_templates_are_built_once_per_class_per_batch(
        self, batch, monkeypatch, fresh_tables
    ):
        """One template per distinct leaf — on a valued leaf, per (leaf,
        coin) — per process, however many trials land on it: a batch
        builds one for each class no earlier batch met, and a second
        batch of the same trials builds none."""
        config = batch[0]
        built = []
        template = ExecutionResult.template
        monkeypatch.setattr(ExecutionResult, "template", staticmethod(
            lambda *fields: (built.append(fields), template(*fields))[1]
        ))
        met = set()
        for size in (1, self.TRIALS, 4 * self.TRIALS):
            specs = _config_plan(config, size).trials
            model = _model_for(specs[0])
            built.clear()
            results, leaves, _, _ = model.run_batch(specs)
            classes = {
                (id(leaf), tuple(result.outputs.values()) if leaf.valued else None)
                for result, leaf in zip(results, leaves)
            }
            assert len(built) == len(classes - met)
            met |= classes
        assert len(met) < size
        built.clear()
        again, _, _, _ = model.run_batch(specs)
        assert built == []
        assert [canon(result) for result in again] == [canon(r) for r in results]

    def test_a_coin_range_past_the_kept_classes_costs_a_template_per_batch(
        self, monkeypatch, fresh_tables
    ):
        """A leaf keeps the templates of its first ``_VALUED_CLASSES``
        coins; a batch builds each further class's template once, not
        once per trial, and again only in a later batch."""
        from repro.engine import run_trial
        from repro.engine.vectorized import _VALUED_CLASSES

        plan = TrialPlan.monte_carlo(
            "wide", "threshold_coin", (None,) * 4, 1, trials=1200,
            params={"low": 0, "high": 999}, seed=8,
        )
        model = _MODELS["threshold_coin"]
        built = []
        template = ExecutionResult.template
        monkeypatch.setattr(ExecutionResult, "template", staticmethod(
            lambda *fields: (built.append(fields), template(*fields))[1]
        ))
        results, leaves, values, _ = model.run_batch(plan.trials)
        classes = {(id(leaf), value) for leaf, value in zip(leaves, values)}
        kept = {
            (id(leaf), value) for leaf in leaves for value in leaf.templates
        }
        assert len(kept) == _VALUED_CLASSES < len(classes) < len(results)
        assert len(built) == len(classes)
        built.clear()
        again, _, _, _ = model.run_batch(plan.trials)
        assert len(built) == len(classes - kept)
        monkeypatch.undo()
        for index in (0, 1, len(results) - 1):
            assert canon(again[index]) == canon(results[index]) == canon(
                run_trial(plan.trials[index])
            )

    def test_collecting_metrics_reads_no_stamp(self, fresh_tables):
        """Composing a class's registry keys a valued class by its coin
        and finalizes a new class from its template's containers: after
        a cold ``metrics=True`` run of every vector pair, no stamp has
        copied a container or lost its verdict."""
        plan = TrialPlan.concat("untouched", [
            TrialPlan.monte_carlo(
                f"untouched-{protocol}-{adversary}", protocol,
                *PROTOCOL_SHAPES[protocol][:2], trials=20,
                params=PROTOCOL_SHAPES[protocol][2], adversary=adversary,
                adversary_params=adversary_params, seed=31,
            )
            for protocol, combos in VECTOR_ADVERSARIES.items()
            for adversary, adversary_params in combos
        ])
        run = ParallelRunner(workers=1, backend="vector", metrics=True).run(plan)
        assert all(
            set(vars(result)) == {"metrics", "_template"} for result in run.results
        )
        assert_equivalent(plan)


class TestRunnerIntegration:
    def test_pooled_vector_matches_serial_object(self):
        plan = TrialPlan.monte_carlo(
            "pooled", "ba_one_half", (0, 0, 1, 1, 1), 2,
            trials=12, params={"kappa": 2}, adversary="straddle12",
            adversary_params={"victims": (3, 4)}, seed=9,
        )
        obj = ParallelRunner(workers=1).run(plan).results
        vec = ParallelRunner(workers=2, backend="vector").run(plan).results
        assert [canon(a) for a in obj] == [canon(b) for b in vec]

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ParallelRunner(backend="gpu")

    def test_inline_vector_fallbacks_reach_the_rollup(self, tmp_path):
        """An inline vector run batches every supported trial, and the
        ``vector_batch`` spans carry the genuine fallbacks into
        ``fallback_reasons``."""
        import json

        from repro.obs import TelemetryWriter, summarize_telemetry

        supported = TrialPlan.monte_carlo(
            "supported", "ba_one_third", (0, 0, 1, 1), 1,
            trials=12, params={"kappa": 1}, adversary="straddle13",
            adversary_params={"victims": (3,)}, seed=1,
        )
        faulted = TrialPlan.monte_carlo(
            "faulted", "ba_one_third", (0, 0, 1, 1), 1,
            trials=4, params={"kappa": 1}, seed=9, faults="lossy",
        )
        plan = TrialPlan.concat("inline-vector", [supported, faulted])
        path = str(tmp_path / "inline-vector.jsonl")
        with TelemetryWriter(path) as telemetry:
            ParallelRunner(
                workers=1, backend="vector", telemetry=telemetry
            ).run(plan)
        summary = summarize_telemetry(path)
        assert summary["fallback_reasons"] == {
            "fault injection ('lossy') is not vectorizable": len(faulted)
        }
        spans = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if '"vector_batch"' in line
        ]
        assert sum(span["batched"] for span in spans) == len(supported)
        assert sum(span["fallback"] for span in spans) == len(faulted)

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
