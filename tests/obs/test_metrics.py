"""Tests for the deterministic ``repro-metrics/1`` registry.

Three layers of guarantees:

* algebra — ``merge`` is commutative and associative over finalized
  registries, and the canonical ``pack``/``unpack`` wire form is
  lossless and commutes with merging (hypothesis properties);
* collection — a registry attached to the simulator's delivery seam
  recomputes exactly from a replayed trace (``delivery_view`` equals
  ``metrics_from_trace``) across protocol × adversary × fault configs;
* artifact — the ``repro-metrics/1`` JSON document validates, writes
  deterministically and survives a disk round trip.
"""

import copy
import json
import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import (
    ParallelRunner,
    TrialPlan,
    run_measured_trial,
    run_traced_trial,
    run_trial,
)
from repro.network.trace import Tracer
from repro.obs import (
    DELIVERY_METRIC_NAMES,
    HISTOGRAM_BUCKETS,
    MESSAGE_KINDS,
    METRIC_NAMES,
    METRICS_SCHEMA,
    Histogram,
    MetricsRegistry,
    ObsFormatError,
    build_metrics_payload,
    load_metrics_artifact,
    metrics_from_trace,
    summary_kind,
    trace_filename,
    validate_metrics_payload,
    write_metrics_artifact,
)

_COUNTER_NAMES = sorted(METRIC_NAMES - set(HISTOGRAM_BUCKETS))
_HIST_NAMES = sorted(HISTOGRAM_BUCKETS)


class TestVocabulary:
    def test_names_are_frozen_and_lowercase(self):
        assert isinstance(METRIC_NAMES, frozenset)
        assert all(name == name.lower() for name in METRIC_NAMES)

    def test_histograms_and_delivery_names_are_subsets(self):
        assert set(HISTOGRAM_BUCKETS) <= METRIC_NAMES
        assert DELIVERY_METRIC_NAMES <= METRIC_NAMES

    def test_buckets_strictly_increasing(self):
        for name, buckets in HISTOGRAM_BUCKETS.items():
            assert list(buckets) == sorted(set(buckets)), name


class TestRegistryValidation:
    def test_unknown_counter_rejected(self):
        with pytest.raises(ValueError, match="unknown counter"):
            MetricsRegistry().inc("mesages")

    def test_histogram_name_not_a_counter(self):
        with pytest.raises(ValueError, match="unknown counter"):
            MetricsRegistry().inc("rounds_to_decision")

    def test_unknown_histogram_rejected(self):
        with pytest.raises(ValueError, match="unknown histogram"):
            MetricsRegistry().observe("messages", 1)

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            MetricsRegistry().inc("messages", by=-1)

    def test_zero_increment_is_canonical_noop(self):
        registry = MetricsRegistry()
        registry.inc("messages", by=0)
        assert registry == MetricsRegistry()
        assert registry.pack() == MetricsRegistry().pack()


class TestHistogram:
    def test_percentiles_are_monotone_and_clamped(self):
        hist = Histogram(HISTOGRAM_BUCKETS["rounds_to_decision"])
        for value in (2, 2, 3, 3, 3, 5, 9, 40):
            hist.observe(value)
        p50, p90, p99 = (hist.percentile(q) for q in (0.5, 0.9, 0.99))
        assert p50 <= p90 <= p99 <= hist.maximum == 40
        assert hist.percentile(1e-9) >= hist.minimum == 2

    def test_overflow_bucket_resolves_to_maximum(self):
        hist = Histogram((1, 2, 4))
        hist.observe(1000)
        assert hist.percentile(0.99) == 1000

    def test_merge_requires_matching_buckets(self):
        with pytest.raises(ValueError, match="different buckets"):
            Histogram((1, 2)).merge(Histogram((1, 3)))


# Random registry shapes: counter bumps over the real vocabulary with a
# few label spellings, plus histogram observations over real buckets.
_counter_entry = st.tuples(
    st.sampled_from(_COUNTER_NAMES),
    st.sampled_from(["", "agree", "crash", "0001/int", "0002/signature"]),
    st.integers(min_value=1, max_value=1 << 20),
)
_hist_entry = st.tuples(
    st.sampled_from(_HIST_NAMES), st.integers(min_value=0, max_value=500)
)
_registry_shape = st.tuples(
    st.lists(_counter_entry, max_size=16), st.lists(_hist_entry, max_size=24)
)


def _build(shape) -> MetricsRegistry:
    counters, observations = shape
    registry = MetricsRegistry()
    for name, label, by in counters:
        registry.inc(name, label, by=by)
    for name, value in observations:
        registry.observe(name, value)
    return registry


class TestMergeAlgebra:
    @settings(deadline=None)
    @given(_registry_shape, _registry_shape)
    def test_merge_is_commutative(self, a, b):
        assert MetricsRegistry.merged([_build(a), _build(b)]) == (
            MetricsRegistry.merged([_build(b), _build(a)])
        )

    @settings(deadline=None)
    @given(_registry_shape, _registry_shape, _registry_shape)
    def test_merge_is_associative(self, a, b, c):
        left = _build(a)
        left.merge(_build(b))
        left.merge(_build(c))
        bc = _build(b)
        bc.merge(_build(c))
        right = _build(a)
        right.merge(bc)
        assert left == right

    def test_merge_with_empty_is_identity(self):
        registry = _build(([("messages", "", 7)], [("slot_occupancy", 3)]))
        merged = registry.copy()
        merged.merge(MetricsRegistry())
        assert merged == registry


def _apply(registry: MetricsRegistry, shape) -> MetricsRegistry:
    counters, observations = shape
    for name, label, by in counters:
        registry.inc(name, label, by=by)
    for name, value in observations:
        registry.observe(name, value)
    return registry


class TestSharedSnapshots:
    """A finalized registry is a read-only value the engine shares by
    identity: it reads like its writable source, ``merged`` adds each
    object once however often it recurs, and ``copy()`` is writable."""

    @settings(deadline=None)
    @given(
        st.lists(_registry_shape, min_size=1, max_size=4),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["same", "read-only", "copied", "mutated", "own"]),
            ),
            max_size=12,
        ),
    )
    def test_merged_equals_the_left_fold_of_merge(self, shapes, picks):
        bases = [_build(shape) for shape in shapes]
        # One read-only registry per base, picked again and again as the
        # engine hands one class registry to many trials.
        shared = [MetricsRegistry.unpack(base.pack()) for base in bases]
        inputs = []
        for at, kind in picks:
            at %= len(bases)
            if kind == "same":  # the very writable object again
                inputs.append(bases[at])
            elif kind == "read-only":
                inputs.append(shared[at])
            elif kind == "own":
                inputs.append(_build(shapes[at]))
            else:
                dup = shared[at].copy()
                if kind == "mutated":
                    dup.inc("trials")
                    dup.observe("slot_occupancy", 5)
                inputs.append(dup)
        before = [registry.as_payload() for registry in inputs]
        fold = MetricsRegistry()
        for registry in inputs:
            fold.merge(registry)
        for merged in (
            MetricsRegistry.merged(inputs), MetricsRegistry.merged(iter(inputs))
        ):
            assert merged == fold
            assert merged.pack() == fold.pack()
            assert merged.as_payload() == fold.as_payload()
            # The total is writable and private: growing it reaches no input.
            merged.inc("trials", by=3)
            merged.observe("trial_messages", 1)
            merged.observe("slot_occupancy", 2)
        assert [registry.as_payload() for registry in inputs] == before

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(_registry_shape, min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=8),
        st.sampled_from(_HIST_NAMES),
        st.integers(0, 9),
    )
    def test_merged_is_the_fold_and_refuses_mismatched_buckets(
        self, shapes, picks, name, where
    ):
        """Inputs picked again and again, each the writable registry or
        a read-only one: ``merged`` is the left fold of ``merge`` — and
        once one input holds ``name`` on other buckets, both raise."""
        bases = [_build(shape) for shape in shapes]
        bases[0].observe(name, 3)
        shared = [MetricsRegistry.unpack(base.pack()) for base in bases]
        inputs = [bases[0]] + [
            (shared if frozen else bases)[at % len(bases)] for at, frozen in picks
        ]
        fold = MetricsRegistry()
        for registry in inputs:
            fold.merge(registry)
        assert MetricsRegistry.merged(inputs) == fold

        odd = MetricsRegistry()
        odd.histograms[name] = Histogram(HISTOGRAM_BUCKETS[name] + (1 << 30,))
        odd.histograms[name].observe(1)
        inputs.insert(where % (len(inputs) + 1), odd)
        with pytest.raises(ValueError, match="different buckets"):
            fold = MetricsRegistry()
            for registry in inputs:
                fold.merge(registry)
        with pytest.raises(ValueError, match="different buckets"):
            MetricsRegistry.merged(inputs)

    @settings(deadline=None)
    @given(_registry_shape, _registry_shape)
    def test_a_read_only_registry_reads_like_its_writable_source(self, shape, bump):
        source = _build(shape)
        shared = MetricsRegistry.unpack(source.pack())
        assert shared.read_only and not source.read_only
        for held in (shared, pickle.loads(pickle.dumps(shared))):
            assert held == source and source == held
            assert repr(held) == repr(source)
            assert held.pack() == source.pack()
            assert held.as_payload() == source.as_payload()
            assert pickle.dumps(held.copy()) == pickle.dumps(source)
            assert held.copy() == source
            assert held.delivery_view() == source.delivery_view()
            assert held.labels("messages") == source.labels("messages")
            assert held.counter_total("trials") == source.counter_total("trials")
        dup = shared.copy()
        _apply(dup, bump)
        dup.counters["trials", "direct"] = 1
        dup.histograms["rounds_to_decision"] = Histogram((1, 2))
        expected = _apply(_build(shape), bump)
        expected.counters["trials", "direct"] = 1
        expected.histograms["rounds_to_decision"] = Histogram((1, 2))
        assert dup == expected and dup.pack() == expected.pack()
        assert shared == source and shared.pack() == source.pack()

    def test_a_copy_of_a_read_only_registry_collects_like_a_fresh_one(self):
        """A read-only registry refuses to collect; its copy collects
        exactly as a fresh registry would (its per-trial transients start
        out empty)."""
        source = _build(([("messages", "", 7)], [("slot_occupancy", 3)]))
        shared = MetricsRegistry.unpack(source.pack())
        with pytest.raises(TypeError):
            shared.observe_delivery(2, "<coin_share 1>", 3, sender_honest=True)
        reference, dup = source.copy(), shared.copy()
        for registry in (reference, dup):
            registry.observe_delivery(2, "<coin_share 1>", 3, sender_honest=True)
            registry.on_message(3, 0, 1, {"slot": 1}, sender_honest=False)
            registry.finalize_delivery()
        assert dup == reference and dup.pack() == reference.pack()
        assert dup.counter_total("coin_flip_rounds") == 1
        assert shared == source

    def test_copies_of_a_read_only_registry_are_deep(self):
        """``copy()`` is writable and deep; the ``copy`` module and pickle
        keep a registry's kind: an equal read-only value, or an
        independent writable one."""
        source = _build(([("messages", "", 7)], [("slot_occupancy", 3)]))
        shared = MetricsRegistry.unpack(source.pack())
        for dup in (shared.copy(), copy.copy(source), copy.deepcopy(source)):
            assert not dup.read_only
            dup.inc("messages", by=1)
            dup.histograms["slot_occupancy"].observe(9)
            assert shared == source == _build(
                ([("messages", "", 7)], [("slot_occupancy", 3)])
            )
        for dup in (copy.copy(shared), copy.deepcopy(shared)):
            assert dup == shared and dup.read_only
            with pytest.raises(TypeError):
                dup.histograms["slot_occupancy"].observe(9)


class TestWireForm:
    @settings(deadline=None)
    @given(_registry_shape)
    def test_pack_unpack_is_identity(self, shape):
        registry = _build(shape)
        assert MetricsRegistry.unpack(registry.pack()) == registry

    @settings(deadline=None)
    @given(_registry_shape)
    def test_pack_is_canonical(self, shape):
        registry = _build(shape)
        blob = registry.pack()
        assert MetricsRegistry.unpack(blob).pack() == blob

    @settings(deadline=None)
    @given(_registry_shape, _registry_shape)
    def test_merge_commutes_with_the_wire(self, a, b):
        direct = _build(a)
        direct.merge(_build(b))
        via_wire = MetricsRegistry.merged(
            MetricsRegistry.unpack(_build(shape).pack()) for shape in (a, b)
        )
        assert via_wire == direct

    def test_truncated_blob_raises(self):
        blob = _build(([("messages", "", 3)], [])).pack()
        with pytest.raises(ObsFormatError, match="truncated"):
            MetricsRegistry.unpack(blob[:-1])

    def test_trailing_bytes_raise(self):
        blob = _build(([("messages", "", 3)], [])).pack()
        with pytest.raises(ObsFormatError, match="trailing"):
            MetricsRegistry.unpack(blob + b"\x00")

    def test_an_inconsistent_histogram_blob_raises(self):
        """``unpack`` runs the artifact's histogram check on every blob."""
        registry = _build(([], [("slot_occupancy", 3), ("slot_occupancy", 9)]))
        hist = registry.histograms["slot_occupancy"]
        hist.count = 3
        with pytest.raises(ObsFormatError, match="not the sum 2 of counts"):
            MetricsRegistry.unpack(registry.pack())
        hist.count, hist.minimum = 2, 10
        with pytest.raises(ObsFormatError, match="min <= max"):
            MetricsRegistry.unpack(registry.pack())

    def test_unknown_version_raises(self):
        with pytest.raises(ObsFormatError, match="version"):
            MetricsRegistry.unpack(b"\x63")

    def test_json_payload_roundtrip(self):
        registry = _build(
            ([("messages", "", 5), ("fault_hits", "crash", 2)],
             [("rounds_to_decision", 3)])
        )
        assert MetricsRegistry.from_payload(registry.as_payload()) == registry


def _trial_blob() -> bytes:
    """A real registry's wire form: one ``ba_one_half`` κ=4 straddle trial."""
    plan = TrialPlan.monte_carlo(
        "fuzz", "ba_one_half", (0, 0, 1, 1, 1), 2, trials=1,
        params={"kappa": 4}, adversary="straddle12",
        adversary_params={"victims": (3, 4)}, seed=1,
    )
    return run_measured_trial(plan.trials[0])[1].pack()


class TestCorruptBlobs:
    """A damaged registry blob decodes or raises ``ObsFormatError`` —
    never a codec's or a constructor's own exception."""

    def test_every_prefix_is_a_named_truncation(self):
        blob = _trial_blob()
        assert MetricsRegistry.unpack(blob).pack() == blob
        for end in range(len(blob)):
            with pytest.raises(ObsFormatError, match="truncated"):
                MetricsRegistry.unpack(blob[:end])

    def test_every_single_byte_corruption_decodes_or_is_named(self):
        blob = _trial_blob()
        outcomes = Counter()
        for at in range(len(blob)):
            for value in (0x00, 0x01, 0x7F, 0x80, 0xFF):
                if value == blob[at]:
                    continue
                corrupt = blob[:at] + bytes([value]) + blob[at + 1:]
                try:
                    MetricsRegistry.unpack(corrupt)
                except ObsFormatError as error:
                    message = str(error)
                    if "not UTF-8" in message:
                        outcomes["label"] += 1
                    elif "strictly increasing" in message:
                        outcomes["buckets"] += 1
                    else:
                        outcomes["other"] += 1
                        continue
                    assert "offset" in message, message
                else:
                    outcomes["decoded"] += 1
        # The two failures that used to escape as UnicodeDecodeError and
        # ValueError both occur on this blob, named.
        assert outcomes["label"] > 0 and outcomes["buckets"] > 0, outcomes


# One small plan per protocol × adversary × fault configuration the
# collection grid covers; every entry must satisfy live == replayed.
_GRID = [
    ("ba_one_third", (0, 0, 1, 1), 1, {"kappa": 2},
     "straddle13", {"victims": (3,)}, None, None),
    ("ba_one_half", (0, 0, 1, 1, 1), 2, {"kappa": 2},
     "straddle12", {"victims": (3, 4)}, None, None),
    ("fm_probabilistic", (0, 0, 1, 1), 1, {}, None, None, None, None),
    ("threshold_coin", (None, None, None, None), 1, {"index": 0},
     "withhold_coin", {"victims": (3,), "preferred": 1}, None, None),
    ("ba_one_third", (0, 0, 1, 1), 1, {"kappa": 2},
     "crash", {"victims": (3,)}, "lossy", {"rate": 0.3}),
]


def _grid_specs(entry, trials=3):
    protocol, inputs, t, params, adversary, adv_params, faults, fparams = entry
    plan = TrialPlan.monte_carlo(
        name=f"metrics-{protocol}",
        protocol=protocol,
        inputs=inputs,
        max_faulty=t,
        trials=trials,
        params=params,
        adversary=adversary,
        adversary_params=adv_params,
        seed=29,
        faults=faults,
        fault_params=fparams,
    )
    return plan.trials


class TestLiveEqualsReplayed:
    @pytest.mark.parametrize(
        "entry", _GRID, ids=[f"{e[0]}-{e[4]}-{e[6]}" for e in _GRID]
    )
    def test_delivery_view_matches_trace_recomputation(self, entry):
        for spec in _grid_specs(entry):
            tracer = Tracer()
            collector = MetricsRegistry()
            result = run_trial(spec, observers=(tracer, collector))
            collector.finalize_trial(result)
            replayed = metrics_from_trace(tracer.events, tracer.faults)
            assert collector.delivery_view() == replayed

    def test_collector_never_perturbs_execution(self):
        spec = _grid_specs(_GRID[0], trials=1)[0]
        bare = run_trial(spec)
        collector = MetricsRegistry()
        observed = run_trial(spec, observers=(collector,))
        assert observed == bare
        collector.finalize_delivery()
        assert collector.counter_total("messages") > 0

    @pytest.mark.parametrize("entry", [_GRID[0], _GRID[-1]], ids=["clean", "faulted"])
    def test_tracer_and_registry_together_equal_each_alone(self, entry, tmp_path):
        """Observers share one seam but not each other's state: attached
        together, the trace file and the packed registry are the bytes
        each produces attached alone."""
        spec = _grid_specs(entry, trials=1)[0]
        alone, both = tmp_path / "alone", tmp_path / "both"
        alone.mkdir()
        both.mkdir()
        run_traced_trial(spec, str(alone), 0)
        _, registry_alone = run_measured_trial(spec)
        run = ParallelRunner(workers=1, trace_dir=str(both), metrics=True).run(
            TrialPlan(name="both", trials=(spec,))
        )
        name = trace_filename(0)
        assert (both / name).read_bytes() == (alone / name).read_bytes()
        assert run.trial_metrics[0].pack() == registry_alone.pack()

    def test_round_message_labels_use_known_kinds(self):
        collector = MetricsRegistry()
        result = run_trial(
            _grid_specs(_GRID[0], trials=1)[0], observers=(collector,)
        )
        collector.finalize_trial(result)
        labels = collector.labels("round_messages")
        assert labels
        for label in labels:
            round_key, kind = label.split("/", 1)
            assert round_key.isdigit()
            assert kind in MESSAGE_KINDS

    def test_finalize_trial_rolls_up_outcomes(self):
        collector = MetricsRegistry()
        result = run_trial(
            _grid_specs(_GRID[0], trials=1)[0], observers=(collector,)
        )
        collector.finalize_trial(result)
        assert collector.counter_total("trials") == 1
        rounds = collector.histograms["rounds_to_decision"]
        assert rounds.count == len(
            [pid for pid in result.finish_rounds if pid not in result.corrupted]
        )
        assert collector.counter_total("agreements") == 1

    def test_faulted_run_attributes_fault_hits(self):
        faulted = _GRID[-1]
        total = MetricsRegistry()
        for spec in _grid_specs(faulted, trials=4):
            collector = MetricsRegistry()
            result = run_trial(spec, observers=(collector,))
            collector.finalize_trial(result)
            total.merge(collector)
        assert total.counter_total("fault_hits") > 0
        assert all(kind for kind in total.labels("fault_hits"))


#: Summaries of every message kind; each kind whose spelling can carry
#: text also appears with a coin share in it.
_SUMMARIES = (
    "∅", "True", "False", "∥2", "∥{coin_share: <Share>}", "bytes[4]",
    "bytes[coin_share]", "{v: 1}", "{coin_share: <Share>}", "(1, 2)",
    "(coin_share,)", "'a'", "'coin_share'", "<Sig>", "<coin_share 1>",
    "int(3)", "-7", "int(coin_share)", "obj", "obj coin_share",
)
_delivery = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.sampled_from(_SUMMARIES),
    st.integers(min_value=0, max_value=9),
    st.booleans(),
)


def _per_message_reference(deliveries) -> MetricsRegistry:
    """The delivery metrics as one ``inc`` per message per metric left
    them, before deliveries were tallied: the specification the tally's
    ``finalize_delivery`` must meet."""
    registry = MetricsRegistry()
    coin_rounds, messages, signatures = set(), 0, 0
    for round_index, summary, signed, honest in deliveries:
        kind = summary_kind(summary)
        registry.inc("messages", kind)
        registry.inc("round_messages", f"{round_index:04d}/{kind}")
        if honest:
            registry.inc("messages_honest", kind)
            registry.inc("signatures_honest", "", signed)
        else:
            registry.inc("messages_corrupt", kind)
            registry.inc("signatures_corrupt", "", signed)
        registry.inc("sig_verify_ops", "", signed)
        if "coin_share" in summary:
            registry.inc("coin_share_msgs")
            coin_rounds.add(round_index)
        messages += 1
        signatures += signed
    registry.inc("coin_flip_rounds", "", len(coin_rounds))
    registry.observe("trial_messages", messages)
    registry.observe("trial_signatures", signatures)
    return registry


def _observed(deliveries) -> MetricsRegistry:
    registry = MetricsRegistry()
    for delivery in deliveries:
        registry.observe_delivery(*delivery)
    return registry


class TestOneTally:
    """Each delivery is one tally update; ``finalize_delivery`` derives
    the same counters, histograms and bytes as one ``inc`` per message
    per metric, whole or composed from round-shifted segments."""

    def test_the_summaries_cover_every_kind_with_and_without_a_coin(self):
        kinds = {summary_kind(summary) for summary in _SUMMARIES}
        coin = {summary_kind(s) for s in _SUMMARIES if "coin_share" in s}
        assert kinds == MESSAGE_KINDS
        assert coin == MESSAGE_KINDS - {"none", "bool"}  # fixed spellings

    @settings(deadline=None)
    @given(st.lists(_delivery, max_size=40))
    def test_the_tally_finalizes_to_the_per_message_counters(self, deliveries):
        registry = _observed(deliveries)
        registry.finalize_delivery()
        reference = _per_message_reference(deliveries)
        assert registry == reference
        assert registry.pack() == reference.pack()

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8), st.lists(_delivery, max_size=12)
            ),
            max_size=5,
        )
    )
    # Two segments on one round, once at equal offsets and once not.
    @example([(0, [(1, "<coin_share 1>", 2, True)]), (0, [(1, "<coin>", 1, False)])])
    @example([(3, [(0, "int(3)", 0, True)]), (1, [(2, "int(3)", 4, True)])])
    def test_shifted_segments_finalize_to_the_whole(self, segments):
        whole = [
            (round_index + offset, summary, signed, honest)
            for offset, deliveries in segments
            for round_index, summary, signed, honest in deliveries
        ]
        parts = [(_observed(deliveries), offset) for offset, deliveries in segments]
        before = [part.copy() for part, _ in parts]
        composed = MetricsRegistry.from_deliveries(parts)
        composed.finalize_delivery()
        reference = _per_message_reference(whole)
        assert composed == reference
        assert composed.pack() == reference.pack()
        # The segments are read, never changed.
        assert [part for part, _ in parts] == before


class TestFrozenDeliveries:
    """copy / from_deliveries: the vector backend's composition."""

    @pytest.mark.parametrize(
        "entry", _GRID, ids=[f"{e[0]}-{e[4]}-{e[6]}" for e in _GRID]
    )
    def test_one_segment_at_offset_zero_is_the_live_registry(self, entry):
        spec = _grid_specs(entry, trials=1)[0]
        live = MetricsRegistry()
        result = run_trial(spec, observers=(live,))
        rebuilt = MetricsRegistry.from_deliveries([(live.copy(), 0)])
        live.finalize_trial(result)
        rebuilt.finalize_trial(result)
        assert rebuilt == live
        assert rebuilt.pack() == live.pack()

    def test_shifted_segments_equal_one_observer(self):
        def segment(registry, first_round, coin):
            registry.observe_delivery(first_round, "int(1)", 0, True)
            registry.observe_delivery(first_round, "<Share>", 2, False)
            registry.observe_delivery(
                first_round + 1, "{coin_share: <Share>}" if coin else "∅", 1, True
            )
            registry.observe("slot_occupancy", 3 if coin else 1)

        whole = MetricsRegistry()
        segment(whole, 1, coin=True)
        segment(whole, 4, coin=False)
        segment(whole, 7, coin=True)
        with_coin, without = MetricsRegistry(), MetricsRegistry()
        segment(with_coin, 1, coin=True)
        segment(without, 1, coin=False)
        a, b = with_coin.copy(), without.copy()
        composed = MetricsRegistry.from_deliveries([(a, 0), (b, 3), (a, 6)])
        for registry in (whole, composed):
            registry.finalize_delivery()
        assert composed == whole
        assert whole.counter_total("coin_flip_rounds") == 2
        assert "0008/collection" in whole.labels("round_messages")

    def test_composition_never_aliases_the_frozen_segment(self):
        source = MetricsRegistry()
        source.observe_delivery(1, "int(1)", 0, True)
        source.observe("slot_occupancy", 2)
        frozen = source.copy()
        source.observe("slot_occupancy", 9)  # after the copy: not seen
        source.observe_delivery(1, "int(1)", 0, True)
        first = MetricsRegistry.from_deliveries([(frozen, 0)])
        first.observe("slot_occupancy", 5)
        first.inc("messages", "int", 10)
        first.observe_delivery(1, "int(1)", 0, True)
        first.finalize_delivery()
        second = MetricsRegistry.from_deliveries([(frozen, 0)])
        second.finalize_delivery()
        assert second.histograms["slot_occupancy"].count == 1
        assert second.labels("messages") == {"int": 1}
        twin = second.copy()
        twin.observe("slot_occupancy", 5)
        assert second.histograms["slot_occupancy"].count == 1


def _pending():
    """A registry that observed one ``int(1)`` delivery, not yet finalized."""
    registry = MetricsRegistry()
    registry.observe_delivery(1, "int(1)", 0, True)
    return registry


class TestPendingTally:
    """Reads that carry counters and histograms only refuse a registry
    whose tally still holds deliveries, rather than dropping them; each
    works once :meth:`finalize_delivery` has derived the tally."""

    REFUSED = "call finalize_delivery"

    @staticmethod
    def _finalized():
        registry = _pending()
        registry.finalize_delivery()
        return registry

    def test_pack_and_what_goes_through_it(self):
        for read in (
            MetricsRegistry.pack,
            lambda registry: pickle.dumps(registry),
            copy.copy,
        ):
            with pytest.raises(ValueError, match=self.REFUSED):
                read(_pending())
        registry = self._finalized()
        assert MetricsRegistry._decode(registry.pack()) == registry
        assert pickle.loads(pickle.dumps(registry)) == registry
        assert copy.copy(registry) == registry
        assert registry.labels("messages") == {"int": 1}

    def test_merge_and_merged(self):
        with pytest.raises(ValueError, match=self.REFUSED):
            MetricsRegistry().merge(_pending())
        with pytest.raises(ValueError, match=self.REFUSED):
            MetricsRegistry.merged([self._finalized(), _pending()])
        total = MetricsRegistry()
        total.merge(self._finalized())
        assert total == self._finalized()
        merged = MetricsRegistry.merged([self._finalized(), self._finalized()])
        assert merged.labels("messages") == {"int": 2}

    def test_delivery_view(self):
        with pytest.raises(ValueError, match=self.REFUSED):
            _pending().delivery_view()
        assert self._finalized().delivery_view().labels("messages") == {"int": 1}

    def test_copy_and_from_deliveries_carry_the_tally(self):
        for carried in (
            _pending().copy(),
            MetricsRegistry.from_deliveries([(_pending(), 0)]),
        ):
            with pytest.raises(ValueError, match=self.REFUSED):
                carried.pack()
            carried.finalize_delivery()
            assert carried == self._finalized()


class TestArtifact:
    def _payload(self):
        registry = _build(
            ([("messages", "", 9), ("trials", "", 2)],
             [("rounds_to_decision", 2), ("rounds_to_decision", 4)])
        )
        return build_metrics_payload(
            {"plan": "unit", "trials": 2},
            {"cfg": ({"protocol": "ba_one_third", "num_parties": 4}, registry)},
        )

    def test_payload_validates_clean(self):
        assert validate_metrics_payload(self._payload()) == []

    def test_totals_equal_config_merge(self):
        payload = self._payload()
        merged = MetricsRegistry.merged(
            MetricsRegistry.from_payload(entry["metrics"])
            for entry in payload["configs"].values()
        )
        assert MetricsRegistry.from_payload(payload["totals"]) == merged

    def test_wrong_schema_flagged(self):
        payload = self._payload()
        payload["schema"] = "repro-metrics/99"
        assert any("schema" in v for v in validate_metrics_payload(payload))

    def test_unknown_counter_name_flagged(self):
        payload = self._payload()
        payload["totals"]["counters"]["mesages"] = {"": 1}
        assert any("mesages" in v for v in validate_metrics_payload(payload))

    def test_non_object_payload_flagged(self):
        assert validate_metrics_payload([]) != []

    @pytest.mark.parametrize("bound", ["min", "max"])
    def test_histogram_with_observations_but_no_bound_flagged(self, bound):
        # Its percentiles would clamp to a bound that is not there.
        payload = self._payload()
        del payload["totals"]["histograms"]["rounds_to_decision"][bound]
        assert any(
            "needs integer min and max" in v for v in validate_metrics_payload(payload)
        )

    @pytest.mark.parametrize(
        "where, value, path",
        [
            (("totals", "counters", "trials", ""), -5, "totals: malformed metrics "
             "(counters[trials][] is -5, not an int >= 0)"),
            (("totals", "counters", "trials", ""), True, "counters[trials][] is True"),
            (("totals", "counters", "trials", ""), 2.0, "counters[trials][] is 2.0"),
            (("totals", "counters", "messages"), [9], "counters[messages] is [9]"),
            (("totals", "counters"), [], "totals: malformed metrics (counters is []"),
            (("totals", "histograms"), 3, "histograms is 3"),
            (("configs", "cfg", "metrics", "histograms", "rounds_to_decision"), [],
             "configs[cfg]: malformed metrics (histograms[rounds_to_decision]: "
             "the entry is []"),
            (("meta",), "unit", "meta is not an object"),
            (("configs", "cfg", "meta"), [4], "configs[cfg]: meta is not an object"),
        ],
    )
    def test_a_wrong_type_or_sign_is_a_violation_naming_its_path(
        self, where, value, path
    ):
        payload = self._payload()
        node = payload
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        violations = validate_metrics_payload(payload)
        assert any(path in violation for violation in violations), violations

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("counts", [1, 0, "x"], "counts is [1, 0, 'x']"),
            ("counts", [1, -1, 2], "not a list of ints >= 0"),
            ("counts", [2, 0, 0], "3 counts for 16 buckets"),
            ("count", 3, "count is 3, not the sum 2 of counts"),
            ("count", True, "count is True"),
            ("total", -6, "total is -6, not an int >= 0"),
            ("total", 6.0, "total is 6.0"),
            ("min", 5, "needs integer min and max with 0 <= min <= max"),
            ("max", 1.5, "needs integer min and max"),
            ("buckets", [4, 2], "strictly increasing"),
        ],
    )
    def test_an_inconsistent_histogram_is_a_violation(self, field, value, message):
        payload = self._payload()
        hist = payload["totals"]["histograms"]["rounds_to_decision"]
        hist[field] = value
        violations = validate_metrics_payload(payload)
        assert any(message in violation for violation in violations), violations

    def test_an_empty_histogram_has_null_bounds(self):
        payload = self._payload()
        hist = payload["totals"]["histograms"]["rounds_to_decision"]
        hist.update(counts=[0] * len(hist["counts"]), count=0, total=0)
        assert any(
            "of no observations are not null" in violation
            for violation in validate_metrics_payload(payload)
        )
        hist.update(min=None, max=None)
        assert validate_metrics_payload(payload) == []

    def test_write_load_roundtrip_and_deterministic_bytes(self, tmp_path):
        payload = self._payload()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_metrics_artifact(str(first), payload)
        write_metrics_artifact(str(second), json.loads(first.read_text()))
        assert first.read_bytes() == second.read_bytes()
        loaded = load_metrics_artifact(str(first))
        assert loaded["schema"] == METRICS_SCHEMA
        assert MetricsRegistry.from_payload(
            loaded["totals"]
        ) == MetricsRegistry.from_payload(payload["totals"])

    def test_write_refuses_invalid_payload(self, tmp_path):
        with pytest.raises(ObsFormatError):
            write_metrics_artifact(str(tmp_path / "bad.json"), {"schema": "x"})

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ObsFormatError, match="JSON"):
            load_metrics_artifact(str(path))
