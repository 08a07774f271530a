"""Tests for the deterministic ``repro-metrics/1`` registry.

Three layers of guarantees:

* algebra — ``merge`` is commutative and associative over finalized
  registries, and the canonical ``pack``/``unpack`` wire form is
  lossless and commutes with merging (hypothesis properties, mirroring
  the ``RunMetrics`` tally round-trip suite);
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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import TrialPlan, run_measured_trial, run_traced_trial, run_trial
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
    """Snapshot-or-own state: a stamped registry is a pointer to a shared
    snapshot until touched, and nothing observable says which."""

    @settings(deadline=None)
    @given(
        st.lists(_registry_shape, min_size=1, max_size=4),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(["same", "stamped", "touched", "mutated", "own"]),
            ),
            max_size=12,
        ),
    )
    def test_merged_equals_the_left_fold_of_merge(self, shapes, picks):
        bases = [_build(shape) for shape in shapes]
        inputs = []
        for at, kind in picks:
            at %= len(bases)
            if kind == "same":  # the very object again, however it holds
                inputs.append(bases[at])
            elif kind == "own":
                inputs.append(_build(shapes[at]))
            else:
                twin = bases[at].stamp()
                if kind == "touched":
                    twin.histograms
                elif kind == "mutated":
                    twin.inc("trials")
                    twin.observe("slot_occupancy", 5)
                inputs.append(twin)
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
            # The total is private: growing it reaches no snapshot.
            merged.inc("trials", by=3)
            merged.observe("trial_messages", 1)
        assert [registry.as_payload() for registry in inputs] == before

    @settings(deadline=None)
    @given(_registry_shape, _registry_shape, st.booleans())
    def test_stamped_twin_is_a_copy_until_touched_and_independent_after(
        self, shape, bump, touch_source
    ):
        source = _build(shape)
        reference = source.copy()
        twin = source.stamp()
        for held in (source, twin, twin.stamp()):
            assert held == reference and reference == held
            assert repr(held) == repr(reference)
            assert held.pack() == reference.pack()
            assert held.as_payload() == reference.as_payload()
            assert pickle.dumps(held) == pickle.dumps(reference)
            assert pickle.loads(pickle.dumps(held)) == reference
            assert held.copy() == reference
            assert held.delivery_view() == reference.delivery_view()
            assert held.labels("messages") == reference.labels("messages")
            assert held.counter_total("trials") == reference.counter_total("trials")
        touched, other = (source, twin) if touch_source else (twin, source)
        _apply(touched, bump)
        touched.counters["trials", "direct"] = 1
        touched.histograms["rounds_to_decision"] = Histogram((1, 2))
        expected = _apply(_build(shape), bump)
        expected.counters["trials", "direct"] = 1
        expected.histograms["rounds_to_decision"] = Histogram((1, 2))
        assert touched == expected and touched.pack() == expected.pack()
        for held in (other, other.stamp(), pickle.loads(pickle.dumps(other))):
            assert held == reference and held.pack() == reference.pack()

    def test_a_stamped_twin_collects_like_a_copy(self):
        """Made to observe, a twin collects exactly as a fresh copy would
        (its per-trial transients start out empty, like a new registry's)."""
        source = _build(([("messages", "", 7)], [("slot_occupancy", 3)]))
        reference, twin = source.copy(), source.stamp()
        for registry in (reference, twin):
            registry.observe_delivery(2, "<coin_share 1>", 3, sender_honest=True)
            registry.on_message(3, 0, 1, {"slot": 1}, sender_honest=False)
            registry.finalize_delivery()
        assert twin == reference and twin.pack() == reference.pack()
        assert twin.counter_total("coin_flip_rounds") == 1
        assert source == _build(([("messages", "", 7)], [("slot_occupancy", 3)]))

    def test_copies_of_a_stamped_registry_are_deep(self):
        twin = _build(([("messages", "", 7)], [("slot_occupancy", 3)])).stamp()
        reference = twin.copy()
        for dup in (twin.copy(), copy.copy(twin), copy.deepcopy(twin)):
            dup.inc("messages", by=1)
            dup.histograms["slot_occupancy"].observe(9)
            assert twin == reference


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
        vectorizable=faults is None,
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
        _, registry_both = run_measured_trial(spec, str(both), 0)
        name = trace_filename(0)
        assert (both / name).read_bytes() == (alone / name).read_bytes()
        assert registry_both.pack() == registry_alone.pack()

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


class TestFrozenDeliveries:
    """freeze_delivery / from_deliveries: the vector backend's composition."""

    @pytest.mark.parametrize(
        "entry", _GRID, ids=[f"{e[0]}-{e[4]}-{e[6]}" for e in _GRID]
    )
    def test_one_segment_at_offset_zero_is_the_live_registry(self, entry):
        spec = _grid_specs(entry, trials=1)[0]
        live = MetricsRegistry()
        result = run_trial(spec, observers=(live,))
        rebuilt = MetricsRegistry.from_deliveries([(live.freeze_delivery(), 0)])
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
        a, b = with_coin.freeze_delivery(), without.freeze_delivery()
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
        frozen = source.freeze_delivery()
        source.observe("slot_occupancy", 9)  # after the freeze: not seen
        first = MetricsRegistry.from_deliveries([(frozen, 0)])
        first.observe("slot_occupancy", 5)
        first.inc("messages", "int", 10)
        second = MetricsRegistry.from_deliveries([(frozen, 0)])
        assert second.histograms["slot_occupancy"].count == 1
        assert second.labels("messages") == {"int": 1}
        twin = second.copy()
        twin.observe("slot_occupancy", 5)
        assert second.histograms["slot_occupancy"].count == 1


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
