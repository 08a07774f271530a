"""Tests for message envelopes and the defensive accessor."""

import pytest

from repro.network.messages import (
    Broadcast,
    get_field,
    normalize_outbox,
)


class TestNormalizeOutbox:
    def test_none_is_silence(self):
        assert normalize_outbox(None, 4) == {}

    def test_broadcast_reaches_everyone_including_self(self):
        expanded = normalize_outbox(Broadcast("x"), 3)
        assert expanded == {0: "x", 1: "x", 2: "x"}

    def test_dict_passthrough_filters_bad_recipients(self):
        expanded = normalize_outbox({0: "a", 7: "b", -1: "c", "x": "d"}, 3)
        assert expanded == {0: "a"}

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            normalize_outbox("hello", 3)
        with pytest.raises(TypeError):
            normalize_outbox([("a", 1)], 3)


class TestAccessors:
    def test_get_field(self):
        assert get_field({"k": 5}, "k") == 5
        assert get_field({"k": 5}, "missing") is None
        assert get_field("not a dict", "k") is None
        assert get_field(None, "k") is None
