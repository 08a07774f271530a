"""Tests for the canonical term encoding and hash-to-range helpers."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.random_oracle import (
    encode_str,
    encode_term,
    encode_tuple,
    first_digest_parts,
    hash_to_int,
    hash_to_range,
    hash_to_range_encoded,
    oracle_digest,
)

# Nested terms: ints, strings, bytes, bools, None, tuples thereof.
terms = st.recursive(
    st.one_of(
        st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
        st.text(max_size=20),
        st.binary(max_size=20),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=12,
)


def _same_term(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same_term(x, y) for x, y in zip(a, b))
    return a == b


class TestEncodeTerm:
    @given(a=terms, b=terms)
    @settings(max_examples=150, deadline=None)
    def test_injective(self, a, b):
        # Structural equality must be type-aware: Python's `0 == False`
        # would otherwise mask the (intended) bool/int distinction.
        if _same_term(a, b):
            assert encode_term(a) == encode_term(b)
        else:
            assert encode_term(a) != encode_term(b)

    def test_bool_is_not_int(self):
        assert encode_term(True) != encode_term(1)
        assert encode_term(False) != encode_term(0)

    def test_str_is_not_bytes(self):
        assert encode_term("ab") != encode_term(b"ab")

    def test_nested_tuples_differ_from_flat(self):
        assert encode_term((1, (2, 3))) != encode_term((1, 2, 3))
        assert encode_term(((1,), 2)) != encode_term((1, (2,)))

    @given(parts=st.lists(terms, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_tuple_encoding_is_the_join_of_its_parts(self, parts):
        encoded = [encode_term(part) for part in parts]
        assert encode_term(tuple(parts)) == encode_tuple(encoded)
        assert encode_term(tuple(parts)) == encode_tuple(tuple(encoded))

    @given(text=st.text(max_size=40))
    def test_encode_str_is_the_str_case(self, text):
        assert encode_str(text) == encode_term(text)

    def test_unencodable_raises(self):
        with pytest.raises(TypeError):
            encode_term([1, 2])  # lists are not canonical terms
        with pytest.raises(TypeError):
            encode_term(object())


class TestOracle:
    def test_domain_separation(self):
        assert oracle_digest("a", 1) != oracle_digest("b", 1)

    def test_deterministic(self):
        assert oracle_digest("d", ("x", 2)) == oracle_digest("d", ("x", 2))

    @given(bits=st.integers(min_value=1, max_value=1024), term=terms)
    @settings(max_examples=60, deadline=None)
    def test_hash_to_int_in_range(self, bits, term):
        value = hash_to_int("t", term, bits)
        assert 0 <= value < (1 << bits)

    def test_hash_to_int_rejects_nonpositive_bits(self):
        with pytest.raises(ValueError):
            hash_to_int("t", 1, 0)

    @given(
        low=st.integers(min_value=-1000, max_value=1000),
        span=st.integers(min_value=0, max_value=10 ** 9),
        term=terms,
    )
    @settings(max_examples=60, deadline=None)
    def test_hash_to_range_bounds(self, low, span, term):
        value = hash_to_range("t", term, low, low + span)
        assert low <= value <= low + span

    @given(
        term=terms,
        low=st.integers(-(2 ** 20), 2 ** 20),
        span=st.one_of(st.integers(0, 50), st.integers(2 ** 128, 2 ** 400)),
    )
    @settings(max_examples=100, deadline=None)
    def test_hash_to_range_encoded_is_hash_to_range(self, term, low, span):
        # Spans beyond 2^128 need more than one SHA-256 block.
        assert hash_to_range_encoded(
            "t", encode_term(term), low, low + span
        ) == hash_to_range("t", term, low, low + span)

    @given(
        before=st.lists(terms, max_size=2),
        middle=terms,
        after=st.lists(terms, max_size=2),
        tag=st.binary(min_size=32, max_size=32),
        bits=st.integers(1, 256),
    )
    @settings(max_examples=100, deadline=None)
    def test_first_digest_parts_rebuild_the_single_digest(
        self, before, middle, after, tag, bits
    ):
        head, tail = first_digest_parts(
            "t", [encode_term(t) for t in before], [encode_term(t) for t in after]
        )
        digest = hashlib.sha256(head + encode_term(middle) + tail + tag).digest()
        term = (*before, middle, *after, tag)
        assert hash_to_int("t", term, bits) == int.from_bytes(digest, "big") % 2 ** bits

    @given(
        middle=terms, after=st.lists(terms, max_size=2),
        trailing=st.lists(terms, max_size=3), bits=st.integers(1, 256),
    )
    @settings(max_examples=100, deadline=None)
    def test_first_digest_parts_with_trailing_elements(
        self, middle, after, trailing, bits
    ):
        head, tail = first_digest_parts(
            "t", [], [encode_term(t) for t in after], trailing=len(trailing)
        )
        rest = b"".join(encode_term(t) for t in trailing)
        digest = hashlib.sha256(head + encode_term(middle) + tail + rest).digest()
        term = (middle, *after, *trailing)
        assert hash_to_int("t", term, bits) == int.from_bytes(digest, "big") % 2 ** bits

    def test_hash_to_range_empty_rejected(self):
        with pytest.raises(ValueError):
            hash_to_range("t", 1, 5, 4)

    def test_hash_to_range_roughly_uniform(self):
        counts = [0, 0, 0, 0]
        trials = 4000
        for i in range(trials):
            counts[hash_to_range("u", i, 0, 3)] += 1
        for c in counts:
            assert abs(c - trials / 4) < trials / 10

    def test_huge_range_works(self):
        value = hash_to_range("big", 7, 1, 2 ** 128)
        assert 1 <= value <= 2 ** 128
