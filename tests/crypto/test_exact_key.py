"""``exact_key``: a dict key that is equal only where the types are too.

Two caches key by it — the ideal schemes' tag memo (signed messages) and
the vector backend's configuration tables (``TrialSpec.batch_key``) — so
one set of properties covers both: in a plain tuple ``0 == False == 0.0`` and
``"a" == _Name("a")``, while ``encode_term`` and ``unsupported_reason``
tell them apart.
"""

import enum

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.random_oracle import encode_term, exact_key
from tests.conftest import type_exact_equal


class _Name(str):
    pass


class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


# Each leaf with the leaves it equals as a dict key.  A term's twin draws
# every leaf from its row, so equal terms of other types come up often.
_TWINS = [
    (None,), (0, False, _Level.LOW, 0.0, -0.0), (1, True, _Level.HIGH, 1.0),
    (-2, -2.0), (0.5,), ("", _Name("")), ("a", _Name("a")), (b"",), (b"a",),
]


def _terms(floats):
    """Nested tuples of ``_TWINS`` leaves; ``floats=False`` leaves out the
    ``float`` leaves, which ``encode_term`` refuses."""
    leaves = [leaf for row in _TWINS for leaf in row]
    return st.recursive(
        st.sampled_from([leaf for leaf in leaves if floats or type(leaf) is not float]),
        lambda children: st.lists(children, max_size=3).map(tuple),
        max_leaves=8,
    )


# The exact leaf types of ``repro.crypto.random_oracle.Term``.
_TERM_TYPES = {str, bytes, int, bool, type(None)}


def _twin(term, data, floats=True):
    if type(term) is tuple:
        return tuple(_twin(part, data, floats) for part in term)
    row = next(row for row in _TWINS if term in row and type(term) in map(type, row))
    return data.draw(
        st.sampled_from([leaf for leaf in row if floats or type(leaf) is not float])
    )


def _leaf_types(term):
    if type(term) is tuple:
        return {kind for part in term for kind in _leaf_types(part)}
    return {type(term)}


@settings(max_examples=300, deadline=None)
@given(st.data(), _terms(floats=True))
def test_equal_keys_iff_equal_and_type_exact(data, term):
    """Keys are equal exactly when the terms are equal type for type, and
    then hash equal."""
    for other in (_twin(term, data), data.draw(_terms(floats=True))):
        key, other_key = exact_key(term), exact_key(other)
        same = key == other_key
        assert same == type_exact_equal(term, other)
        if same:
            assert hash(key) == hash(other_key)


@settings(max_examples=300, deadline=None)
@given(st.data(), _terms(floats=False))
def test_equal_keys_iff_equal_encodings(data, term):
    """On terms ``encode_term`` takes, equal keys hash equal and are equal
    encodings, and on ``Term``'s own leaf types the converse holds too (a
    ``str`` subclass or an ``IntEnum`` encodes like its base but keys
    apart)."""
    for other in (_twin(term, data, floats=False), data.draw(_terms(floats=False))):
        key, other_key = exact_key(term), exact_key(other)
        same = key == other_key
        encoded_same = encode_term(term) == encode_term(other)
        if same:
            assert hash(key) == hash(other_key)
            assert encoded_same
        elif _leaf_types((term, other)) <= _TERM_TYPES:
            assert not encoded_same
