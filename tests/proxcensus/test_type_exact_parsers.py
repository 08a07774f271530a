"""The type-exact parser fast paths equal the defensive parsers.

An honest payload (an exact ``dict`` / ``list`` / ``tuple`` of exact
``int`` / ``str`` / ``bytes`` / ``None``) is accepted in one type-exact
pass; anything else takes the defensive parser.  Each property feeds
fuzzed payloads — bools, a list for a tuple, ``tuple`` / ``int`` /
``str`` subclasses, unhashables — to the fast path and to the defensive
path on the same data, and asks for the same answer, type for type.
"""

import itertools
import random
from unittest import mock

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.party import Context
from repro.proxcensus import one_third
from repro.proxcensus.base import decide_once, max_grade
from repro.proxcensus.linear_half import _pairs
from repro.proxcensus.one_third import prox_expand_once_program

from ..conftest import ideal_suite, type_exact_equal


class _Int(int):
    pass


class _Str(str):
    pass


class _Tuple(tuple):
    pass


class _Dict(dict):
    pass


values = st.one_of(
    st.sampled_from([0, 1, 2, "x", b"y", None, True, False, (0, 1), ()]),
    st.integers(-2, 9),
    st.builds(_Int, st.integers(0, 3)),
    st.builds(_Str, st.sampled_from(["x", "0"])),
    st.lists(st.integers(0, 1), max_size=2),  # unhashable
    st.just(0.0),
)


def containers(first, second):
    """A pair in every shape a Byzantine sender could give it."""
    return st.one_of(
        st.tuples(first, second),
        st.tuples(first, second).map(list),
        st.tuples(first, second).map(_Tuple),
        st.tuples(first, second, second),
        st.tuples(first),
        values,
    )


def _same_pairs(fast, defensive):
    fast, defensive = list(fast), list(defensive)
    return len(fast) == len(defensive) and all(
        a.__class__ is b.__class__ is tuple and len(a) == len(b) == 2
        and type_exact_equal(a[0], b[0]) and a[1] is b[1]
        for a, b in zip(fast, defensive)
    )


class TestLinearHalfPairs:
    @given(st.one_of(
        st.lists(containers(values, st.sampled_from([None, "sig", b"sig", 3]))),
        st.lists(st.tuples(st.sampled_from([0, 1, "v", b"v", None]), st.just("sig"))),
        values,
    ))
    @settings(max_examples=150, deadline=None)
    def test_the_fast_path_equals_the_defensive_parse(self, obj):
        got = _pairs(obj)
        if obj.__class__ is list:
            # A tuple of the same items always takes the defensive parse.
            assert _same_pairs(got, _pairs(tuple(obj)))
        for v, _ in got:
            hash(v)

    def test_an_honest_list_is_its_own_answer(self):
        honest = [(0, "s"), ("v", None), (b"b", 1), (None, 2)]
        assert _pairs(honest) is honest
        for shaped in ([(True, "s")], [(_Int(1), "s")], [[0, "s"]], [(0, "s", 1)]):
            assert _pairs(shaped) is not shaped


def _context(n, t):
    return Context(
        party_id=0, num_parties=n, max_faulty=t, session="parse",
        crypto=ideal_suite(n, t), rng=random.Random(0),
    )


def _expand(n, t, slots, payloads):
    """The expansion's output on ``payloads`` and the view it decided."""
    views = []

    def recording(rule, view, *params):
        views.append(view)
        return decide_once(rule, view, *params)

    generator = prox_expand_once_program(_context(n, t), 0, 0, slots)
    next(generator)
    with mock.patch.object(one_third, "decide_once", recording):
        try:
            generator.send(dict(enumerate(payloads)))
        except StopIteration as stop:
            return (tuple(stop.value), *views)
    raise AssertionError("the expansion did not finish")


@st.composite
def echo_rounds(draw):
    n = draw(st.integers(4, 10))
    slots = draw(st.sampled_from([2, 3, 5, 9]))
    grades = st.one_of(
        st.integers(-1, max_grade(slots) + 1),
        st.sampled_from([True, False, _Int(0), _Int(1), "1", None]),
    )
    honest = st.fixed_dictionaries({
        "prox13": st.tuples(st.sampled_from([0, 1, "x"]), st.integers(0, max_grade(slots)))
    })
    # An exact tuple is the shape the fast path looks into.
    near_honest = st.fixed_dictionaries({"prox13": st.tuples(values, grades)})
    byzantine = st.fixed_dictionaries({"prox13": containers(values, grades)})
    payload = st.one_of(
        honest,
        near_honest,
        byzantine,
        st.one_of(near_honest, byzantine).map(_Dict),
        st.sampled_from([None, [], {}, {"other": (0, 0)}]),
    )
    return n, (n - 1) // 3, slots, draw(st.lists(payload, min_size=1, max_size=n))


_ZS = [0, 1, "x", b"y", None, True, False, (0, 1), _Int(1), _Str("x"), [0], 0.0]
_HS = [-1, 0, 1, 2, 3, True, False, _Int(1), "1", None, 1.0]
_SHAPES = [tuple, list, _Tuple]


class TestOneThirdEcho:
    @pytest.mark.parametrize("slots", [2, 3])
    def test_every_single_echo_parses_as_the_defensive_parser_does(self, slots):
        for z, h, shape in itertools.product(_ZS, _HS, _SHAPES):
            payload = {"prox13": shape((z, h))}
            fast = _expand(4, 1, slots, [payload])
            assert type_exact_equal(fast, _expand(4, 1, slots, [_Dict(payload)])), (z, h)

    @given(echo_rounds())
    @settings(max_examples=120, deadline=None)
    def test_the_fast_path_equals_the_defensive_parse(self, case):
        n, t, slots, payloads = case
        fast = _expand(n, t, slots, payloads)
        # A dict subclass is never the honest shape: every echo is parsed
        # by `_echo`, the defensive parser, on the same pairs.
        defensive = _expand(
            n, t, slots,
            [_Dict(p) if p.__class__ is dict else p for p in payloads],
        )
        assert len(fast) == len(defensive) == 2
        assert type_exact_equal(fast, defensive)
