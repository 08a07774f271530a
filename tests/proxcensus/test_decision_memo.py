"""The decision memo (:func:`repro.proxcensus.base.decide_once`) is exact.

Each family's output rule is a pure function of a small view, and every
program decides through one bounded memo.  For every family one
property checks, on views whose values mix ``0``/``False``,
``1``/``True``, str, bytes and None, that

* the memoised call returns the direct call's value, type for type —
  also right after the view's twin (every 0/1 swapped for False/True
  and back), which compares and hashes equal, was decided;
* a view holding a float or an object equal to ``0`` with ``0``'s hash
  is decided directly and never stored, and every other view is stored;
* with the size bound at 2, so that the memo is cleared over and over,
  no decision changes.

And a whole ``ba_one_third`` / ``ba_one_half`` trial gives one result
from a cleared memo, from a warm one and with every view decided
directly.
"""

from __future__ import annotations

from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import TrialSpec, run_trial
from repro.proxcensus import base, linear_half, one_third, proxcast, quadratic_half

from ..conftest import PROTOCOL_SHAPES, type_exact_equal


class _ZeroLike:
    """Equal to ``0`` and hashed like it, but not an exact scalar type."""

    def __eq__(self, other):
        return other == 0

    def __hash__(self):
        return hash(0)

    def __repr__(self):
        return "ZeroLike()"


EXACT = [0, False, 1, True, "a", b"a", None]
VALUES = st.sampled_from(EXACT + [0.0, _ZeroLike()])


@st.composite
def one_third_cases(draw):
    n = draw(st.sampled_from([4, 7]))
    slots = draw(st.integers(2, 9))
    row = st.tuples(
        st.integers(0, base.max_grade(slots)),
        st.sampled_from(["v", "unhashable"]),
        VALUES,
    )
    echoed = draw(st.lists(row, min_size=1, max_size=5))
    size = len(echoed)
    echoes = draw(st.lists(st.integers(1, n), min_size=size, max_size=size))
    return one_third.decide, (*echoed, tuple(echoes)), (n, (n - 1) // 3, slots)


@st.composite
def linear_half_cases(draw):
    rounds = draw(st.integers(2, 5))
    row = st.tuples(VALUES, st.integers(1, rounds), st.integers(2, rounds + 1))
    view = tuple(draw(st.lists(row, min_size=1, max_size=4)))
    return linear_half.decide, view, (rounds,)


@st.composite
def quadratic_half_cases(draw):
    rounds = draw(st.integers(3, 6))
    row = st.tuples(VALUES, st.integers(1, rounds), st.integers(1, rounds))
    view = tuple(draw(st.lists(row, min_size=1, max_size=6)))
    return quadratic_half.decide, view, (rounds,)


@st.composite
def proxcast_cases(draw):
    slots = draw(st.integers(2, 7))
    rounds = slots - 1
    quorum_ok = tuple(draw(st.lists(st.booleans(), min_size=rounds, max_size=rounds)))
    snapshot = st.lists(VALUES, max_size=2).map(tuple)
    snapshots = draw(st.lists(snapshot, min_size=rounds, max_size=rounds))
    view = ((draw(VALUES),), quorum_ok, *snapshots)
    return proxcast.decide, view, (slots, draw(st.booleans()))


FAMILIES = {
    "one_third": one_third_cases(),
    "linear_half": linear_half_cases(),
    "quadratic_half": quadratic_half_cases(),
    "proxcast": proxcast_cases(),
}


def _twin(view):
    """The view with every 0/1 scalar swapped between int and bool."""
    swap = {(int, 0): False, (int, 1): True, (bool, False): 0, (bool, True): 1}
    return tuple(
        tuple(swap.get((type(x), x), x) if type(x) in (int, bool) else x for x in row)
        for row in view
    )


def _stored(rule, view, params):
    """Whether the memo holds ``rule``'s decision on ``view``, type for type."""
    return any(
        key[0] is rule and key[1] == params and type_exact_equal(key[2], view)
        for key in base._decisions
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_memoised_decision_is_the_direct_one(family, data):
    cases = data.draw(st.lists(FAMILIES[family], min_size=1, max_size=4))
    cases = [
        (rule, view, params)
        for rule, first, params in cases
        for view in (first, _twin(first))
    ]
    for limit in (base._DECISION_LIMIT, 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(base, "_DECISION_LIMIT", limit)
            patch.setattr(base, "_decisions", {})
            for rule, view, params in cases + cases:  # the second pass hits
                direct = rule(view, *params)
                keys = list(base._decisions)
                memoised = base.decide_once(rule, view, *params)
                assert type_exact_equal(tuple(memoised), tuple(direct)), (view, params)
                exact = all(type(x) in (int, bool, str, bytes, type(None))
                            for x in chain.from_iterable(view))
                if exact:
                    assert _stored(rule, view, params)
                else:
                    assert list(base._decisions) == keys
                assert len(base._decisions) <= limit


@pytest.mark.parametrize(
    "protocol, adversary",
    [("ba_one_third", "straddle13"), ("ba_one_half", "straddle12")],
)
def test_a_cleared_memo_and_a_warm_one_give_one_result(
    protocol, adversary, monkeypatch
):
    inputs, max_faulty, params = PROTOCOL_SHAPES[protocol]
    spec = TrialSpec(
        protocol=protocol,
        inputs=inputs,
        max_faulty=max_faulty,
        params={**params, "kappa": 4},
        adversary=adversary,
        adversary_params={
            "victims": tuple(range(len(inputs) - max_faulty, len(inputs)))
        },
        seed=5,
    )
    monkeypatch.setattr(base, "_decisions", {})
    cold = run_trial(spec)
    stored = len(base._decisions)
    assert stored > 0
    warm = run_trial(spec)
    assert len(base._decisions) == stored  # every view was a hit
    monkeypatch.setattr(base, "_EXACT_TYPES", frozenset())  # decide every view directly
    direct = run_trial(spec)
    assert cold == warm == direct
    assert repr(cold) == repr(warm) == repr(direct)
