"""Chaos: minted-object identity against drawn Byzantine garbage.

The ideal schemes accept a share or signature that *is* the object the
run minted without recomputing its tag, and check every other object by
its tag.  Here hypothesis draws schedules whose corrupted parties copy,
forge, re-attribute, replay and steal the shares and signatures they
see, and every execution must come out the same with the tag memo on
(the identity path) and off (tag comparison only).
"""

from __future__ import annotations

from typing import Dict, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.base import Adversary, RoundDecision, RoundView
from repro.crypto.ideal import _IdealShare, _IdealSignature, set_tag_memoization
from repro.engine.registry import build_protocol_factory

from ..conftest import run
from .conftest import examples

MANGLES = ("follow", "copy", "forge", "claim", "bool", "steal", "stale", "silent", "garbage")

# (protocol, params, t for n parties): the ideal schemes' every user.
PROTOCOLS = (
    ("ba_one_half", {"kappa": 3}, lambda n: (n - 1) // 2),
    ("ba_one_third", {"kappa": 3}, lambda n: (n - 1) // 3),
    ("mv_pki", {"kappa": 2}, lambda n: (n - 1) // 2),
    ("prox_linear_half", {"rounds": 3}, lambda n: (n - 1) // 2),
    ("threshold_coin", {}, lambda n: (n - 1) // 2),
    ("vrf_coin", {}, lambda n: (n - 1) // 2),
)


def _flip(tag: bytes) -> bytes:
    return bytes([tag[0] ^ 1]) + tag[1:]


def _mangle(payload, action: str, n: int):
    """``payload`` with every ideal share and signature in it mangled."""
    if isinstance(payload, dict):
        return {key: _mangle(value, action, n) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return type(payload)(_mangle(item, action, n) for item in payload)
    if isinstance(payload, _IdealShare):
        signer, tag = payload.signer, payload.tag
        if action == "forge":
            tag = _flip(tag)
        elif action == "claim":
            signer = (signer + 1) % n
        elif action == "bool" and signer in (0, 1):
            signer = bool(signer)
        return _IdealShare(signer, tag)  # "copy": equal, not the minted one
    if isinstance(payload, _IdealSignature):
        return _IdealSignature(_flip(payload.tag) if action == "forge" else payload.tag)
    return payload


class MangleAdversary(Adversary):
    """Corrupts ``victims`` and, each round, applies one drawn action per
    victim to what its shadow run would send."""

    def __init__(self, victims: List[int], plan: Dict[int, List[str]]) -> None:
        self.victims = victims
        self.plan = plan
        self._previous: Dict[int, Dict[int, object]] = {}

    def initial_corruptions(self):
        return set(self.victims)

    def decide(self, view: RoundView) -> RoundDecision:
        decision = RoundDecision()
        n = self.env.num_parties
        honest = [p for p in range(n) if p not in view.corrupted]
        for pid in self.victims:
            actions = self.plan[pid]
            action = actions[(view.round_index - 1) % len(actions)]
            shadow = view.outboxes.get(pid, {})
            if action == "silent":
                decision.replace[pid] = None
            elif action == "garbage":
                rng = self.env.rng
                decision.replace[pid] = {
                    r: rng.choice([None, 0, (0, 1), {"coin_share": b"x"}]) for r in range(n)
                }
            elif action in ("steal", "stale") and honest:
                source = honest[view.round_index % len(honest)]
                outbox = (view.outboxes if action == "steal" else self._previous).get(source)
                decision.replace[pid] = dict(outbox) if outbox else None
            elif action != "follow":
                decision.replace[pid] = {
                    r: _mangle(p, action, n) for r, p in shadow.items()
                }
        self._previous = {p: dict(o) for p, o in view.outboxes.items() if o}
        return decision


@st.composite
def mangle_case(draw):
    protocol, params, resilience = draw(st.sampled_from(PROTOCOLS))
    n = draw(st.integers(3, 7))
    t = resilience(n)
    inputs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    plan = {
        pid: draw(st.lists(st.sampled_from(MANGLES), min_size=1, max_size=4))
        for pid in draw(st.sets(st.integers(0, n - 1), max_size=t))
    }
    return protocol, params, inputs, t, plan, draw(st.integers(0, 2 ** 16))


def _run(case, memo: bool):
    protocol, params, inputs, t, plan, seed = case
    previous = set_tag_memoization(memo)
    try:
        return run(
            build_protocol_factory(protocol, params), inputs, t,
            adversary=MangleAdversary(sorted(plan), plan), seed=seed,
            session=f"mint{seed}",
        )
    finally:
        set_tag_memoization(previous)


class TestMemoIdentityChaos:
    @given(case=mangle_case())
    @settings(
        max_examples=examples(40), deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_memo_on_and_off_give_equal_executions(self, case):
        assert _run(case, True) == _run(case, False)
