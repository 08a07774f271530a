"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.crypto.keys import CryptoSuite
from repro.network.simulator import SyncSimulator

# Dealt once per session: ideal suites are cheap but there is no reason to
# re-deal hundreds of times across tests with the same (n, t).
_SUITE_CACHE = {}


def ideal_suite(num_parties: int, max_faulty: int) -> CryptoSuite:
    key = (num_parties, max_faulty)
    if key not in _SUITE_CACHE:
        _SUITE_CACHE[key] = CryptoSuite.ideal(
            num_parties, max_faulty, random.Random(hash(key) & 0xFFFF)
        )
    return _SUITE_CACHE[key]


def run(factory, inputs, max_faulty, adversary=None, seed=0, session="t", crypto=None):
    """Run a protocol on cached ideal keys; returns the ExecutionResult."""
    num_parties = len(inputs)
    simulator = SyncSimulator(
        num_parties=num_parties,
        max_faulty=max_faulty,
        crypto=crypto or ideal_suite(num_parties, max_faulty),
        adversary=adversary,
        seed=seed,
        session=session,
    )
    return simulator.run(factory, inputs)


@pytest.fixture
def rng():
    return random.Random(0xDEC0DE)


def type_exact_equal(a, b):
    """``a == b`` with the types matching through every nested tuple:
    ``1``, ``1.0`` and ``True`` are equal but not type-exact.  The
    reference :func:`repro.crypto.random_oracle.exact_key` is held to."""
    if a is b:
        return True
    if a != b or type(a) is not type(b):
        return False
    return type(a) is not tuple or all(map(type_exact_equal, a, b))


def swap_vector_model(monkeypatch, protocol, adversary, **fields):
    """For one test, serve ``protocol`` (whose vector model serves
    ``adversary``) from a copy of its record with ``fields`` replaced —
    e.g. ``batch=broken`` makes each batch run ``broken(specs)``."""
    from repro.engine import vectorized

    model = vectorized._MODELS[protocol]
    assert adversary in model.adversaries, (protocol, adversary)
    swapped = dataclasses.replace(model, **fields)
    monkeypatch.setitem(vectorized._MODELS, protocol, swapped)


# Per-protocol sweep shapes for every *stock* registered protocol:
# (inputs, max_faulty, params).  Shared by the transport losslessness
# matrix (tests/engine/test_transport.py) and the trace round-trip
# property (tests/obs/test_replay.py) — one table, so a protocol added
# to the registry without a shape fails both suites loudly.
PROTOCOL_SHAPES = {
    "ba_one_third": ((0, 0, 1, 1), 1, {"kappa": 2}),
    "ba_one_half": ((0, 0, 1, 1, 1), 2, {"kappa": 2}),
    "feldman_micali": ((0, 0, 1, 1), 1, {"kappa": 2}),
    "micali_vaikuntanathan": ((0, 0, 1, 1, 1), 2, {"kappa": 2}),
    "mv_pki": ((0, 0, 1, 1, 1), 2, {"kappa": 2}),
    "dolev_strong": ((0, 0, 1, 1), 1, {}),
    "fm_probabilistic": ((0, 0, 1, 1), 1, {}),
    "prox_one_third": ((0, 1, 2, 3), 1, {"rounds": 3}),
    "prox_linear_half": ((0, 1, 2, 3, 4), 2, {"rounds": 3}),
    "prox_quadratic_half": ((0, 1, 2, 3, 4), 2, {"rounds": 3}),
    "turpin_coan_classic": (("a", "b", "c", "a"), 1, {"kappa": 2}),
    "multivalued_ba": (("a", "b", "c", "a"), 1, {"kappa": 2}),
    "vrf_coin": ((None, None, None, None), 1, {"index": 0}),
    "threshold_coin": ((None, None, None, None), 1, {"index": 0}),
    "prox_expand_once": (((1, 0), (1, 1), (1, 1), (1, 0)), 1, {"slots": 4}),
    "proxcast": (("v", "v", "v", "v"), 1, {"slots": 4, "dealer": 0}),
    "certificate_gradecast": (("v",) * 5, 2, {"dealer": 0}),
    "ba_one_third_chunked": ((0, 0, 1, 1), 1, {"kappa": 4, "chunk": 2}),
    "ba_one_half_generalized": ((0, 0, 1, 1, 1), 2, {"kappa": 3}),
}
