"""Proxcensus for t < n/2: ``2r - 1`` slots in ``r`` rounds (paper §3.3).

Construction (Lemma 3): parties threshold-sign their input and flood
reconstructed quorum signatures ``Σ`` for ``r`` rounds.  In round 2 each
party that reconstructed exactly one ``Σ`` additionally releases an
``ω``-share; ``n - t`` of these combine into a proof ``Ω`` that *some
honest party* saw a unique ``Σ`` after round 1 — propagating ``Ω`` is what
pushes the slot count from round-count-many to ``2r - 1``.

Output determination (Table 1 shows the r = 3 instance): party ``P_i``
outputs ``(y, g)`` with ``g ≥ 1`` iff

* ``Σ`` on ``y`` was known by the end of round ``r - g``;
* no ``Σ`` on any ``y' ≠ y`` was known by the end of round ``g + 1``; and
* ``Ω`` on ``y`` was known by the end of round ``r - g + 1``;

taking the largest such ``g`` (the value is then unique), else ``(0, 0)``.

Signatures are ``(n - t)``-of-``n`` unique threshold signatures; messages
are domain-separated per session and per role (``sigma`` vs ``omega``), so
an ``Ω`` can never masquerade as a ``Σ``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..crypto.random_oracle import PLAIN_TYPES
from ..network.messages import get_field
from ..network.party import Context
from .base import ProxOutput, decide_once

__all__ = [
    "decide", "prox_linear_half_program", "slots_after_rounds", "grade_conditions",
]

_KEY = "plh"


def slots_after_rounds(rounds: int) -> int:
    """Lemma 3: ``r`` rounds yield ``2r - 1`` slots."""
    if rounds < 2:
        raise ValueError("the linear t<n/2 Proxcensus needs at least 2 rounds")
    return 2 * rounds - 1


def grade_conditions(rounds: int) -> Dict[int, Dict[str, int]]:
    """The per-grade deadlines, as printed in the paper's Table 1.

    Maps grade ``g >= 1`` to the three round deadlines:
    ``sigma_by`` (Σ on y), ``no_other_by`` (no Σ on y'), ``omega_by`` (Ω).
    """
    return {
        g: {
            "sigma_by": rounds - g,
            "no_other_by": g + 1,
            "omega_by": rounds - g + 1,
        }
        for g in range(1, rounds)
    }


def _sigma_message(ctx: Context, value: Any):
    return (_KEY, ctx.session, "sigma", value)


def _omega_message(ctx: Context, value: Any):
    return (_KEY, ctx.session, "omega", value)


def prox_linear_half_program(ctx: Context, value: Any, rounds: int):
    """Party program for ``Prox_{2·rounds - 1}``, t < n/2.

    Returns a :class:`ProxOutput`; grade 0 reports value 0 (the ``⊥``
    slot of Table 1 — the paper uses 0).
    """
    if 2 * ctx.max_faulty >= ctx.num_parties:
        raise ValueError(
            f"prox_linear_half requires t < n/2, got t={ctx.max_faulty}, "
            f"n={ctx.num_parties}"
        )
    if rounds < 2:
        raise ValueError("need at least 2 rounds")
    scheme = ctx.crypto.quorum

    # sigma_first[v] = earliest round (1-based) a quorum signature Σ on v
    # was known; omega_first[v] likewise for the proof Ω.
    sigma_first: Dict[Any, int] = {}
    omega_first: Dict[Any, int] = {}
    sigma_sigs: Dict[Any, Any] = {}
    omega_sigs: Dict[Any, Any] = {}

    # --- Round 1: release a signature share on the input value. ----------
    share = scheme.sign_share(ctx.party_id, _sigma_message(ctx, value))
    inbox = yield ctx.broadcast({_KEY: {"value": value, "share": share}})
    shares_by_value: Dict[Any, List[Tuple[int, Any]]] = {}
    for sender, payload in inbox.items():
        body = get_field(payload, _KEY)
        if not isinstance(body, dict):
            continue
        v = body.get("value")
        try:
            hash(v)
        except TypeError:
            continue
        shares_by_value.setdefault(v, []).append((sender, body.get("share")))
    for v, indexed in shares_by_value.items():
        signature = scheme.try_combine(indexed, _sigma_message(ctx, v))
        if signature is not None:
            sigma_first[v] = 1
            sigma_sigs[v] = signature

    # --- Rounds 2..r: flood Σ's; round 2 additionally releases ω. --------
    for round_index in range(2, rounds + 1):
        outgoing: Dict[str, Any] = {
            "sigmas": [(v, sigma_sigs[v]) for v in sigma_sigs],
            "omegas": [(v, omega_sigs[v]) for v in omega_sigs],
        }
        if round_index == 2 and len(sigma_first) == 1:
            only_value = next(iter(sigma_first))
            outgoing["omega_share"] = (
                only_value,
                scheme.sign_share(ctx.party_id, _omega_message(ctx, only_value)),
            )
        inbox = yield ctx.broadcast({_KEY: outgoing})

        omega_shares: Dict[Any, List[Tuple[int, Any]]] = {}
        for sender, payload in inbox.items():
            body = get_field(payload, _KEY)
            if not isinstance(body, dict):
                continue
            for v, signature in _pairs(body.get("sigmas")):
                if v not in sigma_first and scheme.verify(
                    signature, _sigma_message(ctx, v)
                ):
                    sigma_first[v] = round_index
                    sigma_sigs[v] = signature
            for v, signature in _pairs(body.get("omegas")):
                if v not in omega_first and scheme.verify(
                    signature, _omega_message(ctx, v)
                ):
                    omega_first[v] = round_index
                    omega_sigs[v] = signature
            if round_index == 2:
                pair = body.get("omega_share")
                if isinstance(pair, tuple) and len(pair) == 2:
                    v, omega_share = pair
                    try:
                        hash(v)
                    except TypeError:
                        continue
                    omega_shares.setdefault(v, []).append((sender, omega_share))
        if round_index == 2:
            for v, indexed in omega_shares.items():
                signature = scheme.try_combine(indexed, _omega_message(ctx, v))
                if signature is not None and v not in omega_first:
                    omega_first[v] = 2
                    omega_sigs[v] = signature

    # --- Output determination. -------------------------------------------
    view = tuple(
        [(v, first, omega_first.get(v, rounds + 1)) for v, first in sigma_first.items()]
    )
    return decide_once(decide, view, rounds)


def decide(view, rounds: int) -> ProxOutput:
    """Table 1's output rule, a pure function of when Σ and Ω were known.

    ``view`` holds one ``(y, Σ round, Ω round)`` row per value with a
    known ``Σ``, in the order they were learned; ``Ω round`` is
    ``rounds + 1`` if no ``Ω`` on ``y`` was known.  Memoised by
    :func:`~.base.decide_once`.
    """
    ordered = sorted(view, key=lambda row: repr(row[0]))
    for grade, deadline in sorted(grade_conditions(rounds).items(), reverse=True):
        for v, sigma_round, omega_round in ordered:
            if sigma_round > deadline["sigma_by"]:
                continue
            if omega_round > deadline["omega_by"]:
                continue
            if any(
                v2 != v and first <= deadline["no_other_by"] for v2, first, _ in view
            ):
                continue
            return ProxOutput(v, grade)
    return ProxOutput(0, 0)


def _pairs(obj: Any):
    """The well-formed ``(value, signature)`` pairs of a Byzantine list:
    the honest shape, a list of exact 2-tuples led by plain values, is
    its own answer after one type-exact pass; anything else is parsed
    defensively."""
    if obj.__class__ is list:
        for item in obj:
            if (item.__class__ is not tuple or len(item) != 2
                    or item[0].__class__ not in PLAIN_TYPES):
                break
        else:
            return obj
    if not isinstance(obj, (list, tuple)):
        return ()
    pairs = []
    for item in obj:
        if isinstance(item, (list, tuple)) and len(item) == 2:
            v = item[0]
            try:
                hash(v)
            except TypeError:
                continue
            pairs.append((v, item[1]))
    return pairs
