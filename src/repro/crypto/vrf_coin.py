"""The Chen–Micali VRF-style common coin — and why the paper avoids it.

Paper §1 ("More on previous work"): Chen and Micali [4] implement the
common coin "by means of verifiable random functions — at the price of
downgrading to computational security against an adversary that is *not
strongly rushing*".  This module implements that coin so the trade-off is
executable:

* every party evaluates its VRF at the coin index — here, the unique
  RSA-FDH signature on the index, hashed to a value in ``[0, 2^128)``
  (uniqueness + public verifiability is exactly the VRF contract);
* parties broadcast their evaluation (1 round, like the threshold coin);
* the coin is derived from the *minimum* valid evaluation received.

Against a **strongly rushing** adversary this is biased: the adversary
sees all honest evaluations first and then decides, per corrupted party,
whether to reveal its (possibly minimal) evaluation — steering the coin
whenever a corrupted party holds the global minimum, i.e. with probability
about ``t/n`` per flip (:class:`repro.adversary.coin_bias.WithholdingCoinAdversary`,
measured in ``benchmarks/bench_coin_bias.py``).  The threshold-signature
coin of :mod:`repro.crypto.coin` is immune: its value is fixed by the key
material alone, so withholding shares can only *fail* the flip, never
steer it.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from .ideal import IdealSignatureScheme
from .interfaces import SignatureScheme
from .random_oracle import (
    Term,
    encode_str,
    encode_term,
    encode_tuple,
    first_digest_parts,
    hash_to_int,
    hash_to_range,
    hash_to_range_encoded,
)

__all__ = [
    "vrf_evaluate",
    "vrf_evaluator",
    "vrf_verify",
    "vrf_coin_extractor",
    "vrf_coin_from_evaluations",
    "vrf_coin_program",
]

_EVALUATION_BITS = 128
_VRF_COIN = "vrf-coin"


def vrf_message(session: str, index: Term) -> Term:
    """The message every party signs for this coin instance."""
    return (_VRF_COIN, session, index)


def vrf_evaluate(
    scheme: SignatureScheme, signer: int, session: str, index: Term
) -> Tuple[int, Any]:
    """This party's VRF output at the coin index: ``(value, proof)``.

    The proof is the unique signature; the value is its hash.  (With
    RSA-FDH the signature *is* a classic VRF; with the idealized backend
    uniqueness holds by construction.)
    """
    proof = scheme.sign(signer, vrf_message(session, index))
    value = hash_to_int("vrf-value", ("out", session, index, _proof_term(proof)),
                        _EVALUATION_BITS)
    return value, proof


def vrf_evaluator(
    scheme: IdealSignatureScheme, index: Term
) -> Callable[[str], List[int]]:
    """``session -> [every party's evaluation value]`` at coin ``index``.

    Entry ``signer`` equals ``vrf_evaluate(scheme, signer, session,
    index)[0]``.  For a caller — the vector engine backend — that needs
    all parties' values over many sessions and no proof objects: every
    constant byte is joined once, here, so a session costs its encoding
    plus one HMAC (computed afresh — the scheme's tag memo is left
    alone) and one SHA-256 per party, each evaluation made once.
    """
    encoded_index = encode_term(index)
    message_head = encode_tuple((encode_term(_VRF_COIN), b"", b""))
    taggers = [
        scheme.fresh_tagger(signer, message_head, encoded_index)
        for signer in range(scheme.num_parties)
    ]
    head, tail = first_digest_parts(
        "vrf-value", (encode_term("out"),), (encoded_index,)
    )
    mask = (1 << _EVALUATION_BITS) - 1
    sha256, from_bytes = hashlib.sha256, int.from_bytes

    def evaluate(session: str) -> List[int]:
        middle = encode_str(session)
        prefix = head + middle + tail
        return [
            from_bytes(sha256(prefix + tag(middle)).digest(), "big") & mask
            for tag in taggers
        ]

    return evaluate


def vrf_verify(
    scheme: SignatureScheme, signer: int, value: Any, proof: Any,
    session: str, index: Term,
) -> bool:
    """Publicly verify an evaluation; never raises on garbage."""
    if not isinstance(value, int) or isinstance(value, bool):
        return False
    if not scheme.verify(signer, proof, vrf_message(session, index)):
        return False
    expected = hash_to_int(
        "vrf-value", ("out", session, index, _proof_term(proof)),
        _EVALUATION_BITS,
    )
    return value == expected


def _proof_term(proof: Any) -> Term:
    # Both backends' signature objects reduce to stable byte/int content.
    tag = getattr(proof, "tag", None)
    if isinstance(tag, bytes):
        return tag
    numeric = getattr(proof, "value", None)
    if isinstance(numeric, int):
        return numeric
    return repr(proof)


def vrf_coin_from_evaluations(
    evaluations: Dict[int, int], session: str, index: Term, low: int, high: int
) -> Optional[int]:
    """Derive the coin from the minimum valid evaluation (already verified).

    Ties broken by party id; returns ``None`` when no evaluation arrived.
    """
    if not evaluations:
        return None
    winner = min(evaluations.items(), key=lambda kv: (kv[1], kv[0]))
    return hash_to_range(
        "vrf-coin-extract", (session, index, winner[0], winner[1]), low, high
    )


def vrf_coin_extractor(
    index: Term, low: int, high: int
) -> Callable[[Dict[int, int], str], Optional[int]]:
    """``(evaluations, session) -> coin`` at coin ``index`` over ``[low, high]``.

    Equal to ``vrf_coin_from_evaluations(evaluations, session, index,
    low, high)`` on every input, for a caller — the vector engine
    backend — that extracts one coin over many sessions: every constant
    byte is joined once, here, so while the range fits one digest
    (``span`` below ``2**128``) an extraction is the winner's search,
    three short encodings and one SHA-256; wider ranges take the
    counter-mode expansion, and an empty one raises on extraction, as
    :func:`~repro.crypto.random_oracle.hash_to_range` does.
    """
    span = high - low + 1
    bits = span.bit_length() + 128
    # tail is the index's encoding: the term's second element of four.
    head, tail = first_digest_parts(
        "vrf-coin-extract", (), (encode_term(index),), trailing=2
    )
    mask = (1 << bits) - 1
    sha256, from_bytes = hashlib.sha256, int.from_bytes

    def extract(evaluations: Dict[int, int], session: str) -> Optional[int]:
        if not evaluations:
            return None
        value = min(evaluations.values())
        winner = min(pid for pid, held in evaluations.items() if held == value)
        parts = (
            encode_str(session), tail, encode_term(winner), encode_term(value)
        )
        if span < 1 or bits > 256:
            return hash_to_range_encoded(
                "vrf-coin-extract", encode_tuple(parts), low, high
            )
        digest = sha256(head + b"".join(parts)).digest()
        return low + (from_bytes(digest, "big") & mask) % span

    return extract


def vrf_coin_program(ctx, index: Term, low: int, high: int):
    """One-round VRF coin subprotocol (same interface as the others).

    Insecure against strongly rushing adversaries by design — that is the
    point of having it in the repository; see the module docstring.
    """
    scheme = ctx.crypto.plain
    value, proof = vrf_evaluate(scheme, ctx.party_id, ctx.session, index)
    inbox = yield ctx.broadcast({"vrf": (value, proof)})
    valid: Dict[int, int] = {}
    for sender, payload in inbox.items():
        pair = payload.get("vrf") if isinstance(payload, dict) else None
        if not (isinstance(pair, tuple) and len(pair) == 2):
            continue
        received_value, received_proof = pair
        if vrf_verify(
            scheme, sender, received_value, received_proof, ctx.session, index
        ):
            valid[sender] = received_value
    return vrf_coin_from_evaluations(valid, ctx.session, index, low, high)
