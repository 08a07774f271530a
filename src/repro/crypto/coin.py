"""The common coin (CoinFlip) built from unique threshold signatures.

Paper, §2.2: "To obtain a uniform value on input k, parties simply sign the
value k and send their so obtained signature share to all parties.  Parties
can then hash the reconstructed signature on the value k into a suitable
domain."  Unforgeability keeps the coin uniform from the adversary's view
until the first honest share is released; uniqueness makes all honest
parties derive the *same* value.

Two flavours, both occupying exactly one communication round so that round
counts match the paper:

* :func:`threshold_coin_program` — the real construction over a
  ``(t+1)``-of-``n`` unique threshold scheme; and
* :class:`IdealCoin` / :func:`ideal_coin_program` — the "ideal 1-round
  multivalued coin-toss" the paper's round-complexity statements assume.
  The value is a deterministic hash of a session secret, so it is common to
  all parties and outside the adversary's influence, yet still takes its
  one round on the wire.
"""

from __future__ import annotations

import functools
import hashlib
import random
from typing import Callable

from .ideal import IdealThresholdScheme
from .interfaces import ThresholdSignatureScheme
from .random_oracle import (
    Term,
    encode_str,
    encode_term,
    encode_tuple,
    exact_key,
    first_digest_parts,
    hash_to_range,
    hash_to_range_encoded,
)

__all__ = [
    "coin_evaluator",
    "coin_message_tag",
    "coin_value_from_signature",
    "threshold_coin_program",
    "IdealCoin",
    "ideal_coin_program",
]


_COIN_FLIP = "coin-flip"


def coin_message_tag(session: str, index: Term) -> Term:
    """The message all parties threshold-sign for coin ``index``."""
    return (_COIN_FLIP, session, index)


def _extract_coin(
    encoded_session: bytes, encoded_index: bytes, signature: bytes, low: int, high: int
) -> int:
    """Hash ``(session, index, signature bytes)`` into ``[low, high]``."""
    return hash_to_range_encoded(
        "coin-extract",
        encode_tuple((encoded_session, encoded_index, encode_term(signature))),
        low,
        high,
    )


# All n parties of a run extract the same coin from the one combined
# signature object the run minted: the first pays the encodings and the
# hash.  Keyed on that object (signatures compare type-exactly), its
# scheme, the session and the index's exact key, so index 0 and index
# False stay two coins.
@functools.lru_cache(maxsize=256)
def _coin_once(scheme, signature, session, index_key, index, low, high) -> int:
    return _extract_coin(
        encode_term(session), encode_term(index),
        scheme.signature_bytes(signature), low, high,
    )


def coin_value_from_signature(
    scheme: ThresholdSignatureScheme,
    signature,
    session: str,
    index: Term,
    low: int,
    high: int,
) -> int:
    """Hash the unique combined signature into ``[low, high]``."""
    if session.__class__ is not str:  # 1 and True encode apart: not cached
        return _coin_once.__wrapped__(scheme, signature, session, None, index, low, high)
    return _coin_once(scheme, signature, session, exact_key(index), index, low, high)


def coin_evaluator(
    scheme: IdealThresholdScheme, index: Term, low: int, high: int
) -> Callable[[str], int]:
    """``session -> value`` of coin ``index``, without materializing shares.

    Combined ideal signatures are unique per (key, message), so whenever
    a quorum of valid shares exists the coin is a pure function of the
    session, equal to::

        coin_value_from_signature(
            scheme, scheme.combine(quorum, coin_message_tag(session, index)),
            session, index, low, high)

    This is for a caller — the vector engine backend — that has *proven*
    the combine succeeds and evaluates one coin over many sessions.
    Every constant byte is joined once, here, so an evaluation is the
    session's encoding, one HMAC computed afresh (the scheme's tag memo
    is left alone) and, while the range fits one digest (``span`` below
    ``2**128``), one SHA-256; wider ranges take the counter-mode
    expansion.  An empty range raises on evaluation, as
    :func:`~repro.crypto.random_oracle.hash_to_range` does.
    """
    encoded_index = encode_term(index)
    tag = scheme.fresh_combined_tagger(
        encode_tuple((encode_term(_COIN_FLIP), b"", b"")), encoded_index
    )
    span = high - low + 1
    bits = span.bit_length() + 128
    if span < 1 or bits > 256:

        def evaluate(session: str) -> int:
            encoded_session = encode_str(session)
            return _extract_coin(
                encoded_session, encoded_index, tag(encoded_session), low, high
            )

        return evaluate

    head, tail = first_digest_parts("coin-extract", (), (encoded_index,))
    mask = (1 << bits) - 1
    sha256, from_bytes = hashlib.sha256, int.from_bytes

    def evaluate(session: str) -> int:
        middle = encode_str(session)
        digest = sha256(head + middle + tail + tag(middle)).digest()
        return low + (from_bytes(digest, "big") & mask) % span

    return evaluate


def threshold_coin_program(ctx, index: Term, low: int, high: int):
    """One-round CoinFlip subprotocol (generator; see network.party docs).

    Broadcasts this party's coin share, collects the round's shares, combines
    and hashes.  Returns the coin value, or ``None`` in the (honest-majority
    impossible) case that fewer than ``t + 1`` valid shares arrived — callers
    treat ``None`` as a failed coin, which only ever costs one iteration.
    """
    scheme = ctx.crypto.coin
    message = coin_message_tag(ctx.session, index)
    share = scheme.sign_share(ctx.party_id, message)
    inbox = yield ctx.broadcast({"coin_share": share})
    indexed = []
    for sender, payload in inbox.items():
        if isinstance(payload, dict) and "coin_share" in payload:
            indexed.append((sender, payload["coin_share"]))
    signature = scheme.try_combine(indexed, message)
    if signature is None:
        return None
    return coin_value_from_signature(scheme, signature, ctx.session, index, low, high)


class IdealCoin:
    """An ideal multivalued coin: uniform, common, adversary-independent.

    A session-scoped secret seeds the coin so that protocol code (and, more
    importantly, adversary strategies) cannot predict values for indices
    that have not been opened yet without access to this object's secret.
    """

    def __init__(self, rng: random.Random) -> None:
        self._secret = rng.getrandbits(256)

    def value(self, index: Term, low: int, high: int) -> int:
        return hash_to_range("ideal-coin", (self._secret, index), low, high)


def ideal_coin_program(ctx, coin: IdealCoin, index: Term, low: int, high: int):
    """One-round wrapper around :class:`IdealCoin` (empty broadcast).

    The round is spent (the paper's ideal coin is 1-round), but no payload
    travels; the value is read locally after the round boundary, which
    models "the adversary cannot see the coin before honest round-r
    messages are fixed".
    """
    yield None  # silent round: the round is spent, nothing travels
    return coin.value(index, low, high)
