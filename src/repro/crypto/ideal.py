"""Idealized signature backends.

The paper (§2.2) analyses its protocols against *idealized* signatures:
"we require that for any given threshold t, signatures remain perfectly
unforgeable for a message m, given t signature shares on m".  This module
realizes that idealization concretely: a trusted registry holds a secret
MAC key; signatures and shares are HMAC tags over canonical encodings, so

* they are unforgeable to any code that only uses the public API (the
  simulated adversary), because producing a tag requires the registry key;
* combined signatures are **unique** per (registry, message) — required by
  the common coin; and
* verification is pure recomputation, with no global mutable state, so a
  signature formed by one party verifies at every other party.

Corrupted parties legitimately hold their own secret keys, which here means
they may call ``sign``/``sign_share`` for their own ids — exactly the power
the model grants them — but cannot mint shares for honest ids nor combined
signatures without ``threshold`` distinct shares.
"""

from __future__ import annotations

import hmac
import random
from dataclasses import dataclass
from typing import Sequence

from .interfaces import CryptoError, SignatureScheme, ThresholdSignatureScheme
from .random_oracle import Term, encode_term, encode_tuple

__all__ = ["IdealSignatureScheme", "IdealThresholdScheme", "set_tag_memoization"]


def _tag_encoded(key: bytes, parts: Sequence[bytes]) -> bytes:
    """HMAC tag over the tuple whose elements encode to ``parts``."""
    return hmac.digest(key, encode_tuple(parts), "sha256")


def _tag(key: bytes, *parts: Term) -> bytes:
    return _tag_encoded(key, [encode_term(part) for part in parts])


_COMBINED = encode_term("combined")


# Tag memoization.  Signing and verifying are pure functions of
# (registry key, domain, signer, message); in a simulated run the same
# few tags are recomputed constantly — every share is verified by all n
# parties, and every combine re-verifies its inputs — so each scheme
# instance memoizes tags it has already derived.  The memo is an
# implementation detail: results are bit-identical with it disabled
# (`set_tag_memoization(False)`, pinned by `tests/crypto/test_tag_memo.py`).
_MEMO_ENABLED = True
_MEMO_LIMIT = 1 << 14  # per scheme instance; cleared wholesale when full


def set_tag_memoization(enabled: bool) -> bool:
    """Globally enable/disable tag memoization; returns the old setting."""
    global _MEMO_ENABLED
    previous = _MEMO_ENABLED
    _MEMO_ENABLED = enabled
    return previous


def _memo_key(term):
    """Type-tagged mirror of a term, equal iff the canonical encodings are.

    Plain tuple keys would conflate ``0``/``False`` (equal as dict keys,
    distinct under :func:`encode_term`); tagging nodes with their exact
    type restores injectivity.  ``str``/``bytes`` stay bare — they never
    compare equal to any other builtin — and tuples map to bare tuples of
    mapped children (a mapped node is never a bare type object, so the
    2-tuple wrappers cannot collide with mapped 2-element terms).
    """
    tp = term.__class__
    if tp is tuple:
        return tuple([_memo_key(part) for part in term])
    if tp is str or tp is bytes:
        return term
    return (tp, term)


class _TagMemo:
    """Bounded memo of HMAC tags for one registry key.

    Two layers: a structural memo (term key → tag bytes) shared by all
    callers, and an identity cache (id of a live message object → its
    structural key) so call sites that reuse one message object across
    many sign/verify calls pay the key walk once.  The identity cache
    holds strong references to its messages, which is what keeps the
    ``id()`` keys valid.
    """

    __slots__ = ("_key", "_memo", "_message_keys")

    _MESSAGE_KEY_LIMIT = 512

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._memo: dict = {}
        self._message_keys: dict = {}

    def _message_key(self, message: Term):
        cache = self._message_keys
        entry = cache.get(id(message))
        if entry is not None and entry[0] is message:
            return entry[1]
        key = _memo_key(message)
        if len(cache) >= self._MESSAGE_KEY_LIMIT:
            cache.clear()
        cache[id(message)] = (message, key)
        return key

    def _lookup(self, key, *parts: Term) -> bytes:
        memo = self._memo
        try:
            cached = memo.get(key)
        except TypeError:  # unhashable part: compute directly (and let
            return _tag(self._key, *parts)  # encode_term raise if non-Term)
        if cached is None:
            cached = _tag(self._key, *parts)
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[key] = cached
        return cached

    def signer_tag(self, domain: str, signer, message: Term) -> bytes:
        """Tag over (domain, signer, message) — plain signatures and shares."""
        if not _MEMO_ENABLED:
            return _tag(self._key, domain, signer, message)
        key = (domain, signer.__class__, signer, self._message_key(message))
        return self._lookup(key, domain, signer, message)

    def combined_tag(self, domain: str, message: Term) -> bytes:
        """Tag over (domain, message) — combined threshold signatures."""
        if not _MEMO_ENABLED:
            return _tag(self._key, domain, message)
        key = (domain, self._message_key(message))
        return self._lookup(key, domain, message)


@dataclass(frozen=True)
class _IdealShare:
    signer: int
    tag: bytes


@dataclass(frozen=True)
class _IdealSignature:
    tag: bytes


class IdealSignatureScheme(SignatureScheme):
    """Per-party idealized plain signatures."""

    def __init__(self, num_parties: int, rng: random.Random) -> None:
        if num_parties < 1:
            raise CryptoError("need at least one party")
        self._n = num_parties
        self._key = rng.getrandbits(256).to_bytes(32, "big")
        self._tags = _TagMemo(self._key)

    @property
    def num_parties(self) -> int:
        return self._n

    def sign(self, signer: int, message: Term) -> _IdealSignature:
        self._check_signer(signer)
        return _IdealSignature(self._tags.signer_tag("plain", signer, message))

    def verify(self, signer: int, signature, message: Term) -> bool:
        if not isinstance(signature, _IdealSignature):
            return False
        if not isinstance(signer, int) or not (0 <= signer < self._n):
            return False
        try:
            expected = self._tags.signer_tag("plain", signer, message)
        except TypeError:
            return False
        return hmac.compare_digest(signature.tag, expected)

    def _check_signer(self, signer: int) -> None:
        if not (0 <= signer < self._n):
            raise CryptoError(f"no such signer {signer}")


class IdealThresholdScheme(ThresholdSignatureScheme):
    """Idealized ``threshold``-of-``n`` unique threshold signatures."""

    def __init__(self, num_parties: int, threshold: int, rng: random.Random) -> None:
        if not (1 <= threshold <= num_parties):
            raise CryptoError(
                f"need 1 <= threshold <= n, got {threshold}/{num_parties}"
            )
        self._n = num_parties
        self._threshold = threshold
        self._key = rng.getrandbits(256).to_bytes(32, "big")
        self._tags = _TagMemo(self._key)

    @property
    def num_parties(self) -> int:
        return self._n

    @property
    def threshold(self) -> int:
        return self._threshold

    def sign_share(self, signer: int, message: Term) -> _IdealShare:
        if not (0 <= signer < self._n):
            raise CryptoError(f"no such signer {signer}")
        return _IdealShare(signer, self._tags.signer_tag("share", signer, message))

    def verify_share(self, signer: int, share, message: Term) -> bool:
        if not isinstance(share, _IdealShare) or share.signer != signer:
            return False
        if not isinstance(signer, int) or not (0 <= signer < self._n):
            return False
        try:
            expected = self._tags.signer_tag("share", signer, message)
        except TypeError:
            return False
        return hmac.compare_digest(share.tag, expected)

    def combine(self, shares: Sequence, message: Term) -> _IdealSignature:
        distinct = {}
        for item in shares:
            signer, share = item if isinstance(item, tuple) else (getattr(item, "signer", None), item)
            if signer is None:
                raise CryptoError("shares must be (signer, share) pairs or carry .signer")
            if not self.verify_share(signer, share, message):
                raise CryptoError(f"invalid share from signer {signer}")
            distinct[signer] = share
        if len(distinct) < self._threshold:
            raise CryptoError(
                f"need {self._threshold} distinct valid shares, got {len(distinct)}"
            )
        return _IdealSignature(self._tags.combined_tag("combined", message))

    def verify(self, signature, message: Term) -> bool:
        if not isinstance(signature, _IdealSignature):
            return False
        try:
            expected = self._tags.combined_tag("combined", message)
        except TypeError:
            return False
        return hmac.compare_digest(signature.tag, expected)

    def signature_bytes(self, signature) -> bytes:
        """Canonical bytes of a combined signature (coin input)."""
        if not isinstance(signature, _IdealSignature):
            raise CryptoError("not an ideal signature")
        return signature.tag

    def combined_bytes(self, message: Term) -> bytes:
        """Bytes of the (unique) combined signature on ``message``.

        Combined ideal signatures depend only on the registry key and the
        message — not on which shares produced them — so a caller that
        can *prove* a combine would succeed may derive the signature
        bytes directly without materializing share objects.  Equal to
        ``signature_bytes(combine(shares, message))`` for any valid
        quorum of shares.
        """
        return self._tags.combined_tag("combined", message)

    def combined_bytes_encoded(self, encoded_message: bytes) -> bytes:
        """:meth:`combined_bytes` of the message whose encoding is
        ``encoded_message``, computed afresh.

        For :func:`repro.crypto.coin.coin_evaluator`, which sweeps one
        coin over many sessions: it pre-encodes what the messages share,
        and its one-off tags would only crowd the memo.
        """
        return _tag_encoded(self._key, (_COMBINED, encoded_message))
