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

import hashlib
import hmac
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .interfaces import CryptoError, SignatureScheme, ThresholdSignatureScheme
from .random_oracle import Term, encode_term, encode_tuple, exact_key

__all__ = ["IdealSignatureScheme", "IdealThresholdScheme", "set_tag_memoization"]


_sha256 = hashlib.sha256
_BLOCK = 64  # SHA-256's block size, the width of an HMAC pad
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


def _keyed_mac(
    key: bytes, head: bytes = b"", tail: bytes = b""
) -> Callable[[bytes], bytes]:
    """``data ->`` HMAC-SHA256 under ``key`` of ``head + data + tail``.

    HMAC (RFC 2104) hashes the key's inner and outer pad blocks before
    any message byte, and a one-shot ``hmac.digest`` hashes them again
    on every call.  Here they are hashed once, with the constant
    ``head`` absorbed into the inner state, and a call copies the two
    states: the one place an ideal tag is computed.
    """
    if len(key) > _BLOCK:
        key = _sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    inner = _sha256(key.translate(_INNER_PAD))
    inner.update(head)
    copy_inner = inner.copy
    copy_outer = _sha256(key.translate(_OUTER_PAD)).copy

    def mac(data: bytes) -> bytes:
        state = copy_inner()
        state.update(data + tail)
        outer = copy_outer()
        outer.update(state.digest())
        return outer.digest()

    return mac


def _message_prefix(before: Sequence[Term]) -> bytes:
    """What the encoding of ``(*before, message)`` puts before the
    message's own: ``encode_tuple`` is a header plus the joined parts."""
    return encode_tuple([encode_term(part) for part in before] + [b""])


def _fresh_tagger(
    key: bytes, before: Sequence[Term], head: bytes, tail: bytes
) -> Callable[[bytes], bytes]:
    """``middle ->`` the tag over ``(*before, message)``, computed afresh.

    ``message`` is the term encoding to ``head + middle + tail``.  For
    evaluators that sweep one message shape over many sessions: what the
    messages share is folded into the MAC once, their one-off tags never
    touch a :class:`_TagMemo`, and the key stays in this module.
    """
    return _keyed_mac(key, _message_prefix(before) + head, tail)


# Tag memoization.  Signing and verifying are pure functions of
# (registry key, domain, signer, message); in a simulated run the same
# few tags are recomputed constantly — every share is verified by all n
# parties, all n signers sign the same message — so each scheme instance
# keeps one record per message it has seen in the current execution,
# keyed by `exact_key(message)`: its encoding and every tag derived from
# it.  Every execution has a session of its own, so `SyncSimulator.run`
# drops the records first (`CryptoSuite.forget`).  The memo is an
# implementation detail: results are bit-identical with it disabled
# (`set_tag_memoization(False)`, pinned by `tests/crypto/test_tag_memo.py`).
#
# A record also keeps what the run minted on its message: one share or
# signature per exact-`int` signer, one combined signature (under
# `None`).  Signatures are unique (§2.2), so a check accepts the minted
# object by identity; every other object (an equal copy, a forgery, a
# bool signer's, one from before a `forget()` or another scheme) is
# checked by its tag, as before.
_MEMO_ENABLED = True
_MEMO_LIMIT = 1 << 14  # tags held per scheme in one run; cleared wholesale when full


def set_tag_memoization(enabled: bool) -> bool:
    """Globally enable/disable tag memoization; returns the old setting."""
    global _MEMO_ENABLED
    previous = _MEMO_ENABLED
    _MEMO_ENABLED = enabled
    return previous


class _TagMemo:
    """Bounded memo of HMAC tags for one registry key, computed by one
    :func:`_keyed_mac`.

    One record per signed message: ``(encoded message, {slot: tag})``,
    whose dict also keeps the objects :meth:`mint` made on the message,
    under the exact-``int`` signer or ``None`` (at most one per tag).
    The encoding is computed once, when the record is made; a slot is
    ``(domain, signer, signer.__class__)`` for shares and plain
    signatures and the bare ``domain`` for combined signatures, so the
    signer is keyed as type-exactly as :func:`exact_key` keys the
    message (``1``/``True`` sign different bytes).

    Two layers resolve a message to its record: an identity cache (id
    of a live message object → ``(message, record)``) for call sites
    that reuse one message object across many sign/verify calls, and
    the structural table (:func:`exact_key` → record) behind it.  The
    identity cache holds strong references to its messages, which is
    what keeps the ``id()`` keys valid.

    A memo lives for one execution: :meth:`forget` drops both layers at
    the start of every run, keeping only what the key fixes (the MAC's
    pad states and the slot prefixes).  Within a run the bound is on
    tags held (``len(memo)``), the thing a record grows by: at
    ``_MEMO_LIMIT`` both layers are dropped wholesale.
    """

    __slots__ = ("_mac", "_records", "_by_id", "_prefixes", "_held")

    _IDENTITY_LIMIT = 512

    def __init__(self, key: bytes) -> None:
        self._mac = _keyed_mac(key)
        self._records: dict = {}
        self._by_id: dict = {}
        # slot → encoding of everything a tag's input puts before the
        # message.  Signers are range-checked by the schemes, so this
        # stays a handful of entries per domain.
        self._prefixes: dict = {}
        self._held = 0

    def __len__(self) -> int:
        """Tags currently held."""
        return self._held

    def _record(self, message: Term):
        """The record of ``message``; ``None`` if a part is unhashable.

        Raises ``TypeError`` (and stores nothing) for a hashable
        non-``Term``.
        """
        by_id = self._by_id
        entry = by_id.get(id(message))
        if entry is not None and entry[0] is message:
            return entry[1]
        key = exact_key(message)
        try:
            record = self._records.get(key)
        except TypeError:
            return None
        if record is None:
            encoded = encode_term(message)
            # Every record gains a tag as soon as it is made, so records
            # never outnumber tags — unless the signer turns out not to
            # be a Term, which is the misuse this check bounds.
            if len(self._records) >= _MEMO_LIMIT:
                self.forget()
            record = self._records[key] = (encoded, {})
        if len(by_id) >= self._IDENTITY_LIMIT:
            by_id.clear()
        by_id[id(message)] = (message, record)
        return record

    def _derive(self, record, slot, *before: Term) -> bytes:
        """Compute the tag over ``(*before, message)``; hold it unless one-off."""
        prefix = self._prefixes.get(slot)
        if prefix is None:
            prefix = self._prefixes[slot] = _message_prefix(before)
        tag = self._mac(prefix + record[0])
        if record[1] is None:
            return tag
        if self._held >= _MEMO_LIMIT:
            self.forget()  # ``record`` goes with the rest
        else:
            record[1][slot] = tag
            self._held += 1
        return tag

    def forget(self) -> None:
        """Drop every record and the tags they hold."""
        self._records.clear()
        self._by_id.clear()
        self._held = 0

    def resolve(self, message: Term):
        """:meth:`_record`, or a one-off ``(encoding, None)`` holding no
        tag where that is ``None`` or the memo is off.  A record a clear
        drops while held still takes tags, counted until the next clear."""
        record = self._record(message) if _MEMO_ENABLED else None
        return (encode_term(message), None) if record is None else record

    def tag(self, domain: str, signer, message: Term, record=None) -> bytes:
        """Tag over ``(domain, signer, message)`` — shares and plain
        signatures — or over ``(domain, message)`` if ``signer`` is
        ``None``, a combined signature.  ``record``: ``message``'s, resolved."""
        if signer is None:
            slot, before = domain, (domain,)
        else:
            slot, before = (domain, signer, signer.__class__), (domain, signer)
        if record is None:
            record = self.resolve(message)
        held = record[1]
        return held and held.get(slot) or self._derive(record, slot, *before)

    def mint(self, make: Callable[[Any, bytes], Any], domain: str, signer,
             message: Term, record=None):
        """``make(signer, tag)`` on :meth:`tag`'s arguments; for ``None``
        and exact-``int`` signers the record keeps it: one object per run."""
        if record is None:
            record = self.resolve(message)
        held = record[1]
        if held is None or not _kept(signer):
            return make(signer, self.tag(domain, signer, message, record))
        made = held.get(signer)
        if made is None:
            made = held[signer] = make(signer, self.tag(domain, signer, message, record))
        return made

    def accepts(self, domain: str, signer, made, message: Term, record=None) -> bool:
        """Whether ``made.tag`` is :meth:`tag`'s: by identity if ``made``
        is the object :meth:`mint` keeps, else by comparing tags."""
        if record is None:
            record = self.resolve(message)
        held = record[1]
        if held and _kept(signer) and held.get(signer) is made:
            return True
        return hmac.compare_digest(made.tag, self.tag(domain, signer, message, record))


def _kept(signer) -> bool:
    """Whether a record keeps what is minted for ``signer``: ``None`` (the
    combined signature) or an exact ``int``, never a ``bool`` equal to one."""
    return signer is None or signer.__class__ is int


@dataclass(frozen=True)
class _IdealShare:
    signer: int
    tag: bytes


@dataclass(frozen=True)
class _IdealSignature:
    tag: bytes


def _signature(signer, tag: bytes) -> _IdealSignature:
    return _IdealSignature(tag)


class _KeyedScheme:
    """A scheme whose tags are MACs under one secret registry key.

    Key material only rides a pickle (or a deep copy): the tag memo and
    its MAC's pad states are rebuilt from the key on arrival.
    """

    def forget(self) -> None:
        self._tags.forget()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_tags"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._tags = _TagMemo(self._key)


class IdealSignatureScheme(_KeyedScheme, SignatureScheme):
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
        return self._tags.mint(_signature, "plain", signer, message)

    def verify(self, signer: int, signature, message: Term) -> bool:
        if not isinstance(signature, _IdealSignature):
            return False
        if not isinstance(signer, int) or not (0 <= signer < self._n):
            return False
        try:
            record = self._tags.resolve(message)
        except TypeError:
            return False
        return self._tags.accepts("plain", signer, signature, message, record)

    def fresh_tagger(
        self, signer: int, head: bytes, tail: bytes
    ) -> Callable[[bytes], bytes]:
        """``middle -> sign(signer, message).tag`` for the messages
        encoding to ``head + middle + tail``, computed afresh (memo
        untouched) — for :func:`repro.crypto.vrf_coin.vrf_evaluator`."""
        self._check_signer(signer)
        return _fresh_tagger(self._key, ("plain", signer), head, tail)

    def _check_signer(self, signer: int) -> None:
        if not (0 <= signer < self._n):
            raise CryptoError(f"no such signer {signer}")


class IdealThresholdScheme(_KeyedScheme, ThresholdSignatureScheme):
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
        return self._tags.mint(_IdealShare, "share", signer, message)

    def verify_share(self, signer: int, share, message: Term) -> bool:
        if not isinstance(share, _IdealShare) or share.signer != signer:
            return False
        if not isinstance(signer, int) or not (0 <= signer < self._n):
            return False
        try:
            record = self._tags.resolve(message)
        except TypeError:
            return False
        return self._tags.accepts("share", signer, share, message, record)

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
        return self._tags.mint(_signature, "combined", None, message)

    def try_combine(self, indexed_shares: Iterable, message: Term):
        """The inherited best-effort combine in one pass over the shares.

        The combined signature is unique per (registry, message), so
        once ``threshold`` distinct signers have verified there is
        nothing left to decide: no quorum to re-verify in
        :meth:`combine`, no fresh signature to check with
        :meth:`verify`.  ``message`` is resolved once, and a share that
        is the minted one needs no tag: same rejections and result as
        :meth:`ThresholdSignatureScheme.try_combine`.
        """
        tags = self._tags
        try:
            record = tags.resolve(message)
        except TypeError:
            return None  # verify_share rejects every share of a non-Term
        n = self._n
        valid = set()
        for signer, share in indexed_shares:
            if not isinstance(signer, int) or not (0 <= signer < n):
                continue
            if (signer in valid or not isinstance(share, _IdealShare)
                    or share.signer != signer):
                continue
            if tags.accepts("share", signer, share, message, record):
                valid.add(signer)
        if len(valid) < self._threshold:
            return None
        return tags.mint(_signature, "combined", None, message, record)

    def verify(self, signature, message: Term) -> bool:
        if not isinstance(signature, _IdealSignature):
            return False
        try:
            record = self._tags.resolve(message)
        except TypeError:
            return False
        return self._tags.accepts("combined", None, signature, message, record)

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
        return self._tags.tag("combined", None, message)

    def fresh_combined_tagger(
        self, head: bytes, tail: bytes
    ) -> Callable[[bytes], bytes]:
        """``middle -> combined_bytes(message)`` for the messages encoding
        to ``head + middle + tail``, computed afresh (memo untouched).

        For :func:`repro.crypto.coin.coin_evaluator`, which sweeps one
        coin over many sessions and whose one-off tags would only crowd
        the memo.
        """
        return _fresh_tagger(self._key, ("combined",), head, tail)
