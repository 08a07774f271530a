"""Random oracle (hash) utilities.

The paper proves its coin in the random-oracle model: the coin value is the
hash of a unique threshold signature, mapped into the coin's range.  This
module centralizes all hashing so that domain separation is enforced in one
place and every byte fed into SHA-256 is canonical (no ``repr``-based
hashing, which would be Python-version dependent).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence, Tuple, Union

__all__ = [
    "encode_str",
    "encode_term",
    "encode_tuple",
    "exact_key",
    "first_digest_parts",
    "oracle_digest",
    "PLAIN_TYPES",
    "hash_to_int",
    "hash_to_range",
    "hash_to_range_encoded",
]

Term = Union[int, str, bytes, bool, None, Tuple["Term", ...]]


def encode_term(term: Term) -> bytes:
    """Canonical, injective encoding of nested tuples/ints/strings/bytes.

    The encoding is length-prefixed, so distinct terms never collide as byte
    strings.  Protocol messages are hashed through this, never via ``str``.
    """
    if term is None:
        return b"N"
    if isinstance(term, bool):  # must precede int: bool is a subclass of int
        return b"B1" if term else b"B0"
    if isinstance(term, int):
        raw = term.to_bytes((term.bit_length() + 8) // 8 or 1, "big", signed=True)
        return b"I" + len(raw).to_bytes(4, "big") + raw
    if isinstance(term, str):
        raw = term.encode("utf-8")
        return b"S" + len(raw).to_bytes(4, "big") + raw
    if isinstance(term, bytes):
        return b"Y" + len(term).to_bytes(4, "big") + term
    if isinstance(term, tuple):
        return encode_tuple([encode_term(part) for part in term])
    raise TypeError(f"cannot canonically encode {type(term).__name__}")


#: Exact types of the values that are their own key — and of the values
#: honest payloads carry, which parsers accept type-exactly.
PLAIN_TYPES = frozenset((str, int, bytes, type(None)))


def exact_key(term):
    """Type-tagged mirror of a term: equal iff the terms are, type for type.

    Plain tuple keys would conflate ``0``/``False``/``0.0`` (equal as dict
    keys, distinct under :func:`encode_term`); tagging nodes with their
    exact type restores injectivity.  A value of exactly ``str``, ``int``,
    ``bytes`` or ``None`` is its own key: among those types only equal
    values of one type compare equal.  Any other non-tuple maps to
    ``(type, value)``.  A tuple whose parts are all of those four types —
    every protocol message — is its own key, with no walk; any other
    tuple maps to the tuple of its parts' keys.

    Keys of terms that differ never collide: a ``(type, value)`` wrapper
    starts with a bare type object, which no tuple's key does (a type
    object is itself wrapped), and a mapped tuple holds a tuple wherever
    its term holds a part of any other type, which a plain key never does.
    """
    tp = term.__class__
    if tp is tuple:
        for part in term:
            if type(part) not in PLAIN_TYPES:
                return tuple(
                    [part if type(part) in PLAIN_TYPES else exact_key(part) for part in term]
                )
        return term
    if tp in PLAIN_TYPES:
        return term
    return (tp, term)


def encode_tuple(parts: Sequence[bytes]) -> bytes:
    """Encoding of the tuple whose elements encode to ``parts``.

    ``encode_term(t) == encode_tuple([encode_term(p) for p in t])`` for
    every tuple term ``t``: a caller that hashes many terms differing in
    one element encodes the fixed elements once and joins per term.
    """
    return b"T" + len(parts).to_bytes(4, "big") + b"".join(parts)


def encode_str(text: str) -> bytes:
    """``encode_term(text)`` for a caller that knows ``text`` is a ``str``."""
    raw = text.encode("utf-8")
    return b"S" + len(raw).to_bytes(4, "big") + raw


def _digest_encoded(domain: str, encoded: bytes) -> bytes:
    return hashlib.sha256(domain.encode("utf-8") + b"\x00" + encoded).digest()


def oracle_digest(domain: str, term: Term) -> bytes:
    """SHA-256 digest of ``term`` under domain-separation tag ``domain``."""
    return _digest_encoded(domain, encode_term(term))


def _hash_to_int_encoded(domain: str, encoded: bytes, bits: int) -> int:
    if bits <= 0:
        raise ValueError("bits must be positive")
    output = b""
    counter = 0
    while len(output) * 8 < bits:
        output += _digest_encoded(
            domain, encode_tuple((encode_term(counter), encoded))
        )
        counter += 1
    return int.from_bytes(output, "big") % (1 << bits)


def first_digest_parts(
    domain: str,
    before: Sequence[bytes],
    after: Sequence[bytes],
    trailing: Optional[int] = None,
) -> Tuple[bytes, bytes]:
    """``(head, tail)`` of the first SHA-256 input of :func:`hash_to_int`.

    For a tuple term whose elements encode to ``(*before, middle,
    *after, encode_term(tag))`` with ``tag`` 32 bytes — a signature tag
    hashed beside what it signs — ``head + middle + tail + tag`` is what
    counter 0 of the expansion digests, and that is the whole expansion
    while ``bits <= 256``::

        hash_to_int(domain, term, bits) == int.from_bytes(
            sha256(head + middle + tail + tag).digest(), "big") % 2**bits

    An evaluator sweeping ``middle`` builds the two constants once.
    With ``trailing`` the term ends in that many elements of varying
    length instead of the tag, and the caller appends their full
    encodings after ``tail``.
    """
    slots = len(before) + len(after) + 1 + (1 if trailing is None else trailing)
    head = (
        domain.encode("utf-8")
        + b"\x00"
        + encode_tuple((encode_term(0), b""))
        + encode_tuple(tuple(before) + (b"",) * (slots - len(before)))
    )
    tag_header = encode_term(bytes(32))[:-32] if trailing is None else b""
    return head, b"".join(after) + tag_header


def hash_to_int(domain: str, term: Term, bits: int = 256) -> int:
    """Hash into a ``bits``-bit integer (counter-mode expansion for > 256)."""
    return _hash_to_int_encoded(domain, encode_term(term), bits)


def hash_to_range_encoded(domain: str, encoded: bytes, low: int, high: int) -> int:
    """:func:`hash_to_range` of the term whose encoding is ``encoded``."""
    if high < low:
        raise ValueError(f"empty range [{low}, {high}]")
    span = high - low + 1
    bits = span.bit_length() + 128
    return low + _hash_to_int_encoded(domain, encoded, bits) % span


def hash_to_range(domain: str, term: Term, low: int, high: int) -> int:
    """Hash into the inclusive integer range ``[low, high]``.

    Uses 128 bits of slack beyond the range size, so the modular bias is
    below ``2^-128`` — negligible next to the protocol's own error terms.
    """
    return hash_to_range_encoded(domain, encode_term(term), low, high)
