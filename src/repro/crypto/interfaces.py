"""Abstract interfaces for the cryptographic backends.

The paper treats (threshold) signatures as idealized objects (§2.2).  The
reproduction offers two interchangeable backends behind these interfaces:

* :mod:`repro.crypto.ideal` — a registry-based idealized scheme that is
  unforgeable *by construction*, mirroring the paper's abstraction; and
* :mod:`repro.crypto.threshold_rsa` — Shoup's unique threshold RSA-FDH,
  a real scheme (slow keygen, small moduli in tests).

Both provide *unique* signatures — a fixed (public key, message) pair has a
single valid signature — which is exactly the property the common coin needs.
"""

from __future__ import annotations

import abc
from typing import Iterable, Sequence

from .random_oracle import Term

__all__ = ["SignatureScheme", "ThresholdSignatureScheme", "CryptoError"]


class CryptoError(Exception):
    """Raised on misuse of a crypto backend (wrong party id, bad shares)."""


class SignatureScheme(abc.ABC):
    """Per-party plain signatures (used by proxcast's dealer PKI)."""

    @property
    @abc.abstractmethod
    def num_parties(self) -> int:
        """Number of key pairs dealt at setup."""

    @abc.abstractmethod
    def sign(self, signer: int, message: Term):
        """Produce ``signer``'s signature on ``message``."""

    @abc.abstractmethod
    def verify(self, signer: int, signature, message: Term) -> bool:
        """Publicly verify a signature; never raises on garbage input."""

    def forget(self) -> None:
        """Drop whatever was memoized for earlier executions (none here)."""


class ThresholdSignatureScheme(abc.ABC):
    """A ``threshold``-out-of-``n`` unique threshold signature scheme.

    ``threshold`` is the number of shares *sufficient* (and necessary) to
    produce the combined signature.  The paper uses two instantiations:
    ``n - t``-of-``n`` inside Proxcensus and ``t + 1``-of-``n`` for the coin.
    """

    @property
    @abc.abstractmethod
    def num_parties(self) -> int:
        """Total number of share holders ``n``."""

    @property
    @abc.abstractmethod
    def threshold(self) -> int:
        """Number of shares needed to combine."""

    @abc.abstractmethod
    def sign_share(self, signer: int, message: Term):
        """Produce ``signer``'s signature share on ``message``."""

    @abc.abstractmethod
    def verify_share(self, signer: int, share, message: Term) -> bool:
        """Verify one share; never raises on garbage input."""

    @abc.abstractmethod
    def combine(self, shares: Sequence, message: Term):
        """Combine ``threshold`` valid shares into the unique signature.

        Raises :class:`CryptoError` if the shares are insufficient or
        invalid; callers that may hold Byzantine-supplied shares should
        filter through :meth:`verify_share` first (the protocols do).
        """

    @abc.abstractmethod
    def verify(self, signature, message: Term) -> bool:
        """Publicly verify a combined signature; never raises."""

    @abc.abstractmethod
    def signature_bytes(self, signature) -> bytes:
        """Canonical byte serialization of a combined signature.

        Uniqueness of the scheme makes these bytes a deterministic function
        of (public key, message); the common coin hashes them.
        """

    def forget(self) -> None:
        """Drop whatever was memoized for earlier executions (none here)."""

    def try_combine(self, indexed_shares: Iterable, message: Term):
        """Best-effort combine: filter invalid shares, return the signature
        or ``None`` if fewer than ``threshold`` valid shares remain.

        ``indexed_shares`` yields ``(signer, share)`` pairs, possibly
        containing Byzantine garbage; this helper is the defensive entry
        point the protocol code uses.
        """
        valid = {}
        for signer, share in indexed_shares:
            if not isinstance(signer, int) or not (0 <= signer < self.num_parties):
                continue
            if signer in valid:
                continue
            if self.verify_share(signer, share, message):
                valid[signer] = share
        if len(valid) < self.threshold:
            return None
        chosen = list(valid.items())[: self.threshold]
        signature = self.combine(chosen, message)
        if not self.verify(signature, message):
            return None
        return signature
