"""Trusted setup: deal all key material a protocol run needs.

The paper assumes "all parties start the protocol after the setup phase has
been completed" (§2.2), with setup done by a trusted dealer or a broadcast
channel.  :class:`CryptoSuite` plays that dealer.  One suite holds:

* ``plain``  — per-party signatures (proxcast's dealer PKI / PKI-mode runs),
* ``quorum`` — an ``(n - t)``-of-``n`` unique threshold scheme
  (Proxcensus for t < n/2 combines ``n - t`` shares), and
* ``coin``   — a ``(t + 1)``-of-``n`` unique threshold scheme
  (the common coin needs unpredictability until the first honest share).

Backends: :meth:`CryptoSuite.ideal` (default; the paper's idealization) or
:meth:`CryptoSuite.real` (RSA-FDH + Shoup threshold RSA).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ideal import IdealSignatureScheme, IdealThresholdScheme
from .interfaces import SignatureScheme, ThresholdSignatureScheme

__all__ = ["CryptoSuite"]


@dataclass(frozen=True)
class CryptoSuite:
    """All dealt key material for one protocol session."""

    num_parties: int
    max_faulty: int
    plain: SignatureScheme
    quorum: ThresholdSignatureScheme
    coin: ThresholdSignatureScheme

    @classmethod
    def ideal(cls, num_parties: int, max_faulty: int, rng: random.Random) -> "CryptoSuite":
        """Idealized backend — fast; matches the paper's §2.2 treatment."""
        cls._check(num_parties, max_faulty)
        return cls(
            num_parties=num_parties,
            max_faulty=max_faulty,
            plain=IdealSignatureScheme(num_parties, rng),
            quorum=IdealThresholdScheme(num_parties, num_parties - max_faulty, rng),
            coin=IdealThresholdScheme(num_parties, max_faulty + 1, rng),
        )

    @classmethod
    def real(
        cls,
        num_parties: int,
        max_faulty: int,
        rng: random.Random,
        bits: int = 256,
    ) -> "CryptoSuite":
        """Real backend — RSA-FDH plus Shoup threshold RSA.

        Key generation is the expensive step; ``bits=256`` keeps it tolerable
        for tests while exercising every code path of the real scheme.
        Most of it is the search for the four safe primes of the two
        threshold schemes, which tests in full only the candidates it
        keeps (:mod:`repro.crypto.primes`): a 4-party suite at 256 bits
        costs 3 714 modular exponentiations.
        """
        from .rsa import RsaSignatureScheme
        from .threshold_rsa import generate_threshold_rsa

        cls._check(num_parties, max_faulty)
        return cls(
            num_parties=num_parties,
            max_faulty=max_faulty,
            plain=RsaSignatureScheme.setup(num_parties, bits, rng),
            quorum=generate_threshold_rsa(
                num_parties, num_parties - max_faulty, bits, rng
            ),
            coin=generate_threshold_rsa(num_parties, max_faulty + 1, bits, rng),
        )

    def forget(self) -> None:
        """Drop every scheme's memo: a new execution, with a session of
        its own, can meet none of an earlier one's messages."""
        self.plain.forget()
        self.quorum.forget()
        self.coin.forget()

    @staticmethod
    def _check(num_parties: int, max_faulty: int) -> None:
        if num_parties < 1:
            raise ValueError("need at least one party")
        if not (0 <= max_faulty < num_parties):
            raise ValueError(
                f"need 0 <= t < n, got t={max_faulty}, n={num_parties}"
            )
