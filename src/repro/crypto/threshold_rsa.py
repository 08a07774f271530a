"""Shoup's unique threshold RSA-FDH (real threshold-signature backend).

This is the classic "Practical Threshold Signatures" (Shoup, EUROCRYPT 2000)
construction, which is exactly the kind of *unique* threshold scheme the
paper's CoinFlip assumes (it cites non-interactive threshold schemes with
unique signatures per message/public key, e.g. [16]).

Construction summary (k-of-n over an RSA modulus built from safe primes):

* Dealer: safe primes ``p = 2p' + 1``, ``q = 2q' + 1``; ``N = pq``;
  ``m = p'q'``; public exponent ``e`` prime with ``e > n``; secret
  ``d = e^{-1} mod m`` Shamir-shared over ``Z_m`` with threshold ``k``.
* Share on message ``M``: ``x_i = x^{2Δ s_i} mod N`` where ``x = FDH(M)``
  and ``Δ = n!``, accompanied by a Chaum–Pedersen-style NIZK of discrete-log
  equality against the verification keys ``v, v_i = v^{s_i}``.
* Combine: integer Lagrange coefficients ``λ_i = Δ·l_i(0)`` give
  ``w = Π x_i^{2 λ_i} = x^{4Δ² d}``; since ``gcd(e, 4Δ²) = 1``, extended
  gcd ``ae + b·4Δ² = 1`` yields the standard signature ``y = w^b x^a`` with
  ``y^e = x``.

Signatures are plain RSA-FDH signatures, hence unique and stateless to
verify.  Key generation dominates cost; use small moduli in tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .interfaces import CryptoError, ThresholdSignatureScheme
from .primes import generate_safe_prime, is_probable_prime
from .random_oracle import Term, encode_term, hash_to_int

__all__ = ["ThresholdRsaScheme", "generate_threshold_rsa"]

_CHALLENGE_BITS = 128
# Share verdicts held per scheme instance in one run; cleared wholesale when full.
_VERIFIED_LIMIT = 1 << 10


@dataclass(frozen=True)
class _RsaShare:
    signer: int
    value: int
    # NIZK of discrete-log equality: (challenge, response)
    challenge: int
    response: int


@dataclass(frozen=True)
class _RsaThresholdSignature:
    value: int


def _fdh(message: Term, modulus: int) -> int:
    digest = hash_to_int("threshold-rsa-fdh", message, modulus.bit_length() + 128)
    return 2 + digest % (modulus - 2)


def _next_prime_above(floor: int) -> int:
    candidate = max(floor + 1, 3) | 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


class ThresholdRsaScheme(ThresholdSignatureScheme):
    """A dealt instance of Shoup threshold RSA.

    Built by :func:`generate_threshold_rsa`.  The object holds all share
    keys (the simulator plays every party in one process); a deployment
    would split ``_shares`` across hosts.
    """

    def __init__(
        self,
        n_parties: int,
        threshold: int,
        modulus: int,
        public_exponent: int,
        shares: List[int],
        verification_base: int,
        verification_keys: List[int],
    ) -> None:
        self._n = n_parties
        self._k = threshold
        self._N = modulus
        self._e = public_exponent
        self._shares = shares
        self._v = verification_base
        self._vks = verification_keys
        self._delta = math.factorial(n_parties)
        # Verdicts of verify_share, by the canonical encoding of its
        # arguments.  Verification is a pure function of (key material,
        # signer, share, message) and a simulated run asks the same
        # question once per party and again inside combine; `forget`
        # drops them when the next run starts.
        self._verified: Dict[bytes, bool] = {}

    def __getstate__(self) -> dict:
        """Key material only: the verdict memo never rides a pickle."""
        state = self.__dict__.copy()
        del state["_verified"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._verified = {}

    def forget(self) -> None:
        self._verified.clear()

    @property
    def num_parties(self) -> int:
        return self._n

    @property
    def threshold(self) -> int:
        return self._k

    @property
    def public_key(self) -> Tuple[int, int]:
        return (self._N, self._e)

    def sign_share(self, signer: int, message: Term) -> _RsaShare:
        if not (0 <= signer < self._n):
            raise CryptoError(f"no such signer {signer}")
        x = _fdh(message, self._N)
        s_i = self._shares[signer]
        value = pow(x, 2 * self._delta * s_i, self._N)
        challenge, response = self._prove(signer, x, value, s_i, message)
        return _RsaShare(signer, value, challenge, response)

    def _prove(
        self, signer: int, x: int, share_value: int, s_i: int, message: Term
    ) -> Tuple[int, int]:
        # Fiat-Shamir'd Chaum-Pedersen proof that
        #   log_v(v_i) == log_{x^{4Δ}}(share_value²)  (both equal s_i).
        x_tilde = pow(x, 4 * self._delta, self._N)
        nonce_bits = self._N.bit_length() + 2 * _CHALLENGE_BITS
        r = hash_to_int(
            "trsa-nonce", ("deterministic-r", signer, s_i, message), nonce_bits
        )
        v_prime = pow(self._v, r, self._N)
        x_prime = pow(x_tilde, r, self._N)
        challenge = self._challenge(signer, x, share_value, v_prime, x_prime)
        response = s_i * challenge + r
        return challenge, response

    def _challenge(
        self, signer: int, x: int, share_value: int, v_prime: int, x_prime: int
    ) -> int:
        return hash_to_int(
            "trsa-challenge",
            (
                signer,
                self._N,
                self._e,
                self._v,
                self._vks[signer],
                x,
                share_value,
                v_prime,
                x_prime,
            ),
            _CHALLENGE_BITS,
        )

    def verify_share(self, signer: int, share, message: Term) -> bool:
        """Verify one share, answering a repeated question from the memo.

        The key is :func:`encode_term` of everything the verdict depends
        on, so it is as type-exact as the challenge hash (``1``/``True``
        never alias).  A part that is not a ``Term`` has no encoding and
        takes the full check every time.
        """
        if not isinstance(share, _RsaShare):
            return False
        try:
            key = encode_term((
                signer, share.signer, share.value, share.challenge,
                share.response, message,
            ))
        except TypeError:
            return self._check_share(signer, share, message)
        verified = self._verified
        verdict = verified.get(key)
        if verdict is None:
            if len(verified) >= _VERIFIED_LIMIT:
                verified.clear()
            verdict = verified[key] = self._check_share(signer, share, message)
        return verdict

    def _check_share(self, signer: int, share: _RsaShare, message: Term) -> bool:
        """The Chaum–Pedersen verification itself; never raises on garbage."""
        if share.signer != signer:
            return False
        if not isinstance(signer, int) or not (0 <= signer < self._n):
            return False
        if not isinstance(share.value, int) or not (0 < share.value < self._N):
            return False
        if not isinstance(share.challenge, int) or not isinstance(share.response, int):
            return False
        if share.response < 0:
            return False
        try:
            x = _fdh(message, self._N)
        except TypeError:
            return False
        x_tilde = pow(x, 4 * self._delta, self._N)
        try:
            v_prime = (
                pow(self._v, share.response, self._N)
                * pow(self._vks[signer], -share.challenge, self._N)
            ) % self._N
            x_prime = (
                pow(x_tilde, share.response, self._N)
                * pow(share.value, -2 * share.challenge, self._N)
            ) % self._N
        except ValueError:
            return False  # non-invertible element: certainly forged
        return share.challenge == self._challenge(
            signer, x, share.value, v_prime, x_prime
        )

    def combine(self, shares: Sequence, message: Term) -> _RsaThresholdSignature:
        distinct: Dict[int, _RsaShare] = {}
        for item in shares:
            signer, share = item if isinstance(item, tuple) else (
                getattr(item, "signer", None),
                item,
            )
            if signer is None:
                raise CryptoError("shares must be (signer, share) pairs")
            if not self.verify_share(signer, share, message):
                raise CryptoError(f"invalid share from signer {signer}")
            distinct[signer] = share
        if len(distinct) < self._k:
            raise CryptoError(
                f"need {self._k} distinct valid shares, got {len(distinct)}"
            )
        chosen = dict(list(distinct.items())[: self._k])
        x = _fdh(message, self._N)
        points = sorted(chosen)  # 0-based ids; evaluation points are id + 1
        w = 1
        for i in points:
            lam = self._integer_lagrange(i, points)
            w = (w * pow(chosen[i].value, 2 * lam, self._N)) % self._N
        e_prime = 4 * self._delta * self._delta
        g, a, b = _extended_gcd(self._e, e_prime)
        if g != 1:
            raise CryptoError("public exponent not coprime to 4Δ² (bad setup)")
        y = (pow(w, b, self._N) * pow(x, a, self._N)) % self._N
        signature = _RsaThresholdSignature(y)
        if not self.verify(signature, message):
            raise CryptoError("combined signature failed verification")
        return signature

    def _integer_lagrange(self, i: int, points: Sequence[int]) -> int:
        """``Δ · l_i(0)`` with 1-based evaluation points — always an integer."""
        numerator = self._delta
        denominator = 1
        x_i = i + 1
        for j in points:
            if j == i:
                continue
            x_j = j + 1
            numerator *= -x_j
            denominator *= x_i - x_j
        quotient, remainder = divmod(numerator, denominator)
        if remainder != 0:
            raise CryptoError("Lagrange coefficient not integral (bad points)")
        return quotient

    def verify(self, signature, message: Term) -> bool:
        if not isinstance(signature, _RsaThresholdSignature):
            return False
        if not isinstance(signature.value, int) or not (0 < signature.value < self._N):
            return False
        try:
            x = _fdh(message, self._N)
        except TypeError:
            return False
        return pow(signature.value, self._e, self._N) == x

    def signature_bytes(self, signature) -> bytes:
        if not isinstance(signature, _RsaThresholdSignature):
            raise CryptoError("not a threshold RSA signature")
        length = (self._N.bit_length() + 7) // 8
        return signature.value.to_bytes(length, "big")


def _extended_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``ax + by = g = gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def generate_threshold_rsa(
    num_parties: int,
    threshold: int,
    bits: int,
    rng: random.Random,
) -> ThresholdRsaScheme:
    """Deal a ``threshold``-of-``num_parties`` Shoup scheme.

    ``bits`` is the modulus size.  256–512 bits keeps tests fast; nothing in
    the protocol logic depends on the size.
    """
    if not (1 <= threshold <= num_parties):
        raise CryptoError("need 1 <= threshold <= num_parties")
    if bits < 64:
        raise CryptoError("modulus below 64 bits is too small for safe primes")
    half = bits // 2
    while True:
        p = generate_safe_prime(half, rng)
        q = generate_safe_prime(bits - half, rng)
        if p == q:
            continue
        modulus = p * q
        m = ((p - 1) // 2) * ((q - 1) // 2)
        e = _next_prime_above(max(num_parties, 16))
        if math.gcd(e, m) != 1:
            continue
        break
    d = pow(e, -1, m)
    # Shamir-share d over Z_m (degree threshold-1 polynomial).
    coefficients = [d] + [rng.randrange(m) for _ in range(threshold - 1)]

    def evaluate(x: int) -> int:
        acc = 0
        for c in reversed(coefficients):
            acc = (acc * x + c) % m
        return acc

    shares = [evaluate(i + 1) for i in range(num_parties)]
    v = pow(rng.randrange(2, modulus - 1), 2, modulus)
    verification_keys = [pow(v, s, modulus) for s in shares]
    return ThresholdRsaScheme(
        n_parties=num_parties,
        threshold=threshold,
        modulus=modulus,
        public_exponent=e,
        shares=shares,
        verification_base=v,
        verification_keys=verification_keys,
    )
