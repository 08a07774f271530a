"""Primality testing and prime generation.

Used by the real (non-idealized) cryptographic backends: RSA-FDH plain
signatures and Shoup threshold RSA.  Key generation is the only genuinely
expensive operation in the repository, so the safe-prime search keeps bit
sizes modest in tests and exposes deterministic, seeded generation.

The safe-prime search exponentiates only what decides a candidate.  It
draws ``q`` at random until ``q`` and ``p = 2q + 1`` both pass 40
random-base Miller–Rabin rounds, and most ``q`` that pass are thrown away
because ``p`` fails (313 of them against 4 kept in one 256-bit suite).
Each ``q`` that survives the sieve and its first random round is
classified by a strong-probable-prime test to fixed bases, which draws
nothing: below ψ₁₃ = 3 317 044 064 679 887 385 961 981, the least strong
pseudoprime to the 13 prime bases 2…41 (OEIS A014233), all 13, which are
a proof there; at or above ψ₁₃, where no fixed set is a proof, base 2
alone:

* *composite* — the remaining random rounds run exactly as in
  :func:`is_probable_prime`;
* *prime* — the remaining 39 random bases are drawn but not tested;
  they are tested only if ``p`` passes and ``q`` is about to be kept.  If
  one of them fails, the RNG is put back where :func:`is_probable_prime`
  would have left it and the search goes on.

So every kept prime still passes 40 random-base rounds, and every random
number is drawn in the order :func:`is_probable_prime` draws it: the
search returns the same primes and leaves the RNG in the same state.
Below ψ₁₃ — so for every ``q`` of at most 81 bits — the classification
is a proof and the two cannot diverge.  At or above it (every ``q`` of 83
bits or more, and the 82-bit ones from ψ₁₃ up) the one way they can
diverge is a composite ``q`` that is a strong pseudoprime to base 2,
passes its first random round and is discarded because ``2q + 1`` fails.
Dealing ``('real', 4, 1, 0, 256)`` runs 3 714 modular exponentiations:
its 313 prime-looking ``q`` cost one each to classify, not 13 (7 470
with every fixed base, 15 452 with 40 rounds for every such ``q``).
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

__all__ = [
    "is_probable_prime",
    "generate_prime",
    "generate_safe_prime",
]

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
]

_ROUNDS = 40

#: The first 13 primes: below ψ₁₃ a number that is a strong probable
#: prime to all of them is prime.
_FIXED_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: ψ₁₃, the least strong pseudoprime to all of :data:`_FIXED_BASES` (OEIS
#: A014233; Sorenson and Webster, 2016).
_PSI13 = 3_317_044_064_679_887_385_961_981


def _sieve(n: int) -> Optional[bool]:
    """The small-prime verdict on ``n``, or ``None`` if it survives."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return None


def _odd_part(n: int) -> Tuple[int, int]:
    """``(d, r)`` with ``n - 1 = d * 2^r`` and ``d`` odd."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    return d, r


def _passes(a: int, n: int, d: int, r: int) -> bool:
    """One Miller–Rabin round: is ``n`` a strong probable prime to base ``a``?"""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rng: Optional[random.Random] = None) -> bool:
    """Miller–Rabin primality test.

    With its 40 rounds the error probability is below ``4^-40``, far beyond
    anything the simulation can observe.  A deterministic small-prime sieve
    runs first so that tiny candidates are cheap.
    """
    verdict = _sieve(n)
    if verdict is not None:
        return verdict
    rng = rng or random.Random(0xC0FFEE ^ n)
    d, r = _odd_part(n)
    return all(_passes(rng.randrange(2, n - 1), n, d, r) for _ in range(_ROUNDS))


#: Random bases drawn for a candidate but not yet tested, and the RNG
#: state before the first of them was drawn.
_Deferred = Tuple[Tuple[int, ...], object]


def _screen(n: int, rng: random.Random) -> Tuple[bool, Optional[_Deferred]]:
    """:func:`is_probable_prime`'s draws on ``n``, tested only where they decide.

    Returns the verdict and, when the fixed bases classify ``n`` as prime,
    the random rounds it still owes: :func:`_settle` must pass them
    before ``n`` is kept.
    """
    verdict = _sieve(n)
    if verdict is not None:
        return verdict, None
    d, r = _odd_part(n)
    if not _passes(rng.randrange(2, n - 1), n, d, r):
        return False, None
    fixed = _FIXED_BASES if n < _PSI13 else _FIXED_BASES[:1]
    if all(_passes(a, n, d, r) for a in fixed):
        state = rng.getstate()
        bases = tuple(rng.randrange(2, n - 1) for _ in range(_ROUNDS - 1))
        return True, (bases, state)
    rest = (rng.randrange(2, n - 1) for _ in range(_ROUNDS - 1))
    return all(_passes(a, n, d, r) for a in rest), None


def _settle(n: int, deferred: _Deferred, rng: random.Random) -> bool:
    """Test the rounds :func:`_screen` deferred, in the order they were drawn.

    On the first failure the RNG is restored to just after that round's
    draw — where :func:`is_probable_prime` would have stopped — and the
    verdict is ``False``.
    """
    bases, state = deferred
    d, r = _odd_part(n)
    for drawn, a in enumerate(bases, 1):
        if not _passes(a, n, d, r):
            rng.setstate(state)
            for _ in range(drawn):
                rng.randrange(2, n - 1)
            return False
    return True


def _candidate(bits: int, rng: random.Random) -> int:
    return rng.getrandbits(bits) | (1 << (bits - 1)) | 1


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 3:
        raise ValueError("need at least 3 bits for a random prime")
    while True:
        candidate = _candidate(bits, rng)
        if is_probable_prime(candidate, rng=rng):
            return candidate


def generate_safe_prime(bits: int, rng: random.Random) -> int:
    """Generate a safe prime ``p = 2q + 1`` with ``p`` having ``bits`` bits.

    Safe primes are what Shoup threshold RSA requires: the sharing of the
    secret exponent lives in ``Z_m`` for ``m = p'q'`` where ``p = 2p' + 1``
    and ``q = 2q' + 1``.  ``q`` has its top bit set, so ``p`` always has
    ``bits`` bits.  The module docstring describes the search.
    """
    if bits < 5:
        raise ValueError("need at least 5 bits for a safe prime")
    while True:
        q = _candidate(bits - 1, rng)
        q_prime, deferred = _screen(q, rng)
        if not q_prime or not is_probable_prime(2 * q + 1, rng=rng):
            continue
        if deferred is None or _settle(q, deferred, rng):
            return 2 * q + 1
