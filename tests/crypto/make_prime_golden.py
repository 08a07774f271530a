#!/usr/bin/env python
"""Regenerate (or ``--check``) the safe-prime search golden.

Run from the repo root::

    python tests/crypto/make_prime_golden.py          # rewrite the golden
    python tests/crypto/make_prime_golden.py --check  # exit 1 on a diff

``generate_safe_prime`` exponentiates only the random Miller–Rabin rounds
that decide a candidate (see :mod:`repro.crypto.primes`).  This script
keeps the search it replaced, verbatim, and writes one sha256 per
``bits`` over ``repr((seed, prime, rng.getstate()))`` for every seed of
:data:`CASES`: the primes, and the RNG state each search leaves behind,
so everything dealt after a prime — shares, verification keys, the next
prime — is pinned too.  ``tests/crypto/test_safe_prime_search.py`` holds
``generate_safe_prime`` to these digests; CI runs ``--check``, so the
reference search itself still runs on every change.  It needs neither
pytest nor the library, and the digests are the same on every Python 3.
"""

import argparse
import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "safe_prime_golden.json")

#: bits → seeds searched: every small size, plus the key sizes.
CASES = {**{bits: 100 for bits in range(5, 41)}, 64: 10, 128: 10}

# -- the search before deferral, verbatim ------------------------------------

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
]


def reference_is_probable_prime(n, rounds=40, rng=None):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or random.Random(0xC0FFEE ^ n)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_generate_prime(bits, rng):
    if bits < 3:
        raise ValueError("need at least 3 bits for a random prime")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if reference_is_probable_prime(candidate, rng=rng):
            return candidate


def reference_generate_safe_prime(bits, rng):
    if bits < 5:
        raise ValueError("need at least 5 bits for a safe prime")
    while True:
        q = reference_generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if p.bit_length() == bits and reference_is_probable_prime(p, rng=rng):
            return p


# -- the golden ------------------------------------------------------------------


def digest(search, bits):
    """sha256 over what ``search(bits, rng)`` returns and leaves behind,
    for each seed of ``CASES[bits]``."""
    hasher = hashlib.sha256()
    for seed in range(CASES[bits]):
        rng = random.Random(seed)
        prime = search(bits, rng)
        hasher.update(repr((seed, prime, rng.getstate())).encode("ascii"))
    return hasher.hexdigest()


def load_golden():
    """bits → committed digest."""
    with open(GOLDEN, encoding="utf-8") as handle:
        return {int(bits): value for bits, value in json.load(handle).items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the committed golden instead of rewriting it",
    )
    args = parser.parse_args()
    digests = {bits: digest(reference_generate_safe_prime, bits) for bits in CASES}
    where = os.path.relpath(GOLDEN)
    if args.check:
        golden = load_golden()
        stale = [bits for bits in CASES if golden.get(bits) != digests[bits]]
        if stale or set(golden) != set(CASES):
            print(f"{where}: stale digests at bits {stale}", file=sys.stderr)
            return 1
        print(f"{where}: {len(CASES)} digests reproduce")
        return 0
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({str(bits): digests[bits] for bits in CASES}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(CASES)} digests to {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
