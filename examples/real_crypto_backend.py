#!/usr/bin/env python3
"""Running BA over the *real* cryptographic backend.

Everything else in the examples uses the idealized signature registry —
the abstraction the paper itself analyses (§2.2).  This example swaps in
the real backend: RSA-FDH plain signatures plus Shoup unique threshold
RSA for the quorum certificates and the common coin, dealt by a local
trusted setup.  The protocol code is untouched; only key material changes.

Key generation (safe primes) dominates the runtime — the protocol itself
is as fast as with ideal keys, which is the point: the paper's round and
communication complexity are independent of the signature instantiation.

Run:  python examples/real_crypto_backend.py
"""

import random
import time

from repro import CryptoSuite, ba_one_half_program, run_protocol

N, T = 5, 2
KAPPA = 4
BITS = 256


def main() -> None:
    print(f"dealing Shoup threshold-RSA keys (n={N}, modulus {BITS} bits)...")
    start = time.perf_counter()
    crypto = CryptoSuite.real(N, T, random.Random(2026), bits=BITS)
    keygen_seconds = time.perf_counter() - start
    print(f"  setup took {keygen_seconds:.1f}s "
          f"(quorum threshold {crypto.quorum.threshold}-of-{N}, "
          f"coin threshold {crypto.coin.threshold}-of-{N})")

    start = time.perf_counter()
    result = run_protocol(
        lambda ctx, bit: ba_one_half_program(ctx, bit, kappa=KAPPA),
        [1, 0, 1, 0, 1],
        max_faulty=T, seed=3, session="real", crypto=crypto,
    )
    run_seconds = time.perf_counter() - start

    print(f"\nBA (t < n/2, kappa={KAPPA}) over real threshold RSA:")
    print(f"  outputs    : {result.outputs}")
    print(f"  agreement  : {result.honest_agree()}")
    print(f"  rounds     : {result.metrics.rounds} (theory: 3*ceil(kappa/2))")
    print(f"  signatures : {result.metrics.total_signatures}")
    print(f"  wall time  : {run_seconds:.2f}s")
    assert result.honest_agree()


if __name__ == "__main__":
    main()
