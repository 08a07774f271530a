"""BACKENDS — protocol cost under ideal vs real cryptography.

The paper analyses its protocols against idealized signatures (§2.2) and
the reproduction defaults to the matching idealized backend.  This
benchmark runs the same BA over real Shoup threshold RSA + RSA-FDH and
reports the wall-time split between one-time key dealing and the protocol
itself — evidence that the substitution (DESIGN.md) changes performance,
not behaviour: rounds, message counts and outcomes are identical.  Both
executions drive the experiment engine (``backend="real"`` selects the
real crypto suite per spec).
"""

from __future__ import annotations

import random
import time

from repro.analysis.report import format_table
from repro.core.ba import rounds_one_half
from repro.crypto.keys import CryptoSuite

from .conftest import engine_spec, run_plan

KAPPA = 4
N, T = 5, 2
INPUTS = [1, 0, 1, 0, 1]

#: The legacy harness dealt keys from ``random.Random(41)``; the engine
#: deals from ``Random(setup_seed + 0x5E7)``, so this setup seed makes the
#: engine trial see bit-identical key material.
SETUP_SEED = 41 - 0x5E7
RSA_BITS = 128


def run_backend(backend):
    started = time.perf_counter()
    (result,) = run_plan(
        f"crypto-backend-{backend}",
        [
            engine_spec(
                "ba_one_half", INPUTS, T,
                params={"kappa": KAPPA},
                seed=3, session=f"bk-{backend}",
                setup_seed=SETUP_SEED, rsa_bits=RSA_BITS, backend=backend,
            )
        ],
    )
    elapsed = time.perf_counter() - started
    return result, elapsed


def test_backends_agree_on_everything_but_speed(report_sink):
    rows = []
    outcomes = {}
    for backend in ("ideal", "real"):
        started = time.perf_counter()
        if backend == "ideal":
            CryptoSuite.ideal(N, T, random.Random(41))
        else:
            CryptoSuite.real(N, T, random.Random(41), bits=RSA_BITS)
        keygen = time.perf_counter() - started
        result, elapsed = run_backend(backend)
        assert result.honest_agree()
        assert result.metrics.rounds == rounds_one_half(KAPPA)
        outcomes[backend] = (
            result.outputs,
            result.metrics.rounds,
            result.metrics.honest_messages,
        )
        rows.append(
            [
                backend,
                f"{keygen * 1e3:.1f}ms",
                f"{elapsed * 1e3:.1f}ms",
                result.metrics.rounds,
                result.metrics.honest_messages,
            ]
        )
    # Identical protocol-level behaviour (outputs may differ: the coin
    # values are functions of the key material — but rounds/messages
    # must match exactly).
    assert outcomes["ideal"][1:] == outcomes["real"][1:]
    report_sink.append(
        f"\nBACKENDS  BA t<n/2 (kappa={KAPPA}, n={N}) over both crypto "
        "backends\n"
        + format_table(
            ["backend", "key dealing", "protocol", "rounds", "messages"], rows
        )
    )
