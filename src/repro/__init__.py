"""Round-efficient fixed-round Byzantine Agreement via Proxcensus.

A full reproduction of Fitzi, Liu-Zhang & Loss, *"A New Way to Achieve
Round-Efficient Byzantine Agreement"* (PODC 2021): the Proxcensus protocol
family, the expand–coin–extract iteration paradigm, the two headline BA
protocols (κ+1 rounds for t < n/3; 3κ/2 rounds for t < n/2), executable
baselines, a synchronous network simulator with a strongly rushing
adaptive adversary, and the full cryptographic substrate (ideal and real
threshold signatures, common coins).

Quickstart::

    from repro import run_protocol, ba_one_third_program

    result = run_protocol(
        lambda ctx, bit: ba_one_third_program(ctx, bit, kappa=16),
        inputs=[1, 0, 1, 0], max_faulty=1, seed=7,
    )
    assert result.honest_agree()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

import importlib
from typing import Any

__version__ = "1.0.0"

__all__ = [
    "Adversary",
    "CrashAdversary",
    "CryptoSuite",
    "EavesdropCoinAdversary",
    "ExecutionResult",
    "GradeSplitAdversary",
    "IdealCoin",
    "LastRoundCorruptionAdversary",
    "LinearHalfStraddleAdversary",
    "MalformedAdversary",
    "OneThirdStraddleAdversary",
    "ParallelRunner",
    "PlanResult",
    "ProxOutput",
    "RunMetrics",
    "TrialPlan",
    "TrialSpec",
    "SyncSimulator",
    "Tracer",
    "TwoFaceAdversary",
    "ba_one_half_generalized",
    "ba_one_half_program",
    "ba_one_third_chunked",
    "ba_one_third_program",
    "fm_probabilistic_program",
    "check_proxcensus_consistency",
    "check_proxcensus_validity",
    "dolev_strong_ba_program",
    "dolev_strong_broadcast_program",
    "extract",
    "feldman_micali_program",
    "ideal_coin_factory",
    "micali_vaikuntanathan_program",
    "multivalued_ba_program",
    "mv_pki_program",
    "prox_linear_half_program",
    "prox_one_third_program",
    "prox_quadratic_half_program",
    "proxcast_player_replaceable_program",
    "proxcast_program",
    "run_protocol",
    "threshold_coin_factory",
    "turpin_coan_classic_program",
]

# PEP 562: the first read of an export imports its submodule and keeps the name.
_EXPORTS = {
    ".adversary": (
        "Adversary", "CrashAdversary", "EavesdropCoinAdversary",
        "GradeSplitAdversary", "LastRoundCorruptionAdversary",
        "LinearHalfStraddleAdversary", "MalformedAdversary",
        "OneThirdStraddleAdversary", "TwoFaceAdversary",
    ),
    ".core": (
        "ba_one_half_generalized", "ba_one_half_program",
        "ba_one_third_chunked", "ba_one_third_program",
        "fm_probabilistic_program", "dolev_strong_ba_program",
        "dolev_strong_broadcast_program", "extract", "feldman_micali_program",
        "ideal_coin_factory", "micali_vaikuntanathan_program",
        "multivalued_ba_program", "mv_pki_program", "threshold_coin_factory",
        "turpin_coan_classic_program",
    ),
    ".crypto": ("CryptoSuite", "IdealCoin"),
    ".engine": ("ParallelRunner", "PlanResult", "TrialPlan", "TrialSpec"),
    ".network": (
        "ExecutionResult", "RunMetrics", "SyncSimulator", "Tracer",
        "run_protocol",
    ),
    ".proxcensus": (
        "ProxOutput", "check_proxcensus_consistency",
        "check_proxcensus_validity", "prox_linear_half_program",
        "prox_one_third_program", "prox_quadratic_half_program",
        "proxcast_player_replaceable_program", "proxcast_program",
    ),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = getattr(importlib.import_module(module, __name__), name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
