"""The paper's contribution: extraction, generalized iteration, BA.

Also hosts the executable baselines (fixed-round Feldman–Micali,
Micali–Vaikuntanathan-style, Dolev–Strong) and the multivalued lifts.
"""

import importlib
from typing import Any

__all__ = [
    "CoinFactory",
    "Iteration",
    "ProbTermOutput",
    "fm_probabilistic_program",
    "ba_one_half_generalized",
    "ba_one_half_program",
    "ba_one_third_chunked",
    "bits_per_round_one_half",
    "bits_per_round_one_third",
    "rounds_one_half_generalized",
    "rounds_one_third_chunked",
    "ba_one_third_program",
    "coin_range",
    "dolev_strong_ba_program",
    "dolev_strong_broadcast_program",
    "extract",
    "feldman_micali_program",
    "ideal_coin_factory",
    "iteration_fm_probabilistic",
    "iteration_one_half",
    "iteration_one_third",
    "iterations_one_half",
    "micali_vaikuntanathan_program",
    "multivalued_ba_program",
    "multivalued_prefix",
    "mv_pki_program",
    "rounds_feldman_micali",
    "rounds_mv",
    "rounds_one_half",
    "rounds_one_third",
    "splitting_coin",
    "threshold_coin_factory",
    "turpin_coan_classic_program",
    "turpin_coan_prefix",
]

# PEP 562: the first read of an export imports its submodule and keeps the name.
_EXPORTS = {
    ".ablation": (
        "ba_one_half_generalized", "ba_one_third_chunked",
        "bits_per_round_one_half", "bits_per_round_one_third",
        "rounds_one_half_generalized", "rounds_one_third_chunked",
    ),
    ".ba": (
        "ba_one_half_program", "ba_one_third_program", "iteration_one_half",
        "iteration_one_third", "iterations_one_half", "rounds_one_half",
        "rounds_one_third",
    ),
    ".dolev_strong": (
        "dolev_strong_ba_program", "dolev_strong_broadcast_program",
    ),
    ".extraction": (
        "coin_range", "extract", "splitting_coin",
    ),
    ".feldman_micali": ("feldman_micali_program", "rounds_feldman_micali"),
    ".iteration": (
        "CoinFactory", "Iteration", "ideal_coin_factory",
        "threshold_coin_factory",
    ),
    ".micali_vaikuntanathan": (
        "micali_vaikuntanathan_program", "mv_pki_program", "rounds_mv",
    ),
    ".probabilistic": (
        "ProbTermOutput", "fm_probabilistic_program",
        "iteration_fm_probabilistic",
    ),
    ".turpin_coan": (
        "multivalued_ba_program", "multivalued_prefix",
        "turpin_coan_classic_program", "turpin_coan_prefix",
    ),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = getattr(importlib.import_module(module, __name__), name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
