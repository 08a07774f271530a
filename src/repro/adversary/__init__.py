"""Byzantine adversaries: the model interface and concrete strategies."""

import importlib
from typing import Any

__all__ = [
    "Adversary",
    "AdversaryEnv",
    "CrashAdversary",
    "EavesdropCoinAdversary",
    "GradeSplitAdversary",
    "LastRoundCorruptionAdversary",
    "LinearHalfStraddleAdversary",
    "MalformedAdversary",
    "OneThirdStraddleAdversary",
    "RoundDecision",
    "RoundView",
    "TwoFaceAdversary",
    "WithholdingCoinAdversary",
]

# PEP 562: the first read of an export imports its submodule and keeps the name.
_EXPORTS = {
    ".base": ("Adversary", "AdversaryEnv", "RoundDecision", "RoundView"),
    ".coin_bias": ("WithholdingCoinAdversary",),
    ".straddle": ("LinearHalfStraddleAdversary", "OneThirdStraddleAdversary"),
    ".termination": ("GradeSplitAdversary",),
    ".strategies": (
        "CrashAdversary", "EavesdropCoinAdversary",
        "LastRoundCorruptionAdversary", "MalformedAdversary",
        "TwoFaceAdversary",
    ),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = getattr(importlib.import_module(module, __name__), name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
