"""Byzantine adversaries: the model interface and concrete strategies."""

from .base import (
    Adversary,
    AdversaryEnv,
    RoundDecision,
    RoundView,
)
from .coin_bias import WithholdingCoinAdversary
from .straddle import LinearHalfStraddleAdversary, OneThirdStraddleAdversary
from .termination import GradeSplitAdversary
from .strategies import (
    CrashAdversary,
    EavesdropCoinAdversary,
    LastRoundCorruptionAdversary,
    MalformedAdversary,
    TwoFaceAdversary,
)

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
