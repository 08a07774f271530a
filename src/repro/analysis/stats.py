"""Small statistics helpers for Monte-Carlo measurements.

The error-probability experiments estimate Bernoulli rates from a few
hundred trials; the benchmarks and EXPERIMENTS.md report Wilson score
intervals so "measured ≈ bound" claims carry explicit uncertainty.
"""

from __future__ import annotations

import math
from typing import Any, Sequence, Tuple

__all__ = [
    "disagreement_rate",
    "wilson_interval",
]

_Z95 = 1.959963984540054  # 95% two-sided normal quantile


def disagreement_rate(results: Sequence[Any]) -> float:
    """Fraction of executions (``ExecutionResult``s) whose honest parties
    did not all agree."""
    if not results:
        raise ValueError("no results")
    failures = sum(1 for result in results if not result.honest_agree())
    return failures / len(results)


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95 % Wilson score interval for a binomial proportion.

    Better behaved than the normal approximation at rates near 0 or 1 —
    which is exactly where our failure probabilities live.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (0 <= successes <= trials):
        raise ValueError("successes must lie in [0, trials]")
    z = _Z95
    p = successes / trials
    denominator = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return (max(0.0, center - margin), min(1.0, center + margin))
