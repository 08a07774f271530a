"""ASCII curve rendering for benchmark reports.

The benchmarks print tables; for decay curves (error vs κ) a tiny visual
helps the "shape" claims land.  No plotting library exists offline, so
this renders log-scale sparklines with block characters —
deterministic, terminal-safe, snapshot-friendly.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["sparkline", "log_sparkline"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Map values linearly onto eight block heights."""
    if not values:
        return ""
    low = min(values)
    high = max(values)
    if math.isclose(low, high):
        return _BLOCKS[0] * len(values)
    span = high - low
    return "".join(
        _BLOCKS[min(7, int((value - low) / span * 7.999))] for value in values
    )


def log_sparkline(values: Sequence[float], floor: float = 1e-6) -> str:
    """Sparkline in log scale — the right lens for 2^-κ decay curves.

    Zeros (measured "no failures") clamp to ``floor``.
    """
    return sparkline([math.log10(max(value, floor)) for value in values])

