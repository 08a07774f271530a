"""Small statistics helpers for Monte-Carlo measurements.

The error-probability experiments estimate Bernoulli rates from a few
hundred trials; the benchmarks and EXPERIMENTS.md report Wilson score
intervals so "measured ≈ bound" claims carry explicit uncertainty.

:class:`SequentialEstimate` is the streaming form: it accumulates
hit/trial counts batch by batch and tests the running Wilson interval
against a target bound, which is what lets the adaptive engine
(:mod:`repro.engine.adaptive`) stop a configuration as soon as the
statistics are decided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence, Tuple

__all__ = [
    "SequentialEstimate",
    "disagreement_rate",
    "wilson_interval",
]

_Z95 = 1.959963984540054  # 95% two-sided normal quantile
# SequentialEstimate's decision rule.  99.5% two-sided quantile: every
# batch is another look at the data, and 95% intervals would inflate the
# false-exclusion rate of sequential early stopping.
_Z995 = 2.807033768343811
_MIN_TRIALS = 32
_MIN_HITS = 5


def disagreement_rate(results: Sequence[Any]) -> float:
    """Fraction of executions (``ExecutionResult``s) whose honest parties
    did not all agree."""
    if not results:
        raise ValueError("no results")
    failures = sum(1 for result in results if not result.honest_agree())
    return failures / len(results)


def wilson_interval(
    successes: int, trials: int, z: float = _Z95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Better behaved than the normal approximation at rates near 0 or 1 —
    which is exactly where our failure probabilities live.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (0 <= successes <= trials):
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    denominator = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


@dataclass
class SequentialEstimate:
    """A streaming Bernoulli estimate tested against a target ``bound``.

    Feed hit/trial counts in with :meth:`update` (batches) or
    :meth:`observe` (single trials); :attr:`status` classifies the
    running Wilson interval against the bound under one decision rule.
    Every batch is another look at the data, so the intervals are 99.5 %
    ones (``z ≈ 2.807``), not the 95 % ones the reports print, and
    nothing is decided before ``_MIN_TRIALS`` = 32 trials:

    ``"below"``
        the whole interval lies strictly under the bound — the measured
        rate is significantly better than the bound;
    ``"above"``
        the whole interval lies strictly over the bound — the bound is
        violated (requires at least ``_MIN_HITS`` = 5 observed hits, so
        a violation claim for a rare event never rests on one or two
        occurrences that happened to cluster early in the sample);
    ``"contained"``
        the bound sits inside the interval *and* the interval is at most
        the bound wide — the estimate confidently matches the bound (the
        tight-adversary case, where the bound is realized exactly and
        exclusion never happens);
    ``"undecided"``
        none of the above yet (always the case below 32 trials).

    :attr:`decided` is the early-stopping predicate: any status other
    than ``"undecided"``.  :attr:`accepted` is the accept/reject verdict
    against the bound — accept unless the interval proves the rate is
    above it — and is well-defined whether or not the estimate is
    decided, so a fixed-budget run and an early-stopped run can be
    compared verdict-for-verdict.

    The classification is a pure function of the accumulated counts, so
    two estimates fed the same trials in any batching agree exactly —
    the property the adaptive runner's determinism rests on.
    """

    bound: float
    hits: int = field(default=0, init=False)
    trials: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.bound <= 1.0):
            raise ValueError(f"bound must lie in [0, 1], got {self.bound}")

    def observe(self, hit: bool) -> None:
        """Record a single trial."""
        self.update(1 if hit else 0, 1)

    def update(self, hits: int, trials: int) -> None:
        """Fold in a batch of ``trials`` trials, ``hits`` of them hits."""
        if trials < 0 or not (0 <= hits <= trials):
            raise ValueError(
                f"need 0 <= hits <= trials, got hits={hits}, trials={trials}"
            )
        self.hits += hits
        self.trials += trials

    @property
    def interval(self) -> Tuple[float, float]:
        """Running Wilson interval; vacuous ``(0, 1)`` before any trial."""
        if self.trials == 0:
            return (0.0, 1.0)
        return wilson_interval(self.hits, self.trials, _Z995)

    @property
    def width(self) -> float:
        """Interval width — the adaptive runner's "noisiest config" key."""
        low, high = self.interval
        return high - low

    @property
    def status(self) -> str:
        if self.trials < _MIN_TRIALS:
            return "undecided"
        low, high = self.interval
        if high < self.bound:
            return "below"
        # Exclusion *above* additionally requires ``_MIN_HITS`` observed
        # hits: for small bounds a handful of rare events clustered in
        # an early prefix of the sample can push the Wilson low end over
        # the bound even though the long-run rate respects it, and a
        # claim of violation should rest on more than a couple of
        # occurrences (the classic np >= 5 evidence floor).
        if low > self.bound and self.hits >= _MIN_HITS:
            return "above"
        # Width at most the bound itself: the rate is pinned to ±bound/2
        # around the interval center with the bound inside — a real
        # statement about tightness, yet reachable in a few dozen to a
        # few hundred trials for the bounds the sweeps test (width
        # shrinks as 1/sqrt(n), so demanding much less than the bound
        # costs quadratically more trials).
        if low <= self.bound and high - low <= self.bound:
            return "contained"
        return "undecided"

    @property
    def decided(self) -> bool:
        """Early-stopping predicate: the interval has settled vs the bound."""
        return self.status != "undecided"

    @property
    def accepted(self) -> bool:
        """Accept/reject vs the bound: reject only on proven violation."""
        low, _high = self.interval
        return not (
            self.trials >= _MIN_TRIALS
            and self.hits >= _MIN_HITS
            and low > self.bound
        )
