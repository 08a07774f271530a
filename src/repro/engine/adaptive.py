"""Adaptive trial allocation: stop configs when the statistics decide.

The fixed-budget :class:`~repro.engine.runner.ParallelRunner` spends the
same number of trials on every configuration of a sweep, even after a
config's Wilson interval has clearly separated from (or confidently
matched) the bound under test.  For error-probability sweeps — where
every table is a Bernoulli-rate estimate against ``1/(s-1)`` or
``2^-κ`` — that is pure waste, and for ``backend="real"`` sweeps it is
the difference between affordable and not.

:class:`AdaptiveRunner` executes a plan's configurations in incremental
batches and feeds each batch into a per-config
:class:`~repro.analysis.stats.SequentialEstimate`:

* a config stops early once its interval *excludes* the bound (proven
  better or proven violated) or *confidently contains* it (the
  tight-adversary case, where the bound is realized exactly);
* the freed budget flows to the configs with the widest intervals —
  each allocation round hands batches to the noisiest undecided configs
  first, so hard configs (tiny bounds, slow separation) can run past
  the fixed-mode trial count up to their per-config cap.

The runner is allocation policy only: a run opens one
``ParallelRunner.session`` and hands each round's batches to its
``stream``, which owns pool, dispatch, telemetry spans and named errors.

Determinism is preserved by construction.  Scheduling decisions are
made only at round boundaries from the accumulated per-config counts —
which are order-independent — while *within* a round batches stream
back as they complete, so worker count and completion order never
change which trials run or what they return.  Against a bound of 0 on a
plan with no disagreement no config ever decides, so every trial runs
and the reassembled results are byte-identical to ``ParallelRunner.run``
(pinned by ``tests/engine/test_adaptive.py``).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..analysis.stats import SequentialEstimate
from ..network.simulator import ExecutionResult
from ..obs.telemetry import TelemetryWriter
from .plan import TrialPlan
from .runner import ParallelRunner

__all__ = ["AdaptiveRunner", "AdaptiveResult", "ConfigOutcome"]

BoundSpec = Union[float, Mapping[str, float]]

#: Trials handed to one config per allocation round.
BATCH_SIZE = 25


@dataclass
class ConfigOutcome:
    """One configuration's allocation record and final verdict."""

    name: str
    indices: Tuple[int, ...]
    estimate: SequentialEstimate

    @property
    def stopped_early(self) -> bool:
        """Decided before its per-config cap ``len(indices)`` ran out."""
        return self.estimate.decided and self.estimate.trials < len(self.indices)


@dataclass
class AdaptiveResult:
    """Everything one adaptive run produced.

    ``results`` is plan-ordered with ``None`` for trials the allocator
    never ran; when nothing stopped early and the budget covered the
    plan it is exactly ``ParallelRunner.run(plan).results``.
    """

    plan: TrialPlan
    results: List[Optional[ExecutionResult]]
    configs: "OrderedDict[str, ConfigOutcome]"
    workers: int
    wall_seconds: float
    budget: int
    spent: int


class AdaptiveRunner:
    """Budget-aware streaming executor for :class:`TrialPlan` sweeps.

    Parameters
    ----------
    workers:
        Process count; ``1`` executes inline like ``ParallelRunner``.
    telemetry:
        Optional :class:`~repro.obs.TelemetryWriter`.  When set, every
        allocation round emits an ``adaptive_round`` record (which
        configs got batches, interval widths, remaining budget) ahead of
        the session's per-batch chunk spans (numbered from 0 in every
        run), and the run closes with ``adaptive_complete`` — the
        scheduler's decisions become auditable after the fact (``repro
        error-sweep --telemetry``).
    backend:
        As for ``ParallelRunner``: ``"vector"`` batches each allocation
        round's batches through the lockstep executor (per-spec fallback
        inside), with bit-identical results either way.

    Each allocation round hands ``BATCH_SIZE`` = 25 trials to each
    config it picks, and every config is judged by one rule, the one
    :class:`SequentialEstimate` states: 99.5 % Wilson intervals
    (``z ≈ 2.807``), no verdict before 32 trials, and no violation
    claimed on fewer than 5 hits.  The rule is deliberately more
    conservative than the reporting intervals, because every batch is
    another look at the data; it keeps the sequential false-exclusion
    rate low enough that early-stopped verdicts match fixed-budget
    verdicts.  A config stops once its estimate is decided.
    """

    def __init__(
        self,
        workers: int = 1,
        telemetry: Optional[TelemetryWriter] = None,
        backend: str = "object",
    ) -> None:
        # Batches execute through one ParallelRunner.session per run; the
        # runner also validates workers and backend.
        self._runner = ParallelRunner(
            workers=workers, telemetry=telemetry, backend=backend
        )
        self.workers = workers
        self.telemetry = telemetry

    def run(
        self, plan: TrialPlan, bounds: BoundSpec, budget: Optional[int] = None
    ) -> AdaptiveResult:
        """Execute ``plan`` adaptively against per-config ``bounds``.

        ``bounds`` is one float for every config or a mapping keyed by
        config name (see :meth:`TrialPlan.configs`); each config's trial
        cap is its spec count in the plan.  ``budget`` caps the *total*
        trials across configs (default: the whole plan) — budget freed
        by early-stopped configs is what lets wide-interval configs run
        past ``budget / num_configs``.  The estimated event is honest
        disagreement.
        """
        started = time.perf_counter()
        groups = plan.configs()
        if not groups:
            raise ValueError("plan has no trials")
        budget = len(plan) if budget is None else min(budget, len(plan))
        if budget < 1:
            raise ValueError("budget must be positive")

        outcomes: "OrderedDict[str, ConfigOutcome]" = OrderedDict()
        for name, indices in groups.items():
            outcomes[name] = ConfigOutcome(
                name=name,
                indices=indices,
                estimate=SequentialEstimate(_bound_for(name, bounds)),
            )
        order = {name: position for position, name in enumerate(groups)}
        cursors = {name: 0 for name in groups}
        owner = {
            index: name for name, indices in groups.items() for index in indices
        }
        results: List[Optional[ExecutionResult]] = [None] * len(plan)
        spent = 0
        rounds = 0
        tele = self.telemetry
        with self._runner.session(
            plan, configs=len(groups), budget=budget, batch_size=BATCH_SIZE
        ) as stream:
            while True:
                allocations = _allocate(outcomes, cursors, order, budget - spent)
                if not allocations:
                    break
                if tele is not None:
                    tele.emit(
                        "adaptive_round", round=rounds,
                        remaining=budget - spent,
                        allocations=[
                            {
                                "config": name,
                                "trials": len(indices),
                                "width": round(
                                    outcomes[name].estimate.width, 6
                                ),
                            }
                            for name, indices in allocations
                        ],
                    )
                batches = [
                    [(index, plan.trials[index]) for index in indices]
                    for _name, indices in allocations
                ]
                for index, result in stream(batches):
                    results[index] = result
                    outcomes[owner[index]].estimate.observe(
                        not result.honest_agree()
                    )
                spent += sum(len(batch) for batch in batches)
                rounds += 1

            if tele is not None:
                tele.emit(
                    "adaptive_complete", spent=spent, budget=budget,
                    allocation_rounds=rounds,
                    stopped_early=sum(
                        1 for o in outcomes.values() if o.stopped_early
                    ),
                )
        return AdaptiveResult(
            plan=plan,
            results=results,
            configs=outcomes,
            workers=self.workers,
            wall_seconds=time.perf_counter() - started,
            budget=budget,
            spent=spent,
        )


# ── scheduling ───────────────────────────────────────────────────────


def _bound_for(name: str, bounds: BoundSpec) -> float:
    """Config ``name``'s bound: its entry in a mapping, else ``bounds``."""
    if not isinstance(bounds, Mapping):
        return float(bounds)
    try:
        return bounds[name]
    except KeyError:
        raise KeyError(
            f"no bound for config {name!r}; bounds cover {sorted(bounds)}"
        ) from None


def _allocate(
    outcomes: "OrderedDict[str, ConfigOutcome]",
    cursors: Dict[str, int],
    order: Dict[str, int],
    remaining: int,
) -> List[Tuple[str, Tuple[int, ...]]]:
    """Pick this round's batches: widest undecided intervals first.

    Purely a function of the accumulated counts (plus plan order as the
    tie-break), so the schedule is identical for every worker count and
    completion order.
    """
    if remaining <= 0:
        return []
    active = [
        outcome
        for outcome in outcomes.values()
        if cursors[outcome.name] < len(outcome.indices)
        and not outcome.estimate.decided
    ]
    active.sort(key=lambda o: (-o.estimate.width, order[o.name]))
    allocations: List[Tuple[str, Tuple[int, ...]]] = []
    for outcome in active:
        if remaining <= 0:
            break
        cursor = cursors[outcome.name]
        take = min(BATCH_SIZE, len(outcome.indices) - cursor, remaining)
        allocations.append((outcome.name, outcome.indices[cursor : cursor + take]))
        cursors[outcome.name] = cursor + take
        remaining -= take
    return allocations
