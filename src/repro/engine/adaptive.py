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
change which trials run or what they return.  With early stopping
disabled and a budget covering the plan, every trial runs and the
reassembled results are byte-identical to ``ParallelRunner.run`` (pinned
by ``tests/engine/test_adaptive.py``).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..analysis.stats import _Z995, SequentialEstimate
from ..network.simulator import ExecutionResult
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import TelemetryWriter
from .plan import TrialPlan
from .runner import ParallelRunner

__all__ = ["AdaptiveRunner", "AdaptiveResult", "ConfigOutcome"]

BoundSpec = Union[float, Mapping[str, float]]

#: Every config's stopping rule (see :class:`AdaptiveRunner`).
_MIN_TRIALS = 32
_MIN_HITS = 5


def _disagreement(result: ExecutionResult) -> bool:
    """Default event: the trial's honest parties failed to agree."""
    return not result.honest_agree()


@dataclass
class ConfigOutcome:
    """One configuration's allocation record and final verdict."""

    name: str
    indices: Tuple[int, ...]
    estimate: SequentialEstimate
    stopped_early: bool = False

    @property
    def bound(self) -> float:
        return self.estimate.bound

    @property
    def executed(self) -> int:
        """Trials actually run (≤ the per-config cap ``len(indices)``)."""
        return self.estimate.trials

    @property
    def hits(self) -> int:
        return self.estimate.hits

    @property
    def rate(self) -> float:
        return self.estimate.rate

    @property
    def interval(self) -> Tuple[float, float]:
        return self.estimate.interval

    @property
    def status(self) -> str:
        return self.estimate.status

    @property
    def accepted(self) -> bool:
        return self.estimate.accepted


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
    # Per-trial metrics registries, plan-ordered with None for trials
    # the allocator never ran; present iff the runner was built with
    # metrics=True.
    trial_metrics: Optional[List[Optional[MetricsRegistry]]] = None

    def __len__(self) -> int:
        return len(self.results)

    @property
    def saved(self) -> int:
        """Trials the budget allowed but the statistics made unnecessary."""
        return self.budget - self.spent

    def verdicts(self) -> Dict[str, bool]:
        """Per-config accept/reject against its bound."""
        return {name: outcome.accepted for name, outcome in self.configs.items()}

    def executed_results(self) -> List[ExecutionResult]:
        """The results that exist, still in plan order."""
        return [result for result in self.results if result is not None]

    def metrics_registry(self) -> MetricsRegistry:
        """Merge of every executed trial's metrics registry."""
        if self.trial_metrics is None:
            raise ValueError(
                "run was not collected with metrics=True; no registries"
            )
        return MetricsRegistry.merged(
            registry for registry in self.trial_metrics if registry is not None
        )


class AdaptiveRunner:
    """Budget-aware streaming executor for :class:`TrialPlan` sweeps.

    Parameters
    ----------
    workers:
        Process count; ``1`` executes inline like ``ParallelRunner``.
    batch_size:
        Trials handed to one config per allocation round.  Smaller
        batches stop sooner after the statistics are decided but pay
        more scheduling overhead.
    early_stop:
        ``False`` disables the separation predicate entirely: every
        config runs until its cap or the budget, which (budget
        permitting) reproduces ``ParallelRunner`` byte-for-byte.
    telemetry:
        Optional :class:`~repro.obs.TelemetryWriter`.  When set, every
        allocation round emits an ``adaptive_round`` record (which
        configs got batches, interval widths, remaining budget) ahead of
        the session's per-batch chunk spans (numbered from 0 in every
        run), and the run closes with ``adaptive_complete`` — the
        scheduler's decisions become auditable after the fact (``repro
        error-sweep --telemetry``).

    Every config's :class:`SequentialEstimate` is deliberately more
    conservative than the reporting intervals: every batch is another
    look at the data, so stopping decisions use 99.5% intervals
    (``z≈2.807``, ``_Z995``) after at least ``_MIN_TRIALS`` = 32 trials,
    with no precision target — and a violation verdict needs at least
    ``_MIN_HITS`` = 5 observed failures, so a rare-event config is never
    rejected on a couple of occurrences that clustered early in its
    sample.  Together these keep the sequential false-exclusion rate low
    enough that early-stopped verdicts match fixed-budget verdicts.
    """

    def __init__(
        self,
        workers: int = 1,
        batch_size: int = 25,
        early_stop: bool = True,
        telemetry: Optional[TelemetryWriter] = None,
        backend: str = "object",
        metrics: bool = False,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        # Batches execute through one ParallelRunner.session per run; the
        # runner also validates workers and backend.
        self._runner = ParallelRunner(
            workers=workers, telemetry=telemetry, backend=backend, metrics=metrics
        )
        self.workers = workers
        self.batch_size = batch_size
        self.early_stop = early_stop
        self.telemetry = telemetry
        # Same semantics as ParallelRunner: "vector" batches each
        # allocation-round batch through the lockstep executor (per-spec
        # fallback inside), with bit-identical results either way.
        self.backend = backend
        # Same semantics as ParallelRunner: per-trial MetricsRegistry
        # collection, landing on AdaptiveResult.trial_metrics.
        self.metrics = metrics

    def run(
        self,
        plan: TrialPlan,
        bounds: BoundSpec,
        budget: Optional[int] = None,
        event: Callable[[ExecutionResult], bool] = _disagreement,
    ) -> AdaptiveResult:
        """Execute ``plan`` adaptively against per-config ``bounds``.

        ``bounds`` is one float for every config or a mapping keyed by
        config name (see :meth:`TrialPlan.configs`); each config's trial
        cap is its spec count in the plan.  ``budget`` caps the *total*
        trials across configs (default: the whole plan) — budget freed
        by early-stopped configs is what lets wide-interval configs run
        past ``budget / num_configs``.  ``event`` maps a trial result to
        the Bernoulli outcome being estimated (default: honest
        disagreement).
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
                estimate=self.estimate_for(name, bounds),
            )
        order = {name: position for position, name in enumerate(groups)}
        cursors = {name: 0 for name in groups}
        owner = {
            index: name for name, indices in groups.items() for index in indices
        }
        results: List[Optional[ExecutionResult]] = [None] * len(plan)
        sink: Optional[Dict[int, MetricsRegistry]] = {} if self.metrics else None
        spent = 0
        rounds = 0
        tele = self.telemetry
        with self._runner.session(
            plan, sink, configs=len(groups), budget=budget,
            batch_size=self.batch_size,
        ) as stream:
            while True:
                allocations = self._allocate(
                    outcomes, cursors, order, budget - spent
                )
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
                    outcomes[owner[index]].estimate.observe(event(result))
                spent += sum(len(batch) for batch in batches)
                rounds += 1

            for outcome in outcomes.values():
                if (
                    self.early_stop
                    and outcome.estimate.decided
                    and outcome.executed < len(outcome.indices)
                ):
                    outcome.stopped_early = True
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
            trial_metrics=(
                [sink.get(index) for index in range(len(plan))]
                if sink is not None
                else None
            ),
        )

    # ── scheduling ───────────────────────────────────────────────────

    def estimate_for(self, name: str, bounds: BoundSpec) -> SequentialEstimate:
        """A fresh estimate configured like this runner's (shared classifier)."""
        if isinstance(bounds, Mapping):
            try:
                bound = bounds[name]
            except KeyError:
                raise KeyError(
                    f"no bound for config {name!r}; "
                    f"bounds cover {sorted(bounds)}"
                ) from None
        else:
            bound = float(bounds)
        return SequentialEstimate(
            bound=bound, z=_Z995, min_trials=_MIN_TRIALS, min_hits=_MIN_HITS
        )

    def _allocate(
        self,
        outcomes: "OrderedDict[str, ConfigOutcome]",
        cursors: Dict[str, int],
        order: Dict[str, int],
        remaining: int,
    ) -> List[Tuple[str, Tuple[int, ...]]]:
        """Pick this round's batches: widest undecided intervals first.

        Purely a function of the accumulated counts (plus plan order as
        the tie-break), so the schedule is identical for every worker
        count and completion order.
        """
        if remaining <= 0:
            return []
        active = [
            outcome
            for outcome in outcomes.values()
            if cursors[outcome.name] < len(outcome.indices)
            and not (self.early_stop and outcome.estimate.decided)
        ]
        active.sort(key=lambda o: (-o.estimate.width, order[o.name]))
        allocations: List[Tuple[str, Tuple[int, ...]]] = []
        for outcome in active:
            if remaining <= 0:
                break
            cursor = cursors[outcome.name]
            take = min(
                self.batch_size, len(outcome.indices) - cursor, remaining
            )
            allocations.append(
                (outcome.name, outcome.indices[cursor : cursor + take])
            )
            cursors[outcome.name] = cursor + take
            remaining -= take
        return allocations
