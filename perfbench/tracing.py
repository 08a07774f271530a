"""Spans recorded from outside the library, around calls into each layer.

``traced_trial`` mirrors ``repro.engine.run_trial`` through public
constructors, but hands the simulator a crypto suite, a protocol factory
and an adversary wrapped in timing proxies.  Spans carry name, start,
end, parent and a per-trial id, stay in memory, and are written once at
exit.  A layer's self time is its spans' duration minus the part their
children cover.  The proxies consume no randomness and forward every
value untouched, so a traced result equals the untraced one — the traced
run fails if it does not.
"""

from __future__ import annotations

import dataclasses
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.adversary import Adversary
from repro.crypto import CryptoSuite
from repro.engine import TrialSpec, build_fault_plan, deal_suite
from repro.engine.registry import build_adversary, build_protocol_factory
from repro.network import ExecutionResult, SyncSimulator

__all__ = ["SpanRecorder", "Timed", "TrialTracer", "layer_of"]

# Span row layout: [trial id, name, start, end, parent row or -1].
_TRIAL, _NAME, _START, _END, _PARENT = range(5)


class SpanRecorder:
    """An in-memory span list with a stack of the currently open spans."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self.trial = -1
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        rows = self.rows
        index = len(rows)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        rows.append([self.trial, name, perf_counter(), 0.0, parent])
        return index

    def end(self, index: int) -> None:
        self.rows[index][_END] = perf_counter()
        self._open.pop()

    def timed(self, name: str, function: Callable) -> Callable:
        """``function`` wrapped so that every call is one span."""
        begin, end = self.begin, self.end

        def call(*args: Any, **kwargs: Any) -> Any:
            index = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                end(index)

        return call

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        rows = self.rows
        covered = [0.0] * len(rows)
        for row in rows:
            if row[_PARENT] >= 0:
                covered[row[_PARENT]] += row[_END] - row[_START]
        totals: Dict[str, Dict[str, float]] = {}
        for index, row in enumerate(rows):
            entry = totals.setdefault(
                row[_NAME], {"count": 0, "seconds": 0.0, "self_seconds": 0.0}
            )
            duration = row[_END] - row[_START]
            entry["count"] += 1
            entry["seconds"] += duration
            entry["self_seconds"] += duration - covered[index]
        return totals

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (trial, name, start, end, parent) in enumerate(self.rows):
                record = {
                    "id": index, "trial": trial, "name": name,
                    "start": start, "end": end, "parent": parent,
                }
                handle.write(json.dumps(record) + "\n")


def layer_of(span_name: str) -> str:
    """The layer a span's self time is charged to (its first name part)."""
    return span_name.split(".", 1)[0]


class Timed:
    """Forwarding proxy: each method call on the wrapped object is a span.

    A scheme method that calls its own siblings (``try_combine`` →
    ``verify_share``) reaches the unwrapped object, so it is one span.
    """

    def __init__(self, inner: Any, recorder: SpanRecorder, prefix: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._prefix = prefix

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._inner, name)
        if callable(value):
            value = self._recorder.timed(f"{self._prefix}.{name}", value)
            self.__dict__[name] = value
        return value


class _TimedProgram:
    """A party program whose every generator step is one span."""

    __slots__ = ("_program", "_recorder")

    def __init__(self, program: Any, recorder: SpanRecorder) -> None:
        self._program = program
        self._recorder = recorder

    def __iter__(self) -> "_TimedProgram":
        return self

    def __next__(self) -> Any:
        index = self._recorder.begin("protocol.step")
        try:
            return next(self._program)
        finally:
            self._recorder.end(index)

    def send(self, inbox: Any) -> Any:
        index = self._recorder.begin("protocol.step")
        try:
            return self._program.send(inbox)
        finally:
            self._recorder.end(index)


class TrialTracer:
    """Runs trials with timing proxies around every layer boundary."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._suites: Dict[Any, CryptoSuite] = {}

    def suite_for(self, spec: TrialSpec) -> CryptoSuite:
        """The spec's dealt suite behind timing proxies (dealt once per key)."""
        suite = self._suites.get(spec.suite_key)
        if suite is None:
            dealt = deal_suite(spec.suite_key)
            suite = dataclasses.replace(
                dealt,
                plain=Timed(dealt.plain, self.recorder, "crypto.plain"),
                quorum=Timed(dealt.quorum, self.recorder, "crypto.quorum"),
                coin=Timed(dealt.coin, self.recorder, "crypto.coin"),
            )
            self._suites[spec.suite_key] = suite
        return suite

    def traced_trial(self, spec: TrialSpec, trial: int) -> ExecutionResult:
        """``run_trial(spec)`` with spans; the result must be identical."""
        recorder = self.recorder
        recorder.trial = trial
        suite = self.suite_for(spec)  # dealt outside the trial span
        root = recorder.begin("trial")
        try:
            build = recorder.begin("engine.build")
            factory = build_protocol_factory(spec.protocol, spec.param_dict)
            adversary: Optional[Adversary] = build_adversary(
                spec.adversary, spec.adversary_param_dict, factory
            )
            faults = build_fault_plan(spec.faults, spec.fault_param_dict)
            recorder.end(build)

            def timed_factory(ctx: Any, value: Any) -> _TimedProgram:
                return _TimedProgram(factory(ctx, value), recorder)

            run = recorder.begin("network.sim")
            try:
                simulator = SyncSimulator(
                    num_parties=spec.num_parties,
                    max_faulty=spec.max_faulty,
                    crypto=suite,
                    adversary=Timed(adversary or Adversary(), recorder, "adversary"),
                    seed=spec.seed,
                    session=spec.session,
                    max_rounds=spec.max_rounds,
                    collect_signatures=spec.collect_signatures,
                    faults=faults,
                )
                return simulator.run(timed_factory, list(spec.inputs))
            finally:
                recorder.end(run)
        finally:
            recorder.end(root)
