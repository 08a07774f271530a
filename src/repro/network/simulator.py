"""The synchronous network simulator.

Drives generator party programs (see :mod:`repro.network.party`) round by
round over authenticated point-to-point channels, with a strongly-rushing,
adaptive Byzantine adversary interposed between message *computation* and
message *delivery* — exactly the paper's §2.1 model.

The simulator is single-process and fully deterministic given its seed: the
per-party RNGs, the adversary RNG and the (ideal) coin secret all derive
from it.  Every experiment in ``benchmarks/`` is therefore reproducible
bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import AbstractSet, Any, Dict, List, NamedTuple, Optional, Sequence, Set

from ..adversary.base import Adversary, AdversaryEnv, RoundDecision, RoundView
from ..crypto.keys import CryptoSuite
from .errors import AdversaryBudgetError, RoundLimitError, SimulationError
from .faults import OFFLINE, PARTITION, FaultCounts, FaultInjector, FaultPlan
from .messages import Outbox, normalize_outbox
from .metrics import RunMetrics, _Row, count_signatures
from .party import Context, LazyRandom, ProgramFactory

__all__ = ["ExecutionResult", "SyncSimulator", "run_protocol"]


def _agree(outputs: Dict[int, Any], inputs: Dict[int, Any], corrupted) -> bool:
    """Did every honest party (in ``inputs``, not ``corrupted``) output
    the same value?  One pass: nothing sorted, hashed or copied."""
    first = unset = object()
    for pid, value in outputs.items():
        if pid in inputs and pid not in corrupted:
            if first is unset:
                first = value
            if not value == first:
                return False
    return True


class _Template(NamedTuple):
    """What every stamp of one outcome class reads (see
    :meth:`ExecutionResult.stamp`): four containers no stamp hands out —
    each copies one on first read — and their ``honest_agree`` verdict."""

    outputs: Dict[int, Any]
    corrupted: AbstractSet[int]
    inputs: Dict[int, Any]
    finish_rounds: Dict[int, int]
    agree: bool


@dataclass
class ExecutionResult:
    """Outcome of one simulated execution.

    Field contract (load-bearing for the engine's compact result
    transport, :mod:`repro.engine.transport`, which packs and rebuilds
    these objects across process boundaries): ``outputs`` and
    ``finish_rounds`` are always recorded *together* — a party appears in
    both or in neither — and a party that never terminates (e.g. a
    corrupted program running past every honest finish) is simply
    **absent** from both dicts, never mapped to ``None``.  ``inputs`` is
    exactly ``dict(enumerate(inputs))`` for the inputs the run was given.

    A result is built by the constructor or, on the vector backend, by
    :meth:`stamp`: a stamp holds its eager ``metrics`` and a pointer to
    its outcome class's frozen template, and copies each of the other
    four fields from the template the first time it is read (assigning
    one just replaces it).  Equality, ``repr``, pickling, ``copy`` and
    ``dataclasses.replace`` / ``asdict`` read every field, so none of them
    tells a stamp from the result the constructor would have built.
    """

    outputs: Dict[int, Any]
    corrupted: Set[int]
    metrics: RunMetrics
    inputs: Dict[int, Any]
    # Round in which each party's program returned (0 = before round 1).
    # Fixed-round protocols finish everyone in the same round; protocols
    # with probabilistic termination visibly do not — see
    # repro.core.probabilistic.
    finish_rounds: Dict[int, int] = field(default_factory=dict)

    @property
    def honest_parties(self) -> List[int]:
        """Ids of parties never corrupted during the run."""
        return sorted(set(self.inputs) - self.corrupted)

    @property
    def honest_outputs(self) -> Dict[int, Any]:
        """Outputs restricted to honest parties."""
        return {
            pid: self.outputs[pid]
            for pid in self.honest_parties
            if pid in self.outputs
        }

    def honest_agree(self) -> bool:
        """Did all honest parties produce the same output?

        One pass over ``outputs``: nothing is sorted, hashed or copied
        (outputs may be unhashable).  A stamp that has read or assigned
        none of its containers yet returns its template's verdict,
        computed once per outcome class.
        """
        state = self.__dict__
        if len(state) == 2:  # metrics and the template: an untouched stamp
            return state["_template"].agree
        return _agree(self.outputs, self.inputs, self.corrupted)

    @staticmethod
    def template(
        outputs: Dict[int, Any],
        corrupted: AbstractSet[int],
        inputs: Dict[int, Any],
        finish_rounds: Dict[int, int],
    ) -> _Template:
        """The frozen template of one outcome class, for :meth:`stamp`.

        The caller hands over the four containers and must not change
        them afterwards; the class's verdict is computed here, once.
        """
        return _Template(
            outputs, corrupted, inputs, finish_rounds,
            _agree(outputs, inputs, corrupted),
        )

    @classmethod
    def stamp(cls, template: _Template, metrics: RunMetrics) -> "ExecutionResult":
        """A result equal to ``cls(**template fields, metrics=metrics)``,
        at the cost of two stores: each container field is copied from
        ``template`` on first read, so a change to one stamp never shows
        in another or in the template."""
        result = cls.__new__(cls)
        result.metrics = metrics
        result._template = template
        return result

    def __getstate__(self) -> Dict[str, Any]:
        # A stamp pickles and copies as the plain result it reads as.
        state = self.__dict__
        if "_template" in state:
            state = {name: getattr(self, name) for name in _FIELD_NAMES}
        return state


class _Copied:
    """One container field of a stamp, copied from its template on first
    read.  A non-data descriptor: a result that holds the field — every
    result the constructor built, and a stamp once it has read or
    assigned it — finds it in its own ``__dict__`` and never gets here."""

    __slots__ = ("name", "copy")

    def __init__(self, name: str, copy: Any) -> None:
        self.name, self.copy = name, copy

    def __get__(self, result: Any, owner: Any = None) -> Any:
        if result is None:
            return self
        value = result.__dict__[self.name] = self.copy(
            getattr(result._template, self.name)
        )
        return value


# Set after the decorator ran, so the dataclass sees no defaults.
ExecutionResult.outputs = _Copied("outputs", dict)  # type: ignore[assignment]
ExecutionResult.corrupted = _Copied("corrupted", set)  # type: ignore[assignment]
ExecutionResult.inputs = _Copied("inputs", dict)  # type: ignore[assignment]
ExecutionResult.finish_rounds = _Copied("finish_rounds", dict)  # type: ignore[assignment]
_FIELD_NAMES = tuple(result_field.name for result_field in fields(ExecutionResult))


class SyncSimulator:
    """A configured synchronous network ready to run party programs."""

    def __init__(
        self,
        num_parties: int,
        max_faulty: int,
        crypto: CryptoSuite,
        adversary: Optional[Adversary] = None,
        seed: int = 0,
        session: str = "run",
        max_rounds: int = 4096,
        observers: Sequence[Any] = (),
        collect_signatures: bool = True,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if crypto.num_parties != num_parties:
            raise SimulationError(
                f"crypto suite dealt for n={crypto.num_parties}, "
                f"simulator has n={num_parties}"
            )
        if not (0 <= max_faulty < num_parties):
            raise SimulationError(f"need 0 <= t < n, got t={max_faulty}")
        self.num_parties = num_parties
        self.max_faulty = max_faulty
        self.crypto = crypto
        self.adversary = adversary or Adversary()
        self.seed = seed
        self.session = session
        self.max_rounds = max_rounds
        # Delivery observers, called in order: on_corruptions(round,
        # corrupted) once per round, on_message(round, sender, recipient,
        # payload, sender_honest) per message that arrives, on_fault(round,
        # kind, sender, recipient, detail) per message the fault layer
        # suppresses or delays.  Duck-typed because network must not
        # import obs: Tracer and repro.obs.metrics.MetricsRegistry both
        # implement it.
        self.observers = tuple(observers)
        # collect_signatures=False skips the per-payload signature walk
        # entirely (message/round tallies stay exact, signature tallies
        # read 0) — the right setting for agreement-rate sweeps, where
        # the walk is pure overhead.
        self.collect_signatures = collect_signatures
        # Fault injection (repro.network.faults): loss/delay/partition/
        # crash/membership faults applied at delivery time.  None keeps
        # the delivery path byte-identical to the pre-fault-layer code.
        self.faults = faults
        # Per-run injection tallies of the most recent run() with faults.
        self.last_fault_counts: Optional[FaultCounts] = None

    def run(self, factory: ProgramFactory, inputs: Sequence[Any]) -> ExecutionResult:
        """Execute ``factory(ctx_i, inputs[i])`` for every party to completion."""
        self.crypto.forget()
        n = self.num_parties
        if len(inputs) != n:
            raise SimulationError(f"need {n} inputs, got {len(inputs)}")
        input_map = dict(enumerate(inputs))
        master = random.Random(self.seed)
        party_seeds = [master.getrandbits(64) for _ in range(n)]
        adversary_rng = random.Random(master.getrandbits(64))
        # The fault RNG is drawn from the master strictly after the party
        # seeds and adversary seed, and only when a plan is present —
        # with faults=None the seed→randomness mapping is untouched and
        # every execution is byte-identical to the pre-fault-layer code.
        injector: Optional[FaultInjector] = None
        if self.faults is not None:
            injector = FaultInjector(
                self.faults, n, random.Random(master.getrandbits(64))
            )
            self.last_fault_counts = injector.counts

        self.adversary.setup(
            AdversaryEnv(
                num_parties=n,
                max_faulty=self.max_faulty,
                session=self.session,
                crypto=self.crypto,
                rng=adversary_rng,
                inputs=dict(input_map),
            )
        )
        # One frozen set serves every round until a corruption replaces it.
        corrupted: AbstractSet[int] = frozenset(self.adversary.initial_corruptions())
        self._check_budget(corrupted)

        contexts = [
            Context(
                party_id=i,
                num_parties=n,
                max_faulty=self.max_faulty,
                session=self.session,
                crypto=self.crypto,
                rng=LazyRandom(party_seeds[i]),
            )
            for i in range(n)
        ]
        programs: List[Optional[Any]] = []
        outputs: Dict[int, Any] = {}
        finish_rounds: Dict[int, int] = {}
        pending: Dict[int, Outbox] = {}
        for i in range(n):
            program = factory(contexts[i], inputs[i])
            try:
                pending[i] = next(program)
                programs.append(program)
            except StopIteration as stop:
                outputs[i] = stop.value
                finish_rounds[i] = 0
                programs.append(None)
            except Exception:
                if i in corrupted:
                    programs.append(None)  # broken shadow: silent hereafter
                else:
                    raise

        rows = []
        round_index = 0
        # Honest parties still running: kept where one finishes or is corrupted.
        unfinished = n - len(corrupted.union(outputs))
        while unfinished:
            round_index += 1
            if round_index > self.max_rounds:
                raise RoundLimitError(
                    f"protocol exceeded {self.max_rounds} rounds; "
                    "fixed-round protocols must terminate — this is a bug"
                )
            normalized = {
                pid: normalize_outbox(outbox, n) for pid, outbox in pending.items()
            }
            if len(normalized) < n:
                for pid in range(n):
                    normalized.setdefault(pid, {})
            decision = self.adversary.decide(
                RoundView(
                    round_index=round_index,
                    outboxes=normalized,
                    corrupted=corrupted,
                )
            )
            if decision.replace or decision.corrupt:
                before = corrupted
                corrupted = self._apply_decision(decision, corrupted, normalized)
                unfinished -= len(corrupted.difference(before, outputs))
            for observer in self.observers:
                observer.on_corruptions(round_index, corrupted)

            inboxes: Dict[int, Dict[int, Any]] = {pid: {} for pid in range(n)}
            if injector is not None:
                row = self._deliver_faulty(
                    round_index, normalized, corrupted, inboxes, injector
                )
            else:
                row = self._deliver(round_index, normalized, corrupted, inboxes)
            if row is not None:
                rows.append(row)

            self.adversary.observe(
                round_index, {pid: inboxes[pid] for pid in corrupted}
            )

            pending = {}
            for pid in range(n):
                program = programs[pid]
                if program is None:
                    continue
                try:
                    pending[pid] = program.send(inboxes[pid])
                except StopIteration as stop:
                    outputs[pid] = stop.value
                    finish_rounds[pid] = round_index
                    programs[pid] = None
                    if pid not in corrupted:
                        unfinished -= 1
                except Exception:
                    if pid in corrupted:
                        programs[pid] = None  # broken shadow: silent hereafter
                    else:
                        raise
        return ExecutionResult(
            outputs=outputs,
            corrupted=set(corrupted),
            metrics=RunMetrics(round_index, tuple(rows)),
            inputs=input_map,
            finish_rounds=finish_rounds,
        )

    def _deliver(
        self,
        round_index: int,
        normalized: Dict[int, Dict[int, Any]],
        corrupted: AbstractSet[int],
        inboxes: Dict[int, Dict[int, Any]],
    ) -> Optional[_Row]:
        """Deliver one round's messages; return the round's tally row,
        or ``None`` when no party had anything to send (the hot loop).

        Structured for throughput: the round totals are local ints, a
        sender's messages count as its outbox's length, observers run
        outside the per-message tally loop, and the signature walk runs
        once per *run* of one payload object in a sender's outbox — a
        broadcast of one payload to n recipients costs one walk, not n;
        an outbox alternating two objects walks each message.  Tallies
        equal a per-message reference walk (``tests/oracles.py``, pinned
        by ``tests/engine/test_transport.py`` and
        ``tests/network/test_round_path.py``).
        """
        observers = self.observers
        collect = self.collect_signatures
        sent = False
        honest_messages = corrupt_messages = 0
        honest_signatures = corrupt_signatures = 0
        for sender in range(self.num_parties):
            outbox = normalized[sender]
            if not outbox:
                continue
            sent = True
            sender_honest = sender not in corrupted
            messages = len(outbox)
            signatures = 0
            if collect:
                last, count = None, 0  # the run so far: None walks to 0
                for recipient, payload in outbox.items():
                    inboxes[recipient][sender] = payload
                    if payload is not last:
                        last = payload
                        count = count_signatures(payload)
                    signatures += count
            else:
                for recipient, payload in outbox.items():
                    inboxes[recipient][sender] = payload
            if sender_honest:
                honest_messages += messages
                honest_signatures += signatures
            else:
                corrupt_messages += messages
                corrupt_signatures += signatures
            for observer in observers:
                for recipient, payload in outbox.items():
                    observer.on_message(
                        round_index, sender, recipient, payload, sender_honest
                    )
        if not sent:
            return None
        return (
            round_index, honest_messages, corrupt_messages,
            honest_signatures, corrupt_signatures,
        )

    def _deliver_faulty(
        self,
        round_index: int,
        normalized: Dict[int, Dict[int, Any]],
        corrupted: AbstractSet[int],
        inboxes: Dict[int, Dict[int, Any]],
        injector: FaultInjector,
    ) -> Optional[_Row]:
        """Deliver one round's messages through the fault injector and
        return the round's tally row, or ``None``.

        Same tally structure as :meth:`_deliver` (one walk per run of a
        payload object, honesty split), restricted to messages that actually
        arrive: suppressed messages tally nothing, delayed messages
        tally in the round they arrive, with sender honesty frozen at
        send time.  A round has a row when some party sent or a delayed
        message arrived, even if every message was suppressed.  With a
        no-op plan every message is delivered without consuming
        randomness, so rows match :meth:`_deliver` exactly — pinned by
        ``tests/chaos/test_faults.py``.

        A message's fate is its cell of the round's routing table, then
        — only for a cell that lets it pass, and never for self-delivery
        — the plan's i.i.d. draws in a fixed order: the loss draw when
        the plan has loss, the delay draw when it has delay and the
        message survived, then the delay length.
        """
        observers = self.observers
        collect = self.collect_signatures
        counts = injector.counts
        plan = injector.plan
        loss, delay_rate, max_delay = plan.loss, plan.delay, plan.max_delay
        rng = injector.rng
        draw = rng.random
        offline, rows = injector.routing(round_index)
        sent = False
        honest_messages = corrupt_messages = 0
        honest_signatures = corrupt_signatures = 0
        for sender in range(self.num_parties):
            outbox = normalized[sender]
            if not outbox:
                continue
            sent = True
            sender_honest = sender not in corrupted
            messages = 0
            signatures = 0
            last, count = None, 0  # the run so far: None walks to 0
            row = rows[sender]
            for recipient, payload in outbox.items():
                cell = row[recipient]
                kind = delay = None
                if cell:
                    if cell & OFFLINE:
                        kind = "offline"
                        counts.offline += 1
                    else:
                        kind = "partition"
                        counts.partitioned += 1
                elif recipient != sender:
                    if loss and draw() < loss:
                        kind = "loss"
                        counts.lost += 1
                    elif delay_rate and draw() < delay_rate:
                        kind = "delay"
                        delay = rng.randint(1, max_delay)
                        injector.defer(
                            round_index, delay, sender, recipient, payload,
                            sender_honest,
                        )
                        counts.delayed += 1
                if kind is not None:
                    for observer in observers:
                        observer.on_fault(
                            round_index, kind, sender, recipient, delay
                        )
                    continue
                inboxes[recipient][sender] = payload
                messages += 1
                if collect:
                    if payload is not last:
                        last = payload
                        count = count_signatures(payload)
                    signatures += count
                for observer in observers:
                    observer.on_message(
                        round_index, sender, recipient, payload, sender_honest
                    )
            counts.delivered += messages
            if sender_honest:
                honest_messages += messages
                honest_signatures += signatures
            else:
                corrupt_messages += messages
                corrupt_signatures += signatures
        # Drain delayed messages due this round, freshest send first.  A
        # copy whose (sender, recipient) inbox slot is already taken —
        # by a current-round delivery or a fresher delayed copy — is
        # discarded as stale; a copy whose recipient is offline now, or
        # that an active partition still separates, is dropped late.
        for entry in injector.due(round_index):
            kind = None
            if entry.recipient in offline:
                kind = "offline"
            elif rows[entry.sender][entry.recipient] & PARTITION:
                kind = "partition"
            elif entry.sender in inboxes[entry.recipient]:
                kind = "stale"
            if kind is not None:
                if kind == "offline":
                    counts.offline += 1
                elif kind == "partition":
                    counts.partitioned += 1
                else:
                    counts.stale += 1
                for observer in observers:
                    observer.on_fault(
                        round_index, kind, entry.sender, entry.recipient, None
                    )
                continue
            inboxes[entry.recipient][entry.sender] = entry.payload
            counts.delivered_late += 1
            sent = True
            signature_count = (
                count_signatures(entry.payload) if collect else 0
            )
            if entry.sender_honest:
                honest_messages += 1
                honest_signatures += signature_count
            else:
                corrupt_messages += 1
                corrupt_signatures += signature_count
            for observer in observers:
                observer.on_message(
                    round_index, entry.sender, entry.recipient, entry.payload,
                    entry.sender_honest,
                )
        if not sent:
            return None
        return (
            round_index, honest_messages, corrupt_messages,
            honest_signatures, corrupt_signatures,
        )

    def _apply_decision(
        self,
        decision: RoundDecision,
        corrupted: AbstractSet[int],
        normalized: Dict[int, Dict[int, Any]],
    ) -> AbstractSet[int]:
        for pid, outbox in decision.replace.items():
            if pid not in corrupted:
                raise SimulationError(
                    f"adversary tried to replace messages of honest party {pid} "
                    "without corrupting it"
                )
            normalized[pid] = normalize_outbox(outbox, self.num_parties)
        if not decision.corrupt:
            return corrupted
        new_corrupted = set(corrupted)
        for pid, outbox in decision.corrupt.items():
            if not (0 <= pid < self.num_parties):
                raise SimulationError(f"adversary named nonexistent party {pid}")
            new_corrupted.add(pid)
            # Strongly rushing: replace (or drop, when None) the in-flight
            # round-r messages of the freshly corrupted party.
            normalized[pid] = normalize_outbox(outbox, self.num_parties)
        self._check_budget(new_corrupted)
        return frozenset(new_corrupted)

    def _check_budget(self, corrupted: AbstractSet[int]) -> None:
        if len(corrupted) > self.max_faulty:
            raise AdversaryBudgetError(
                f"adversary corrupted {len(corrupted)} parties, budget is "
                f"{self.max_faulty}"
            )
        for pid in corrupted:
            if not (0 <= pid < self.num_parties):
                raise SimulationError(f"adversary named nonexistent party {pid}")


def run_protocol(
    factory: ProgramFactory,
    inputs: Sequence[Any],
    max_faulty: int,
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    session: str = "run",
    crypto: Optional[CryptoSuite] = None,
    observers: Sequence[Any] = (),
) -> ExecutionResult:
    """One-call convenience wrapper: deal ideal keys, build a simulator, run.

    ``crypto`` may be supplied to reuse key material across executions (key
    dealing dominates runtime for the real backend) or to select the real
    backend explicitly.  The run has the simulator's round cap and no
    fault plan; for either, build a ``SyncSimulator`` or a ``TrialSpec``.
    """
    num_parties = len(inputs)
    if crypto is None:
        crypto = CryptoSuite.ideal(
            num_parties, max_faulty, random.Random(seed ^ 0x5E7_0000)
        )
    simulator = SyncSimulator(
        num_parties=num_parties,
        max_faulty=max_faulty,
        crypto=crypto,
        adversary=adversary,
        seed=seed,
        session=session,
        observers=observers,
    )
    return simulator.run(factory, inputs)
