"""Deterministic fault injection: loss, delay, partitions, crash-recovery.

The paper's model (§2.1) is a clean synchronous network: every message an
honest party sends in round ``r`` arrives in round ``r``.  Production
networks do not behave — they drop, delay, partition, and lose whole
nodes for a while — and the interesting empirical question is how the
paper's κ+1 / 3κ/2 round counts and 2^-κ error bounds degrade as the
synchrony assumption bends (the bridge to mobile-sluggish synchronous BFT
and probabilistic BFT in PAPERS.md).

A :class:`FaultPlan` is plain frozen data describing *adversarial
network* behavior, orthogonal to the Byzantine adversary:

* **loss** — every non-self message is dropped i.i.d. with probability
  ``loss``;
* **delay** — every surviving non-self message is deferred i.i.d. with
  probability ``delay`` by a uniform 1..``max_delay`` rounds;
* **partitions** — during ``start <= r < heal`` messages crossing a
  group boundary are dropped (parties in no listed group form one
  implicit "rest" group); ``heal=None`` never heals;
* **crashes** — party ``pid`` is offline for ``down <= r < up``: nothing
  it sends is delivered and nothing sent to it arrives, but its program
  keeps running on empty inboxes and resumes cleanly on recovery (the
  crash-*recover* / mobile-sluggish model, not fail-stop);
* **dynamic membership** — with ``epoch_length > 0``, epoch ``e`` is
  rounds ``e*L+1 .. (e+1)*L`` and the validator set
  ``disabled[e % len(disabled)]`` is offline for the epoch — a live
  disabled-validator list rotated per epoch (the negative-UNL pattern).

Determinism contract (load-bearing, pinned by ``tests/chaos`` and
``tests/network/test_faults.py``): every loss/delay decision draws from
one :class:`random.Random` seeded from the simulator's master RNG, in a
fixed iteration order, so ``(seed, plan)`` fully determines the
execution — byte-identical across worker counts, serial vs pooled.  A
simulator with ``faults=None`` never touches this module and is
byte-identical to the pre-fault-layer code.

Everything about a round's routing that the seed cannot change — who is
offline, which pairs an active partition separates — is one
:class:`RoundRouting` table per ``(plan, n, round)``, built by the pure
:meth:`FaultPlan.routing` and shared by every trial in the process
(:func:`routing_tables`).  The delivery loop reads a table row per
sender and makes only the i.i.d. loss/delay draws per message, so the
contract above is untouched: the draws happen in the same order whether
a table was just built or came from the cache.

Delivery semantics, explicitly: the synchronous inbox holds at most one
message per ``(sender, recipient)`` per round.  Current-round deliveries
claim their slot first; delayed copies drain afterwards, freshest send
first, and a copy that finds its slot taken is discarded as stale.
Self-delivery (``sender == recipient``) is internal state, not network
traffic — no fault ever touches it.  Delayed messages are re-checked
against partition/offline state *at the delivery round* (a healed
partition releases them; a crashed recipient loses them); metrics tally
them in the round they actually arrive, with sender honesty frozen at
send time.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .errors import FaultPlanError

__all__ = [
    "Crash",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "OFFLINE",
    "PARTITION",
    "Partition",
    "RoundRouting",
    "routing_tables",
]

#: Flags of one :class:`RoundRouting` cell; ``0`` means the message passes.
OFFLINE = 1  # the sender or the recipient is offline this round
PARTITION = 2  # an active partition separates the pair


class RoundRouting(NamedTuple):
    """One round's routing, as far as the plan alone decides it.

    ``rows[sender][recipient]`` is ``OFFLINE | PARTITION`` flags, ``0``
    on the diagonal (self-delivery is never network traffic).  A
    current-round message with a non-zero cell is suppressed, ``offline``
    before ``partition``; a delayed message arriving this round is lost
    to an offline *recipient* (``offline``), else to the ``PARTITION``
    flag — a sender that crashed after sending does not recall it.
    """

    offline: FrozenSet[int]
    rows: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Partition:
    """One scheduled network split: ``groups`` cannot talk across during
    rounds ``start <= r < heal`` (``heal=None`` = never heals)."""

    groups: Tuple[Tuple[int, ...], ...]
    start: int = 1
    heal: Optional[int] = None

    def __post_init__(self) -> None:
        groups = tuple(tuple(group) for group in self.groups)
        object.__setattr__(self, "groups", groups)
        if not groups or not any(groups):
            raise ValueError(
                "a partition needs at least one non-empty group "
                "(unlisted parties form the implicit rest group)"
            )
        seen: set = set()
        for group in groups:
            for pid in group:
                if pid in seen:
                    raise ValueError(f"party {pid} appears in two partition groups")
                seen.add(pid)
        if self.start < 1:
            raise ValueError(f"partition start must be >= 1, got {self.start}")
        if self.heal is not None and self.heal <= self.start:
            raise ValueError(
                f"partition heal round must exceed start, got "
                f"start={self.start} heal={self.heal}"
            )

    def active(self, round_index: int) -> bool:
        return self.start <= round_index and (
            self.heal is None or round_index < self.heal
        )

    def separates(self, sender: int, recipient: int) -> bool:
        """True when the two parties sit in different groups."""
        sender_group = recipient_group = -1  # -1 = the implicit rest group
        for number, group in enumerate(self.groups):
            if sender in group:
                sender_group = number
            if recipient in group:
                recipient_group = number
        return sender_group != recipient_group


@dataclass(frozen=True)
class Crash:
    """One crash-recover window: ``pid`` is offline for ``down <= r < up``."""

    pid: int
    down: int
    up: int

    def __post_init__(self) -> None:
        if self.pid < 0:
            raise ValueError(f"crash pid must be >= 0, got {self.pid}")
        if not (1 <= self.down < self.up):
            raise ValueError(
                f"need 1 <= down < up, got down={self.down} up={self.up}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic description of adversarial network behavior.

    Plain frozen data: picklable, hashable, and buildable from registry
    params (:func:`repro.engine.registry.build_fault_plan`), so a
    :class:`~repro.engine.plan.TrialSpec` can name one and worker
    processes reconstruct it bit-identically.
    """

    loss: float = 0.0
    delay: float = 0.0
    max_delay: int = 1
    partitions: Tuple[Partition, ...] = ()
    crashes: Tuple[Crash, ...] = ()
    epoch_length: int = 0
    disabled: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss <= 1.0):
            raise ValueError(f"loss must be in [0, 1], got {self.loss}")
        if not (0.0 <= self.delay <= 1.0):
            raise ValueError(f"delay must be in [0, 1], got {self.delay}")
        if self.max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {self.max_delay}")
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(
            self, "disabled", tuple(tuple(group) for group in self.disabled)
        )
        if self.epoch_length < 0:
            raise ValueError(
                f"epoch_length must be >= 0, got {self.epoch_length}"
            )
        if self.epoch_length and not self.disabled:
            raise ValueError("epoch_length > 0 needs a disabled rotation")
        if self.disabled and not self.epoch_length:
            raise ValueError("a disabled rotation needs epoch_length > 0")

    def is_noop(self) -> bool:
        """True when this plan can never affect a delivery."""
        return (
            self.loss == 0.0
            and self.delay == 0.0
            and not self.partitions
            and not self.crashes
            and not self.epoch_length
        )

    def offline(self, round_index: int) -> FrozenSet[int]:
        """Parties offline in one round (crash windows + rotated membership)."""
        down = {
            crash.pid
            for crash in self.crashes
            if crash.down <= round_index < crash.up
        }
        if self.epoch_length:
            epoch = (round_index - 1) // self.epoch_length
            down.update(self.disabled[epoch % len(self.disabled)])
        return frozenset(down)

    def partitioned(self, round_index: int, sender: int, recipient: int) -> bool:
        """True when an active partition separates sender from recipient."""
        return any(
            partition.active(round_index)
            and partition.separates(sender, recipient)
            for partition in self.partitions
        )

    def check_parties(self, num_parties: int) -> None:
        """Raise :class:`FaultPlanError` if the plan names a party outside
        ``0..num_parties-1`` — a fault on nobody is a silent no-op."""
        named = [crash.pid for crash in self.crashes]
        for partition in self.partitions:
            named.extend(pid for group in partition.groups for pid in group)
        named.extend(pid for group in self.disabled for pid in group)
        for pid in named:
            if not (isinstance(pid, int) and 0 <= pid < num_parties):
                raise FaultPlanError(
                    f"fault plan names party {pid!r}; this run has parties "
                    f"0..{num_parties - 1}"
                )

    def routing(self, num_parties: int, round_index: int) -> RoundRouting:
        """The routing table of one round (pure; see :func:`routing_tables`)."""
        offline = self.offline(round_index)
        rows = []
        distinct: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for sender in range(num_parties):
            row = []
            for recipient in range(num_parties):
                cell = 0
                if sender != recipient:
                    if sender in offline or recipient in offline:
                        cell |= OFFLINE
                    if self.partitioned(round_index, sender, recipient):
                        cell |= PARTITION
                row.append(cell)
            # Senders on the same side of every split share one row
            # object, so a table is about n pointers, not n * n cells.
            shared = tuple(row)
            rows.append(distinct.setdefault(shared, shared))
        return RoundRouting(offline, tuple(rows))


_PLANS_HELD = 64  # (plan, n) pairs whose tables are kept, least recent out
_ROUNDS_HELD = 256  # tables kept per pair


@functools.lru_cache(maxsize=_PLANS_HELD)
def routing_tables(
    plan: FaultPlan, num_parties: int
) -> Callable[[int], RoundRouting]:
    """``round -> plan.routing(num_parties, round)``, each table built once.

    One entry per ``(plan, num_parties)`` — plans are frozen data, so an
    equal plan built by another trial lands on the same entry — checked
    with :meth:`FaultPlan.check_parties` when the entry is made (a plan
    that fails is never held).  Both levels are bounded LRU caches of
    immutable tables, so memory stays flat however many plans and rounds
    a process sees.
    """
    plan.check_parties(num_parties)
    return functools.lru_cache(maxsize=_ROUNDS_HELD)(
        functools.partial(plan.routing, num_parties)
    )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for traces (``repro trace`` replays show these).

    ``kind`` is one of ``loss`` / ``delay`` / ``partition`` / ``offline``
    / ``stale``; ``detail`` carries the delay length for ``delay`` events
    and the suppression reason for late-dropped delayed messages.
    """

    round_index: int
    kind: str
    sender: int
    recipient: int
    detail: Optional[int] = None


@dataclass
class _InFlight:
    """A delayed message waiting for its delivery round."""

    sent_round: int
    sender: int
    recipient: int
    payload: Any
    sender_honest: bool


@dataclass
class FaultCounts:
    """Injection tallies of one execution, counted from zero by the injector."""

    delivered: int = field(default=0, init=False)
    delivered_late: int = field(default=0, init=False)
    lost: int = field(default=0, init=False)
    delayed: int = field(default=0, init=False)
    partitioned: int = field(default=0, init=False)
    offline: int = field(default=0, init=False)
    stale: int = field(default=0, init=False)

    @property
    def suppressed(self) -> int:
        """Messages the network ate outright (everything but delays)."""
        return self.lost + self.partitioned + self.offline + self.stale


class FaultInjector:
    """Executes one :class:`FaultPlan` against one simulated run.

    Created per execution by :class:`~repro.network.simulator.SyncSimulator`
    with an RNG derived from the master seed; holds the delay queue and
    the per-run fault tallies.  ``routing(round)`` is the round's
    :class:`RoundRouting`; the simulator draws loss and delay from
    ``rng`` for the messages the table lets pass, in its fixed delivery
    order, so the injected fault sequence is a pure function of
    ``(plan, seed)``.
    """

    def __init__(
        self, plan: FaultPlan, num_parties: int, rng: random.Random
    ) -> None:
        self.plan = plan
        self.num_parties = num_parties
        self.rng = rng
        self.counts = FaultCounts()
        self._deferred: Dict[int, List[_InFlight]] = {}
        self.routing = routing_tables(plan, num_parties)

    def defer(
        self, round_index: int, delay: int, sender: int, recipient: int,
        payload: Any, sender_honest: bool,
    ) -> None:
        """Queue a delayed message for round ``round_index + delay``."""
        self._deferred.setdefault(round_index + delay, []).append(
            _InFlight(round_index, sender, recipient, payload, sender_honest)
        )

    def due(self, round_index: int) -> List[_InFlight]:
        """Delayed messages arriving this round, freshest send first.

        Freshest-first ordering makes the stale-copy rule uniform: when
        several copies contend for one ``(sender, recipient)`` inbox
        slot, the most recently sent one wins and older copies are
        discarded (see the module docstring).
        """
        entries = self._deferred.pop(round_index, [])
        entries.sort(key=lambda m: (-m.sent_round, m.sender, m.recipient))
        return entries

    def pending(self) -> int:
        """Delayed messages still in flight (undelivered at run end)."""
        return sum(len(entries) for entries in self._deferred.values())
