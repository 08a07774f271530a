"""Party programs: the generator protocol convention and its combinators.

A *party program* is a generator produced by a *program factory*
``factory(ctx, input) -> generator``.  Each ``yield`` is a round boundary:

.. code-block:: python

    def echo_once(ctx, value):
        inbox = yield ctx.broadcast({"v": value})   # round 1
        return sorted(inbox)                        # output

The generator yields its outbox for round ``r`` and receives round ``r``'s
inbox (sender → payload).  Sequential composition is plain ``yield from``.
Parallel composition — the paper runs its coin-flip in the same round as
Proxcensus round 3 — is :func:`run_parallel`, which multiplexes sub-programs
over tagged payload envelopes; :func:`resume_with` adapts a partially-driven
generator (whose next outbox is already in hand) into that combinator.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Union

from ..crypto.keys import CryptoSuite
from .messages import PARALLEL_KEY, Broadcast, Inbox, Outbox, normalize_outbox

__all__ = ["Context", "LazyRandom", "ProgramFactory", "run_parallel", "resume_with"]

Program = Generator[Outbox, Inbox, Any]
ProgramFactory = Callable[["Context", Any], Program]


class LazyRandom:
    """``random.Random(seed)``, built when first asked for.

    Seeding a Mersenne Twister costs microseconds and most party
    programs never draw, so the simulator hands every party its seed in
    one of these instead of a constructed generator.
    """

    __slots__ = ("_seed", "_random")

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._random: Optional[random.Random] = None

    def get(self) -> random.Random:
        if self._random is None:
            self._random = random.Random(self._seed)
        return self._random


class Context:
    """Per-party execution context handed to every program.

    ``rng`` is party-local and seeded by the simulator, so executions are
    reproducible; ``session`` domain-separates signatures across protocol
    instances (two BA runs never share coin values or signed messages).
    The ``rng`` argument is a ``random.Random`` or a :class:`LazyRandom`;
    the attribute is always the generator itself.
    """

    __slots__ = (
        "party_id", "num_parties", "max_faulty", "session", "crypto", "_rng",
    )

    def __init__(
        self,
        party_id: int,
        num_parties: int,
        max_faulty: int,
        session: str,
        crypto: CryptoSuite,
        rng: Union[random.Random, LazyRandom],
    ) -> None:
        self.party_id = party_id
        self.num_parties = num_parties
        self.max_faulty = max_faulty
        self.session = session
        self.crypto = crypto
        self._rng = rng

    def __repr__(self) -> str:
        return (
            f"Context(party_id={self.party_id!r}, num_parties={self.num_parties!r}, "
            f"max_faulty={self.max_faulty!r}, session={self.session!r})"
        )

    @property
    def rng(self) -> random.Random:
        """This party's random stream (one stream per party: a
        :meth:`subsession` continues it)."""
        rng = self._rng
        return rng.get() if rng.__class__ is LazyRandom else rng

    @property
    def quorum_size(self) -> int:
        """``n - t``: the threshold the paper's quorum signatures use."""
        return self.num_parties - self.max_faulty

    def broadcast(self, payload: Any) -> Broadcast:
        """Outbox sending ``payload`` to every party, self included."""
        return Broadcast(payload)

    def all_parties(self) -> Iterable[int]:
        """Party ids 0..n-1."""
        return range(self.num_parties)

    def subsession(self, label: str) -> "Context":
        """A context whose session tag is extended by ``label``.

        Used when one protocol instance runs another as a black box (e.g.
        each Feldman–Micali iteration runs its own coin index); keeps
        signed messages from colliding between sub-instances.
        """
        return Context(
            self.party_id,
            self.num_parties,
            self.max_faulty,
            f"{self.session}/{label}",
            self.crypto,
            self._rng,
        )


def run_parallel(ctx: Context, programs: Dict[str, Program]) -> Program:
    """Drive several sub-programs in the *same* communication rounds.

    Per round, each live sub-program's outbox is wrapped under its tag into
    one envelope ``{PARALLEL_KEY: {tag: payload}}`` per recipient; inbound
    envelopes are split the same way.  Sub-programs may finish in different
    rounds.  Returns ``{tag: result}`` once all have finished.
    """
    live: Dict[str, Program] = {}
    results: Dict[str, Any] = {}
    pending: Dict[str, Outbox] = {}
    for tag, program in programs.items():
        try:
            pending[tag] = next(program)
            live[tag] = program
        except StopIteration as stop:
            results[tag] = stop.value
    while live:
        inbox = yield _merge_outboxes(ctx, pending)
        split = _split_inbox(inbox, live.keys())
        pending = {}
        for tag in list(live):
            try:
                pending[tag] = live[tag].send(split[tag])
            except StopIteration as stop:
                results[tag] = stop.value
                del live[tag]
    return results


def resume_with(program: Program, next_outbox: Outbox) -> Program:
    """Wrap an already partially-driven generator for :func:`run_parallel`.

    ``next_outbox`` is the outbox the generator has just produced (via
    ``send``) but which has not been put on the wire yet.  The wrapper
    re-yields it first and then delegates, so the combinator's initial
    ``next()`` does not skip a round.
    """
    inbox = yield next_outbox
    while True:
        try:
            outbox = program.send(inbox)
        except StopIteration as stop:
            return stop.value
        inbox = yield outbox


def _merge_outboxes(ctx: Context, pending: Dict[str, Outbox]) -> Outbox:
    if all(outbox is None or isinstance(outbox, Broadcast) for outbox in pending.values()):
        payload = {
            PARALLEL_KEY: {
                tag: outbox.payload
                for tag, outbox in pending.items()
                if isinstance(outbox, Broadcast)
            }
        }
        return Broadcast(payload)
    merged: Dict[int, Any] = {}
    n = ctx.num_parties
    expanded = {tag: normalize_outbox(outbox, n) for tag, outbox in pending.items()}
    for recipient in range(n):
        sub = {
            tag: recipients[recipient]
            for tag, recipients in expanded.items()
            if recipient in recipients
        }
        if sub:
            merged[recipient] = {PARALLEL_KEY: sub}
    return merged


def _split_inbox(inbox: Inbox, tags: Iterable[str]) -> Dict[str, Inbox]:
    split: Dict[str, Inbox] = {tag: {} for tag in tags}
    for sender, payload in inbox.items():
        if not isinstance(payload, dict):
            continue
        envelope = payload.get(PARALLEL_KEY)
        if not isinstance(envelope, dict):
            continue
        for tag in split:
            if tag in envelope:
                split[tag][sender] = envelope[tag]
    return split
