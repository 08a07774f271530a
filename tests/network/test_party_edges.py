"""Edge paths of the parallel combinator and context helpers."""

import random

from repro.network.messages import PARALLEL_KEY
from repro.network.party import Context, LazyRandom, run_parallel

from ..conftest import ideal_suite, run


def unicast_program(ctx, target, tag, rounds=1):
    """Sends only to `target` each round (exercises the unicast merge path)."""
    received = []
    for _ in range(rounds):
        inbox = yield {target: {"tag": tag}}
        received.append(sorted(inbox))
    return received


def broadcast_program(ctx, tag):
    inbox = yield ctx.broadcast({"tag": tag})
    return sorted(inbox)


class TestUnicastMerge:
    def test_mixed_broadcast_and_unicast_subprograms(self):
        """When any subprogram unicasts, the combinator expands all
        outboxes per recipient — messages still route correctly."""

        def factory(ctx, _):
            results = yield from run_parallel(
                ctx,
                {
                    "uni": unicast_program(ctx, target=1, tag="U"),
                    "bc": broadcast_program(ctx, "B"),
                },
            )
            return results

        res = run(factory, [None] * 3, 0, session="um1")
        # Party 1 received the unicast channel from everyone...
        assert res.outputs[1]["uni"] == [[0, 1, 2]]
        # ...party 0 received nothing on it (the envelope omits the tag).
        assert res.outputs[0]["uni"] == [[]]
        # The broadcast channel reached everyone regardless.
        assert res.outputs[0]["bc"] == [0, 1, 2]
        assert res.outputs[2]["bc"] == [0, 1, 2]

    def test_pure_unicast_parallel(self):
        def factory(ctx, _):
            results = yield from run_parallel(
                ctx,
                {
                    "a": unicast_program(ctx, target=0, tag="A"),
                    "b": unicast_program(ctx, target=2, tag="B"),
                },
            )
            return results

        res = run(factory, [None] * 3, 0, session="um2")
        assert res.outputs[0]["a"] == [[0, 1, 2]]
        assert res.outputs[2]["b"] == [[0, 1, 2]]
        assert res.outputs[1]["a"] == [[]]


class TestContextHelpers:
    def test_all_parties_enumerates_everyone(self):
        def factory(ctx, _):
            return list(ctx.all_parties())
            yield  # pragma: no cover

        res = run(factory, [None] * 4, 1, session="cx1")
        assert res.outputs[0] == [0, 1, 2, 3]

    def test_subsession_rng_is_shared_not_forked(self):
        """subsession() keeps the party RNG (determinism across the whole
        party program), only the session tag changes."""

        def factory(ctx, _):
            sub = ctx.subsession("s")
            return sub.rng is ctx.rng and sub.crypto is ctx.crypto
            yield  # pragma: no cover

        res = run(factory, [None] * 2, 0, session="cx2")
        assert res.outputs[0] is True


def party_seeds(seed, n):
    """The seeds ``SyncSimulator.run`` draws for its parties."""
    master = random.Random(seed)
    return [master.getrandbits(64) for _ in range(n)]


class TestPartyRandom:
    """``ctx.rng`` is built on first use and is the stream it always was."""

    def test_draws_are_those_of_a_generator_seeded_from_the_master_stream(self):
        def factory(ctx, _):
            return [ctx.rng.getrandbits(64) for _ in range(3)]
            yield  # pragma: no cover

        res = run(factory, [None] * 4, 1, seed=31, session="pr1")
        for pid, seed in enumerate(party_seeds(31, 4)):
            reference = random.Random(seed)
            assert res.outputs[pid] == [reference.getrandbits(64) for _ in range(3)]

    def test_subsession_child_continues_its_parents_stream(self):
        def child_first(ctx, _):
            sub = ctx.subsession("s")
            return [sub.rng.random(), ctx.rng.random(), sub.subsession("t").rng.random()]
            yield  # pragma: no cover

        def parent_first(ctx, _):
            sub = ctx.subsession("s")
            return [ctx.rng.random(), sub.rng.random(), ctx.rng.random()]
            yield  # pragma: no cover

        reference = random.Random(party_seeds(5, 2)[1])
        expected = [reference.random() for _ in range(3)]
        for factory in (child_first, parent_first):
            assert run(factory, [None] * 2, 0, seed=5).outputs[1] == expected

    def test_toy_protocol_reproduces_draws_pinned_before_the_rng_went_lazy(self):
        def toy(ctx, _):
            first = ctx.rng.randrange(10**6)
            inbox = yield ctx.broadcast({"r": first})
            second = ctx.subsession("inner").rng.randrange(10**6)
            yield ctx.broadcast({"r": second})
            third = ctx.rng.randrange(10**6)
            return (first, second, third, sorted(p["r"] for p in inbox.values()))

        res = run(toy, [None] * 3, 0, seed=2024, session="pin")
        everyone = [466865, 705800, 840447]
        assert res.outputs == {
            0: (840447, 598400, 273144, everyone),
            1: (466865, 726654, 928411, everyone),
            2: (705800, 432129, 880363, everyone),
        }

    def test_no_generator_is_seeded_for_a_party_that_never_draws(self, monkeypatch):
        seeded = []

        class Counting(random.Random):
            def __init__(self, seed=None):
                seeded.append(seed)
                super().__init__(seed)

        def silent(ctx, _):
            yield ctx.broadcast({"x": 1})
            return ctx.party_id

        def one_draws(ctx, _):
            yield ctx.broadcast({"x": 1})
            return ctx.rng.random() if ctx.party_id == 2 else None

        drawer_seed = party_seeds(9, 4)[2]
        monkeypatch.setattr(random, "Random", Counting)
        run(silent, [None] * 4, 1, seed=9)
        assert len(seeded) == 2  # the master stream and the adversary's
        del seeded[:]
        run(one_draws, [None] * 4, 1, seed=9)
        assert seeded[2:] == [drawer_seed]

    def test_a_context_built_directly_takes_a_generator_or_a_lazy_one(self):
        suite = ideal_suite(3, 1)
        given = random.Random(7)
        direct = Context(0, 3, 1, "s", suite, given)
        assert direct.rng is given and direct.subsession("x").rng is given
        lazy = Context(
            party_id=1, num_parties=3, max_faulty=1, session="s", crypto=suite,
            rng=LazyRandom(7),
        )
        assert lazy.subsession("x").rng is lazy.rng
        assert lazy.rng.random() == random.Random(7).random()
        assert "party_id=1" in repr(lazy) and lazy.quorum_size == 2
