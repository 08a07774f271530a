"""Edge-path tests for Π_iter: coin failure, non-binary clamps, overlap,
and the seam between the exchange and the extraction."""

import json
import pathlib

import pytest

from repro.core.extraction import extract
from repro.core.iteration import Iteration, threshold_coin_factory
from repro.engine import TrialSpec, run_trial
from repro.proxcensus.base import ProxOutput
from repro.proxcensus.one_third import prox_one_third_program

from ..conftest import run


def failing_coin_factory():
    """A coin whose combine never succeeds (models total share loss)."""

    def factory(ctx, index, low, high):
        yield ctx.broadcast(None)  # the round is still spent
        return None

    return factory


def synthetic_prox(output):
    """A 1-round 'Proxcensus' that returns a fixed output (test double)."""

    def factory(ctx, _bit):
        yield ctx.broadcast(None)
        return output

    return factory


class TestCoinFailure:
    def test_failed_coin_degrades_to_low_value(self):
        """With coin=None every party falls back to coin=1 — identical at
        all parties, so agreement still holds; validity is untouched."""

        iteration = Iteration(
            slots=9,
            prox_factory=lambda c, b: prox_one_third_program(c, b, rounds=3),
            prox_rounds=3,
            coin_index=0,
            overlap_coin=False,
        )

        def program(ctx, bit):
            result = yield from iteration.run(ctx, bit, failing_coin_factory())
            return result

        res = run(program, [1, 1, 1, 1], 1, session="cf1")
        assert all(v == 1 for v in res.outputs.values())
        res = run(program, [0, 1, 0, 1], 1, session="cf2")
        assert res.honest_agree()

    def test_failed_coin_still_spends_one_round(self):
        iteration = Iteration(
            slots=3,
            prox_factory=lambda c, b: prox_one_third_program(c, b, rounds=1),
            prox_rounds=1,
            coin_index=0,
            overlap_coin=False,
        )

        def program(ctx, bit):
            result = yield from iteration.run(ctx, bit, failing_coin_factory())
            return result

        res = run(program, [1, 1, 1, 1], 1, session="cf3")
        assert res.metrics.rounds == 2


class TestNonBinaryClamp:
    def test_non_binary_prox_value_degrades_to_center(self):
        """A (impossible-for-honest) non-binary Proxcensus value is clamped
        to the (0, 0) slot rather than crashing extraction."""

        iteration = Iteration(
            slots=5,
            prox_factory=synthetic_prox(ProxOutput("weird", 2)),
            prox_rounds=1,
            coin_index=0,
            overlap_coin=False,
        )

        def program(ctx, bit):
            result = yield from iteration.run(ctx, bit, threshold_coin_factory())
            return result

        res = run(program, [1, 1, 1, 1], 1, session="nb1")
        assert set(res.outputs.values()) <= {0, 1}
        assert res.honest_agree()


class TestOverlapEdge:
    def test_overlap_with_zero_round_prox_falls_back_to_sequential(self):
        def instant_prox(ctx, _bit):
            return ProxOutput(1, 1)
            yield  # pragma: no cover

        iteration = Iteration(
            slots=3,
            prox_factory=instant_prox,
            prox_rounds=0,
            coin_index=0,
            overlap_coin=True,
        )

        def program(ctx, bit):
            result = yield from iteration.run(ctx, bit, threshold_coin_factory())
            return result

        res = run(program, [1, 1, 1, 1], 1, session="ov0")
        assert res.metrics.rounds == 1  # just the coin round
        assert all(v == 1 for v in res.outputs.values())


class TestExchangeSeam:
    """``Iteration.run`` = ``Iteration.exchange`` + the non-bit guard +
    the failed-coin default + ``extract``, on the wire and in the result."""

    @pytest.mark.parametrize("overlap", [False, True], ids=["sequential", "overlapped"])
    @pytest.mark.parametrize("coin", ["threshold", "failed"])
    @pytest.mark.parametrize("prox", ["prox5", "non-bit"])
    def test_iteration_is_guard_default_extract_over_the_exchange(
        self, overlap, coin, prox
    ):
        iteration = Iteration(
            slots=5,
            prox_factory=(
                (lambda c, b: prox_one_third_program(c, b, rounds=2))
                if prox == "prox5"
                else synthetic_prox(ProxOutput("weird", 2))
            ),
            prox_rounds=2 if prox == "prox5" else 1,
            coin_index=("seam", 0),
            overlap_coin=overlap,
        )
        coin_factory = (
            threshold_coin_factory() if coin == "threshold"
            else failing_coin_factory()
        )

        def whole(ctx, bit):
            return (yield from iteration.run(ctx, bit, coin_factory))

        def raw(ctx, bit):
            return (yield from iteration.exchange(ctx, bit, coin_factory))

        iterated = run(whole, [0, 1, 1, 1], 1, session="seam")
        exchanged = run(raw, [0, 1, 1, 1], 1, session="seam")
        assert iterated.metrics == exchanged.metrics  # wire-identical
        for pid, ((value, grade), flipped) in exchanged.outputs.items():
            assert (flipped is None) == (coin == "failed")
            assert (value not in (0, 1)) == (prox == "non-bit")
            if prox == "non-bit":
                value, grade = 0, 0  # the guard: slot (0, 0)
            if flipped is None:
                flipped = 1  # the default: the range's low end
            assert iterated.outputs[pid] == extract(value, grade, flipped, 5)

    def test_the_seven_fixed_round_programs_run_as_before_the_split(self):
        """Outputs and ``RunMetrics`` rows of every registered program built
        on ``Iteration.run``, against ``run_trial`` at fe9062a (the last
        commit where the iteration was one undivided generator; ``mv_pki``
        at 87b1e41, before the fixed-round BAs shared one driver).
        ``make_pi_iter_golden.py`` beside this file writes the table."""
        table = pathlib.Path(__file__).with_name("pi_iter_golden.json")
        rows = json.loads(table.read_text())
        assert {row["spec"]["protocol"] for row in rows} == {
            "ba_one_third", "ba_one_half", "feldman_micali",
            "micali_vaikuntanathan", "ba_one_third_chunked",
            "ba_one_half_generalized", "mv_pki",
        }
        for row in rows:
            result = run_trial(TrialSpec.from_json(json.dumps(row["spec"])))
            assert sorted(result.outputs.items()) == [tuple(p) for p in row["outputs"]]
            assert result.metrics.rounds == row["rounds"]
            assert result.metrics.rows == tuple(
                tuple(tally) for tally in row["tallies"]
            ), row["spec"]
