"""The walk's table is the distribution: exact laws through ``_grow``.

:func:`repro.engine.vectorized.exact_law` expands *every* child of
every row and weights each by its share of the coin's range, which gives
the configuration's exact law as ``Fraction``s: the paper's Theorem 1
count (one coin value in ``s − 1`` separates two adjacent slots) and
Corollary 2's bounds, asserted as equalities.  An attack that regresses
to "too safe" fails as surely as one that errs too often.

The laws are then pinned on the object path on its own terms: with the
coin hash replaced by a table keyed by coin index, one ``run_trial`` per
coin assignment, counting the assignments that disagree.
"""

import itertools
import math
from fractions import Fraction

import pytest

from repro.core.extraction import coin_range
from repro.engine import TrialPlan, TrialSpec
from repro.engine.runner import run_trial
from repro.engine.vectorized import (
    _TABLES,
    clear_probe_cache,
    exact_law,
    run_vector_batch,
)

#: name → (protocol, inputs, max_faulty, adversary, adversary params).
CONFIGS = {
    "straddle13": ("ba_one_third", (0, 0, 1, 1), 1, "straddle13", {"victims": (3,)}),
    "straddle12": ("ba_one_half", (0, 0, 1, 1, 1), 2, "straddle12", {"victims": (3, 4)}),
    "honest13": ("ba_one_third", (0, 0, 1, 1), 1, None, None),
    "honest12": ("ba_one_half", (0, 0, 1, 1, 1), 2, None, None),
}
KAPPAS = (*range(1, 9), 16, 32, 64)


def _spec(name, kappa):
    protocol, inputs, max_faulty, adversary, adversary_params = CONFIGS[name]
    return TrialPlan.monte_carlo(
        name, protocol, inputs, max_faulty, trials=1, params={"kappa": kappa},
        adversary=adversary, adversary_params=adversary_params, seed=5,
    ).trials[0]


class TestExactLaw:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_straddle13_errs_with_exactly_two_to_the_minus_kappa(self, kappa):
        (disagree, rounds, coins), _ = exact_law(_spec("straddle13", kappa))
        assert (disagree, rounds, coins) == (Fraction(1, 2 ** kappa), kappa + 1, 1)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_straddle12_errs_with_exactly_a_quarter_per_iteration(self, kappa):
        iterations = math.ceil(kappa / 2)
        (disagree, rounds, coins), _ = exact_law(_spec("straddle12", kappa))
        assert disagree == Fraction(1, 4 ** iterations)
        assert rounds == 3 * iterations
        # The coin of iteration i+1 is read only while the parties still
        # straddle: 1 + 1/4 + … = (4/3)(1 − 4^-⌈κ/2⌉).
        assert coins == Fraction(4, 3) * (1 - Fraction(1, 4 ** iterations))

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("name", ["honest13", "honest12"])
    def test_honest_runs_never_disagree(self, name, kappa):
        assert exact_law(_spec(name, kappa))[0][0] == 0

    @pytest.mark.parametrize("spec, reason", [
        (TrialSpec("fm_probabilistic", (1, 0, 1, 0), 1),
         "no exact law for 'fm_probabilistic'"),
        (TrialSpec("ba_one_third", (0, 0, 1, 1), 1, {"kappa": 2}, backend="real"),
         "real-RSA backend"),
        (TrialSpec("ba_one_third", (0, 0, 1, 1), 1, {"kappa": 2}, adversary="crash"),
         "no vector model registered for ('ba_one_third', 'crash')"),
    ], ids=["no-fixed-round-walk", "real-backend", "no-vector-model"])
    def test_other_configurations_have_none_and_say_why(self, spec, reason):
        assert exact_law(spec) == (None, reason)

    def test_the_cached_table_is_left_as_it_was(self):
        """The expansion visits every branch on a table of its own: the
        sampled walk's table keeps its rows, and a configuration with
        none gets none."""
        spec = _spec("straddle12", 6)
        key = spec.batch_key
        clear_probe_cache()
        exact_law(spec)
        assert key not in _TABLES
        run_vector_batch([spec])
        table = _TABLES[key]
        rows = dict(table.rows)
        assert exact_law(spec)[0] == exact_law(spec)[0]
        assert _TABLES[key] is table and table.rows == rows


class TestObjectPathPin:
    """Every coin assignment, run on the object path: the number that
    disagree is ``(s − 1)^k · P`` for the exact ``P`` above."""

    @staticmethod
    def disagreeing(monkeypatch, spec, assignments):
        """How many of ``assignments`` (coin index → value) disagree."""
        from repro.crypto import coin

        table = {}
        monkeypatch.setattr(
            coin, "coin_value_from_signature",
            lambda scheme, signature, session, index, low, high: table[index],
        )
        count = 0
        for assignment in assignments:
            table.clear()
            table.update(assignment)
            count += not run_trial(spec).honest_agree()
        return count

    @pytest.mark.parametrize("kappa", range(1, 5))
    def test_one_third(self, monkeypatch, kappa):
        spec = _spec("straddle13", kappa)
        law = exact_law(spec)[0][0]  # before the coin hash is patched
        low, high = coin_range(2 ** kappa + 1)
        values = range(low, high + 1)
        count = self.disagreeing(
            monkeypatch, spec, [{("ba13", kappa): value} for value in values]
        )
        assert count == len(values) * law == 1

    @pytest.mark.parametrize("kappa", range(1, 5))
    def test_one_half(self, monkeypatch, kappa):
        spec = _spec("straddle12", kappa)
        law = exact_law(spec)[0][0]
        low, high = coin_range(5)
        sequences = list(
            itertools.product(range(low, high + 1), repeat=math.ceil(kappa / 2))
        )
        assignments = [
            {("ba12", index): value for index, value in enumerate(sequence)}
            for sequence in sequences
        ]
        count = self.disagreeing(monkeypatch, spec, assignments)
        assert count == len(sequences) * law == 1
