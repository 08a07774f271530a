"""Remaining coverage: fuzz-safety of helpers, CLI branches, coin overlap."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.ba import ba_one_half_program
from repro.core.iteration import ideal_coin_factory
from repro.crypto.coin import IdealCoin
from repro.network.trace import summarize_payload

from .conftest import run

# Arbitrary nested payloads, including the unhashable and the exotic.
payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=30),
        st.binary(max_size=30),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=15,
)


class TestSummarizeNeverRaises:
    @given(payload=payloads)
    @settings(max_examples=150, deadline=None)
    def test_any_payload_summarizes(self, payload):
        summary = summarize_payload(payload)
        assert isinstance(summary, str)
        assert len(summary) < 2000


class TestIdealCoinInsideOverlappedBA:
    def test_ba_one_half_with_ideal_coin(self):
        coin = IdealCoin(random.Random(77))
        factory = lambda c, b: ba_one_half_program(
            c, b, kappa=4, coin_factory=ideal_coin_factory(coin)
        )
        res = run(factory, [1, 0, 1, 0, 1], 2, session="ic12")
        assert res.honest_agree()
        assert res.metrics.rounds == 6
        # the ideal coin sends no payload: round-3 messages carry only prox
        round3 = {row[0]: row for row in res.metrics.rows}[3]
        assert round3[3] > 0  # honest signatures


class TestCliBranches:
    def test_error_sweep_one_half(self, capsys):
        assert main(
            ["error-sweep", "--protocol", "one_half",
             "--kappas", "2", "--trials", "20"]
        ) == 0
        assert "one_half" in capsys.readouterr().out

    def test_run_with_explicit_victims(self, capsys):
        code = main(
            ["run", "--protocol", "one_third", "--kappa", "4",
             "--inputs", "1,1,1,1", "--t", "1",
             "--adversary", "crash", "--victims", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "corrupted  : [0]" in out

    def test_run_exit_code_reflects_agreement(self, capsys):
        # kappa=1 under the worst-case straddle fails ~half the time; try
        # seeds until we see both exit codes (deterministic per seed).
        codes = set()
        for seed in range(12):
            codes.add(
                main(
                    ["run", "--protocol", "one_third", "--kappa", "1",
                     "--inputs", "0,0,1,1", "--t", "1",
                     "--adversary", "straddle", "--seed", str(seed)]
                )
            )
            capsys.readouterr()
            if codes == {0, 1}:
                break
        assert codes == {0, 1}
