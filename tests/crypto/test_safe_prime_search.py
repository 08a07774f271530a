"""The safe-prime search returns what the exhaustive search returned.

``generate_safe_prime`` exponentiates only the random Miller–Rabin rounds
that decide a candidate (see :mod:`repro.crypto.primes`).  These tests pin
it against the search it replaced, kept verbatim in ``make_prime_golden.py``
beside this file: the same primes, and the RNG left in the same state, so
everything dealt after a prime — shares, verification keys, the next
prime — is unchanged too.  The reference search wrote the committed
``safe_prime_golden.json``; CI re-runs it with ``--check``.
"""

import random

import pytest

from repro.crypto import primes
from repro.crypto.primes import generate_safe_prime, is_probable_prime
from tests.crypto.make_prime_golden import (
    CASES,
    digest,
    load_golden,
    reference_generate_safe_prime,
)

# -- equivalence ---------------------------------------------------------------

GOLDEN = load_golden()


def _matches_the_reference(bits):
    assert digest(generate_safe_prime, bits) == GOLDEN[bits], (
        f"safe primes or RNG draws at bits={bits} differ from the reference "
        "search's golden (tests/crypto/make_prime_golden.py)"
    )


def test_the_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("bits", range(5, 41))
def test_small_safe_primes_and_draws_match_the_reference(bits):
    assert CASES[bits] == 100
    _matches_the_reference(bits)


@pytest.mark.parametrize("bits", [64, 128])
def test_key_size_safe_primes_and_draws_match_the_reference(bits):
    assert CASES[bits] == 10
    _matches_the_reference(bits)


def counting_modexps(monkeypatch):
    """Wrap ``pow`` so that every three-argument call is counted."""
    import builtins

    calls = []
    real_pow = builtins.pow

    def counting_pow(*args):
        calls.append(len(args) == 3)
        return real_pow(*args)

    monkeypatch.setattr(builtins, "pow", counting_pow)
    return calls


def test_the_benchmark_suite_deals_in_at_most_4000_modexps(monkeypatch):
    """perfbench's real suite ran 15 452 modular exponentiations when
    every prime-looking q paid 40 rounds; deferral brought it to 7 470,
    and classifying each such q, past ψ₁₃ at this size, by base 2 alone
    to 3 714."""
    from repro.engine import deal_suite

    calls = counting_modexps(monkeypatch)
    deal_suite(("real", 4, 1, 0, 256))
    monkeypatch.undo()
    assert sum(calls) <= 4000


def screened(n, rng):
    """One candidate the way the search judges it: screen, then settle."""
    verdict, deferred = primes._screen(n, rng)
    if deferred is not None:
        verdict = primes._settle(n, deferred, rng)
    return verdict


#: The least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9, 12
#: and 13 prime bases (OEIS A014233; the first 8 share the first 7's, and
#: the first 10 and 11 the first 9's).  The last is a strong pseudoprime
#: to every fixed base, so only the random rounds deferred past the fixed
#: test can reject it.
PSEUDOPRIMES = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
]


def test_screen_matches_is_probable_prime_on_small_odd_numbers():
    for n in range(1, 20_000, 2):
        ours, theirs = random.Random(n), random.Random(n)
        assert screened(n, ours) == is_probable_prime(n, rng=theirs), n
        assert ours.getstate() == theirs.getstate(), n


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_screen_matches_is_probable_prime_on_pseudoprimes(n):
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert screened(n, ours) is is_probable_prime(n, rng=theirs) is False
        assert ours.getstate() == theirs.getstate(), seed


def test_the_pseudoprime_to_every_fixed_base_reaches_the_deferred_rounds():
    # ... and is rejected there: see the test above.
    n = PSEUDOPRIMES[-1]
    assert n == primes._PSI13
    screens = [primes._screen(n, random.Random(seed)) for seed in range(200)]
    assert any(deferred is not None for _verdict, deferred in screens)


# -- the classifier ---------------------------------------------------------------


@pytest.mark.parametrize("n", PSEUDOPRIMES[:-1])
def test_screen_rejects_each_pseudoprime_below_psi13_without_deferring(n):
    for seed in range(200):
        assert primes._screen(n, random.Random(seed)) == (False, None), seed


def prime_below(bound):
    n = bound - 1 - bound % 2
    while not is_probable_prime(n):
        n -= 2
    return n


def prime_from(start):
    n = start | 1
    while not is_probable_prime(n):
        n += 2
    return n


@pytest.mark.parametrize(
    "q, classifying",
    [(prime_below(PSEUDOPRIMES[-1]), 13), (prime_from(PSEUDOPRIMES[-1]), 1)],
)
def test_a_prime_q_costs_the_classification_the_rule_names(q, classifying, monkeypatch):
    # One exponentiation for the first random round, then one per fixed
    # base; the 39 deferred bases are drawn but not exponentiated.
    assert primes._sieve(q) is None
    calls = counting_modexps(monkeypatch)
    verdict, deferred = primes._screen(q, random.Random(q))
    monkeypatch.undo()
    assert verdict is True and len(deferred[0]) == primes._ROUNDS - 1
    assert sum(calls) == 1 + classifying


# -- the restore branch -----------------------------------------------------------


class ScriptedRng:
    """Candidates and bases read off two fixed lists.

    Its state is the pair of positions, so a restore is visible exactly.
    """

    def __init__(self, candidates, bases):
        self.candidates = candidates
        self.bases = bases
        self.position = (0, 0)
        self.restores = 0

    def getrandbits(self, bits):
        drawn, based = self.position
        self.position = (drawn + 1, based)
        assert self.candidates[drawn].bit_length() == bits
        return self.candidates[drawn]

    def randrange(self, low, high):
        drawn, based = self.position
        self.position = (drawn, based + 1)
        base = self.bases[based]
        assert low <= base < high
        return base

    def getstate(self):
        return self.position

    def setstate(self, state):
        self.restores += 1
        self.position = state


#: A base-2 strong pseudoprime, prime to every sieve prime, whose 2q + 1
#: is prime: with ψ₁₃ patched to 0, so that it is classified the way a q
#: at or above ψ₁₃ is, by base 2 alone, it passes and is only caught by its
#: deferred random rounds, after 2q + 1 has passed.
FALSE_Q = 1_325_843
TRUE_Q = 1_048_889  # prime, and so is 2q + 1


def test_fixtures_are_what_the_restore_test_needs():
    for q in (FALSE_Q, TRUE_Q):
        assert q.bit_length() == 21 and primes._sieve(q) is None
        assert is_probable_prime(2 * q + 1)
    d, r = primes._odd_part(FALSE_Q)
    assert primes._passes(2, FALSE_Q, d, r) and not primes._passes(3, FALSE_Q, d, r)
    assert is_probable_prime(TRUE_Q)


@pytest.mark.parametrize("psi13, restores", [(0, 1), (primes._PSI13, 0)])
def test_a_deferred_round_that_fails_restores_the_draws(psi13, restores, monkeypatch):
    # FALSE_Q passes rounds 1-4 (base 2) and fails round 5 (base 3).
    script = ([FALSE_Q, TRUE_Q], [2, 2, 2, 2, 3] + [5] * 200)
    monkeypatch.setattr(primes, "_PSI13", psi13)
    ours, theirs = ScriptedRng(*script), ScriptedRng(*script)
    assert generate_safe_prime(22, ours) == reference_generate_safe_prime(
        22, theirs
    ) == 2 * TRUE_Q + 1
    assert ours.position == theirs.position == (2, 5 + 40 + 40)
    assert ours.restores == restores
