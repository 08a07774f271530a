"""The safe-prime search returns what the exhaustive search returned.

``generate_safe_prime`` exponentiates only the random Miller–Rabin rounds
that decide a candidate (see :mod:`repro.crypto.primes`).  These tests pin
it against the search it replaced, kept here verbatim: the same primes,
and the RNG left in the same state, so everything dealt after a prime —
shares, verification keys, the next prime — is unchanged too.
"""

import random

import pytest

from repro.crypto import primes
from repro.crypto.primes import generate_safe_prime, is_probable_prime

# -- the search before deferral, verbatim ------------------------------------

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
]


def reference_is_probable_prime(n, rounds=40, rng=None):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or random.Random(0xC0FFEE ^ n)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_generate_prime(bits, rng):
    if bits < 3:
        raise ValueError("need at least 3 bits for a random prime")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if reference_is_probable_prime(candidate, rng=rng):
            return candidate


def reference_generate_safe_prime(bits, rng):
    if bits < 5:
        raise ValueError("need at least 5 bits for a safe prime")
    while True:
        q = reference_generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if p.bit_length() == bits and reference_is_probable_prime(p, rng=rng):
            return p


# -- equivalence ---------------------------------------------------------------


def _both(bits, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert generate_safe_prime(bits, ours) == reference_generate_safe_prime(
        bits, theirs
    ), (bits, seed)
    assert ours.getstate() == theirs.getstate(), (bits, seed)


@pytest.mark.parametrize("bits", range(5, 41))
def test_small_safe_primes_and_draws_match_the_reference(bits):
    for seed in range(100):
        _both(bits, seed)


@pytest.mark.parametrize("bits", [64, 128])
def test_key_size_safe_primes_and_draws_match_the_reference(bits):
    for seed in range(10):
        _both(bits, seed)


def test_the_benchmark_suite_deals_in_at_most_8000_modexps(monkeypatch):
    """perfbench's real suite ran 15 452 modular exponentiations when
    every prime-looking q paid 40 rounds; deferral brings it to 7 470."""
    import builtins

    from repro.engine import deal_suite

    calls = []
    real_pow = builtins.pow

    def counting_pow(*args):
        calls.append(len(args) == 3)
        return real_pow(*args)

    monkeypatch.setattr(builtins, "pow", counting_pow)
    deal_suite(("real", 4, 1, 0, 256))
    monkeypatch.undo()
    assert sum(calls) <= 8000


def screened(n, rng):
    """One candidate the way the search judges it: screen, then settle."""
    verdict, deferred = primes._screen(n, rng)
    if deferred is not None:
        verdict = primes._settle(n, deferred, rng)
    return verdict


#: The least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9, 10
#: and 13 prime bases (OEIS A014233).  The last is a strong pseudoprime to
#: every fixed base, so only the random rounds deferred past the fixed
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
    screens = [primes._screen(n, random.Random(seed)) for seed in range(200)]
    assert any(deferred is not None for _verdict, deferred in screens)


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
#: is prime: with the fixed bases cut to (2,) it passes them and is only
#: caught by its deferred random rounds, after 2q + 1 has passed.
FALSE_Q = 1_325_843
TRUE_Q = 1_048_889  # prime, and so is 2q + 1


def test_fixtures_are_what_the_restore_test_needs():
    for q in (FALSE_Q, TRUE_Q):
        assert q.bit_length() == 21 and primes._sieve(q) is None
        assert is_probable_prime(2 * q + 1)
    d, r = primes._odd_part(FALSE_Q)
    assert primes._passes(2, FALSE_Q, d, r) and not primes._passes(3, FALSE_Q, d, r)
    assert is_probable_prime(TRUE_Q)


@pytest.mark.parametrize("fixed_bases, restores", [((2,), 1), (primes._FIXED_BASES, 0)])
def test_a_deferred_round_that_fails_restores_the_draws(
    fixed_bases, restores, monkeypatch
):
    # FALSE_Q passes rounds 1-4 (base 2) and fails round 5 (base 3).
    script = ([FALSE_Q, TRUE_Q], [2, 2, 2, 2, 3] + [5] * 200)
    monkeypatch.setattr(primes, "_FIXED_BASES", fixed_bases)
    ours, theirs = ScriptedRng(*script), ScriptedRng(*script)
    assert generate_safe_prime(22, ours) == reference_generate_safe_prime(
        22, theirs
    ) == 2 * TRUE_Q + 1
    assert ours.position == theirs.position == (2, 5 + 40 + 40)
    assert ours.restores == restores
