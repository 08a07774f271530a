"""Tests for primality testing and prime generation."""

import random

import pytest

from repro.crypto.primes import generate_prime, generate_safe_prime, is_probable_prime

KNOWN_PRIMES = [2, 3, 5, 7, 97, 251, 257, 65537, 2 ** 61 - 1, 2 ** 89 - 1]
KNOWN_COMPOSITES = [
    0, 1, 4, 9, 255, 561, 1105, 1729,  # Carmichael numbers included
    2 ** 61, (2 ** 31 - 1) * (2 ** 19 - 1),
]


class TestIsProbablePrime:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_accepts_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("c", KNOWN_COMPOSITES)
    def test_rejects_known_composites(self, c):
        assert not is_probable_prime(c)

    def test_rejects_negative(self):
        assert not is_probable_prime(-7)

    def test_agrees_with_sieve_below_2000(self):
        sieve = [True] * 2000
        sieve[0] = sieve[1] = False
        for i in range(2, 45):
            if sieve[i]:
                for j in range(i * i, 2000, i):
                    sieve[j] = False
        for n in range(2000):
            assert is_probable_prime(n) == sieve[n], n


class TestGeneratePrime:
    def test_exact_bit_length(self, rng):
        for bits in (8, 16, 32, 64):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_rejects_tiny_request(self, rng):
        with pytest.raises(ValueError):
            generate_prime(2, rng)

    def test_deterministic_given_seed(self):
        assert generate_prime(32, random.Random(5)) == generate_prime(
            32, random.Random(5)
        )


class TestGenerateSafePrime:
    def test_structure(self, rng):
        p = generate_safe_prime(32, rng)
        assert p.bit_length() == 32
        assert is_probable_prime(p)
        assert is_probable_prime((p - 1) // 2)

    def test_rejects_tiny_request(self, rng):
        with pytest.raises(ValueError):
            generate_safe_prime(4, rng)
