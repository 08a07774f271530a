"""The dealt key material is pinned: sha256 fingerprints of every suite.

Each fingerprint covers everything a dealer hands out — the modulus,
public exponent, verification base, shares and verification keys of both
threshold-RSA schemes, and every party's plain RSA key pair — so a change
to the prime search, the dealer or the RNG draws they make shows here as
a named suite, not as a shifted error rate somewhere downstream.

The suites are the ones the repository deals: perfbench's
``pooled-campaign`` tail and per-layer deals, ``make bench-quick``'s
64-bit sweep, and the real suites and schemes that tier-1 tests deal.
"""

import hashlib
import random

import pytest

from repro.crypto import CryptoSuite
from repro.crypto.rsa import RsaSignatureScheme, generate_rsa_keypair
from repro.crypto.threshold_rsa import generate_threshold_rsa
from repro.engine import deal_suite


def _threshold(scheme):
    return (
        "threshold", scheme.num_parties, scheme.threshold, scheme._N,
        scheme._e, scheme._v, tuple(scheme._shares), tuple(scheme._vks),
    )


def _plain(scheme):
    return ("plain",) + tuple((kp.n, kp.e, kp.d) for kp in scheme._keypairs)


def _suite(suite):
    return (
        "suite", suite.num_parties, suite.max_faulty, _plain(suite.plain),
        _threshold(suite.quorum), _threshold(suite.coin),
    )


def dealt_suite(*key):
    return _suite(deal_suite(key))


def real_suite(num_parties, max_faulty, seed, bits):
    return _suite(CryptoSuite.real(num_parties, max_faulty, random.Random(seed), bits))


def threshold_rsa(num_parties, threshold, bits, seed):
    return _threshold(
        generate_threshold_rsa(num_parties, threshold, bits, random.Random(seed))
    )


def plain_rsa(num_parties, bits, seed):
    return _plain(RsaSignatureScheme.setup(num_parties, bits, random.Random(seed)))


def rsa_keypair(bits, seed):
    keypair = generate_rsa_keypair(bits, random.Random(seed))
    return ("keypair", keypair.n, keypair.e, keypair.d)


DEALS = [
    # perfbench: pooled-campaign's real tail; crypto.deal_real_ms's seeds.
    (dealt_suite, ("real", 4, 1, 0, 256)),
    (dealt_suite, ("real", 4, 1, 1, 256)),
    (dealt_suite, ("real", 4, 1, 2, 256)),
    # make bench-quick: error-sweep --backend real --rsa-bits 64.
    (dealt_suite, ("real", 4, 1, 0, 64)),
    # rsa_bits= plans in tier-1: the runner's ba13-n4-real, the predeal span.
    (dealt_suite, ("real", 4, 1, 0, 128)),
    (dealt_suite, ("real", 4, 1, 28_001, 64)),
    (dealt_suite, ("real", 4, 1, 28_002, 64)),
    # CryptoSuite.real(n, t, random.Random(seed), bits) in tier-1 tests.
    (real_suite, (4, 1, 2, 128)),
    (real_suite, (4, 1, 78, 128)),
    (real_suite, (4, 1, 123, 128)),
    (real_suite, (4, 1, 1002, 128)),
    (real_suite, (5, 2, 77, 128)),
    (real_suite, (5, 2, 1001, 128)),
    # Schemes and key pairs tier-1 tests deal directly.
    (threshold_rsa, (2, 2, 128, 31)),
    (threshold_rsa, (4, 2, 128, 4)),
    (threshold_rsa, (4, 2, 128, 13)),
    (threshold_rsa, (4, 3, 256, 21)),
    (threshold_rsa, (5, 3, 128, 11)),
    (plain_rsa, (2, 128, 3)),
    (plain_rsa, (2, 128, 5)),
    (plain_rsa, (3, 128, 7)),
    (rsa_keypair, (64, 9)),
    (rsa_keypair, (128, 3)),
]

#: sha256 of each deal's material, captured before the safe-prime search
#: was rewritten; a deal is named ``function(args)``.
PINNED = {
    "dealt_suite('real', 4, 1, 0, 256)":
        "a03a339922a51c82cb5b2c1bfd2059af64a0485119205eb6604478ad51671564",
    "dealt_suite('real', 4, 1, 1, 256)":
        "da26e73e9144929bed662f744a772f7bfc280b0619496b66cedb478a66d5bd34",
    "dealt_suite('real', 4, 1, 2, 256)":
        "1589294982f9bf9b45d67af61458dd27f4cfadacf4361d6a773ee198065ebbd2",
    "dealt_suite('real', 4, 1, 0, 64)":
        "79d48ea4874309c8bf05d3fe1ec96d2b5507274e042c29742cd95c0810d2fe22",
    "dealt_suite('real', 4, 1, 0, 128)":
        "0f6adbfc65616e021807e57204fd75cbbd8eaa3444b6e906b09ab91e28e5257e",
    "dealt_suite('real', 4, 1, 28001, 64)":
        "800ca587a8f450757435ab5d7012c782b86cc9b1c439264563ea47252aecf53e",
    "dealt_suite('real', 4, 1, 28002, 64)":
        "9f581021d3042d7c1da2db7c9d5185748790270ba78da287aee50cd7ea8191d7",
    "real_suite(4, 1, 2, 128)":
        "6cdcbc064c30b1b7bfa9a022746c6d70e95c84ca0ed78c5753bf69ac9cd3676f",
    "real_suite(4, 1, 78, 128)":
        "ffff3f8579b711bf4ebb26d0059522bd26b09db8758719b8aa55acbff0ec70a4",
    "real_suite(4, 1, 123, 128)":
        "e123ee04098655a9268c61dce144762958524bf7f5101777e14f9198a700245c",
    "real_suite(4, 1, 1002, 128)":
        "b5457db8be24afb4cb21281d847e71d7d9d7fd3b4e4976b806ab235242b3a7c7",
    "real_suite(5, 2, 77, 128)":
        "051fa545aa9a5cc0fd5331815aecba6a727df5491dc7d1f35b069bebeed947ae",
    "real_suite(5, 2, 1001, 128)":
        "e8abbc65527b5962dbecd833edcaaf5f4c3d19a308975fdf13a1db6e82eeea2a",
    "threshold_rsa(2, 2, 128, 31)":
        "717cc0f947076ad55a7570526d4b99c428abc2c57a8917a3e50fe09246ef88ca",
    "threshold_rsa(4, 2, 128, 4)":
        "dc15350a3a81e006b3cbab5cc4732cec5fc0b5e45ac911ae49faeea4ac842d12",
    "threshold_rsa(4, 2, 128, 13)":
        "065c9bf20a4fa4451e8acf2860a5499691f39a4aa04d349de128dcf0c0f8fa9e",
    "threshold_rsa(4, 3, 256, 21)":
        "7d8822314c40fcb683f2fee11ec1127ff0903a2cc53a265dbde8dd8cdf689153",
    "threshold_rsa(5, 3, 128, 11)":
        "6a03ffaefbade53861756ed85213084fe07194ca62bf7cc99f63989581a249a2",
    "plain_rsa(2, 128, 3)":
        "e834d4f6a8e82c0c7a6935bd361ea9286cddfdb82f6e3c71b209a1633a27a195",
    "plain_rsa(2, 128, 5)":
        "5bd2d870a653df7dc544079592bb1f73c0ddcc22d8be1ddc0e92112018513318",
    "plain_rsa(3, 128, 7)":
        "bfe145f476a0e20d98122313e583e8760963242b20520a5e7c9fa00b0417afe7",
    "rsa_keypair(64, 9)":
        "e0b74297a8057ff248171fa6d212d972fa0d90fd238cdc6b8dd51b969d30cfc4",
    "rsa_keypair(128, 3)":
        "f2ae31e2a5b4c0c7110f9fd6b2594fcf8d569d666f4a5bc72d8a36699aafb8a8",
}


def _name(deal, args):
    return f"{deal.__name__}{args}"


def fingerprint(material) -> str:
    return hashlib.sha256(repr(material).encode()).hexdigest()


@pytest.mark.parametrize("deal, args", DEALS, ids=[_name(*d) for d in DEALS])
def test_dealt_key_material_is_pinned(deal, args):
    name = _name(deal, args)
    assert fingerprint(deal(*args)) == PINNED[name], f"{name} dealt different keys"
