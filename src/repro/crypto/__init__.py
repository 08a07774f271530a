"""Cryptographic substrate: signatures, threshold signatures, coins.

Public surface re-exported here; see module docstrings for construction
details and the DESIGN.md substitution notes (ideal vs real backends).
"""

from .coin import (
    IdealCoin,
    coin_evaluator,
    coin_message_tag,
    coin_value_from_signature,
    ideal_coin_program,
    threshold_coin_program,
)
from .ideal import IdealSignatureScheme, IdealThresholdScheme
from .interfaces import CryptoError, SignatureScheme, ThresholdSignatureScheme
from .keys import CryptoSuite
from .primes import generate_prime, generate_safe_prime, is_probable_prime
from .random_oracle import (
    encode_term,
    encode_tuple,
    hash_to_int,
    hash_to_range,
    oracle_digest,
)
from .rsa import RsaSignatureScheme, generate_rsa_keypair
from .threshold_rsa import ThresholdRsaScheme, generate_threshold_rsa
from .vrf_coin import (
    vrf_coin_extractor,
    vrf_coin_from_evaluations,
    vrf_coin_program,
    vrf_evaluate,
    vrf_evaluator,
    vrf_verify,
)

__all__ = [
    "CryptoError",
    "CryptoSuite",
    "IdealCoin",
    "IdealSignatureScheme",
    "IdealThresholdScheme",
    "RsaSignatureScheme",
    "SignatureScheme",
    "ThresholdRsaScheme",
    "ThresholdSignatureScheme",
    "coin_evaluator",
    "coin_message_tag",
    "coin_value_from_signature",
    "encode_term",
    "encode_tuple",
    "generate_prime",
    "generate_rsa_keypair",
    "generate_safe_prime",
    "generate_threshold_rsa",
    "hash_to_int",
    "hash_to_range",
    "ideal_coin_program",
    "is_probable_prime",
    "oracle_digest",
    "threshold_coin_program",
    "vrf_coin_extractor",
    "vrf_coin_from_evaluations",
    "vrf_coin_program",
    "vrf_evaluate",
    "vrf_evaluator",
    "vrf_verify",
]
