"""Cryptographic substrate: signatures, threshold signatures, coins.

Public surface re-exported here; see module docstrings for construction
details and the DESIGN.md substitution notes (ideal vs real backends).
"""

import importlib
from typing import Any

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

# PEP 562: the first read of an export imports its submodule and keeps the name.
_EXPORTS = {
    ".coin": (
        "IdealCoin", "coin_evaluator", "coin_message_tag",
        "coin_value_from_signature", "ideal_coin_program",
        "threshold_coin_program",
    ),
    ".ideal": ("IdealSignatureScheme", "IdealThresholdScheme"),
    ".interfaces": (
        "CryptoError", "SignatureScheme", "ThresholdSignatureScheme",
    ),
    ".keys": ("CryptoSuite",),
    ".primes": ("generate_prime", "generate_safe_prime", "is_probable_prime"),
    ".random_oracle": (
        "encode_term", "encode_tuple", "hash_to_int", "hash_to_range",
        "oracle_digest",
    ),
    ".rsa": ("RsaSignatureScheme", "generate_rsa_keypair"),
    ".threshold_rsa": ("ThresholdRsaScheme", "generate_threshold_rsa"),
    ".vrf_coin": (
        "vrf_coin_extractor", "vrf_coin_from_evaluations", "vrf_coin_program",
        "vrf_evaluate", "vrf_evaluator", "vrf_verify",
    ),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = getattr(importlib.import_module(module, __name__), name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
