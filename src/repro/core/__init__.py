"""The paper's contribution: extraction, generalized iteration, BA.

Also hosts the executable baselines (fixed-round Feldman–Micali,
Micali–Vaikuntanathan-style, Dolev–Strong) and the multivalued lifts.
"""

from .ablation import (
    ba_one_half_generalized,
    ba_one_third_chunked,
    bits_per_round_one_half,
    bits_per_round_one_third,
    rounds_one_half_generalized,
    rounds_one_third_chunked,
)
from .ba import (
    ba_one_half_program,
    ba_one_third_program,
    iteration_one_half,
    iteration_one_third,
    iterations_one_half,
    rounds_one_half,
    rounds_one_third,
)
from .dolev_strong import dolev_strong_ba_program, dolev_strong_broadcast_program
from .extraction import coin_range, extract, extract_by_position, splitting_coin
from .feldman_micali import feldman_micali_program, rounds_feldman_micali
from .iteration import (
    CoinFactory,
    Iteration,
    ideal_coin_factory,
    threshold_coin_factory,
)
from .micali_vaikuntanathan import (
    micali_vaikuntanathan_program,
    mv_pki_program,
    rounds_mv,
)
from .probabilistic import (
    ProbTermOutput,
    fm_probabilistic_program,
    iteration_fm_probabilistic,
)
from .turpin_coan import (
    multivalued_ba_program,
    multivalued_prefix,
    turpin_coan_classic_program,
    turpin_coan_prefix,
)

__all__ = [
    "CoinFactory",
    "Iteration",
    "ProbTermOutput",
    "fm_probabilistic_program",
    "ba_one_half_generalized",
    "ba_one_half_program",
    "ba_one_third_chunked",
    "bits_per_round_one_half",
    "bits_per_round_one_third",
    "rounds_one_half_generalized",
    "rounds_one_third_chunked",
    "ba_one_third_program",
    "coin_range",
    "dolev_strong_ba_program",
    "dolev_strong_broadcast_program",
    "extract",
    "extract_by_position",
    "feldman_micali_program",
    "ideal_coin_factory",
    "iteration_fm_probabilistic",
    "iteration_one_half",
    "iteration_one_third",
    "iterations_one_half",
    "micali_vaikuntanathan_program",
    "multivalued_ba_program",
    "multivalued_prefix",
    "mv_pki_program",
    "rounds_feldman_micali",
    "rounds_mv",
    "rounds_one_half",
    "rounds_one_third",
    "splitting_coin",
    "threshold_coin_factory",
    "turpin_coan_classic_program",
    "turpin_coan_prefix",
]
