"""The Proxcensus protocol family (paper §3.3 and Appendices A–B)."""

from .base import (
    ProxOutput,
    ProxcensusViolation,
    check_proxcensus_consistency,
    check_proxcensus_validity,
    max_grade,
    slot_index,
    slot_label,
)
from .gradecast_cert import certificate_gradecast_program
from .linear_half import grade_conditions, prox_linear_half_program
from .one_third import prox_expand_once_program, prox_one_third_program
from .proxcast import (
    proxcast_player_replaceable_program,
    proxcast_program,
    rounds_for_slots,
)
from .quadratic_half import (
    condition_table,
    prox_quadratic_half_program,
    top_grade,
)
from .registry import FAMILIES, ProxFamily, family

__all__ = [
    "FAMILIES",
    "ProxFamily",
    "ProxOutput",
    "ProxcensusViolation",
    "certificate_gradecast_program",
    "check_proxcensus_consistency",
    "check_proxcensus_validity",
    "condition_table",
    "family",
    "grade_conditions",
    "max_grade",
    "prox_expand_once_program",
    "prox_linear_half_program",
    "prox_one_third_program",
    "prox_quadratic_half_program",
    "proxcast_player_replaceable_program",
    "proxcast_program",
    "rounds_for_slots",
    "slot_index",
    "slot_label",
    "top_grade",
]
