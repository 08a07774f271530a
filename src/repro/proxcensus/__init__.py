"""The Proxcensus protocol family (paper §3.3 and Appendices A–B)."""

import importlib
from typing import Any

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

# PEP 562: the first read of an export imports its submodule and keeps the name.
_EXPORTS = {
    ".base": (
        "ProxOutput", "ProxcensusViolation", "check_proxcensus_consistency",
        "check_proxcensus_validity", "max_grade", "slot_index", "slot_label",
    ),
    ".gradecast_cert": ("certificate_gradecast_program",),
    ".linear_half": ("grade_conditions", "prox_linear_half_program"),
    ".one_third": ("prox_expand_once_program", "prox_one_third_program"),
    ".proxcast": (
        "proxcast_player_replaceable_program", "proxcast_program",
        "rounds_for_slots",
    ),
    ".quadratic_half": (
        "condition_table", "prox_quadratic_half_program", "top_grade",
    ),
    ".registry": ("FAMILIES", "ProxFamily", "family"),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = getattr(importlib.import_module(module, __name__), name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
