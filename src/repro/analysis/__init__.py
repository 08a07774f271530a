"""Analysis layer: theory closed forms, paper-table regeneration, estimators."""

import importlib
from typing import Any

__all__ = [
    "PROTOCOLS",
    "log_sparkline",
    "sparkline",
    "ProtocolTheory",
    "binary_slot_labels",
    "disagreement_rate",
    "efficiency_comparison_rows",
    "error_for_rounds",
    "fig2_expansion_conditions",
    "fig3_extraction_matrix",
    "format_matrix",
    "format_table",
    "wilson_interval",
    "per_iteration_failure",
    "render_fig3",
    "render_table1",
    "render_table2",
    "rounds_for_error",
    "table1_prox5_conditions",
]

# PEP 562: the first read of an export imports its submodule and keeps the name.
_EXPORTS = {
    ".curves": ("log_sparkline", "sparkline"),
    ".report": ("format_matrix", "format_table"),
    ".stats": ("disagreement_rate", "wilson_interval"),
    ".tables": (
        "binary_slot_labels", "fig2_expansion_conditions",
        "fig3_extraction_matrix", "render_fig3", "render_table1",
        "render_table2", "table1_prox5_conditions",
    ),
    ".theory": (
        "PROTOCOLS", "ProtocolTheory", "efficiency_comparison_rows",
        "error_for_rounds", "per_iteration_failure", "rounds_for_error",
    ),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            globals()[name] = getattr(importlib.import_module(module, __name__), name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
