"""Analysis layer: theory closed forms, paper-table regeneration, estimators."""

from .curves import log_sparkline, sparkline
from .report import format_matrix, format_table
from .stats import disagreement_rate, wilson_interval
from .tables import (
    binary_slot_labels,
    fig2_expansion_conditions,
    fig3_extraction_matrix,
    render_fig3,
    render_table1,
    render_table2,
    table1_prox5_conditions,
)
from .theory import (
    PROTOCOLS,
    ProtocolTheory,
    efficiency_comparison_rows,
    error_for_rounds,
    per_iteration_failure,
    rounds_for_error,
)

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
