"""Analysis layer: theory closed forms, paper-table regeneration, drivers."""

from .experiments import (
    ExperimentSetup,
    disagreement_rate,
    measure_execution,
    run_trials,
    slot_occupancy,
)
from .curves import bar_chart, log_sparkline, sparkline
from .report import format_matrix, format_table
from .stats import (
    SequentialEstimate,
    format_rate,
    wilson_interval,
    within_interval,
)
from .tables import (
    binary_slot_labels,
    fig2_expansion_conditions,
    fig3_extraction_matrix,
    render_fig3,
    render_table1,
    render_table2,
    table1_prox5_conditions,
    table2_prox15_conditions,
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
    "ExperimentSetup",
    "SequentialEstimate",
    "bar_chart",
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
    "format_rate",
    "format_table",
    "measure_execution",
    "wilson_interval",
    "within_interval",
    "per_iteration_failure",
    "render_fig3",
    "render_table1",
    "render_table2",
    "rounds_for_error",
    "run_trials",
    "slot_occupancy",
    "table1_prox5_conditions",
    "table2_prox15_conditions",
]
