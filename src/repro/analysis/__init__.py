"""Experiment analysis: budgets, crossovers, orchestration, reporting."""

from .bench import (
    BENCH_SCHEMA,
    BenchSchemaError,
    compare_serve_baseline,
    run_bench,
    validate_bench_report,
    write_report,
)
from .budget import budget_curve, energy_budget
from .crossover import CrossoverAnalysis, median_crossover, window_artifacts
from .experiments import (
    CrossoverCell,
    SweepFailure,
    SweepOutcome,
    crossover_table,
    headline_transition_savings,
    isolated_suite_traces,
    robust_savings_sweep,
    savings_for,
    savings_sweep,
)
from .figures import export_figures, write_csv
from .parallel import CellError, CellOutcome, parallel_map_cells, resolve_jobs
from .reporting import fmt, format_series, format_table

__all__ = [
    "BENCH_SCHEMA",
    "BenchSchemaError",
    "compare_serve_baseline",
    "run_bench",
    "validate_bench_report",
    "write_report",
    "budget_curve",
    "energy_budget",
    "CellError",
    "CellOutcome",
    "parallel_map_cells",
    "resolve_jobs",
    "CrossoverAnalysis",
    "median_crossover",
    "window_artifacts",
    "CrossoverCell",
    "crossover_table",
    "headline_transition_savings",
    "savings_for",
    "savings_sweep",
    "SweepFailure",
    "SweepOutcome",
    "isolated_suite_traces",
    "robust_savings_sweep",
    "export_figures",
    "write_csv",
    "fmt",
    "format_series",
    "format_table",
]
