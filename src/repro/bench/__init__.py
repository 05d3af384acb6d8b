"""Benchmark harness: regenerate every table and figure of the paper."""

from .experiments import (ExperimentResult, experiment_hrtree,
                          experiment_insertion,
                          experiment_interleaved, experiment_maintenance,
                          experiment_memo, experiment_physical_io,
                          experiment_skew,
                          experiment_spartition, experiment_spatial_cells,
                          experiment_spatial_extent, experiment_time_interval,
                          experiment_wave, experiment_zcurve, run_all)
from .harness import (BuildResult, QueryBatchResult, build_mv3r, build_swst,
                      run_queries_mv3r, run_queries_swst)
from .params import PAPER, SCALED, TINY, BenchParams, active_params
from .reporting import format_table

__all__ = [
    "BenchParams",
    "BuildResult",
    "ExperimentResult",
    "PAPER",
    "QueryBatchResult",
    "SCALED",
    "TINY",
    "active_params",
    "build_mv3r",
    "build_swst",
    "experiment_hrtree",
    "experiment_insertion",
    "experiment_interleaved",
    "experiment_maintenance",
    "experiment_memo",
    "experiment_physical_io",
    "experiment_skew",
    "experiment_spartition",
    "experiment_spatial_cells",
    "experiment_spatial_extent",
    "experiment_time_interval",
    "experiment_wave",
    "experiment_zcurve",
    "format_table",
    "run_all",
    "run_queries_mv3r",
    "run_queries_swst",
]
