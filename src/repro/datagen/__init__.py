"""Synthetic data: the GSTD stream generator and query workloads."""

from .gstd import GSTDConfig, GSTDGenerator, Report
from .workloads import Query, WorkloadConfig, generate_queries

__all__ = [
    "GSTDConfig",
    "GSTDGenerator",
    "Query",
    "Report",
    "WorkloadConfig",
    "generate_queries",
]
