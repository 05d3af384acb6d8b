"""Experiment harness: build indexes from a GSTD stream, run query batches,
collect node accesses and CPU time.

The harness drives SWST and MV3R with the *same* report stream and the
same query workload, mirroring the paper's method: the stream is inserted
to steady state, then 200 random queries inside the current sliding window
are evaluated, and average node accesses per operation are compared
(Section V-B).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.config import SWSTConfig
from ..core.index import SWSTIndex
from ..core.results import QueryStats
from ..datagen.gstd import Report
from ..datagen.workloads import Query
from ..mv3r.mv3r import MV3RTree


@dataclass
class BuildResult:
    """Cost of feeding one stream into one index."""

    label: str
    records: int
    node_accesses: int
    cpu_seconds: float

    @property
    def accesses_per_record(self) -> float:
        return self.node_accesses / max(self.records, 1)


@dataclass
class QueryBatchResult:
    """Cost of one query batch on one index.

    ``stats`` is the merged per-query :class:`QueryStats` (candidate,
    refinement and memo counters summed across the batch); ``None`` for
    indexes whose query path does not report them (MV3R).
    """

    label: str
    queries: int
    node_accesses: int
    cpu_seconds: float
    result_entries: int
    stats: QueryStats | None = None

    @property
    def accesses_per_query(self) -> float:
        return self.node_accesses / max(self.queries, 1)


def build_swst(stream: list[Report], config: SWSTConfig,
               label: str = "SWST") -> tuple[SWSTIndex, BuildResult]:
    """Feed a report stream into a fresh SWST index."""
    index = SWSTIndex(config)
    try:
        before = index.stats.snapshot()
        started = time.process_time()
        for report in stream:
            index.report(report.oid, report.x, report.y, report.t)
        elapsed = time.process_time() - started
        delta = index.stats.diff(before)
    except BaseException:
        index.close()
        raise
    return index, BuildResult(label=label, records=len(stream),
                              node_accesses=delta.node_accesses,
                              cpu_seconds=elapsed)


def build_mv3r(stream: list[Report], page_size: int = 8192,
               buffer_capacity: int = 512, use_aux: bool = True,
               label: str = "MV3R") -> tuple[MV3RTree, BuildResult]:
    """Feed the same report stream into a fresh MV3R tree."""
    index = MV3RTree(page_size=page_size, buffer_capacity=buffer_capacity,
                     use_aux=use_aux)
    try:
        before = index.stats.snapshot()
        started = time.process_time()
        for report in stream:
            index.report(report.oid, report.x, report.y, report.t)
        elapsed = time.process_time() - started
        delta = index.stats.diff(before)
    except BaseException:
        index.close()
        raise
    return index, BuildResult(label=label, records=len(stream),
                              node_accesses=delta.node_accesses,
                              cpu_seconds=elapsed)


def run_queries_swst(index: SWSTIndex, queries: list[Query],
                     window: int | None = None,
                     label: str = "SWST") -> QueryBatchResult:
    """Evaluate a query batch on SWST, summing per-query statistics.

    ``index`` may be a plain :class:`SWSTIndex` or a
    :class:`~repro.engine.ShardedEngine` — both expose the same query
    surface and IO-stats snapshot/diff protocol.
    """
    before = index.stats.snapshot()
    started = time.process_time()
    entries = 0
    batch_stats = QueryStats()
    for query in queries:
        result = index.query_interval(query.area, query.t_lo, query.t_hi,
                                      window)
        entries += len(result)
        batch_stats += result.stats
    elapsed = time.process_time() - started
    delta = index.stats.diff(before)
    return QueryBatchResult(label=label, queries=len(queries),
                            node_accesses=delta.node_accesses,
                            cpu_seconds=elapsed, result_entries=entries,
                            stats=batch_stats)


def run_queries_mv3r(index: MV3RTree, queries: list[Query],
                     use_aux: bool | None = None,
                     label: str = "MV3R") -> QueryBatchResult:
    """Evaluate a query batch on MV3R."""
    before = index.stats.snapshot()
    started = time.process_time()
    entries = 0
    for query in queries:
        if query.is_timeslice:
            entries += len(index.query_timeslice(query.area, query.t_lo))
        else:
            entries += len(index.query_interval(query.area, query.t_lo,
                                                query.t_hi,
                                                use_aux=use_aux))
    elapsed = time.process_time() - started
    delta = index.stats.diff(before)
    return QueryBatchResult(label=label, queries=len(queries),
                            node_accesses=delta.node_accesses,
                            cpu_seconds=elapsed, result_entries=entries)
