"""Query result and per-query statistics types."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Iterator, SupportsIndex

from .records import Entry, pack_entries, unpack_entries


@dataclass
class QueryStats:
    """Cost breakdown of one query.

    Attributes:
        node_accesses: logical page accesses during the query (the paper's
            headline search metric).
        spatial_cells: spatial grid cells whose temporal indexes were probed.
        columns_examined: (spatial cell, s-partition column) pairs examined.
        key_ranges: B+ tree key ranges generated after memo pruning.
        candidates: entries returned by the B+ tree searches before
            refinement.
        refined_out: candidates discarded by the refinement step.
        full_hits: candidates accepted without any predicate evaluation
            because both their temporal cell and spatial cell overlap fully.
        plan_cache_hits: queries (or batch evaluations) that reused a
            compiled query plan from an ``SWSTIndex``'s plan cache
            instead of re-deriving the temporal classification (always
            0 on engine answers: the engine caches no plans).
        degraded: True if the result was produced in degraded mode — a
            sharded query ran with ``strict=False`` and at least one
            shard failed, so the entries cover only the surviving shards.
    """

    node_accesses: int = 0
    spatial_cells: int = 0
    columns_examined: int = 0
    key_ranges: int = 0
    candidates: int = 0
    refined_out: int = 0
    full_hits: int = 0
    plan_cache_hits: int = 0
    degraded: bool = False

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate another stats block into this one, field by field.

        Every counter is additive, so merging per-shard (or per-query)
        statistics yields the aggregate cost of the combined evaluation;
        the ``degraded`` flag is sticky (OR-merged).  Returns ``self`` so
        merges chain.
        """
        for name in _QUERY_STAT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.degraded = self.degraded or other.degraded
        return self

    def __iadd__(self, other: "QueryStats") -> "QueryStats":
        return self.merge(other)

    def __reduce__(self) -> tuple[Any, ...]:
        return (QueryStats, tuple(vars(self).values()))  # in field order


#: Additive counter fields of :class:`QueryStats`, fixed at import time
#: (the ``degraded`` flag OR-merges instead).
_QUERY_STAT_FIELDS = tuple(f.name for f in fields(QueryStats)
                           if f.name != "degraded")


@dataclass
class QueryResult:
    """Entries matching a query plus the cost statistics of evaluating it."""

    entries: list[Entry] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def oids(self) -> set[int]:
        """Distinct object ids in the result."""
        return {entry.oid for entry in self.entries}

    def merge(self, other: "QueryResult") -> "QueryResult":
        """Append another result's entries and absorb its statistics.

        The scatter-gather engine uses this to combine per-shard results;
        entry order is concatenation order (sort before comparing results
        from differently-sharded evaluations).  Returns ``self``.
        """
        self.entries.extend(other.entries)
        self.stats.merge(other.stats)
        return self

    def __reduce_ex__(self, protocol: SupportsIndex
                      ) -> str | tuple[Any, ...]:
        # One packed blob over worker pipes; PartialResult keeps the default.
        if type(self) is not QueryResult:
            return super().__reduce_ex__(protocol)
        return (_unpack_result, (pack_entries(self.entries), self.stats))


def _unpack_result(blob: bytes, stats: QueryStats) -> QueryResult:
    return QueryResult(unpack_entries(blob), stats)


@dataclass
class MultiQueryResult:
    """Result of a batched multi-rectangle query.

    Attributes:
        results: one :class:`QueryResult` per input rectangle, in input
            order.  Per-rectangle statistics carry that rectangle's own
            refinement counters (candidates, full hits, refined-out, key
            ranges, ...); node accesses of the shared level-wise B+ tree
            descents cannot be attributed to a single rectangle and are
            reported only on the batch-level :attr:`stats`.
        stats: aggregate statistics of the whole batch — the merge of
            every per-rectangle block plus the batch's total logical
            node accesses and plan-cache hits.
    """

    results: list[QueryResult] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)
