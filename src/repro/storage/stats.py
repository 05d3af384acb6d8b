"""IO statistics counters.

The SWST paper (Section V) reports *node accesses* — logical page fetches —
as its primary cost metric, because it is independent of the buffer cache
state and of the host language.  :class:`IOStats` tracks both the logical
counters (every ``fetch`` through the buffer pool) and the physical ones
(actual file reads/writes that missed the cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class IOStats:
    """Mutable counter block shared by a pager and its buffer pool.

    Attributes:
        logical_reads: number of page fetches requested by callers.  This is
            the paper's "node accesses" metric.
        logical_writes: number of page write requests (mark-dirty events).
        physical_reads: pages actually read from the file (cache misses).
        physical_writes: pages actually written back to the file.
        allocations: pages newly allocated.
        frees: pages returned to the free list.
        node_parses: pages decoded into node objects (buffer pool misses
            of :meth:`~repro.storage.buffer.BufferPool.fetch_node`).
        node_cache_hits: node fetches served from the buffer pool without
            re-parsing the page bytes.
        node_serializations: node objects encoded back to page bytes
            (deferred to eviction/flush; never larger than the number of
            logical writes they replace).
    """

    logical_reads: int = 0
    logical_writes: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    allocations: int = 0
    frees: int = 0
    node_parses: int = 0
    node_cache_hits: int = 0
    node_serializations: int = 0

    @property
    def node_accesses(self) -> int:
        """Total node accesses (logical reads + logical writes).

        The paper counts the pages touched during an operation; both read and
        written pages count as accessed nodes.
        """
        return self.logical_reads + self.logical_writes

    def reset(self) -> None:
        """Zero every counter in place."""
        self.logical_reads = 0
        self.logical_writes = 0
        self.physical_reads = 0
        self.physical_writes = 0
        self.allocations = 0
        self.frees = 0
        self.node_parses = 0
        self.node_cache_hits = 0
        self.node_serializations = 0

    def snapshot(self) -> "IOStats":
        """Return an immutable-by-convention copy of the current counters."""
        return IOStats(
            logical_reads=self.logical_reads,
            logical_writes=self.logical_writes,
            physical_reads=self.physical_reads,
            physical_writes=self.physical_writes,
            allocations=self.allocations,
            frees=self.frees,
            node_parses=self.node_parses,
            node_cache_hits=self.node_cache_hits,
            node_serializations=self.node_serializations,
        )

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Return the counter deltas since ``earlier`` (a prior snapshot)."""
        return IOStats(
            logical_reads=self.logical_reads - earlier.logical_reads,
            logical_writes=self.logical_writes - earlier.logical_writes,
            physical_reads=self.physical_reads - earlier.physical_reads,
            physical_writes=self.physical_writes - earlier.physical_writes,
            allocations=self.allocations - earlier.allocations,
            frees=self.frees - earlier.frees,
            node_parses=self.node_parses - earlier.node_parses,
            node_cache_hits=self.node_cache_hits - earlier.node_cache_hits,
            node_serializations=(self.node_serializations
                                 - earlier.node_serializations),
        )


@dataclass
class StatsRecorder:
    """Convenience wrapper to measure the IO cost of a code region.

    Example::

        rec = StatsRecorder(pool.stats)
        with rec:
            index.insert(...)
        print(rec.delta.node_accesses)
    """

    stats: IOStats
    delta: IOStats = field(default_factory=IOStats)
    _start: IOStats | None = None

    def __enter__(self) -> "StatsRecorder":
        self._start = self.stats.snapshot()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.delta = self.stats.diff(self._start)
        self._start = None
