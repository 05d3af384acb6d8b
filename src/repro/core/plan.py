"""Compiled query plans and the epoch-fenced plan cache.

A *query plan* is everything about an interval query that does not depend
on the spatial area: the temporal-cell classification (one
:class:`~repro.core.overlap.ColumnOverlap` per qualifying s-partition
column, split by B+ tree), the column lookup table used during
refinement, and the effective temporal predicate bounds.  It is a pure
function of ``(config, clock, t_lo, t_hi, window)``; deriving it costs
one closed-form classification (:mod:`~repro.core.overlap`: O(1) integer
arithmetic per column, at most ``2·Sp`` columns).

:class:`QueryPlan` is a frozen dataclass and must be treated as
**immutable after construction** (lint rule R007 enforces this across
``core/`` and ``engine/``): plans are shared — between the queries that
hit the cache, between the shards of a
:class:`~repro.engine.ShardedEngine` fan-out, and between retry attempts
of a failed shard task — so any in-place mutation would be a data race
and a cross-query correctness bug.

:class:`PlanCache` memoises plans keyed by ``(t_lo, t_hi, window)`` and
fences every entry on the stream clock: the cache is invalidated
wholesale when the clock moves (a window slide changes the queriable
period, so *no* pre-slide plan may survive), and each entry additionally
records the clock it was derived at, so a stale entry can never be
served even if an invalidation hook is missed.  Mutations at an
unchanged clock (inserts, deletes) cannot change the classification —
but they do change the per-cell *isPresent* memos, so the memo-pruned
key ranges cached alongside each plan carry the owning memo's
generation counter and are recomputed on mismatch.  Only
:class:`~repro.core.index.SWSTIndex`'s own query methods carry a
:class:`PlanEntry`; the engine derives one bare plan per fan-out and
caches nothing (workers derive theirs from the signature), so the served
path never memoises plans or ranges.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .config import SWSTConfig
from .overlap import ColumnOverlap
from .records import Rect

#: Cache key: the query's temporal signature.  The clock is *not* part of
#: the key — it is a fence (entries derived at another clock are dead).
PlanKey = tuple[int, int, int | None]

#: Cached per-cell search state: (memo generation, memo-pruned key
#: ranges, columns examined while pruning).
CellRanges = tuple[int, tuple[tuple[int, int], ...], int]


@dataclass(frozen=True)
class QueryPlan:
    """Pre-computed per-query state shared by every spatial cell.

    Attributes:
        by_tree: qualifying columns of each of the two B+ trees, in key
            order (sorted and disjoint in key space).
        column_of: modulo s-partition -> its classification, used by the
            refinement step.  The mapping is logically frozen; do not
            mutate it (R007).
        q_lo: lower bound of the queriable period at plan time.
        s_hi_eff: largest start timestamp that can qualify
            (``min(q_hi, t_hi)``).
        t_lo: the query interval's lower bound (end-time predicate).
        clock: stream time the plan was derived at.  A plan is only
            valid while the index clock equals this value.
    """

    by_tree: tuple[tuple[ColumnOverlap, ...], tuple[ColumnOverlap, ...]]
    column_of: dict[int, ColumnOverlap]
    q_lo: int
    s_hi_eff: int
    t_lo: int
    clock: int


def build_query_plan(config: SWSTConfig, clock: int,
                     columns: list[ColumnOverlap], t_lo: int, t_hi: int,
                     window: int | None) -> QueryPlan:
    """Compile classified columns into an immutable :class:`QueryPlan`."""
    q_lo, q_hi = config.queriable_period(clock, window)
    tree0 = tuple(column for column in columns if column.tree == 0)
    tree1 = tuple(column for column in columns if column.tree == 1)
    return QueryPlan(
        by_tree=(tree0, tree1),
        column_of={column.s_part: column for column in columns},
        q_lo=q_lo,
        s_hi_eff=min(q_hi, t_hi),
        t_lo=t_lo,
        clock=clock,
    )


class PlanEntry:
    """One cached plan plus its per-cell derived search state.

    The plan itself is immutable; the entry owns the *mutable* range
    cache so that plan purity (R007) and range memoisation do not
    conflict.  Range slots are keyed by ``(cx, cy, tree_idx, clipped)``
    — the clipped rectangle matters because queries sharing a temporal
    signature may carry different areas, and the Z-corner bounds and
    memo pruning both depend on the per-cell clip — and fenced on the
    owning cell memo's generation counter.  The slot table is bounded:
    a workload that re-uses one temporal signature across unboundedly
    many distinct rectangles resets it rather than growing without
    limit.
    """

    __slots__ = ("plan", "_ranges")

    #: Maximum cached (cell, tree, clip) slots per plan entry.
    MAX_RANGE_SLOTS = 4096

    def __init__(self, plan: QueryPlan) -> None:
        self.plan = plan
        self._ranges: dict[tuple[int, int, int, Rect], CellRanges] = {}

    def cell_ranges(self, cx: int, cy: int, tree_idx: int, clipped: Rect,
                    generation: int) -> CellRanges | None:
        """Cached ranges for one (cell, tree, clip), or None if
        absent/stale."""
        cached = self._ranges.get((cx, cy, tree_idx, clipped))
        if cached is None or cached[0] != generation:
            return None
        return cached

    def store_cell_ranges(self, cx: int, cy: int, tree_idx: int,
                          clipped: Rect, generation: int,
                          ranges: tuple[tuple[int, int], ...],
                          columns_examined: int) -> None:
        if len(self._ranges) >= self.MAX_RANGE_SLOTS:
            self._ranges.clear()
        self._ranges[(cx, cy, tree_idx, clipped)] = (generation, ranges,
                                                     columns_examined)


class PlanCache:
    """Bounded LRU cache of compiled query plans, fenced on the clock.

    ``capacity=0`` disables caching entirely (every lookup misses and
    nothing is stored) — the A/B baseline for the query-path benchmark.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries")

    #: Plans an index keeps (distinct temporal signatures).
    DEFAULT_CAPACITY = 128

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[PlanKey, PlanEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, t_lo: int, t_hi: int, window: int | None,
               clock: int) -> PlanEntry | None:
        """The cached entry for this temporal signature, if still valid.

        An entry derived at a different clock is defensively dropped on
        sight — :meth:`invalidate` already clears the cache whenever the
        index clock moves, but the per-entry fence guarantees a stale
        plan can never be served even if a future mutation path forgets
        to invalidate.
        """
        key: PlanKey = (t_lo, t_hi, window)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.plan.clock != clock:
            del self._entries[key]
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, plan: QueryPlan, t_lo: int, t_hi: int,
              window: int | None) -> PlanEntry:
        """Cache a freshly built plan; returns its entry.

        With ``capacity=0`` the entry is created but not retained, so
        callers can use the per-cell range slots within one query even
        when caching across queries is disabled.
        """
        entry = PlanEntry(plan)
        if self.capacity == 0:
            return entry
        key: PlanKey = (t_lo, t_hi, window)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry

    def invalidate(self) -> None:
        """Drop every cached plan (the stream clock moved)."""
        self._entries.clear()
