"""The SWST index (paper Sections III-B and IV).

Two-layer structure: a uniform spatial grid whose cells each own two disk
B+ trees keyed by ``[s-partition ⊕ d-partition ⊕ zc(x, y)]``, plus an
in-memory *isPresent* memo per spatial cell.  Supports:

* ordered stream insertion of closed entries and *current* entries (unknown
  end time, finalised by the object's next report),
* arbitrary deletion/update of valid entries (no partial-persistency
  restriction, unlike MV3R),
* timeslice and interval queries, optionally under a *logical* sliding
  window ``W' <= W`` (the paper's limited-disclosure feature),
* sliding-window maintenance: whenever the stream time crosses a multiple
  of ``Wmax`` the fully-expired B+ tree of every spatial cell is dropped
  wholesale — deletion of an entire window of entries with no per-entry
  work.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from ..btree.multisearch import hits_in_ranges, multi_range_search
from ..btree.tree import BPlusTree
from ..storage.buffer import BufferPool
from ..storage.errors import CorruptPageFileError, NoCatalogError
from ..storage.pager import MEMORY, Pager
from ..storage.stats import IOStats
from .config import SWSTConfig
from .grid import CellOverlap, SpatialGrid
from .keys import KeyCodec
from .memo import CellMemo
from .overlap import ColumnOverlap, classify_interval
from .plan import PlanCache, PlanEntry, QueryPlan, build_query_plan
from .records import (RECORD_SIZE, Entry, Rect, ReportLike, pack_record,
                      record_xy)
from .results import MultiQueryResult, QueryResult, QueryStats

_CATALOG_HEADER = struct.Struct("<QQQI")       # clock, drop_epoch, size, n_cells
_CATALOG_CELL = struct.Struct("<IIQQ")         # cx, cy, root0+1, root1+1
_CATALOG_CURRENT = struct.Struct("<QIIQ")      # oid, x, y, s
_CATALOG_COUNT = struct.Struct("<I")           # section item count
_CATALOG_RETENTION = struct.Struct("<QQ")      # oid, retention


def _build_pager(config: SWSTConfig, path: str,
                 generation: int | None) -> Pager:
    """Open the page store, honouring ``config.device_factory``."""
    if config.device_factory is None:
        return Pager(path, config.page_size, generation=generation)
    device = config.device_factory(path, config.page_size)
    return Pager(device=device, page_size=config.page_size,
                 generation=generation)


class SWSTIndex:
    """Sliding Window Spatio-Temporal index.

    Args:
        config: index parameters; defaults to the paper's Table II settings.
        path: page file path, or ``":memory:"`` (default) for an in-memory
            page device — identical logical behaviour and identical node
            accesses, without filesystem noise.
        generation: for an engine shard, the committed generation its
            manifest records; the page file keeps that generation intact
            until ``pager.retain()`` (see :class:`~repro.storage.pager.
            Pager`).  ``None`` (a single file) retains every save.

    Typical use::

        index = SWSTIndex(SWSTConfig(window=20000, slide=100))
        index.insert(oid=7, x=120, y=450, s=1000, d=50)   # closed entry
        index.insert(oid=8, x=300, y=310, s=1005)          # current entry
        result = index.query_interval(Rect(0, 0, 500, 500), 980, 1010)
    """

    def __init__(self, config: SWSTConfig | None = None,
                 path: str = MEMORY, *,
                 generation: int | None = None) -> None:
        self.config = config if config is not None else SWSTConfig()
        self.pager = _build_pager(self.config, path, generation)
        try:
            self.pool = BufferPool(self.pager, self.config.buffer_capacity)
        except BaseException:
            self.pager.close()
            raise
        self.codec = KeyCodec(self.config)
        self.grid = SpatialGrid(self.config.space, self.config.x_partitions,
                                self.config.y_partitions)
        self._trees: dict[tuple[int, int], list[BPlusTree | None]] = {}
        self._memos: dict[tuple[int, int], CellMemo] = {}
        self._current: dict[int, tuple[int, int, int]] = {}
        self._retentions: dict[int, int] = {}
        self._plans = PlanCache()
        self._clock = 0
        self._drop_epoch = 0
        self._size = 0
        self._closed = False
        self._durable = path != MEMORY
        self._unsaved = False

    # -- properties ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current stream time τ (largest start timestamp seen)."""
        return self._clock

    @property
    def stats(self) -> IOStats:
        """Shared IO statistics of the underlying buffer pool."""
        return self.pool.stats

    @property
    def unsaved(self) -> bool:
        """True if the index changed since it was created, opened or last
        saved — what :meth:`close` saves first on a file-backed index."""
        return self._unsaved

    def __len__(self) -> int:
        """Number of physically stored entries (including not-yet-dropped
        expired ones)."""
        return self._size

    def current_objects(self) -> dict[int, tuple[int, int, int]]:
        """Snapshot of the current-entry table: oid -> (x, y, s)."""
        return dict(self._current)

    # -- insertion and updates (paper Section IV-A) ------------------------------

    def insert(self, oid: int, x: int, y: int, s: int,
               d: int | None = None) -> None:
        """Insert an entry; ``d=None`` inserts a *current* entry.

        The stream must be ordered by start timestamp (``s`` non-decreasing).
        For a current entry, any earlier current entry of the same object is
        finalised: its duration becomes the gap between the two reports and
        it is deleted and re-inserted under its real duration key.
        """
        self._check_open()
        if not self.config.space.contains(x, y):
            raise ValueError(f"location ({x}, {y}) outside the spatial "
                             f"domain {self.config.space}")
        if s < self._clock:
            raise ValueError(f"out-of-order start timestamp {s} < current "
                             f"time {self._clock}")
        if d is not None and d < 1:
            raise ValueError(f"duration must be >= 1, got {d}")
        self._unsaved = True
        self.advance_time(s)
        if d is not None:
            self._physical_insert(Entry(oid, x, y, s, d))
            return
        self._ingest_report(oid, x, y, s, self.grid.cell_of(x, y))

    def report(self, oid: int, x: int, y: int, t: int) -> None:
        """Position report of a moving object (alias of a current insert)."""
        self.insert(oid, x, y, t, None)

    def extend(self, reports: Iterable[ReportLike],
               batch_size: int = 1024) -> int:
        """Feed an iterable of position reports (objects with ``oid``,
        ``x``, ``y``, ``t`` attributes, e.g. :class:`repro.datagen.Report`).

        This is the batched ingestion path: reports are consumed in chunks
        of ``batch_size`` and, within each chunk, grouped by spatial cell
        before the per-cell B+ trees are descended, so consecutive
        insertions into the same cell hit the buffer pool's cached nodes
        instead of re-parsing the same root-to-leaf path.  The resulting
        index state (entries, current table, memos, size, clock) is
        identical to per-report :meth:`insert`; only tree page layout and
        physical IO may differ.

        Returns the number of reports ingested.
        """
        self._check_open()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        count = 0
        batch: list[ReportLike] = []
        for report in reports:
            batch.append(report)
            if len(batch) >= batch_size:
                count += self._extend_batch(batch)
                batch.clear()
        if batch:
            count += self._extend_batch(batch)
        return count

    def _extend_batch(self, batch: list[ReportLike]) -> int:
        """Validate one chunk, then ingest it run by run.

        A *run* is a maximal sub-sequence whose start timestamps fall in
        the same ``Wmax`` epoch: window drops only fire at epoch
        boundaries, so within a run the clock can be advanced to the run
        maximum up front and reports of distinct objects commute.
        """
        clock = self._clock
        for report in batch:
            if not self.config.space.contains(report.x, report.y):
                raise ValueError(f"location ({report.x}, {report.y}) outside "
                                 f"the spatial domain {self.config.space}")
            if report.t < clock:
                raise ValueError(f"out-of-order start timestamp {report.t} "
                                 f"< current time {clock}")
            clock = report.t
        w_max = self.config.w_max
        start = 0
        for idx in range(1, len(batch) + 1):
            if idx == len(batch) \
                    or batch[idx].t // w_max != batch[start].t // w_max:
                self._ingest_run(batch[start:idx])
                start = idx
        return len(batch)

    def _ingest_run(self, run: list[ReportLike]) -> None:
        self.advance_time(run[-1].t)
        self._ingest_run_reports(run)

    def _ingest_run_reports(self, run: list[ReportLike]) -> None:
        """Ingest one epoch run, the clock already advanced past it."""
        self._unsaved = True
        # Objects reporting more than once in the run must keep their
        # per-object time order (each report finalises the previous one);
        # reports of distinct objects commute, so the rest are grouped by
        # spatial cell for node-cache locality.
        repeats: dict[int, int] = {}
        for report in run:
            repeats[report.oid] = repeats.get(report.oid, 0) + 1
        cell_of = self.grid.cell_of
        singles = []
        for report in run:
            oid, x, y = report.oid, report.x, report.y
            cell = cell_of(x, y)
            if repeats[oid] > 1:
                self._ingest_report(oid, x, y, report.t, cell)
            else:
                singles.append((cell, oid, x, y, report.t))
        singles.sort(key=itemgetter(0))
        for cell, oid, x, y, s in singles:
            self._ingest_report(oid, x, y, s, cell)

    def _ingest_report(self, oid: int, x: int, y: int, s: int,
                       cell: tuple[int, int]) -> None:
        """The current-entry protocol, clock already at or past ``s``;
        ``cell`` is the grid cell of ``(x, y)``."""
        previous = self._current.get(oid)
        if previous is not None:
            if previous[2] == s:
                # Re-report at the same timestamp: a position correction.
                # Replace the current entry instead of closing it with a
                # zero-length duration.
                px, py, ps = previous
                self._physical_delete(Entry(oid, px, py, ps, None))
            else:
                self._finalize_current(oid, previous, end=s)
        self._insert_record(cell, oid, x, y, s, None)
        self._current[oid] = (x, y, s)

    def close_object(self, oid: int, t: int) -> bool:
        """Finalise an object's current entry at end time ``t``.

        Use when an object leaves the system without a further report.
        Returns False if the object has no live current entry.
        """
        self._check_open()
        self.advance_time(t)
        previous = self._current.get(oid)
        if previous is None:
            return False
        self._unsaved = True
        # Finalise before dropping the table entry so a rejected close
        # (t <= the entry's start) leaves the current table consistent.
        self._finalize_current(oid, previous, end=t)
        del self._current[oid]
        return True

    def _finalize_current(self, oid: int, previous: tuple[int, int, int],
                          end: int) -> None:
        """Replace the ND-keyed record of ``oid`` with its real duration:
        same cell, tree, s-partition and Z bits, so the second key is the
        first with its d-partition bits swapped."""
        px, py, ps = previous
        config = self.config
        # The previous record is gone if its window has been dropped.
        if ps // config.w_max < max(self._drop_epoch - 1, 0):
            return
        if end <= ps:
            raise ValueError(f"object {oid} cannot be finalised at {end} "
                             f"<= its current start {ps}")
        duration = end - ps
        cell = self.grid.cell_of(px, py)
        trees = self._trees.get(cell)
        tree = trees[config.tree_of(ps)] if trees else None
        key = self.codec.encode(ps, config.nd, px, py)
        if tree is None \
                or not tree.delete(key, pack_record(oid, px, py, ps, None)):
            raise KeyError(f"entry {Entry(oid, px, py, ps, None)} not found "
                           f"in the index")
        memo = self._memos[cell]
        z_bits = self.codec.z_bits
        memo.remove_prefix(key >> z_bits)
        self._size -= 1
        d_part = config.d_partition(self._d_key(duration))
        key = self.codec.with_d_partition(key, d_part)
        tree.insert(key, pack_record(oid, px, py, ps, duration))
        memo.add_prefix(key >> z_bits, px, py)
        self._size += 1

    def set_retention(self, oid: int, retention: int | None) -> None:
        """Give one object a shorter retention time than the window.

        Section IV-B(d): SWST supports per-entry retention times below the
        physical window size by extending only the refinement step —
        entries of the object whose start has left its personal retention
        horizon are filtered out of query results (and are eventually
        removed by the normal window drop).  ``None`` restores the default.
        """
        self._check_open()
        if retention is None:
            if self._retentions.pop(oid, None) is not None:
                self._unsaved = True
            return
        if not 1 <= retention <= self.config.window:
            raise ValueError(f"retention must be in [1, W={self.config.window}], "
                             f"got {retention}")
        if self._retentions.get(oid) != retention:
            self._unsaved = True
            self._retentions[oid] = retention

    def retention_of(self, oid: int) -> int:
        """The object's retention time (defaults to the window size)."""
        return self._retentions.get(oid, self.config.window)

    def _passes_retention(self, entry: Entry) -> bool:
        retention = self._retentions.get(entry.oid)
        if retention is None:
            return True
        horizon = max((self._clock // self.config.slide) * self.config.slide
                      - retention, 0)
        return entry.s >= horizon

    def delete(self, oid: int, x: int, y: int, s: int,
               d: int | None = None) -> bool:
        """Delete one specific entry (any valid entry may be deleted —
        SWST has no partial-persistency restriction).

        Returns True if the entry existed.
        """
        self._check_open()
        entry = Entry(oid, x, y, s, d)
        if not self._physical_delete(entry, missing_ok=True):
            return False
        self._unsaved = True
        if d is None and self._current.get(oid) == (x, y, s):
            del self._current[oid]
        return True

    def _cell_state(self, cx: int, cy: int) -> tuple[list[BPlusTree | None],
                                                     CellMemo]:
        key = (cx, cy)
        trees = self._trees.get(key)
        if trees is None:
            trees = [None, None]
            self._trees[key] = trees
            self._memos[key] = CellMemo(self.codec.d_bits)
        return trees, self._memos[key]

    def _d_key(self, d: int | None) -> int:
        """Duration value used in key computation.

        Current entries and entries whose duration exceeds ``Dmax`` are
        keyed with the sentinel ``ND`` and thus land in the top
        d-partition; the true duration stays in the record so refinement
        remains exact.
        """
        if d is None or d > self.config.d_max:
            return self.config.nd
        return d

    def _physical_insert(self, entry: Entry) -> None:
        self._insert_record(self.grid.cell_of(entry.x, entry.y), entry.oid,
                            entry.x, entry.y, entry.s, entry.d)

    def _insert_record(self, cell: tuple[int, int], oid: int, x: int, y: int,
                       s: int, d: int | None) -> None:
        """Store one record in ``cell``, the grid cell of ``(x, y)``."""
        trees, memo = self._cell_state(*cell)
        tree_idx = self.config.tree_of(s)
        tree = trees[tree_idx]
        if tree is None:
            tree = BPlusTree(self.pool, RECORD_SIZE)
            trees[tree_idx] = tree
        key = self.codec.encode(s, self._d_key(d), x, y)
        tree.insert(key, pack_record(oid, x, y, s, d))
        memo.add_prefix(key >> self.codec.z_bits, x, y)
        self._size += 1

    def _physical_delete(self, entry: Entry, missing_ok: bool = False) -> bool:
        cx, cy = self.grid.cell_of(entry.x, entry.y)
        trees = self._trees.get((cx, cy))
        tree_idx = self.config.tree_of(entry.s)
        tree = trees[tree_idx] if trees else None
        d_key = self._d_key(entry.d)
        key = self.codec.encode(entry.s, d_key, entry.x, entry.y)
        if tree is None or not tree.delete(key, entry.pack()):
            if missing_ok:
                return False
            raise KeyError(f"entry {entry} not found in the index")
        self._memos[(cx, cy)].remove_prefix(key >> self.codec.z_bits)
        self._size -= 1
        return True

    # -- sliding window maintenance (paper Section IV-C) --------------------------

    def advance_time(self, now: int) -> None:
        """Move the stream clock forward, dropping fully expired windows.

        Whenever the clock crosses ``k · Wmax``, the B+ tree that held the
        window ``[(k-2)·Wmax, (k-1)·Wmax)`` is dropped in every spatial
        cell and the matching memo partitions are reset.
        """
        self._check_open()
        if now < self._clock:
            raise ValueError(f"clock cannot move backwards "
                             f"({now} < {self._clock})")
        if now != self._clock:
            self._unsaved = True
            # The queriable period changed: every cached query plan is
            # stale.  (Each entry is additionally clock-fenced, so even a
            # missed invalidation could never serve a pre-slide plan.)
            self._plans.invalidate()
        self._clock = now
        boundary = now // self.config.w_max
        while self._drop_epoch < boundary:
            self._drop_epoch += 1
            if self._drop_epoch >= 2:
                self._drop_window(self._drop_epoch - 2)

    def _drop_window(self, window_index: int) -> int:
        """Drop every page of the expired window; returns pages freed."""
        tree_idx = window_index % 2
        sp = self.config.sp
        m_lo, m_hi = (0, sp) if tree_idx == 0 else (sp, 2 * sp)
        freed = 0
        for key, trees in self._trees.items():
            tree = trees[tree_idx]
            if tree is None:
                continue
            memo = self._memos[key]
            self._size -= memo.total_in_partitions(m_lo, m_hi)
            freed += tree.drop()
            memo.reset_partitions(m_lo, m_hi)
        stale = [oid for oid, (_, _, s) in self._current.items()
                 if s // self.config.w_max == window_index]
        for oid in stale:
            del self._current[oid]
        return freed

    # -- queries (paper Section IV-B) -------------------------------------------

    def query_timeslice(self, area: Rect, t: int,
                        window: int | None = None) -> QueryResult:
        """All entries within ``area`` that are valid at timestamp ``t``."""
        return self.query_interval(area, t, t, window)

    def query_interval(self, area: Rect, t_lo: int, t_hi: int,
                       window: int | None = None) -> QueryResult:
        """All entries within ``area`` valid during any part of [t_lo, t_hi].

        Args:
            area: closed query rectangle.
            t_lo, t_hi: closed query time interval (must be within the
                queriable period for non-empty results).
            window: logical sliding window ``W' <= W`` restricting the
                result to a shorter history than the physical window.
        """
        self._check_open()
        if t_hi < t_lo:
            raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
        stats = QueryStats()
        result = QueryResult(stats=stats)
        start = self.pool.stats.snapshot()
        # Step (a): static temporal classification, shared by every cell
        # (served from the plan cache when this temporal signature was
        # classified before at the current clock).
        entry = self._plan_entry(t_lo, t_hi, window, stats)
        if entry is not None:
            for cell in self.grid.overlapping_cells(area):
                self._search_cell(cell, entry.plan, area, stats,
                                  result.entries, entry)
        stats.node_accesses = self.pool.stats.diff(start).node_accesses
        return result

    def query_interval_many(self, areas: Sequence[Rect], t_lo: int,
                            t_hi: int,
                            window: int | None = None) -> MultiQueryResult:
        """Evaluate many rectangles against one time interval in a batch.

        Equivalent to one :meth:`query_interval` per rectangle — the
        per-rectangle entries and refinement statistics are identical —
        but the whole batch shares a single query plan, and rectangles
        overlapping the *same* spatial cell share one level-wise B+ tree
        descent over the union of their key ranges (each tree node is
        read once for the batch instead of once per rectangle).  Node
        accesses therefore cannot be attributed to single rectangles and
        are reported only on the batch-level
        :attr:`MultiQueryResult.stats`.

        Args:
            areas: the query rectangles, any overlap structure.
            t_lo, t_hi: closed query time interval shared by the batch.
            window: optional logical window ``W' <= W``.
        """
        self._check_open()
        if t_hi < t_lo:
            raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
        areas = list(areas)
        batch = MultiQueryResult(results=[QueryResult() for _ in areas])
        start = self.pool.stats.snapshot()
        entry = self._plan_entry(t_lo, t_hi, window, batch.stats)
        if entry is not None and areas:
            self._evaluate_many(areas, entry.plan, entry, batch.results)
        for result in batch.results:
            batch.stats.merge(result.stats)
        batch.stats.node_accesses = self.pool.stats.diff(start).node_accesses
        return batch

    def count_interval(self, area: Rect, t_lo: int, t_hi: int,
                       window: int | None = None) -> tuple[int, QueryStats]:
        """Number of qualifying entries (the usage-statistics query of the
        paper's introduction), without materialising them.

        Runs the same classify → memo-prune → multi-range-search pipeline
        as :meth:`query_interval` but refines with a counting sink: no
        :class:`Entry` list is accumulated, and candidates whose temporal
        and spatial cells overlap the query fully are counted without even
        unpacking their payload.

        Returns ``(count, stats)``.
        """
        self._check_open()
        if t_hi < t_lo:
            raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
        stats = QueryStats()
        count = 0
        start = self.pool.stats.snapshot()
        entry = self._plan_entry(t_lo, t_hi, window, stats)
        if entry is not None:
            for cell in self.grid.overlapping_cells(area):
                count += self._count_cell(cell, entry.plan, area, stats,
                                          entry)
        stats.node_accesses = self.pool.stats.diff(start).node_accesses
        return count, stats

    def density_grid(self, area: Rect, t: int,
                     window: int | None = None) -> dict[tuple[int, int],
                                                        int]:
        """Distinct objects per spatial grid cell valid at time ``t``.

        The "density of users per region" statistic that motivates the
        paper's Section I.  Returns a mapping from grid cell coordinates
        (only cells overlapping ``area``) to distinct-object counts.
        """
        self._check_open()
        result = self.query_timeslice(area, t, window)
        density: dict[tuple[int, int], set[int]] = {}
        for entry in result:
            cell = self.grid.cell_of(entry.x, entry.y)
            density.setdefault(cell, set()).add(entry.oid)
        counts = {cell: len(oids) for cell, oids in density.items()}
        for cell_overlap in self.grid.overlapping_cells(area):
            counts.setdefault((cell_overlap.cx, cell_overlap.cy), 0)
        return counts

    def object_history(self, oid: int, t_lo: int | None = None,
                       t_hi: int | None = None,
                       window: int | None = None) -> list[Entry]:
        """The object's trajectory within the (logical) window.

        Returns the object's entries valid during ``[t_lo, t_hi]``
        (defaults: the whole queriable period) ordered by start time.
        SWST has no per-object access path — this evaluates a whole-domain
        query and filters, which is O(window); use it for audits and
        right-to-erasure flows (see ``examples/fleet_telematics.py``),
        not in hot loops.
        """
        self._check_open()
        q_lo, q_hi = self.config.queriable_period(self._clock, window)
        t_lo = q_lo if t_lo is None else t_lo
        t_hi = q_hi if t_hi is None else t_hi
        result = self.query_interval(self.config.space, t_lo, t_hi, window)
        return sorted((e for e in result if e.oid == oid),
                      key=lambda e: e.s)

    def forget_object(self, oid: int) -> int:
        """Delete every queriable entry of one object (right to erasure).

        Removes the object's closed entries, its current entry and any
        retention override.  Entries in already-dropped windows are gone
        anyway.  Returns the number of entries deleted.
        """
        self._check_open()
        deleted = 0
        for entry in self.object_history(oid):
            if self.delete(entry.oid, entry.x, entry.y, entry.s, entry.d):
                deleted += 1
        # Expired-but-physically-present entries are invisible to queries
        # but should not outlive an erasure request either.
        for entry in [e for e in self.scan() if e.oid == oid]:
            if self.delete(entry.oid, entry.x, entry.y, entry.s, entry.d):
                deleted += 1
        if self._retentions.pop(oid, None) is not None:
            self._unsaved = True
        return deleted

    def query_knn(self, x: int, y: int, k: int, t_lo: int,
                  t_hi: int | None = None,
                  window: int | None = None) -> QueryResult:
        """The k entries valid during ``[t_lo, t_hi]`` nearest to (x, y).

        The paper's Section VI names KNN over the sliding window as the
        primary future-work extension; this implements it with an
        expanding-ring search over the spatial grid: cells are probed ring
        by ring around the query point, and the search stops as soon as
        the nearest possible point of the next ring is farther than the
        current k-th best candidate.

        Args:
            x, y: query point (must lie in the spatial domain).
            k: number of neighbours.
            t_lo, t_hi: query time interval; omit ``t_hi`` for a timeslice.
            window: optional logical window ``W' <= W``.

        Returns:
            A result whose entries are ordered by ascending Euclidean
            distance (ties by object id and start time).
        """
        self._check_open()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not self.config.space.contains(x, y):
            raise ValueError(f"query point ({x}, {y}) outside the domain")
        if t_hi is None:
            t_hi = t_lo
        elif t_hi < t_lo:
            raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
        stats = QueryStats()
        result = QueryResult(stats=stats)
        start = self.pool.stats.snapshot()
        plan_entry = self._plan_entry(t_lo, t_hi, window, stats)
        if plan_entry is not None:
            candidates = self._knn_ring_search(x, y, k, plan_entry, stats)
            result.entries.extend(entry for _, entry in candidates)
        stats.node_accesses = self.pool.stats.diff(start).node_accesses
        return result

    def _knn_ring_search(self, x: int, y: int, k: int,
                         plan_entry: PlanEntry, stats: QueryStats
                         ) -> list[tuple[tuple[int, int, int], Entry]]:
        """Expanding-ring search keeping only the k best candidates.

        The k nearest seen so far live in a bounded max-heap (heapq is a
        min-heap, so keys are stored component-negated); each new
        candidate either replaces the current worst in O(log k) or is
        dropped in O(1), instead of re-sorting the full candidate list
        after every ring.  Returns at most k ``(sort_key, entry)`` pairs
        ordered by ascending ``(dist², oid, s)``.
        """
        import heapq
        import itertools

        from .grid import CellOverlap as _CellOverlap

        def rect_dist2(bounds: Rect) -> int:
            dx = max(bounds.x_lo - x, 0, x - bounds.x_hi)
            dy = max(bounds.y_lo - y, 0, y - bounds.y_hi)
            return dx * dx + dy * dy

        cx0, cy0 = self.grid.cell_of(x, y)
        # Max-heap of the k best: items are ((-d2, -oid, -s), seq, entry);
        # the monotone sequence number keeps heap comparisons away from
        # Entry objects when two candidates share the full sort key.
        heap: list[tuple[tuple[int, int, int], int, Entry]] = []
        seq = itertools.count()
        max_ring = max(self.grid.xp, self.grid.yp)
        for ring in range(max_ring + 1):
            cells = [
                (cx, cy)
                for cx in range(max(cx0 - ring, 0),
                                min(cx0 + ring, self.grid.xp - 1) + 1)
                for cy in range(max(cy0 - ring, 0),
                                min(cy0 + ring, self.grid.yp - 1) + 1)
                if max(abs(cx - cx0), abs(cy - cy0)) == ring
            ]
            if not cells:
                break
            ring_min = min(rect_dist2(self.grid.cell_bounds(cx, cy))
                           for cx, cy in cells)
            if len(heap) >= k and ring_min > -heap[0][0][0]:
                break
            for cx, cy in cells:
                bounds = self.grid.cell_bounds(cx, cy)
                cell = _CellOverlap(cx=cx, cy=cy, full=True, clipped=bounds)
                found: list[Entry] = []
                self._search_cell(cell, plan_entry.plan, bounds, stats,
                                  found, plan_entry)
                for entry in found:
                    dist2 = ((entry.x - x) ** 2 + (entry.y - y) ** 2)
                    neg_key = (-dist2, -entry.oid, -entry.s)
                    if len(heap) < k:
                        heapq.heappush(heap, (neg_key, next(seq), entry))
                    elif neg_key > heap[0][0]:
                        heapq.heapreplace(heap, (neg_key, next(seq), entry))
        ordered = sorted(heap, key=lambda item: item[0], reverse=True)
        return [((-n0, -n1, -n2), entry)
                for (n0, n1, n2), _, entry in ordered]

    def _plan_entry(self, t_lo: int, t_hi: int, window: int | None,
                    stats: QueryStats) -> PlanEntry | None:
        """Resolve the query plan for one temporal signature.

        Serves a cached plan when one was compiled for the same
        ``(t_lo, t_hi, window)`` at the current clock (counted in
        ``stats.plan_cache_hits``); otherwise classifies the interval,
        compiles and caches a fresh plan.  Returns ``None`` when
        no s-partition column qualifies — the query result is empty
        without touching any cell.
        """
        entry = self._plans.lookup(t_lo, t_hi, window, self._clock)
        if entry is not None:
            stats.plan_cache_hits += 1
            return entry
        columns = classify_interval(self.config, self._clock, t_lo, t_hi,
                                    window)
        if not columns:
            return None
        plan = build_query_plan(self.config, self._clock, columns, t_lo,
                                t_hi, window)
        return self._plans.store(plan, t_lo, t_hi, window)

    def _query_area_planned(self, area: Rect,
                            plan: QueryPlan) -> QueryResult:
        """Evaluate a pre-classified interval query over this index's cells.

        The sharded engine's fan-out path: temporal classification and
        the query plan are pure functions of (config, clock, interval),
        so the engine computes them once and every shard runs only the
        per-cell search.  The plan is immutable and read-only here (lint
        rule R007), making concurrent calls on *distinct* shards — and
        retried calls sharing one plan object — safe.
        """
        stats = QueryStats()
        result = QueryResult(stats=stats)
        start = self.pool.stats.snapshot()
        for cell in self.grid.overlapping_cells(area):
            self._search_cell(cell, plan, area, stats, result.entries)
        stats.node_accesses = self.pool.stats.diff(start).node_accesses
        return result

    def _query_area_planned_many(self, areas: Sequence[Rect],
                                 plan: QueryPlan) -> MultiQueryResult:
        """Batched twin of :meth:`_query_area_planned` (engine fan-out)."""
        batch = MultiQueryResult(results=[QueryResult() for _ in areas])
        start = self.pool.stats.snapshot()
        self._evaluate_many(list(areas), plan, None, batch.results)
        for result in batch.results:
            batch.stats.merge(result.stats)
        batch.stats.node_accesses = self.pool.stats.diff(start).node_accesses
        return batch

    def _count_area_planned(self, area: Rect,
                            plan: QueryPlan) -> tuple[int, QueryStats]:
        """Counting twin of :meth:`_query_area_planned`."""
        stats = QueryStats()
        count = 0
        start = self.pool.stats.snapshot()
        for cell in self.grid.overlapping_cells(area):
            count += self._count_cell(cell, plan, area, stats)
        stats.node_accesses = self.pool.stats.diff(start).node_accesses
        return count, stats

    def _evaluate_many(self, areas: list[Rect], plan: QueryPlan,
                       plan_entry: PlanEntry | None,
                       results: list[QueryResult]) -> None:
        """Evaluate one plan over many rectangles, sharing descents.

        Rectangles are grouped by overlapping spatial cell; a cell hit
        by several rectangles is searched once per tree over the union
        of their key ranges (:meth:`_search_cell_multi`).  Per-rectangle
        entries and refinement statistics match a rectangle-at-a-time
        evaluation exactly.
        """
        by_cell: dict[tuple[int, int], list[tuple[int, CellOverlap]]] = {}
        for idx, area in enumerate(areas):
            for cell in self.grid.overlapping_cells(area):
                by_cell.setdefault((cell.cx, cell.cy), []).append((idx,
                                                                   cell))
        # Ascending cell order: overlapping_cells() walks each rect's
        # cells row-major, so sorted iteration keeps every rectangle's
        # entry order identical to its scalar evaluation.
        for _, members in sorted(by_cell.items()):
            if len(members) == 1:
                idx, cell = members[0]
                result = results[idx]
                self._search_cell(cell, plan, areas[idx], result.stats,
                                  result.entries, plan_entry)
            else:
                self._search_cell_multi(members, plan, areas, results,
                                        plan_entry)

    def _search_cell(self, cell: CellOverlap, plan: QueryPlan,
                     area: Rect, stats: QueryStats, out: list[Entry],
                     plan_entry: PlanEntry | None = None) -> None:
        """Steps (b)-(d) of the query pipeline for one spatial cell."""
        trees = self._trees.get((cell.cx, cell.cy))
        if trees is None:
            return
        memo = self._memos[(cell.cx, cell.cy)]
        stats.spatial_cells += 1
        for tree_idx in (0, 1):
            tree = trees[tree_idx]
            columns = plan.by_tree[tree_idx]
            if tree is None or not columns:
                continue
            ranges = self._ranges_for(plan_entry, columns, memo, cell.cx,
                                      cell.cy, tree_idx, cell.clipped,
                                      stats)
            if not ranges:
                continue
            stats.key_ranges += len(ranges)
            hits = multi_range_search(tree, ranges)
            self._refine(hits, plan, cell.full, area, stats, out)

    def _search_cell_multi(self, members: list[tuple[int, CellOverlap]],
                           plan: QueryPlan, areas: list[Rect],
                           results: list[QueryResult],
                           plan_entry: PlanEntry | None) -> None:
        """Search one spatial cell for several rectangles at once.

        One level-wise descent per tree covers the union of every
        member rectangle's key ranges; each rectangle's own candidates
        are then recovered by bisecting the key-ordered hit list with
        its own (sorted, disjoint) ranges, so per-rectangle refinement
        statistics are identical to a scalar evaluation.
        """
        cx, cy = members[0][1].cx, members[0][1].cy
        trees = self._trees.get((cx, cy))
        if trees is None:
            return
        memo = self._memos[(cx, cy)]
        for idx, _ in members:
            results[idx].stats.spatial_cells += 1
        for tree_idx in (0, 1):
            tree = trees[tree_idx]
            columns = plan.by_tree[tree_idx]
            if tree is None or not columns:
                continue
            active: list[tuple[int, CellOverlap,
                               tuple[tuple[int, int], ...]]] = []
            for idx, cell in members:
                stats = results[idx].stats
                ranges = self._ranges_for(plan_entry, columns, memo, cx, cy,
                                          tree_idx, cell.clipped, stats)
                if ranges:
                    stats.key_ranges += len(ranges)
                    active.append((idx, cell, ranges))
            if not active:
                continue
            hits = multi_range_search(
                tree, [r for _, _, ranges in active for r in ranges])
            keys = [key for key, _ in hits]
            for idx, cell, ranges in active:
                own = hits_in_ranges(hits, keys, ranges)
                self._refine(own, plan, cell.full, areas[idx],
                             results[idx].stats, results[idx].entries)

    def _ranges_for(self, plan_entry: PlanEntry | None,
                    columns: tuple[ColumnOverlap, ...], memo: CellMemo,
                    cx: int, cy: int, tree_idx: int, clipped: Rect,
                    stats: QueryStats) -> tuple[tuple[int, int], ...]:
        """Memo-pruned key ranges of one (cell, tree), cached per plan.

        A cache slot is only replayed while the memo generation it was
        derived at is current; the replay restores the same
        ``columns_examined`` accounting the pruning sweep would have
        produced, so statistics are identical with and without the
        cache.
        """
        generation = memo.generation
        if plan_entry is not None:
            cached = plan_entry.cell_ranges(cx, cy, tree_idx, clipped,
                                            generation)
            if cached is not None:
                stats.columns_examined += cached[2]
                return cached[1]
        ranges, examined = self._build_key_ranges(columns, memo, clipped)
        stats.columns_examined += examined
        if plan_entry is not None:
            plan_entry.store_cell_ranges(cx, cy, tree_idx, clipped,
                                         generation, ranges, examined)
        return ranges

    def _build_key_ranges(self, columns: tuple[ColumnOverlap, ...],
                          memo: CellMemo, clipped: Rect
                          ) -> tuple[tuple[tuple[int, int], ...], int]:
        """Step (b): memo-pruned key ranges, one per non-empty column.

        Returns ``(ranges, columns_examined)``; the caller owns the
        statistics accounting so cached replays stay byte-identical.
        Every column counts as examined; the memo's sweep
        (:meth:`CellMemo.spans`) visits only its non-empty temporal cells.
        """
        if self.config.use_memo:
            spans = memo.spans(columns, clipped)
        else:
            # Fig. 11 ablation: search the whole overlapping band.
            d_top = self.config.dp - 1
            spans = [(column.s_part, column.d_first, d_top)
                     for column in columns]
        z_lo, z_hi = self.codec.rect_z(clipped)
        column_range_z = self.codec.column_range_z
        return tuple([column_range_z(s_part, n_min, n_max, z_lo, z_hi)
                      for s_part, n_min, n_max in spans]), len(columns)

    def _refine(self, hits: list[tuple[int, bytes]], plan: QueryPlan,
                spatial_full: bool, area: Rect, stats: QueryStats,
                out: list[Entry]) -> None:
        """Step (d): drop false positives; skip checks for full overlaps."""
        if not hits:
            return
        column_of = plan.column_of
        q_lo, s_hi_eff, t_lo = plan.q_lo, plan.s_hi_eff, plan.t_lo
        check_retention = bool(self._retentions)
        unpack = Entry.unpack
        splits = self.codec.split_many([key for key, _ in hits])
        for (_, payload), (s_part, d_part) in zip(hits, splits,
                                                  strict=True):
            stats.candidates += 1
            column = column_of.get(s_part)
            if column is None:
                # Physically present entry of an s-partition with no
                # qualifying starts (expired band of a shared cycle).
                stats.refined_out += 1
                continue
            entry = unpack(payload)
            if check_retention and not self._passes_retention(entry):
                stats.refined_out += 1
                continue
            temporal_full = d_part >= column.d_full
            if temporal_full and spatial_full:
                stats.full_hits += 1
                out.append(entry)
                continue
            if not temporal_full and \
                    not (q_lo <= entry.s <= s_hi_eff and entry.end > t_lo):
                stats.refined_out += 1
                continue
            if not spatial_full and not area.contains(entry.x, entry.y):
                stats.refined_out += 1
                continue
            out.append(entry)

    def _count_cell(self, cell: CellOverlap, plan: QueryPlan, area: Rect,
                    stats: QueryStats,
                    plan_entry: PlanEntry | None = None) -> int:
        """Counting twin of :meth:`_search_cell` — no entries materialise."""
        trees = self._trees.get((cell.cx, cell.cy))
        if trees is None:
            return 0
        memo = self._memos[(cell.cx, cell.cy)]
        stats.spatial_cells += 1
        count = 0
        for tree_idx in (0, 1):
            tree = trees[tree_idx]
            columns = plan.by_tree[tree_idx]
            if tree is None or not columns:
                continue
            ranges = self._ranges_for(plan_entry, columns, memo, cell.cx,
                                      cell.cy, tree_idx, cell.clipped,
                                      stats)
            if not ranges:
                continue
            stats.key_ranges += len(ranges)
            hits = multi_range_search(tree, ranges)
            count += self._refine_count(hits, plan, cell.full, area, stats)
        return count

    def _refine_count(self, hits: list[tuple[int, bytes]], plan: QueryPlan,
                      spatial_full: bool, area: Rect,
                      stats: QueryStats) -> int:
        """Refinement that counts instead of accumulating entries.

        Mirrors :meth:`_refine` predicate for predicate, but never builds
        an entry list, and full temporal+spatial hits of an index without
        retention overrides are counted from the key alone — the record
        payload is not even unpacked.
        """
        if not hits:
            return 0
        column_of = plan.column_of
        q_lo, s_hi_eff, t_lo = plan.q_lo, plan.s_hi_eff, plan.t_lo
        check_retention = bool(self._retentions)
        unpack = Entry.unpack
        splits = self.codec.split_many([key for key, _ in hits])
        count = 0
        for (_, payload), (s_part, d_part) in zip(hits, splits,
                                                  strict=True):
            stats.candidates += 1
            column = column_of.get(s_part)
            if column is None:
                stats.refined_out += 1
                continue
            temporal_full = d_part >= column.d_full
            if temporal_full and spatial_full and not check_retention:
                stats.full_hits += 1
                count += 1
                continue
            entry = unpack(payload)
            if check_retention and not self._passes_retention(entry):
                stats.refined_out += 1
                continue
            if temporal_full and spatial_full:
                stats.full_hits += 1
                count += 1
                continue
            if not temporal_full and \
                    not (q_lo <= entry.s <= s_hi_eff and entry.end > t_lo):
                stats.refined_out += 1
                continue
            if not spatial_full and not area.contains(entry.x, entry.y):
                stats.refined_out += 1
                continue
            count += 1
        return count

    # -- introspection -------------------------------------------------------------

    def scan(self) -> Iterator[Entry]:
        """Yield every physically stored entry (diagnostics/tests only)."""
        self._check_open()
        for trees in self._trees.values():
            for tree in trees:
                if tree is None:
                    continue
                for _, payload in tree.items():
                    yield Entry.unpack(payload)

    def node_count(self) -> int:
        """Total B+ tree pages across every spatial cell."""
        return sum(tree.node_count()
                   for trees in self._trees.values()
                   for tree in trees if tree is not None)

    def check_integrity(self) -> None:
        """Validate every cross-structure invariant; raises on violation.

        Checks, for every spatial cell: B+ tree structural invariants;
        that each stored entry lives in the correct cell, tree and key;
        that the memo's per-temporal-cell counts match the stored entries
        exactly, every MBR covers its entries, and every column bitmap
        marks exactly the column's non-empty d-partitions; and that the
        current-entry table points at live ND records.  Intended for
        tests and post-crash verification — cost is a full scan.
        """
        self._check_open()
        total = 0
        current_seen: set[int] = set()
        for (cx, cy), trees in self._trees.items():
            memo = self._memos[(cx, cy)]
            counts: dict[tuple[int, int], int] = {}
            for tree_idx, tree in enumerate(trees):
                if tree is None:
                    continue
                tree.check_invariants()
                for key, payload in tree.items():
                    entry = Entry.unpack(payload)
                    total += 1
                    if self.grid.cell_of(entry.x, entry.y) != (cx, cy):
                        raise AssertionError(
                            f"{entry} stored in wrong spatial cell "
                            f"({cx}, {cy})")
                    if self.config.tree_of(entry.s) != tree_idx:
                        raise AssertionError(
                            f"{entry} stored in wrong tree {tree_idx}")
                    d_key = self._d_key(entry.d)
                    expected = self.codec.encode(entry.s, d_key, entry.x,
                                                 entry.y)
                    if key != expected:
                        raise AssertionError(
                            f"{entry} stored under key {key}, "
                            f"expected {expected}")
                    cell_key = (self.config.s_partition(entry.s),
                                self.config.d_partition(d_key))
                    counts[cell_key] = counts.get(cell_key, 0) + 1
                    mbr = memo.mbr(*cell_key)
                    if mbr is None or not mbr.contains(entry.x, entry.y):
                        raise AssertionError(
                            f"memo MBR {mbr} does not cover {entry}")
                    if entry.d is None:
                        if self._current.get(entry.oid) != (entry.x,
                                                            entry.y,
                                                            entry.s):
                            raise AssertionError(
                                f"stray current entry {entry} not in the "
                                f"current-object table")
                        current_seen.add(entry.oid)
            memo_counts = {cell_key: count
                           for cell_key, (count, _) in memo.cells()}
            for cell_key, count in counts.items():
                if memo_counts.get(cell_key, 0) != count:
                    raise AssertionError(
                        f"memo count {memo_counts.get(cell_key, 0)} != "
                        f"stored {count} in cell ({cx}, {cy}) temporal "
                        f"{cell_key}")
            for cell_key in memo_counts:
                if cell_key not in counts:
                    raise AssertionError(
                        f"memo cell {cell_key} non-empty but no entries "
                        f"stored in spatial cell ({cx}, {cy})")
            expected_bits: dict[int, int] = {}
            for s_part, d_part in memo_counts:
                expected_bits[s_part] = \
                    expected_bits.get(s_part, 0) | 1 << d_part
            bitmaps = dict(memo.columns())
            for s_part in bitmaps.keys() | expected_bits.keys():
                have = bitmaps.get(s_part)
                want = expected_bits.get(s_part)
                if have != want:
                    have, want = have or 0, want or 0
                    raise AssertionError(
                        f"memo column {s_part} of spatial cell ({cx}, {cy}) "
                        f"has stale d-partition bits {have & ~want:#x} and "
                        f"misses {want & ~have:#x}")
        if total != self._size:
            raise AssertionError(f"size counter {self._size} != stored "
                                 f"entries {total}")
        if current_seen != set(self._current):
            raise AssertionError(
                f"current table {sorted(self._current)} disagrees with "
                f"stored ND records {sorted(current_seen)}")

    # -- persistence ----------------------------------------------------------------

    def save(self) -> None:
        """Persist the tree catalog and stream state into the page file.

        Catalog layout: header, cell roots, current-entry table, then
        the per-object retention overrides.
        """
        self._check_open()
        cells = sorted(self._trees.items())
        parts = [_CATALOG_HEADER.pack(self._clock, self._drop_epoch,
                                      self._size, len(cells))]
        for (cx, cy), trees in cells:
            roots = [0 if tree is None else tree.root_page + 1
                     for tree in trees]
            parts.append(_CATALOG_CELL.pack(cx, cy, roots[0], roots[1]))
        parts.append(_CATALOG_COUNT.pack(len(self._current)))
        for oid, (x, y, s) in sorted(self._current.items()):
            parts.append(_CATALOG_CURRENT.pack(oid, x, y, s))
        parts.append(_CATALOG_COUNT.pack(len(self._retentions)))
        for oid, retention in sorted(self._retentions.items()):
            parts.append(_CATALOG_RETENTION.pack(oid, retention))
        self.pager.store_blob(b"".join(parts))
        self.pool.flush()
        self.pager.sync()
        self._unsaved = False

    @classmethod
    def open(cls, path: str, config: SWSTConfig, *,
             generation: int | None = None) -> "SWSTIndex":
        """Re-open a saved index, validating its on-disk structure.

        The pager opens the committed ``generation`` (default: the newest,
        which for a single file is its last save) with its page map;
        nothing written after that commit is read.  On top of that the
        catalog page chain is walked with a cycle check and every tree
        root must point at a live in-range page.  Structural damage raises
        :class:`~repro.storage.errors.CorruptPageFileError` rather than
        producing an index that answers queries from garbage.

        The isPresent memos are not stored (the paper keeps them in RAM
        too): one leaf-chain pass per tree derives each entry's memo cell
        from its key and reads only ``(x, y)`` from its record
        (:meth:`_rebuild_memos`).
        """
        index = cls.__new__(cls)
        index.config = config
        index.pager = _build_pager(config, path, generation)
        try:
            index.pool = BufferPool(index.pager, config.buffer_capacity)
            index.codec = KeyCodec(config)
            index.grid = SpatialGrid(config.space, config.x_partitions,
                                     config.y_partitions)
            index._trees = {}
            index._memos = {}
            index._current = {}
            index._retentions = {}
            index._plans = PlanCache()
            index._clock = 0
            index._drop_epoch = 0
            index._size = 0
            index._closed = False
            index._durable = path != MEMORY
            index._unsaved = False
            index._load_catalog()
            index._rebuild_memos()
        except BaseException:
            index._closed = True
            try:
                pool = getattr(index, "pool", None)
                if pool is not None:
                    pool._closed = True  # discard, don't flush, on failure
            finally:
                index.pager.close()
            raise
        return index

    def _check_root(self, root: int) -> None:
        """A catalog tree root must name a live, in-range data page."""
        if not self.pager.first_data_page <= root < self.pager.page_count():
            raise CorruptPageFileError(
                f"catalog names tree root page {root}, outside the data "
                f"range [{self.pager.first_data_page}, "
                f"{self.pager.page_count()})")
        if self.pager.page_is_free(root):
            raise CorruptPageFileError(
                f"catalog names tree root page {root}, which is on the "
                f"free list")

    def _load_catalog(self) -> None:
        blob = self.pager.load_blob()
        if blob is None:
            raise NoCatalogError("page file has no saved SWST catalog")
        try:
            offset = _CATALOG_HEADER.size
            clock, drop_epoch, size, n_cells = \
                _CATALOG_HEADER.unpack_from(blob)
            self._clock, self._drop_epoch, self._size = \
                clock, drop_epoch, size
            for _ in range(n_cells):
                cx, cy, root0, root1 = _CATALOG_CELL.unpack_from(blob,
                                                                 offset)
                offset += _CATALOG_CELL.size
                for root in (root0, root1):
                    if root:
                        self._check_root(root - 1)
                trees: list[BPlusTree | None] = [
                    BPlusTree(self.pool, RECORD_SIZE, root0 - 1) if root0
                    else None,
                    BPlusTree(self.pool, RECORD_SIZE, root1 - 1) if root1
                    else None,
                ]
                self._trees[(cx, cy)] = trees
                self._memos[(cx, cy)] = CellMemo(self.codec.d_bits)
            (n_current,) = _CATALOG_COUNT.unpack_from(blob, offset)
            offset += _CATALOG_COUNT.size
            for _ in range(n_current):
                oid, x, y, s = _CATALOG_CURRENT.unpack_from(blob, offset)
                offset += _CATALOG_CURRENT.size
                self._current[oid] = (x, y, s)
            (n_retentions,) = _CATALOG_COUNT.unpack_from(blob, offset)
            offset += _CATALOG_COUNT.size
            for _ in range(n_retentions):
                oid, retention = _CATALOG_RETENTION.unpack_from(blob, offset)
                offset += _CATALOG_RETENTION.size
                self._retentions[oid] = retention
        except struct.error as exc:
            raise CorruptPageFileError(
                f"saved SWST catalog is truncated: {exc}") from exc
        if offset != len(blob):
            raise CorruptPageFileError(
                f"saved SWST catalog has {len(blob) - offset} bytes after "
                f"its last table")

    def _rebuild_memos(self) -> None:
        """Derive every memo in one leaf-chain pass per tree.

        An entry's memo cell is the temporal prefix of its own key
        (``key >> z_bits``, the ``(s_part, d_part)`` bits), so only
        ``(x, y)`` is read from the record; :meth:`check_integrity` is the
        oracle that key and record agree.
        """
        z_bits = self.codec.z_bits
        for cell, trees in self._trees.items():
            add = self._memos[cell].add_prefix
            for tree in trees:
                if tree is None:
                    continue
                for key, payload in tree.items():
                    add(key >> z_bits, *record_xy(payload))

    # -- lifecycle ----------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("index is closed")

    def close(self) -> None:
        """Release the index; a close is a save or nothing.

        A file-backed index that changed since it was opened or last
        saved (:attr:`unsaved`) saves first, so a close keeps what an
        :meth:`abort` drops.  If that save fails, the index is released
        as by :meth:`abort` (the file keeps its last save) and the error
        re-raised.  An in-memory index keeps nothing, so one with
        changes is simply discarded.
        """
        if self._closed:
            return
        if self._unsaved:
            if not self._durable:
                self.abort()
                return
            try:
                self.save()
            except BaseException:
                self.abort()
                raise
        self._closed = True
        try:
            self.pool.close()
        finally:
            self.pager.close()

    def abort(self) -> None:
        """Release the index without flushing or committing anything.

        Crash-equivalent shutdown: dirty buffered pages are dropped and
        the page file keeps its last commit (nothing written since is
        named by it).  Warm workers always stop this way — between
        :meth:`save` calls their durable record is the shard's
        write-ahead log, so a graceful stop and a SIGKILL must leave the
        file in the same state for replay to be correct.
        """
        if not self._closed:
            self._closed = True
            try:
                self.pool.discard()
            finally:
                self.pager.close()

    def __enter__(self) -> "SWSTIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
