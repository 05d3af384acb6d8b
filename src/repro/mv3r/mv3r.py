"""MV3R facade: multi-version R-tree + auxiliary 3D R-tree.

Presents the same stream-facing interface as :class:`repro.core.SWSTIndex`
(``report`` / ``insert`` / timeslice / interval queries returning
:class:`Entry` lists), so the benchmark harness can drive both indexes with
identical workloads.

Query routing follows the original system: timeslice and short interval
queries walk the MVR-tree versions; long interval queries (those spanning
more than ``aux_threshold`` of the data's time extent) use the auxiliary
3D R-tree over dead leaves plus a walk of the alive path.

MV3R is **partially persistent**: closed entries can never be updated or
deleted and no page is ever reclaimed, so it cannot implement the sliding
window — the structural limitation the paper's Section IV-A discusses.
"""

from __future__ import annotations

from ..core.records import Entry, Rect
from ..storage.buffer import BufferPool
from ..storage.pager import MEMORY, Pager
from ..storage.stats import IOStats
from .aux3d import LeafDirectory
from .mvrtree import INF, MVRTree, VersionedEntry


class MV3RTree:
    """The paper's baseline historical index.

    Args:
        page_size: disk page size (paper default 8 KiB).
        buffer_capacity: buffer pool size in pages.
        path: page file path or ``":memory:"``.
        use_aux: maintain the auxiliary 3D R-tree over dead leaves.
        aux_threshold: interval queries longer than this many time units
            route through the auxiliary tree (0 = always for true
            intervals).
    """

    def __init__(self, page_size: int = 8192, buffer_capacity: int = 512,
                 path: str = MEMORY, use_aux: bool = True,
                 aux_threshold: int = 0) -> None:
        self.pager = Pager(path, page_size)
        self.pool = BufferPool(self.pager, buffer_capacity)
        self.mvr = MVRTree(self.pool)
        self.aux: LeafDirectory | None = None
        self.aux_threshold = aux_threshold
        if use_aux:
            self.aux = LeafDirectory(self.pool)
            self.mvr.on_leaf_death = self.aux.add_dead_leaf
        self._size = 0

    @property
    def stats(self) -> IOStats:
        return self.pool.stats

    def __len__(self) -> int:
        return self._size

    # -- stream interface ---------------------------------------------------------

    def report(self, oid: int, x: int, y: int, t: int) -> None:
        """Position report: one update (close previous) + one insertion."""
        self.mvr.report(oid, x, y, t)
        self._size += 1

    # -- queries --------------------------------------------------------------------

    def query_timeslice(self, area: Rect, t: int) -> list[Entry]:
        """Entries valid at ``t`` inside ``area`` (single-version walk)."""
        return [self._to_entry(e)
                for e in self.mvr.query_timeslice(area, t)]

    def query_interval(self, area: Rect, t_lo: int, t_hi: int,
                       use_aux: bool | None = None) -> list[Entry]:
        """Entries valid during any part of ``[t_lo, t_hi]`` inside
        ``area``.

        Args:
            use_aux: force (True) or forbid (False) the auxiliary-tree
                path; ``None`` routes automatically by interval length.
        """
        if use_aux is None:
            use_aux = (self.aux is not None
                       and t_hi - t_lo > self.aux_threshold)
        if not use_aux or self.aux is None:
            return [self._to_entry(e)
                    for e in self.mvr.query_interval(area, t_lo, t_hi)]
        return self._query_interval_aux(area, t_lo, t_hi)

    def _query_interval_aux(self, area: Rect, t_lo: int,
                            t_hi: int) -> list[Entry]:
        """Dead leaves via the 3D tree + alive leaves via the alive path."""
        assert self.aux is not None
        seen: set[tuple[int, int]] = set()
        results: list[Entry] = []

        def collect_leaf(page: int) -> None:
            node = self.mvr._read(page)
            for entry in node.entries:
                if (entry.ts <= t_hi and entry.te > t_lo
                        and area.contains(entry.x, entry.y)
                        and (entry.oid, entry.ts) not in seen):
                    seen.add((entry.oid, entry.ts))
                    results.append(self._to_entry(entry))

        for page in self.aux.search(area, t_lo, t_hi):
            collect_leaf(page)
        # Alive path: every still-current leaf, pruned spatially.
        stack = [self.mvr.root_page]
        while stack:
            page = stack.pop()
            node = self.mvr._read(page)
            if node.is_leaf:
                collect_leaf_inline = node  # leaf already read; reuse it
                for entry in collect_leaf_inline.entries:
                    if (entry.ts <= t_hi and entry.te > t_lo
                            and area.contains(entry.x, entry.y)
                            and (entry.oid, entry.ts) not in seen):
                        seen.add((entry.oid, entry.ts))
                        results.append(self._to_entry(entry))
            else:
                for ref in node.entries:
                    if ref.alive and ref.rect.intersects(area):
                        stack.append(ref.child)
        return results

    @staticmethod
    def _to_entry(versioned: VersionedEntry) -> Entry:
        d = None if versioned.te == INF else versioned.te - versioned.ts
        return Entry(oid=versioned.oid, x=versioned.x, y=versioned.y,
                     s=versioned.ts, d=d)

    # -- diagnostics ---------------------------------------------------------------

    def node_count(self) -> int:
        """Pages used by the MVR-tree (never shrinks) plus the aux tree."""
        total = self.mvr.node_count()
        if self.aux is not None:
            total += self.aux.node_count()
        return total

    def close(self) -> None:
        self.pool.close()
        self.pager.close()

