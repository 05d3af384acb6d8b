"""3D R-tree historical baseline (Theodoridis et al., paper Section II).

Treats time as a third spatial dimension: every entry is the 3-D box
``(x, y) × [t_start, t_end]``.  Fine for a static history; the paper's
criticism — which the ablation benchmark demonstrates — is that removing
expired entries for a sliding window costs one full delete (with node
condensation and re-insertion) *per entry*, whereas SWST drops a whole
window of entries in O(pages).
"""

from __future__ import annotations

import struct

from ..core.records import Entry, Rect
from ..rtree.geometry import Box
from ..rtree.tree import RTree
from ..storage.buffer import BufferPool
from ..storage.pager import MEMORY, Pager
from ..storage.stats import IOStats

_ALIVE = (1 << 63) - 1  # open-ended time for current entries
_PAYLOAD = struct.Struct("<QQ")  # oid, duration (0 = current)


class R3DIndex:
    """Historical spatio-temporal index over a 3D R-tree."""

    def __init__(self, page_size: int = 8192,
                 buffer_capacity: int = 512, path: str = MEMORY) -> None:
        self.pager = Pager(path, page_size)
        self.pool = BufferPool(self.pager, buffer_capacity)
        self.tree = RTree(self.pool, ndim=3, payload_size=_PAYLOAD.size)
        self._current: dict[int, tuple[int, int, int]] = {}
        self.now = 0
        self._size = 0

    @property
    def stats(self) -> IOStats:
        return self.pool.stats

    @staticmethod
    def _box(x: int, y: int, s: int, d: int | None) -> Box:
        end = _ALIVE if d is None else s + d - 1
        return Box((x, y, s), (x, y, end))

    def insert(self, oid: int, x: int, y: int, s: int,
               d: int | None = None) -> None:
        """Insert a closed or current entry."""
        if s < self.now:
            raise ValueError(f"out-of-order start timestamp {s}")
        self.now = s
        if d is None:
            previous = self._current.get(oid)
            if previous is not None:
                px, py, ps = previous
                if s > ps:
                    self._finalize(oid, px, py, ps, s)
                else:
                    self.tree.delete(self._box(px, py, ps, None),
                                     _PAYLOAD.pack(oid, 0))
                    self._size -= 1
            self._current[oid] = (x, y, s)
        self.tree.insert(self._box(x, y, s, d),
                         _PAYLOAD.pack(oid, 0 if d is None else d))
        self._size += 1

    def report(self, oid: int, x: int, y: int, t: int) -> None:
        self.insert(oid, x, y, t, None)

    def _finalize(self, oid: int, x: int, y: int, s: int, end: int) -> None:
        self.tree.delete(self._box(x, y, s, None), _PAYLOAD.pack(oid, 0))
        self.tree.insert(self._box(x, y, s, end - s),
                         _PAYLOAD.pack(oid, end - s))

    def query_interval(self, area: Rect, t_lo: int,
                       t_hi: int) -> list[Entry]:
        """Entries valid during [t_lo, t_hi] within ``area``."""
        query = Box((area.x_lo, area.y_lo, t_lo),
                    (area.x_hi, area.y_hi, t_hi))
        results: list[Entry] = []
        for box, payload in self.tree.iter_search(query):
            oid, duration = _PAYLOAD.unpack(payload)
            results.append(Entry(oid=oid, x=box.lo[0], y=box.lo[1],
                                 s=box.lo[2],
                                 d=duration if duration else None))
        return results

    def query_timeslice(self, area: Rect, t: int) -> list[Entry]:
        return self.query_interval(area, t, t)

    def expire_before(self, cutoff: int) -> int:
        """Delete every closed entry with start time below ``cutoff``.

        This is the per-entry sliding-window maintenance a 3D R-tree needs;
        the ablation benchmark contrasts its cost with SWST's O(pages)
        drop.  Returns the number of deleted entries.
        """
        probe = Box((0, 0, 0),
                    ((1 << 64) - 1, (1 << 64) - 1, max(cutoff - 1, 0)))
        stale = [(box, bytes(payload))
                 for box, payload in self.tree.iter_search(probe)
                 if box.lo[2] < cutoff]
        for box, payload in stale:
            self.tree.delete(box, payload)
        self._size -= len(stale)
        self._current = {oid: loc for oid, loc in self._current.items()
                         if loc[2] >= cutoff}
        return len(stale)

    def close(self) -> None:
        self.pool.close()
        self.pager.close()
