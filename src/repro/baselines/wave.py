"""Wave-index-style baseline: one sub-index per slide step.

Section II discusses the two prior disk-based sliding-window indexes
(Shivakumar & Garcia-Molina's wave indices; Golab et al.'s partitioned
indexes): *"divide a (big) index into smaller sub-indexes so that the
insertion and deletion of entries could be restricted to specific smaller
sub-indexes... but a search may need to be performed on multiple
sub-indexes.  Our index scheme also employs sub-indexes, but with an
optimization to use only two of them."*

This module adapts that per-slide-partition design to the paper's data
model so the claim can be measured: one B+ tree per slide step, keyed by
the Z-curve location only (time discrimination comes entirely from the
partitioning).  Insertions and wholesale expiry are as cheap as SWST's,
but a query interval spanning ``k`` slide steps must search ``k`` separate
trees root-to-leaf — the cost SWST's two-tree modulo design and
multi-range search avoid.
"""

from __future__ import annotations

from ..btree.tree import BPlusTree
from ..core.config import SWSTConfig
from ..core.records import Entry, RECORD_SIZE, Rect
from ..sfc.zcurve import zc_encode
from ..storage.buffer import BufferPool
from ..storage.pager import MEMORY, Pager
from ..storage.stats import IOStats


class WaveIndex:
    """Per-slide-step partitioned sliding-window index.

    Shares :class:`SWSTConfig` for the window/slide/domain parameters
    (its spatial and temporal partition counts are unused).
    """

    def __init__(self, config: SWSTConfig, path: str = MEMORY) -> None:
        self.config = config
        self.pager = Pager(path, config.page_size)
        self.pool = BufferPool(self.pager, config.buffer_capacity)
        self.zc_order = config.zc_order
        # Slot j holds start times in [j*L, (j+1)*L) for the most recent
        # period; slots are recycled (dropped + refilled) as time moves.
        self._slots: dict[int, BPlusTree] = {}
        self._slot_period: dict[int, int] = {}
        self._num_slots = -(-config.w_max // config.slide) + 1
        self._current: dict[int, tuple[int, int, int]] = {}
        self._clock = 0
        self._size = 0

    @property
    def now(self) -> int:
        return self._clock

    @property
    def stats(self) -> IOStats:
        return self.pool.stats

    def __len__(self) -> int:
        return self._size

    # -- internals ------------------------------------------------------------

    def _slot_of(self, s: int) -> tuple[int, int]:
        step = s // self.config.slide
        return step % self._num_slots, step

    def _tree_for_insert(self, s: int) -> BPlusTree:
        slot, period = self._slot_of(s)
        tree = self._slots.get(slot)
        if tree is None:
            tree = BPlusTree(self.pool, RECORD_SIZE)
            self._slots[slot] = tree
            self._slot_period[slot] = period
        elif self._slot_period[slot] != period:
            # The slot's previous slide step is fully expired: recycle.
            self._size -= len(tree)
            tree.drop()
            self._slot_period[slot] = period
        return tree

    def _tree_for_search(self, step: int) -> BPlusTree | None:
        slot = step % self._num_slots
        tree = self._slots.get(slot)
        if tree is None or self._slot_period[slot] != step:
            return None
        return tree

    def _key(self, entry: Entry) -> int:
        return zc_encode(entry.x, entry.y, self.zc_order)

    # -- stream interface -------------------------------------------------------

    def insert(self, oid: int, x: int, y: int, s: int,
               d: int | None = None) -> None:
        """Insert a closed (``d`` given) or current entry."""
        if s < self._clock:
            raise ValueError(f"out-of-order start timestamp {s}")
        self._clock = s
        if d is None:
            previous = self._current.get(oid)
            if previous is not None:
                self._finalize(oid, previous, end=s)
            self._current[oid] = (x, y, s)
        entry = Entry(oid, x, y, s, d)
        self._tree_for_insert(s).insert(self._key(entry), entry.pack())
        self._size += 1

    def report(self, oid: int, x: int, y: int, t: int) -> None:
        self.insert(oid, x, y, t, None)

    def _finalize(self, oid: int, previous: tuple[int, int, int],
                  end: int) -> None:
        px, py, ps = previous
        step = ps // self.config.slide
        tree = self._tree_for_search(step)
        if tree is None:
            return  # the slot was already recycled
        old = Entry(oid, px, py, ps, None)
        if not tree.delete(self._key(old), old.pack()):
            return
        self._size -= 1
        if end > ps:
            closed = Entry(oid, px, py, ps, end - ps)
            tree.insert(self._key(closed), closed.pack())
            self._size += 1
        # end == ps: a same-timestamp correction; the replacement current
        # entry is inserted by the caller.

    # -- queries ---------------------------------------------------------------

    def query_interval(self, area: Rect, t_lo: int, t_hi: int,
                       window: int | None = None) -> list[Entry]:
        """Entries valid during [t_lo, t_hi] inside ``area``.

        Searches every live slide partition whose start-time band can hold
        a qualifying entry — the multi-sub-index cost this baseline
        exists to demonstrate.
        """
        q_lo, q_hi = self.config.queriable_period(self._clock, window)
        s_hi = min(q_hi, t_hi)
        if s_hi < q_lo:
            return []
        clipped = area.intersection(self.config.space)
        if clipped is None:
            return []
        z_lo = zc_encode(clipped.x_lo, clipped.y_lo, self.zc_order)
        z_hi = zc_encode(clipped.x_hi, clipped.y_hi, self.zc_order)
        results: list[Entry] = []
        slide = self.config.slide
        for step in range(q_lo // slide, s_hi // slide + 1):
            tree = self._tree_for_search(step)
            if tree is None:
                continue
            for _, payload in tree.iter_range(z_lo, z_hi):
                entry = Entry.unpack(payload)
                if (q_lo <= entry.s <= s_hi and entry.end > t_lo
                        and area.contains(entry.x, entry.y)):
                    results.append(entry)
        return results

    # -- maintenance ----------------------------------------------------------

    def vacuum(self) -> int:
        """Drop every slot whose slide step has fully expired.

        Recycling normally happens lazily on insert; ``vacuum`` forces it
        (used by the maintenance benchmark).  Returns pages freed.
        """
        q_lo, _ = self.config.queriable_period(self._clock)
        freed = 0
        for slot, tree in self._slots.items():
            step = self._slot_period[slot]
            if (step + 1) * self.config.slide <= q_lo:
                self._size -= len(tree)
                freed += tree.drop()
                self._slot_period[slot] = -1  # mark recycled
        stale = [oid for oid, (_, _, s) in self._current.items()
                 if s < q_lo]
        for oid in stale:
            del self._current[oid]
        return freed

    def close(self) -> None:
        self.pool.close()
        self.pager.close()

