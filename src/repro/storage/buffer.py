"""LRU buffer pool with IO accounting.

Every index structure in this repository (SWST's B+ trees, the R-trees
backing MV3R and the 3-D baseline) does all its page IO through a
:class:`BufferPool`.  The pool is where the paper's *node accesses* metric is
measured: each fetch and write increments the logical counters regardless of
whether the page was cached.

The pool is one LRU of page slots, each holding an object, its encoder and a
dirty bit.  B+ trees store decoded nodes (:meth:`fetch_node` /
:meth:`write_node`): a hit returns the parsed object, and serialisation of a
dirty node is deferred until eviction or :meth:`flush`.  The R-tree baselines
store page bytes (:meth:`fetch` / :meth:`write`) in the same slots.  Caching
changes only CPU work and *physical* IO, never the logical counters.  See
``docs/internals.md`` ("Buffer pool").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from .errors import PagerClosedError
from .pager import Pager
from .stats import IOStats

DEFAULT_CAPACITY = 256


class _Slot:
    """One cached page: the object, its encoder, a dirty bit.

    ``encode`` is ``None`` for page bytes (and for clean nodes, which are
    never written back).
    """

    __slots__ = ("obj", "encode", "dirty")

    def __init__(self, obj: Any, encode: Callable[[Any], bytes] | None,
                 dirty: bool) -> None:
        self.obj = obj
        self.encode = encode
        self.dirty = dirty


class BufferPool:
    """Write-back LRU cache of pages on top of a :class:`Pager`.

    Args:
        pager: the underlying pager.
        capacity: maximum number of cached pages; least-recently-used dirty
            pages are written back on eviction.
        stats: optional shared :class:`IOStats`; a fresh one is created if
            omitted.

    Precondition: one pool serves one page format.  A structure either
    uses the node API (:meth:`fetch_node` / :meth:`write_node`) or the
    byte API (:meth:`fetch` / :meth:`write`) on a pool, never both: a
    slot holds whatever its last writer or decoder put there, and the
    other API would get it back unconverted.
    """

    def __init__(self, pager: Pager, capacity: int = DEFAULT_CAPACITY,
                 stats: IOStats | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.pager = pager
        self.capacity = capacity
        self.stats = stats if stats is not None else IOStats()
        self._slots: OrderedDict[int, _Slot] = OrderedDict()
        self._closed = False

    @property
    def page_size(self) -> int:
        return self.pager.page_size

    def _check_open(self) -> None:
        if self._closed:
            raise PagerClosedError("buffer pool is closed")

    def _write_back(self, page_id: int, slot: _Slot) -> None:
        """Write one dirty slot to the pager (serialising a node)."""
        if slot.encode is None:
            data = slot.obj
        else:
            data = slot.encode(slot.obj)
            self.stats.node_serializations += 1
        self.pager.write(page_id, data)
        self.stats.physical_writes += 1

    def _put(self, page_id: int, slot: _Slot) -> None:
        """Cache a new slot as most recent, evicting past capacity."""
        self._slots[page_id] = slot
        while len(self._slots) > self.capacity:
            victim, old = self._slots.popitem(last=False)
            if old.dirty:
                self._write_back(victim, old)

    def _stage(self, page_id: int, obj: Any,
               encode: Callable[[Any], bytes] | None) -> None:
        """Make ``obj`` the page's newest, dirty contents."""
        slot = self._slots.get(page_id)
        if slot is not None:
            slot.obj = obj
            slot.encode = encode
            slot.dirty = True
            self._slots.move_to_end(page_id)
        else:
            self._put(page_id, _Slot(obj, encode, True))

    # -- public API ----------------------------------------------------------

    def fetch(self, page_id: int) -> bytes:
        """Return the page contents, counting one logical read."""
        self._check_open()
        self.stats.logical_reads += 1
        slot = self._slots.get(page_id)
        if slot is not None:
            self._slots.move_to_end(page_id)
            return slot.obj
        data = self.pager.read(page_id)
        self.stats.physical_reads += 1
        self._put(page_id, _Slot(data, None, False))
        return data

    def write(self, page_id: int, data: bytes) -> None:
        """Stage new page contents, counting one logical write."""
        self._check_open()
        if len(data) != self.page_size:
            raise ValueError(f"page data must be exactly {self.page_size} "
                             f"bytes, got {len(data)}")
        self.stats.logical_writes += 1
        self._stage(page_id, bytes(data), None)

    def fetch_node(self, page_id: int,
                   decode: Callable[[bytes], Any]) -> Any:
        """Return the decoded node of a page, counting one logical read.

        On a hit the cached object is returned without touching the page
        bytes; on a miss the page is read from the pager and parsed with
        ``decode``.  The returned object is shared with the cache: callers
        that mutate it must publish the mutation with :meth:`write_node`
        before the next access.
        """
        self._check_open()
        self.stats.logical_reads += 1
        slot = self._slots.get(page_id)
        if slot is not None:
            self._slots.move_to_end(page_id)
            self.stats.node_cache_hits += 1
            return slot.obj
        data = self.pager.read(page_id)
        self.stats.physical_reads += 1
        node = decode(data)
        self.stats.node_parses += 1
        self._put(page_id, _Slot(node, None, False))
        return node

    def write_node(self, page_id: int, node: Any,
                   encode: Callable[[Any], bytes]) -> None:
        """Stage a decoded node as the page's newest contents.

        Counts one logical write; serialisation via ``encode`` is deferred
        until the node is evicted or flushed.
        """
        self._check_open()
        self.stats.logical_writes += 1
        self._stage(page_id, node, encode)

    def allocate(self) -> int:
        """Allocate a fresh page (not yet cached)."""
        self._check_open()
        self.stats.allocations += 1
        return self.pager.allocate()

    def free(self, page_id: int) -> None:
        """Drop a page from the cache and return it to the free list."""
        self._check_open()
        self._slots.pop(page_id, None)
        self.stats.frees += 1
        self.pager.free(page_id)

    def flush(self) -> None:
        """Write every dirty page back to the pager, in page-id order."""
        self._check_open()
        for page_id in sorted(pid for pid, slot in self._slots.items()
                              if slot.dirty):
            slot = self._slots[page_id]
            slot.dirty = False
            self._write_back(page_id, slot)

    def drop_cache(self) -> None:
        """Flush then empty the cache (for cold-cache measurements)."""
        self.flush()
        self._slots.clear()

    def close(self) -> None:
        if not self._closed:
            try:
                self.flush()
            finally:
                self._closed = True

    def discard(self) -> None:
        """Close without flushing: dirty pages are dropped, not written.

        The crash-equivalent shutdown.  A warm worker closes its shard
        this way on purpose — its write-ahead log, not the page file, is
        the durable record between epoch commits, so flushing here would
        only write pages that no commit names and no open reads.
        """
        self._closed = True
        self._slots.clear()

    def __enter__(self) -> "BufferPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
