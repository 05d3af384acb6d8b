"""HR-tree baseline (Nascimento & Silva; paper Section II).

The historical R-tree keeps "a separate R-tree for each timestamp",
sharing unchanged branches between consecutive versions.  The paper cites
it as the design that *can* delete efficiently (whole old versions) but
"is not suitable for interval queries and requires very large storage
space" — both properties this implementation exists to demonstrate.

Implementation: a copy-on-write (persistent) R-tree over the shared
pager.  Every position update path-copies the root-to-leaf path, creating
a new version root; page sharing is tracked with in-memory reference
counts so :meth:`drop_versions_before` can reclaim whole expired versions
without touching shared branches.

Only *current positions* are versioned (the classic HR-tree model): an
object sits at its last reported location until its next report.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field

from ..core.records import Rect
from ..storage.buffer import BufferPool
from ..storage.pager import MEMORY, Pager
from ..storage.stats import IOStats

_HEADER = struct.Struct("<BH")
_LEAF_TYPE = 1
_INTERNAL_TYPE = 2
_LEAF_ENTRY = struct.Struct("<QII")            # oid, x, y
_INT_ENTRY = struct.Struct("<IIIIQ")           # rect, child


@dataclass
class _Node:
    is_leaf: bool
    entries: list[tuple] = field(default_factory=list)
    # leaf entries: (oid, x, y); internal entries: (Rect, child_page)

    def mbr(self) -> Rect:
        if self.is_leaf:
            xs = [x for _, x, _ in self.entries]
            ys = [y for _, _, y in self.entries]
            return Rect(min(xs), min(ys), max(xs), max(ys))
        rects = [rect for rect, _ in self.entries]
        return Rect(min(r.x_lo for r in rects), min(r.y_lo for r in rects),
                    max(r.x_hi for r in rects), max(r.y_hi for r in rects))


class HRTree:
    """Copy-on-write historical R-tree over current object positions."""

    def __init__(self, page_size: int = 8192, buffer_capacity: int = 512,
                 path: str = MEMORY, fanout: int | None = None) -> None:
        self.pager = Pager(path, page_size)
        self.pool = BufferPool(self.pager, buffer_capacity)
        usable = page_size - _HEADER.size
        self.leaf_cap = usable // _LEAF_ENTRY.size
        self.internal_cap = usable // _INT_ENTRY.size
        if fanout is not None:
            self.leaf_cap = min(self.leaf_cap, fanout)
            self.internal_cap = min(self.internal_cap, fanout)
        #: sorted version timestamps and their roots (0 = empty version).
        self._version_times: list[int] = []
        self._version_roots: list[int] = []
        #: in-memory page reference counts (version sharing).
        self._refs: dict[int, int] = {}
        self._positions: dict[int, tuple[int, int]] = {}
        self.now = 0

    @property
    def stats(self) -> IOStats:
        return self.pool.stats

    def version_count(self) -> int:
        return len(self._version_times)

    def live_pages(self) -> int:
        """Pages currently referenced by any retained version."""
        return len(self._refs)

    # -- page IO ---------------------------------------------------------------

    def _read(self, page_id: int) -> _Node:
        raw = self.pool.fetch(page_id)
        node_type, count = _HEADER.unpack_from(raw)
        node = _Node(is_leaf=node_type == _LEAF_TYPE)
        offset = _HEADER.size
        if node.is_leaf:
            for _ in range(count):
                node.entries.append(_LEAF_ENTRY.unpack_from(raw, offset))
                offset += _LEAF_ENTRY.size
        else:
            for _ in range(count):
                x_lo, y_lo, x_hi, y_hi, child = _INT_ENTRY.unpack_from(
                    raw, offset)
                node.entries.append((Rect(x_lo, y_lo, x_hi, y_hi), child))
                offset += _INT_ENTRY.size
        return node

    def _write_new(self, node: _Node) -> int:
        """Write an immutable node to a fresh page; children gain a ref."""
        page = self.pool.allocate()
        parts = [_HEADER.pack(_LEAF_TYPE if node.is_leaf
                              else _INTERNAL_TYPE, len(node.entries))]
        if node.is_leaf:
            for oid, x, y in node.entries:
                parts.append(_LEAF_ENTRY.pack(oid, x, y))
        else:
            for rect, child in node.entries:
                parts.append(_INT_ENTRY.pack(rect.x_lo, rect.y_lo,
                                             rect.x_hi, rect.y_hi, child))
                self._refs[child] = self._refs.get(child, 0) + 1
        raw = b"".join(parts)
        self.pool.write(page, raw.ljust(self.pool.page_size, b"\x00"))
        self._refs.setdefault(page, 0)
        return page

    def _release(self, page_id: int) -> None:
        """Drop one reference; free the page (and children) at zero."""
        count = self._refs.get(page_id, 0)
        if count > 1:
            self._refs[page_id] = count - 1
            return
        node = self._read(page_id)
        if not node.is_leaf:
            for _, child in node.entries:
                self._release(child)
        self._refs.pop(page_id, None)
        self.pool.free(page_id)

    # -- versioned updates -------------------------------------------------------

    def report(self, oid: int, x: int, y: int, t: int) -> None:
        """Record the object's position at time ``t`` (new version root)."""
        if t < self.now:
            raise ValueError(f"out-of-order report at {t} < now {self.now}")
        self.now = t
        committed = self._version_roots[-1] if self._version_roots else 0
        previous = self._positions.get(oid)
        intermediate = committed
        if previous is not None:
            intermediate = self._delete_cow(committed, oid, previous)
        root = self._insert_cow(intermediate, oid, x, y)
        self._positions[oid] = (x, y)
        if self._version_times and self._version_times[-1] == t:
            # Same-timestamp batch: replace the version in place.
            old_root = self._version_roots[-1]
            self._version_roots[-1] = root
            if root:
                self._refs[root] = self._refs.get(root, 0) + 1
            if old_root:
                self._release(old_root)
        else:
            self._version_times.append(t)
            self._version_roots.append(root)
            if root:
                self._refs[root] = self._refs.get(root, 0) + 1
        # The delete-phase root (if distinct) is transient garbage: its
        # path copies are referenced by nothing once the final version
        # root is committed.
        if intermediate not in (committed, root) and intermediate:
            self._release(intermediate)

    def _insert_cow(self, root: int, oid: int, x: int, y: int) -> int:
        if root == 0:
            return self._write_new(_Node(True, [(oid, x, y)]))
        result = self._insert_rec(root, oid, x, y)
        if len(result) == 1:
            return result[0][1]
        return self._write_new(_Node(False, result))

    def _insert_rec(self, page_id: int, oid: int, x: int,
                    y: int) -> list[tuple[Rect, int]]:
        """Copy-on-write insert; returns 1 or 2 (mbr, new page) entries."""
        node = self._read(page_id)
        if node.is_leaf:
            entries = node.entries + [(oid, x, y)]
            if len(entries) <= self.leaf_cap:
                new = _Node(True, entries)
                return [(new.mbr(), self._write_new(new))]
            half = len(entries) // 2
            entries.sort(key=lambda e: (e[1], e[2]))
            left = _Node(True, entries[:half])
            right = _Node(True, entries[half:])
            return [(left.mbr(), self._write_new(left)),
                    (right.mbr(), self._write_new(right))]
        best = min(range(len(node.entries)),
                   key=lambda i: _enlarge(node.entries[i][0], x, y))
        replacement = self._insert_rec(node.entries[best][1], oid, x, y)
        entries = (node.entries[:best] + replacement
                   + node.entries[best + 1:])
        if len(entries) <= self.internal_cap:
            new = _Node(False, entries)
            return [(new.mbr(), self._write_new(new))]
        entries.sort(key=lambda e: (e[0].x_lo, e[0].y_lo))
        half = len(entries) // 2
        left = _Node(False, entries[:half])
        right = _Node(False, entries[half:])
        return [(left.mbr(), self._write_new(left)),
                (right.mbr(), self._write_new(right))]

    def _delete_cow(self, root: int, oid: int,
                    position: tuple[int, int]) -> int:
        if root == 0:  # pragma: no cover - defensive
            return 0
        replacement = self._delete_rec(root, oid, position)
        if replacement is None:  # pragma: no cover - defensive
            return root
        return replacement

    def _delete_rec(self, page_id: int, oid: int,
                    position: tuple[int, int]) -> int | None:
        """Copy-on-write delete; returns the new page (0 = emptied) or
        None if the entry is not in this subtree."""
        node = self._read(page_id)
        x, y = position
        if node.is_leaf:
            for idx, entry in enumerate(node.entries):
                if entry == (oid, x, y):
                    remaining = node.entries[:idx] + node.entries[idx + 1:]
                    if not remaining:
                        return 0
                    return self._write_new(_Node(True, remaining))
            return None
        for idx, (rect, child) in enumerate(node.entries):
            if not rect.contains(x, y):
                continue
            replacement = self._delete_rec(child, oid, position)
            if replacement is None:
                continue
            if replacement == 0:
                entries = node.entries[:idx] + node.entries[idx + 1:]
                if not entries:
                    return 0
            else:
                new_mbr = self._read(replacement).mbr()
                entries = (node.entries[:idx] + [(new_mbr, replacement)]
                           + node.entries[idx + 1:])
            return self._write_new(_Node(False, entries))
        return None

    # -- queries ---------------------------------------------------------------

    def _root_at(self, t: int) -> int:
        idx = bisect.bisect_right(self._version_times, t) - 1
        if idx < 0:
            return 0
        return self._version_roots[idx]

    def query_timeslice(self, area: Rect, t: int) -> list[tuple[int, int,
                                                                int]]:
        """(oid, x, y) of objects inside ``area`` at time ``t`` — one
        R-tree search, the HR-tree's strength."""
        root = self._root_at(t)
        if root == 0:
            return []
        results: list[tuple[int, int, int]] = []
        stack = [root]
        while stack:
            node = self._read(stack.pop())
            if node.is_leaf:
                results.extend(e for e in node.entries
                               if area.contains(e[1], e[2]))
            else:
                stack.extend(child for rect, child in node.entries
                             if rect.intersects(area))
        return results

    def query_interval(self, area: Rect, t_lo: int,
                       t_hi: int) -> list[tuple[int, int, int]]:
        """Objects inside ``area`` at any version in [t_lo, t_hi] — one
        search *per version*, the weakness the paper calls out."""
        start = max(bisect.bisect_right(self._version_times, t_lo) - 1, 0)
        end = bisect.bisect_right(self._version_times, t_hi)
        seen: set[tuple[int, int, int]] = set()
        for idx in range(start, end):
            root = self._version_roots[idx]
            if root == 0:
                continue
            stack = [root]
            while stack:
                node = self._read(stack.pop())
                if node.is_leaf:
                    for entry in node.entries:
                        if area.contains(entry[1], entry[2]):
                            seen.add(entry)
                else:
                    stack.extend(child for rect, child in node.entries
                                 if rect.intersects(area))
        return sorted(seen)

    # -- maintenance ----------------------------------------------------------

    def drop_versions_before(self, cutoff: int) -> int:
        """Reclaim versions older than ``cutoff`` (sliding-window expiry).

        The newest version at or before ``cutoff`` is retained because it
        is still the current state for timeslices in ``[cutoff, next)``.
        Returns the number of dropped versions; shared pages survive via
        their reference counts.
        """
        keep_from = max(bisect.bisect_right(self._version_times, cutoff)
                        - 1, 0)
        dropped = 0
        for idx in range(keep_from):
            root = self._version_roots[idx]
            if root:
                self._release(root)
            dropped += 1
        del self._version_times[:keep_from]
        del self._version_roots[:keep_from]
        return dropped

    def close(self) -> None:
        self.pool.close()
        self.pager.close()


def _enlarge(rect: Rect, x: int, y: int) -> tuple[int, int]:
    grown = Rect(min(rect.x_lo, x), min(rect.y_lo, y),
                 max(rect.x_hi, x), max(rect.y_hi, y))
    return grown.area() - rect.area(), rect.area()
