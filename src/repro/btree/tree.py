"""Disk-resident B+ tree with duplicate keys and full delete support.

This is the second-layer structure of SWST: each spatial cell owns two of
these trees, keyed by the linearised (s-partition, d-partition, Z-value)
composite.  Unlike MV3R, arbitrary entries can be deleted (the paper's
current-entry protocol deletes and re-inserts an entry on every position
report), so the tree implements standard borrow/merge rebalancing.

All page IO goes through a :class:`repro.storage.BufferPool`, where node
accesses are counted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Iterator

from ..storage.buffer import BufferPool
from .node import (InternalNode, KEY_MAX, LEAF_TYPE, LeafNode,
                   internal_capacity, leaf_capacity, node_type_of)


class KeyRange(tuple):
    """Closed key range ``(lo, hi)``; a plain tuple subtype for clarity."""

    def __new__(cls, lo: int, hi: int) -> "KeyRange":
        if lo > hi:
            raise ValueError(f"empty key range [{lo}, {hi}]")
        return super().__new__(cls, (lo, hi))

    @property
    def lo(self) -> int:
        return self[0]

    @property
    def hi(self) -> int:
        return self[1]


class BPlusTree:
    """A B+ tree over a buffer pool.

    Args:
        pool: buffer pool providing page IO.
        value_size: fixed byte width of every value payload.
        root_page: root page id of an existing tree, or ``None`` to create a
            fresh empty tree.

    Keys are unsigned integers below ``2**128``; duplicate keys are allowed
    and duplicates of a full ``(key, value)`` pair are also allowed (each
    ``delete`` removes one occurrence).
    """

    def __init__(self, pool: BufferPool, value_size: int,
                 root_page: int | None = None) -> None:
        if value_size <= 0:
            raise ValueError(f"value_size must be positive, got {value_size}")
        self.pool = pool
        self.value_size = value_size
        self.leaf_cap = leaf_capacity(pool.page_size, value_size)
        self.internal_cap = internal_capacity(pool.page_size)
        if self.leaf_cap < 2 or self.internal_cap < 3:
            raise ValueError("page size too small for this value size")
        if root_page is None:
            self.root_page = pool.allocate()
            self._write_leaf(self.root_page, LeafNode())
        else:
            self.root_page = root_page

    # -- page helpers --------------------------------------------------------
    #
    # All node IO goes through the buffer pool's node API: a
    # fetch returns the *shared* cached object and a write publishes it
    # (serialisation is deferred to eviction/flush).  Tree code therefore
    # always follows an in-place mutation of a node with a ``_write_*``
    # call before the next pool access.

    def _decode_node(self, raw: bytes) -> LeafNode | InternalNode:
        if node_type_of(raw) == LEAF_TYPE:
            return LeafNode.from_bytes(raw, self.value_size)
        return InternalNode.from_bytes(raw)

    def _encode_node(self, node: LeafNode | InternalNode) -> bytes:
        if isinstance(node, LeafNode):
            return node.to_bytes(self.pool.page_size, self.value_size)
        return node.to_bytes(self.pool.page_size)

    def _read_node(self, page_id: int) -> LeafNode | InternalNode:
        return self.pool.fetch_node(page_id, self._decode_node)

    def _write_leaf(self, page_id: int, node: LeafNode) -> None:
        self.pool.write_node(page_id, node, self._encode_node)

    def _write_internal(self, page_id: int, node: InternalNode) -> None:
        self.pool.write_node(page_id, node, self._encode_node)

    def _write_node(self, page_id: int,
                    node: LeafNode | InternalNode) -> None:
        self.pool.write_node(page_id, node, self._encode_node)

    # -- insertion -----------------------------------------------------------

    def insert(self, key: int, value: bytes) -> None:
        """Insert one (key, value) pair; duplicates allowed."""
        if not 0 <= key <= KEY_MAX:
            raise ValueError(f"key {key} out of range")
        if len(value) != self.value_size:
            raise ValueError(f"value must be {self.value_size} bytes, "
                             f"got {len(value)}")
        split = self._insert(self.root_page, key, value)
        if split is not None:
            sep_key, right_page = split
            new_root = InternalNode(keys=[sep_key],
                                    children=[self.root_page, right_page])
            root_page = self.pool.allocate()
            self._write_internal(root_page, new_root)
            self.root_page = root_page

    def _insert(self, page_id: int, key: int,
                value: bytes) -> tuple[int, int] | None:
        """Recursive insert; returns (separator, new right page) on split."""
        node = self._read_node(page_id)
        if isinstance(node, LeafNode):
            idx = bisect_right(node.keys, key)
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            if len(node.keys) <= self.leaf_cap:
                self._write_leaf(page_id, node)
                return None
            return self._split_leaf(page_id, node)
        child_idx = bisect_right(node.keys, key)
        split = self._insert(node.children[child_idx], key, value)
        if split is None:
            return None
        sep_key, right_page = split
        node.keys.insert(child_idx, sep_key)
        node.children.insert(child_idx + 1, right_page)
        if len(node.keys) <= self.internal_cap:
            self._write_internal(page_id, node)
            return None
        return self._split_internal(page_id, node)

    def _split_leaf(self, page_id: int,
                    node: LeafNode) -> tuple[int, int]:
        mid = len(node.keys) // 2
        right = LeafNode(keys=node.keys[mid:], values=node.values[mid:],
                         next_leaf=node.next_leaf)
        right_page = self.pool.allocate()
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        node.next_leaf = right_page
        self._write_leaf(right_page, right)
        self._write_leaf(page_id, node)
        return right.keys[0], right_page

    def _split_internal(self, page_id: int,
                        node: InternalNode) -> tuple[int, int]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = InternalNode(keys=node.keys[mid + 1:],
                             children=node.children[mid + 1:])
        right_page = self.pool.allocate()
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        self._write_internal(right_page, right)
        self._write_internal(page_id, node)
        return sep_key, right_page

    # -- search --------------------------------------------------------------

    def range_search(self, lo: int, hi: int) -> list[tuple[int, bytes]]:
        """Return all (key, value) pairs with ``lo <= key <= hi`` in order."""
        return list(self.iter_range(lo, hi))

    def iter_range(self, lo: int, hi: int) -> Iterator[tuple[int, bytes]]:
        """Yield (key, value) pairs with ``lo <= key <= hi`` in key order."""
        if lo > hi:
            return
        page_id = self.root_page
        node = self._read_node(page_id)
        while isinstance(node, InternalNode):
            page_id = node.children[bisect_left(node.keys, lo)]
            node = self._read_node(page_id)
        while True:
            start = bisect_left(node.keys, lo)
            for idx in range(start, len(node.keys)):
                if node.keys[idx] > hi:
                    return
                yield node.keys[idx], node.values[idx]
            if node.keys and node.keys[-1] > hi:
                return
            if not node.next_leaf:
                return
            node = self._read_node(node.next_leaf)
            if isinstance(node, InternalNode):  # pragma: no cover - corruption
                raise RuntimeError("leaf chain points at an internal node")

    def search(self, key: int) -> list[bytes]:
        """Return the values of every entry with exactly ``key``."""
        return [value for _, value in self.iter_range(key, key)]

    def items(self) -> Iterator[tuple[int, bytes]]:
        """Yield every (key, value) pair in key order."""
        return self.iter_range(0, KEY_MAX)

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # -- deletion ------------------------------------------------------------

    def delete(self, key: int,
               match: bytes | Callable[[bytes], bool] | None = None) -> bool:
        """Delete one entry with ``key`` whose value matches.

        Args:
            key: the key to delete.
            match: exact value bytes, a predicate over the value, or ``None``
                to delete any one entry with the key.

        Returns:
            True if an entry was found and deleted.
        """
        if isinstance(match, (bytes, bytearray)):
            target = bytes(match)
            predicate = lambda value: value == target  # noqa: E731
        else:
            predicate = (match if match is not None
                         else (lambda value: True))
        deleted, _ = self._delete(self.root_page, key, predicate)
        if deleted:
            root = self._read_node(self.root_page)
            if isinstance(root, InternalNode) and not root.keys:
                old_root = self.root_page
                self.root_page = root.children[0]
                self.pool.free(old_root)
        return deleted

    def _min_leaf_fill(self) -> int:
        return self.leaf_cap // 2

    def _min_internal_fill(self) -> int:
        return self.internal_cap // 2

    def _delete(self, page_id: int, key: int,
                predicate: Callable[[bytes], bool]) -> tuple[bool, bool]:
        """Recursive delete.

        Returns:
            (deleted, underflow) — whether an entry was removed from this
            subtree and whether this node is now under-full.
        """
        node = self._read_node(page_id)
        if isinstance(node, LeafNode):
            idx = bisect_left(node.keys, key)
            while idx < len(node.keys) and node.keys[idx] == key:
                if predicate(node.values[idx]):
                    del node.keys[idx]
                    del node.values[idx]
                    self._write_leaf(page_id, node)
                    return True, len(node.keys) < self._min_leaf_fill()
                idx += 1
            return False, False
        # Duplicates equal to a separator may live in the child left of it,
        # so try every child whose span can contain the key.
        first = bisect_left(node.keys, key)
        last = bisect_right(node.keys, key)
        for child_idx in range(first, last + 1):
            child_page = node.children[child_idx]
            deleted, underflow = self._delete(child_page, key, predicate)
            if not deleted:
                continue
            if underflow:
                self._fix_underflow(page_id, node, child_idx)
                node = self._read_node(page_id)
                assert isinstance(node, InternalNode)
            return True, len(node.keys) < self._min_internal_fill()
        return False, False

    def _fix_underflow(self, page_id: int, node: InternalNode,
                       child_idx: int) -> None:
        """Restore the fill invariant of ``node.children[child_idx]``."""
        child_page = node.children[child_idx]
        child = self._read_node(child_page)
        if child_idx > 0:
            left_page = node.children[child_idx - 1]
            left = self._read_node(left_page)
            if self._can_lend(left):
                self._borrow_from_left(node, child_idx, left_page, left,
                                       child_page, child)
                self._write_internal(page_id, node)
                return
        if child_idx < len(node.children) - 1:
            right_page = node.children[child_idx + 1]
            right = self._read_node(right_page)
            if self._can_lend(right):
                self._borrow_from_right(node, child_idx, child_page, child,
                                        right_page, right)
                self._write_internal(page_id, node)
                return
        # No sibling can lend: merge with a neighbour.
        if child_idx > 0:
            self._merge(node, child_idx - 1)
        else:
            self._merge(node, child_idx)
        self._write_internal(page_id, node)

    def _can_lend(self, sibling: LeafNode | InternalNode) -> bool:
        if isinstance(sibling, LeafNode):
            return len(sibling.keys) > self._min_leaf_fill()
        return len(sibling.keys) > self._min_internal_fill()

    def _borrow_from_left(self, parent: InternalNode, child_idx: int,
                          left_page: int, left: LeafNode | InternalNode,
                          child_page: int,
                          child: LeafNode | InternalNode) -> None:
        if isinstance(child, LeafNode):
            assert isinstance(left, LeafNode)
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[child_idx - 1] = child.keys[0]
        else:
            assert isinstance(left, InternalNode)
            child.keys.insert(0, parent.keys[child_idx - 1])
            child.children.insert(0, left.children.pop())
            parent.keys[child_idx - 1] = left.keys.pop()
        self._write_node(left_page, left)
        self._write_node(child_page, child)

    def _borrow_from_right(self, parent: InternalNode, child_idx: int,
                           child_page: int, child: LeafNode | InternalNode,
                           right_page: int,
                           right: LeafNode | InternalNode) -> None:
        if isinstance(child, LeafNode):
            assert isinstance(right, LeafNode)
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[child_idx] = right.keys[0]
        else:
            assert isinstance(right, InternalNode)
            child.keys.append(parent.keys[child_idx])
            child.children.append(right.children.pop(0))
            parent.keys[child_idx] = right.keys.pop(0)
        self._write_node(child_page, child)
        self._write_node(right_page, right)

    def _merge(self, parent: InternalNode, left_idx: int) -> None:
        """Merge ``children[left_idx + 1]`` into ``children[left_idx]``."""
        left_page = parent.children[left_idx]
        right_page = parent.children[left_idx + 1]
        left = self._read_node(left_page)
        right = self._read_node(right_page)
        if isinstance(left, LeafNode):
            assert isinstance(right, LeafNode)
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            assert isinstance(right, InternalNode)
            left.keys.append(parent.keys[left_idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_idx]
        del parent.children[left_idx + 1]
        self._write_node(left_page, left)
        self.pool.free(right_page)

    # -- bulk loading ----------------------------------------------------------

    def bulk_load(self, items: list[tuple[int, bytes]],
                  fill: float = 0.9) -> None:
        """Build the tree bottom-up from key-sorted (key, value) pairs.

        Much cheaper than repeated :meth:`insert` for a known dataset (the
        construction mode PIST assumes).  The tree must be empty; leaves
        are packed to ``fill`` of capacity so later inserts do not split
        immediately.
        """
        if not 0.1 <= fill <= 1.0:
            raise ValueError(f"fill must be in [0.1, 1.0], got {fill}")
        if self._read_node(self.root_page) != LeafNode():
            raise ValueError("bulk_load requires an empty tree")
        if any(items[i][0] > items[i + 1][0]
               for i in range(len(items) - 1)):
            raise ValueError("bulk_load input must be sorted by key")
        if not items:
            return
        # Build the leaf level, reusing the existing root page first.  The
        # fill factor is clamped so packed nodes never violate the
        # minimum-fill invariant later deletes rely on.
        per_leaf = max(2, self._min_leaf_fill(),
                       int(self.leaf_cap * fill))
        leaf_pages: list[tuple[int, int]] = []  # (first_key, page)
        chunks = [items[i:i + per_leaf]
                  for i in range(0, len(items), per_leaf)]
        # Avoid an under-filled final leaf: merge the last two chunks into
        # one full leaf if they fit, else split them evenly (each half is
        # then >= cap/2 >= the minimum fill).
        if len(chunks) >= 2 and len(chunks[-1]) < self._min_leaf_fill():
            merged = chunks[-2] + chunks[-1]
            if len(merged) <= self.leaf_cap:
                chunks[-2:] = [merged]
            else:
                half = len(merged) // 2
                chunks[-2], chunks[-1] = merged[:half], merged[half:]
        pages = [self.root_page] + [self.pool.allocate()
                                    for _ in chunks[1:]]
        for idx, chunk in enumerate(chunks):
            node = LeafNode(keys=[k for k, _ in chunk],
                            values=[v for _, v in chunk],
                            next_leaf=pages[idx + 1]
                            if idx + 1 < len(pages) else 0)
            self._write_leaf(pages[idx], node)
            leaf_pages.append((chunk[0][0], pages[idx]))
        # Build internal levels until one node remains.
        level = leaf_pages
        per_node = max(2, self._min_internal_fill() + 1,
                       int(self.internal_cap * fill))
        while len(level) > 1:
            next_level: list[tuple[int, int]] = []
            groups = [level[i:i + per_node]
                      for i in range(0, len(level), per_node)]
            if len(groups) >= 2 and \
                    len(groups[-1]) - 1 < self._min_internal_fill():
                merged = groups[-2] + groups[-1]
                if len(merged) - 1 <= self.internal_cap:
                    groups[-2:] = [merged]
                else:
                    half = len(merged) // 2
                    groups[-2], groups[-1] = merged[:half], merged[half:]
            for group in groups:
                node = InternalNode(keys=[key for key, _ in group[1:]],
                                    children=[page for _, page in group])
                page = self.pool.allocate()
                self._write_internal(page, node)
                next_level.append((group[0][0], page))
            level = next_level
        if level[0][1] != self.root_page:
            self.root_page = level[0][1]

    # -- maintenance ---------------------------------------------------------

    def drop(self) -> int:
        """Free every page of the tree; returns the number of freed pages.

        This is SWST's O(pages) wholesale deletion of an expired window —
        no per-entry work is done.
        """
        freed = self._drop_subtree(self.root_page)
        self.root_page = self.pool.allocate()
        self._write_leaf(self.root_page, LeafNode())
        return freed

    def _drop_subtree(self, page_id: int) -> int:
        node = self._read_node(page_id)
        freed = 1
        if isinstance(node, InternalNode):
            for child in node.children:
                freed += self._drop_subtree(child)
        self.pool.free(page_id)
        return freed

    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        levels = 1
        node = self._read_node(self.root_page)
        while isinstance(node, InternalNode):
            levels += 1
            node = self._read_node(node.children[0])
        return levels

    def node_count(self) -> int:
        """Total pages used by the tree."""
        return self._count_subtree(self.root_page)

    def _count_subtree(self, page_id: int) -> int:
        node = self._read_node(page_id)
        if isinstance(node, LeafNode):
            return 1
        return 1 + sum(self._count_subtree(child) for child in node.children)

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated.

        Used by tests; checks key ordering, fill factors, leaf chain
        consistency and child/separator coherence.
        """
        leaves: list[int] = []
        self._check_subtree(self.root_page, 0, KEY_MAX, is_root=True,
                            leaves=leaves)
        # Leaf chain must visit exactly the leaves in key order.
        chained = []
        page_id = leaves[0] if leaves else 0
        while page_id:
            chained.append(page_id)
            node = self._read_node(page_id)
            assert isinstance(node, LeafNode)
            page_id = node.next_leaf
        assert chained == leaves, "leaf chain does not match key order"

    def _check_subtree(self, page_id: int, lo: int, hi: int, is_root: bool,
                       leaves: list[int]) -> None:
        node = self._read_node(page_id)
        if isinstance(node, LeafNode):
            assert node.keys == sorted(node.keys), "unsorted leaf"
            for key in node.keys:
                assert lo <= key <= hi, "leaf key outside separator bounds"
            if not is_root:
                assert len(node.keys) >= self._min_leaf_fill(), \
                    "under-full leaf"
            leaves.append(page_id)
            return
        assert node.keys == sorted(node.keys), "unsorted internal node"
        assert len(node.children) == len(node.keys) + 1
        if not is_root:
            assert len(node.keys) >= self._min_internal_fill(), \
                "under-full internal node"
        else:
            assert len(node.keys) >= 1 or leaves == [], \
                "internal root must have at least one key"
        bounds = [lo] + node.keys + [hi]
        for idx, child in enumerate(node.children):
            # Duplicate runs may leave keys equal to the left separator in
            # the child, hence the closed lower bound.
            self._check_subtree(child, bounds[idx], bounds[idx + 1],
                                is_root=False, leaves=leaves)
