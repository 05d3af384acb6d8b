"""On-page serialisation of B+ tree nodes.

Page layout (little-endian):

* Leaf page::

      u8 type(=1)  u16 nkeys  u64 next_leaf
      nkeys × ( key[KEY_BYTES] , value[value_size] )

* Internal page::

      u8 type(=2)  u16 nkeys  u64 child_0
      nkeys × ( key[KEY_BYTES] , u64 child_{i+1} )

Keys are unsigned integers stored big-endian in ``KEY_BYTES`` bytes, so the
byte order matches numeric order.  SWST keys (s-partition ⊕ d-partition ⊕
Z-value) fit comfortably in 128 bits.

Parsing reads every slot with one cached :class:`struct.Struct` (a key as
two big-endian u64 halves, ``hi << 64 | lo``) and refuses a page whose
``nkeys`` slots would run past its end with :class:`NodeFormatError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cache

KEY_BYTES = 16
KEY_MAX = (1 << (8 * KEY_BYTES)) - 1

LEAF_TYPE = 1
INTERNAL_TYPE = 2

_LEAF_HEADER = struct.Struct("<BHQ")      # type, nkeys, next_leaf
_INTERNAL_HEADER = struct.Struct("<BHQ")  # type, nkeys, child_0
_CHILD = struct.Struct("<Q")
# An internal slot, read twice: once for its key, once for its child.
_INTERNAL_KEY = struct.Struct(">QQ8x")
_INTERNAL_CHILD = struct.Struct("<16xQ")


class NodeFormatError(ValueError):
    """A page failed to parse as a B+ tree node."""


def leaf_capacity(page_size: int, value_size: int) -> int:
    """Maximum number of (key, value) slots in a leaf page."""
    usable = page_size - _LEAF_HEADER.size
    return usable // (KEY_BYTES + value_size)


def internal_capacity(page_size: int) -> int:
    """Maximum number of separator keys in an internal page."""
    usable = page_size - _INTERNAL_HEADER.size
    return usable // (KEY_BYTES + _CHILD.size)


def _encode_key(key: int) -> bytes:
    return key.to_bytes(KEY_BYTES, "big")


@cache
def _leaf_slot(value_size: int) -> struct.Struct:
    """One leaf slot: the key's high and low u64, then the value.  A
    tree's value size never changes, so the cache holds one ``Struct``
    per value size in use."""
    return struct.Struct(f">QQ{value_size}s")


def _slots(raw: bytes, header: int, nkeys: int, step: int,
           kind: str) -> memoryview:
    """The ``nkeys`` slots after the header; an overrun is refused."""
    end = header + nkeys * step
    if end > len(raw):
        raise NodeFormatError(
            f"{kind} page claims {nkeys} slots ({end} bytes) but holds "
            f"{len(raw)} bytes")
    return memoryview(raw)[header:end]


@dataclass
class LeafNode:
    """Deserialised leaf node: parallel ``keys`` / ``values`` lists."""

    keys: list[int] = field(default_factory=list)
    values: list[bytes] = field(default_factory=list)
    next_leaf: int = 0

    def to_bytes(self, page_size: int, value_size: int) -> bytes:
        if len(self.keys) != len(self.values):
            raise NodeFormatError("keys/values length mismatch")
        parts = [_LEAF_HEADER.pack(LEAF_TYPE, len(self.keys), self.next_leaf)]
        for key, value in zip(self.keys, self.values, strict=True):
            if len(value) != value_size:
                raise NodeFormatError(
                    f"value of {len(value)} bytes != value_size {value_size}")
            parts.append(_encode_key(key))
            parts.append(value)
        raw = b"".join(parts)
        if len(raw) > page_size:
            raise NodeFormatError(
                f"leaf with {len(self.keys)} entries overflows page")
        return raw.ljust(page_size, b"\x00")

    @classmethod
    def from_bytes(cls, raw: bytes, value_size: int) -> "LeafNode":
        node_type, nkeys, next_leaf = _LEAF_HEADER.unpack_from(raw)
        if node_type != LEAF_TYPE:
            raise NodeFormatError(f"expected leaf page, got type {node_type}")
        slot = _leaf_slot(value_size)
        keys: list[int] = []
        values: list[bytes] = []
        add_key, add_value = keys.append, values.append
        for hi, lo, value in slot.iter_unpack(
                _slots(raw, _LEAF_HEADER.size, nkeys, slot.size, "leaf")):
            add_key(hi << 64 | lo)
            add_value(value)
        return cls(keys=keys, values=values, next_leaf=next_leaf)


@dataclass
class InternalNode:
    """Deserialised internal node: ``len(children) == len(keys) + 1``.

    ``children[i]`` covers keys in ``[keys[i-1], keys[i])`` with the usual
    open ends, except that duplicate keys equal to a separator may also live
    in the child left of it (a consequence of splitting leaves that contain
    runs of equal keys); readers must descend with ``bisect_left``.
    """

    keys: list[int] = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    def to_bytes(self, page_size: int) -> bytes:
        if len(self.children) != len(self.keys) + 1:
            raise NodeFormatError("children must be len(keys) + 1")
        parts = [_INTERNAL_HEADER.pack(INTERNAL_TYPE, len(self.keys),
                                       self.children[0])]
        for key, child in zip(self.keys, self.children[1:], strict=True):
            parts.append(_encode_key(key))
            parts.append(_CHILD.pack(child))
        raw = b"".join(parts)
        if len(raw) > page_size:
            raise NodeFormatError(
                f"internal node with {len(self.keys)} keys overflows page")
        return raw.ljust(page_size, b"\x00")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "InternalNode":
        node_type, nkeys, child0 = _INTERNAL_HEADER.unpack_from(raw)
        if node_type != INTERNAL_TYPE:
            raise NodeFormatError(
                f"expected internal page, got type {node_type}")
        view = _slots(raw, _INTERNAL_HEADER.size, nkeys,
                      _INTERNAL_KEY.size, "internal")
        keys = [hi << 64 | lo for hi, lo in _INTERNAL_KEY.iter_unpack(view)]
        children = [child0]
        children += [child for (child,) in _INTERNAL_CHILD.iter_unpack(view)]
        return cls(keys=keys, children=children)


def node_type_of(raw: bytes) -> int:
    """Peek at a page's node type byte without a full parse."""
    if not raw:
        raise NodeFormatError("empty page")
    node_type = raw[0]
    if node_type not in (LEAF_TYPE, INTERNAL_TYPE):
        raise NodeFormatError(f"unknown node type byte {node_type}")
    return node_type
