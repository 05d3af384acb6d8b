"""B+ tree node serialisation round-trips and capacity arithmetic."""

import struct

import pytest

from repro.btree.node import (INTERNAL_TYPE, InternalNode, KEY_MAX, LEAF_TYPE,
                              LeafNode, NodeFormatError, internal_capacity,
                              leaf_capacity, node_type_of)
from repro.core.records import RECORD_SIZE, pack_record

PAGE = 1024
VALUE = 16


class TestLeafSerialisation:
    def test_empty_leaf_round_trips(self):
        node = LeafNode()
        raw = node.to_bytes(PAGE, VALUE)
        assert len(raw) == PAGE
        assert LeafNode.from_bytes(raw, VALUE) == node

    def test_populated_leaf_round_trips(self):
        node = LeafNode(keys=[1, 5, 9], values=[b"a" * VALUE, b"b" * VALUE,
                                                b"c" * VALUE], next_leaf=42)
        parsed = LeafNode.from_bytes(node.to_bytes(PAGE, VALUE), VALUE)
        assert parsed == node

    def test_max_key_round_trips(self):
        node = LeafNode(keys=[KEY_MAX], values=[b"x" * VALUE])
        parsed = LeafNode.from_bytes(node.to_bytes(PAGE, VALUE), VALUE)
        assert parsed.keys == [KEY_MAX]

    def test_wrong_value_size_rejected(self):
        node = LeafNode(keys=[1], values=[b"short"])
        with pytest.raises(NodeFormatError):
            node.to_bytes(PAGE, VALUE)

    def test_mismatched_lists_rejected(self):
        node = LeafNode(keys=[1, 2], values=[b"a" * VALUE])
        with pytest.raises(NodeFormatError):
            node.to_bytes(PAGE, VALUE)

    def test_overflow_rejected(self):
        cap = leaf_capacity(PAGE, VALUE)
        node = LeafNode(keys=list(range(cap + 1)),
                        values=[b"v" * VALUE] * (cap + 1))
        with pytest.raises(NodeFormatError):
            node.to_bytes(PAGE, VALUE)


class TestInternalSerialisation:
    def test_internal_round_trips(self):
        node = InternalNode(keys=[10, 20], children=[1, 2, 3])
        parsed = InternalNode.from_bytes(node.to_bytes(PAGE))
        assert parsed == node

    def test_children_arity_enforced(self):
        node = InternalNode(keys=[10], children=[1, 2, 3])
        with pytest.raises(NodeFormatError):
            node.to_bytes(PAGE)

    def test_type_confusion_rejected(self):
        leaf_raw = LeafNode().to_bytes(PAGE, VALUE)
        with pytest.raises(NodeFormatError):
            InternalNode.from_bytes(leaf_raw)
        internal_raw = InternalNode(keys=[1],
                                    children=[2, 3]).to_bytes(PAGE)
        with pytest.raises(NodeFormatError):
            LeafNode.from_bytes(internal_raw, VALUE)


class TestCapacities:
    def test_leaf_capacity_formula(self):
        assert leaf_capacity(1024, 16) == (1024 - 11) // 32

    def test_internal_capacity_formula(self):
        assert internal_capacity(1024) == (1024 - 11) // 24

    def test_bigger_pages_hold_more(self):
        assert leaf_capacity(8192, 16) > leaf_capacity(1024, 16)

    def test_node_type_peek(self):
        assert node_type_of(LeafNode().to_bytes(PAGE, VALUE)) == 1
        raw = InternalNode(keys=[1], children=[2, 3]).to_bytes(PAGE)
        assert node_type_of(raw) == 2

    def test_node_type_rejects_garbage(self):
        with pytest.raises(NodeFormatError):
            node_type_of(b"\x07" + b"\x00" * 100)
        with pytest.raises(NodeFormatError):
            node_type_of(b"")


def _claim_nkeys(raw: bytes, nkeys: int) -> bytes:
    """``raw`` with its header's ``nkeys`` overwritten."""
    return raw[:1] + struct.pack("<H", nkeys) + raw[3:]


class TestOverrunRefused:
    """A page whose ``nkeys`` slots run past its end is refused, never
    padded with zero keys and short values or left to ``struct.error``."""

    def test_leaf_nkeys_past_capacity(self):
        cap = leaf_capacity(PAGE, VALUE)
        raw = LeafNode(keys=list(range(cap)),
                       values=[b"v" * VALUE] * cap).to_bytes(PAGE, VALUE)
        assert LeafNode.from_bytes(raw, VALUE).keys == list(range(cap))
        with pytest.raises(NodeFormatError, match="claims"):
            LeafNode.from_bytes(_claim_nkeys(raw, cap + 1), VALUE)

    def test_internal_nkeys_past_capacity(self):
        cap = internal_capacity(PAGE)
        raw = InternalNode(keys=list(range(cap)),
                           children=list(range(cap + 1))).to_bytes(PAGE)
        assert InternalNode.from_bytes(raw).children == list(range(cap + 1))
        with pytest.raises(NodeFormatError, match="claims"):
            InternalNode.from_bytes(_claim_nkeys(raw, cap + 1))


# Golden SWST pages at page_size 2048: the used prefix of each page, as the
# encoder wrote it before the one-struct-per-slot parser; the rest of the
# page is zero padding.
GOLDEN_PAGE = 2048
GOLDEN_LEAF_KEYS = [0, 2**42 - 1, 2**42 - 1, KEY_MAX]
GOLDEN_LEAF_VALUES = [
    pack_record(1, 0, 0, 0, None),
    pack_record(2**40 + 3, 9999, 12345, 2**33, 77),
    pack_record(7, 1, 2, 3, 4),
    pack_record(2**64 - 1, 2**32 - 1, 2**32 - 1, 2**64 - 1, 2**64 - 1),
]
GOLDEN_LEAF_NEXT = 2**33 + 5
GOLDEN_LEAF = bytes.fromhex(
    "0104000500000002000000"
    "00000000000000000000000000000000"
    "0100000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000003ffffffffff"
    "03000000000100000f2700003930000000000000020000004d00000000000000"
    "0000000000000000000003ffffffffff"
    "0700000000000000010000000200000003000000000000000400000000000000"
    "ffffffffffffffffffffffffffffffff"
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
).ljust(GOLDEN_PAGE, b"\x00")
GOLDEN_INTERNAL_KEYS = [2**42 - 1, 2**64, KEY_MAX - 1]
GOLDEN_INTERNAL_CHILDREN = [2**32 + 1, 2**40 + 7, 2**63 + 3, 5]
GOLDEN_INTERNAL = bytes.fromhex(
    "0203000100000001000000"
    "0000000000000000000003ffffffffff" "0700000000010000"
    "00000000000000010000000000000000" "0300000000000080"
    "fffffffffffffffffffffffffffffffe" "0500000000000000"
).ljust(GOLDEN_PAGE, b"\x00")


class TestGoldenPages:
    def test_leaf_parses_to_its_fields(self):
        node = LeafNode.from_bytes(GOLDEN_LEAF, RECORD_SIZE)
        assert node.keys == GOLDEN_LEAF_KEYS
        assert node.values == GOLDEN_LEAF_VALUES
        assert node.next_leaf == GOLDEN_LEAF_NEXT
        assert node_type_of(GOLDEN_LEAF) == LEAF_TYPE

    def test_leaf_fields_encode_to_golden(self):
        node = LeafNode(keys=GOLDEN_LEAF_KEYS, values=GOLDEN_LEAF_VALUES,
                        next_leaf=GOLDEN_LEAF_NEXT)
        assert node.to_bytes(GOLDEN_PAGE, RECORD_SIZE) == GOLDEN_LEAF

    def test_internal_parses_to_its_fields(self):
        node = InternalNode.from_bytes(GOLDEN_INTERNAL)
        assert node.keys == GOLDEN_INTERNAL_KEYS
        assert node.children == GOLDEN_INTERNAL_CHILDREN
        assert node_type_of(GOLDEN_INTERNAL) == INTERNAL_TYPE

    def test_internal_fields_encode_to_golden(self):
        node = InternalNode(keys=GOLDEN_INTERNAL_KEYS,
                            children=GOLDEN_INTERNAL_CHILDREN)
        assert node.to_bytes(GOLDEN_PAGE) == GOLDEN_INTERNAL
