"""The buffer pool's node API: hits, deferred serialisation, coherence
with the pager."""

import pytest

from repro.storage import MEMORY, BufferPool, Pager

PAGE = 512


def decode(data: bytes) -> bytearray:
    return bytearray(data)


def encode(node: bytearray) -> bytes:
    return bytes(node)


@pytest.fixture
def pool():
    with BufferPool(Pager(MEMORY, page_size=PAGE), capacity=4) as p:
        yield p


def _node_page(pool, fill=b"a"):
    page = pool.allocate()
    pool.write_node(page, bytearray(fill * PAGE), encode)
    return page


class TestNodeCacheHits:
    def test_second_fetch_is_a_hit_returning_the_same_object(self, pool):
        page = _node_page(pool)
        first = pool.fetch_node(page, decode)
        parses = pool.stats.node_parses
        second = pool.fetch_node(page, decode)
        assert second is first
        assert pool.stats.node_parses == parses
        assert pool.stats.node_cache_hits >= 1

    def test_every_fetch_node_counts_logically(self, pool):
        page = _node_page(pool)
        before = pool.stats.logical_reads
        for _ in range(5):
            pool.fetch_node(page, decode)
        assert pool.stats.logical_reads == before + 5

    def test_every_write_node_counts_logically(self, pool):
        page = pool.allocate()
        before = pool.stats.logical_writes
        for _ in range(3):
            pool.write_node(page, bytearray(b"b" * PAGE), encode)
        assert pool.stats.logical_writes == before + 3

    def test_logical_counters_match_raw_path(self):
        """The node path and the raw path account identically."""
        raw = BufferPool(Pager(MEMORY, page_size=PAGE), capacity=4)
        via_nodes = BufferPool(Pager(MEMORY, page_size=PAGE), capacity=4)
        p1 = raw.allocate()
        p2 = via_nodes.allocate()
        for _ in range(4):
            raw.write(p1, b"x" * PAGE)
            via_nodes.write_node(p2, bytearray(b"x" * PAGE), encode)
        for _ in range(7):
            raw.fetch(p1)
            via_nodes.fetch_node(p2, decode)
        assert (raw.stats.logical_reads, raw.stats.logical_writes) == \
            (via_nodes.stats.logical_reads, via_nodes.stats.logical_writes)
        raw.close()
        via_nodes.close()


class TestDeferredSerialisation:
    def test_write_node_does_not_serialise_until_flush(self, pool):
        page = pool.allocate()
        pool.write_node(page, bytearray(b"d" * PAGE), encode)
        assert pool.stats.node_serializations == 0
        pool.flush()
        assert pool.stats.node_serializations == 1
        assert pool.pager.read(page) == b"d" * PAGE

    def test_repeated_writes_serialise_once(self, pool):
        page = pool.allocate()
        for byte in (b"1", b"2", b"3"):
            pool.write_node(page, bytearray(byte * PAGE), encode)
        pool.flush()
        assert pool.stats.node_serializations == 1
        assert pool.pager.read(page) == b"3" * PAGE

    def test_eviction_writes_dirty_node_back(self):
        pool = BufferPool(Pager(MEMORY, page_size=PAGE), capacity=2)
        pages = [pool.allocate() for _ in range(4)]
        for i, page in enumerate(pages):
            pool.write_node(page, bytearray(bytes([i + 1]) * PAGE), encode)
        # Two oldest nodes were evicted and must be durable.
        assert pool.pager.read(pages[0]) == bytes([1]) * PAGE
        assert pool.pager.read(pages[1]) == bytes([2]) * PAGE
        pool.close()

    def test_close_flushes_dirty_nodes(self, tmp_path):
        pager = Pager(tmp_path / "n.db", page_size=PAGE)
        pool = BufferPool(pager, capacity=8)
        page = pool.allocate()
        pool.write_node(page, bytearray(b"z" * PAGE), encode)
        pool.close()
        assert pager.read(page) == b"z" * PAGE
        pager.close()


class TestCoherence:
    """The cache stays coherent with the pager: a freed page's node never
    outlives the free, and ``drop_cache`` hands the next fetch to the
    device."""

    def test_free_invalidates_cached_node(self, pool):
        page = _node_page(pool, fill=b"f")
        pool.fetch_node(page, decode)
        pool.free(page)
        reused = pool.allocate()
        assert reused == page  # free-list reuse
        pool.pager.write(reused, b"g" * PAGE)
        parses = pool.stats.node_parses
        assert bytes(pool.fetch_node(reused, decode)) == b"g" * PAGE
        assert pool.stats.node_parses == parses + 1

    def test_drop_cache_flushes_then_reparses(self, pool):
        page = pool.allocate()
        pool.write_node(page, bytearray(b"k" * PAGE), encode)
        pool.drop_cache()
        assert pool.pager.read(page) == b"k" * PAGE
        parses = pool.stats.node_parses
        assert bytes(pool.fetch_node(page, decode)) == b"k" * PAGE
        assert pool.stats.node_parses == parses + 1


class TestDisabledCache:
    """The pool cannot be switched off: every fetch and write goes through
    its one LRU, and a capacity below one page is refused."""

    def test_negative_capacity_rejected(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError, match="capacity"):
                BufferPool(Pager(MEMORY, page_size=PAGE), capacity=capacity)
