"""Buffer pool: caching, eviction, write-back, IO accounting."""

import pytest

from repro.storage import MEMORY, BufferPool, Pager, PagerClosedError


@pytest.fixture
def pool():
    with BufferPool(Pager(MEMORY, page_size=512), capacity=4) as p:
        yield p


def _fill(pool, n):
    pages = []
    for i in range(n):
        page = pool.allocate()
        pool.write(page, bytes([i % 256]) * 512)
        pages.append(page)
    return pages


class TestCaching:
    def test_fetch_returns_written_data(self, pool):
        page = pool.allocate()
        pool.write(page, b"a" * 512)
        assert pool.fetch(page) == b"a" * 512

    def test_cached_fetch_skips_physical_read(self, pool):
        page = pool.allocate()
        pool.write(page, b"a" * 512)
        pool.fetch(page)
        reads = pool.stats.physical_reads
        pool.fetch(page)
        assert pool.stats.physical_reads == reads

    def test_every_fetch_counts_logically(self, pool):
        page = pool.allocate()
        pool.write(page, b"a" * 512)
        before = pool.stats.logical_reads
        for _ in range(5):
            pool.fetch(page)
        assert pool.stats.logical_reads == before + 5

    def test_every_write_counts_logically(self, pool):
        page = pool.allocate()
        before = pool.stats.logical_writes
        for _ in range(3):
            pool.write(page, b"b" * 512)
        assert pool.stats.logical_writes == before + 3

    def test_wrong_size_write_rejected(self, pool):
        page = pool.allocate()
        with pytest.raises(ValueError):
            pool.write(page, b"tiny")


class TestEviction:
    def test_capacity_is_enforced(self, pool):
        _fill(pool, 10)
        assert len(pool._slots) <= 4

    def test_evicted_dirty_page_written_back(self, pool):
        pages = _fill(pool, 10)  # early pages evicted
        assert pool.fetch(pages[0]) == bytes([0]) * 512

    def test_eviction_is_lru(self, pool):
        pages = _fill(pool, 4)
        pool.fetch(pages[0])  # refresh page 0
        extra = pool.allocate()
        pool.write(extra, b"x" * 512)  # evicts pages[1], not pages[0]
        assert pages[0] in pool._slots
        assert pages[1] not in pool._slots

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BufferPool(Pager(MEMORY, page_size=512), capacity=0)


class TestFlush:
    def test_flush_persists_dirty_pages(self, tmp_path):
        path = tmp_path / "f.db"
        pager = Pager(path, page_size=512)
        pool = BufferPool(pager, capacity=8)
        page = pool.allocate()
        pool.write(page, b"q" * 512)
        pool.flush()
        pager.sync()
        pool.close()
        pager.close()
        with Pager(path, page_size=512) as reopened:
            assert reopened.read(page) == b"q" * 512

    def test_drop_cache_then_fetch_reads_physically(self, pool):
        page = pool.allocate()
        pool.write(page, b"k" * 512)
        pool.drop_cache()
        reads = pool.stats.physical_reads
        assert pool.fetch(page) == b"k" * 512
        assert pool.stats.physical_reads == reads + 1

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "f.db"
        pager = Pager(path, page_size=512)
        pool = BufferPool(pager, capacity=8)
        page = pool.allocate()
        pool.write(page, b"c" * 512)
        pool.close()
        assert pager.read(page) == b"c" * 512
        pager.close()

    def test_operations_after_close_rejected(self, pool):
        pool.close()
        with pytest.raises(PagerClosedError):
            pool.fetch(1)


class TestFree:
    def test_free_removes_from_cache(self, pool):
        page = pool.allocate()
        pool.write(page, b"d" * 512)
        pool.free(page)
        assert page not in pool._slots

    def test_free_counts(self, pool):
        page = pool.allocate()
        pool.free(page)
        assert pool.stats.frees == 1
        assert pool.stats.allocations == 1
