"""Pager: allocation, free list, header metadata, file round-trips."""

import pytest

from repro.storage import (CorruptPageFileError, MEMORY, PageError, Pager,
                           PagerClosedError)


@pytest.fixture
def pager():
    with Pager(MEMORY, page_size=1024) as p:
        yield p


class TestAllocation:
    def test_fresh_pager_has_header_pages_only(self, pager):
        assert pager.page_count() == pager.first_data_page

    def test_allocate_returns_distinct_ids(self, pager):
        ids = {pager.allocate() for _ in range(10)}
        assert len(ids) == 10

    def test_allocate_never_returns_header_page(self, pager):
        for _ in range(20):
            assert pager.allocate() != 0

    def test_allocated_page_is_zeroed(self, pager):
        page = pager.allocate()
        assert pager.read(page) == b"\x00" * 1024

    def test_write_then_read_round_trips(self, pager):
        page = pager.allocate()
        data = bytes(range(256)) * 4
        pager.write(page, data)
        assert pager.read(page) == data

    def test_write_wrong_size_rejected(self, pager):
        page = pager.allocate()
        with pytest.raises(PageError):
            pager.write(page, b"short")

    def test_read_unallocated_page_rejected(self, pager):
        with pytest.raises(PageError):
            pager.read(99)


class TestFreeList:
    def test_freed_page_is_reused(self, pager):
        page = pager.allocate()
        pager.free(page)
        assert pager.allocate() == page

    def test_free_list_is_lifo(self, pager):
        pages = [pager.allocate() for _ in range(3)]
        for page in pages:
            pager.free(page)
        assert pager.allocate() == pages[-1]
        assert pager.allocate() == pages[-2]

    def test_reused_page_is_zeroed(self, pager):
        page = pager.allocate()
        pager.write(page, b"\xff" * 1024)
        pager.free(page)
        reused = pager.allocate()
        assert pager.read(reused) == b"\x00" * 1024

    def test_free_list_length(self, pager):
        pages = [pager.allocate() for _ in range(5)]
        for page in pages[:3]:
            pager.free(page)
        assert pager.free_list_length() == 3

    def test_cannot_free_header_page(self, pager):
        with pytest.raises(PageError):
            pager.free(0)

    def test_free_does_not_shrink_file(self, pager):
        page = pager.allocate()
        count = pager.page_count()
        pager.free(page)
        assert pager.page_count() == count


class TestMeta:
    def test_meta_round_trips(self, pager):
        pager.meta = b"catalog-at-7"
        assert pager.meta == b"catalog-at-7"

    def test_meta_defaults_empty(self, pager):
        assert pager.meta == b""

    def test_meta_too_large_rejected(self, pager):
        with pytest.raises(ValueError):
            pager.meta = b"x" * 2000

    def test_meta_capacity_reported(self, pager):
        pager.meta = b"y" * pager.meta_capacity  # exactly at capacity: ok
        assert len(pager.meta) == pager.meta_capacity


class TestFileBacked:
    def test_reopen_preserves_pages_and_meta(self, tmp_path):
        path = tmp_path / "pages.db"
        with Pager(path, page_size=1024) as pager:
            page = pager.allocate()
            pager.write(page, b"z" * 1024)
            pager.meta = b"hello"
            pager.sync()
        with Pager(path, page_size=1024) as pager:
            assert pager.read(page) == b"z" * 1024
            assert pager.meta == b"hello"

    def test_reopen_preserves_free_list(self, tmp_path):
        path = tmp_path / "pages.db"
        with Pager(path, page_size=1024) as pager:
            pages = [pager.allocate() for _ in range(4)]
            pager.free(pages[1])
            pager.sync()
        with Pager(path, page_size=1024) as pager:
            assert pager.allocate() == pages[1]

    def test_mismatched_page_size_rejected(self, tmp_path):
        from repro.storage import StorageError
        path = tmp_path / "pages.db"
        Pager(path, page_size=1024).close()
        with pytest.raises(StorageError):
            Pager(path, page_size=2048)
        # A compatible multiple still fails the header check.
        with Pager(path, page_size=1024) as grown:
            grown.allocate()
        with pytest.raises(StorageError):
            Pager(path, page_size=2048)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "pages.db"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 1016)
        with pytest.raises(CorruptPageFileError):
            Pager(path, page_size=1024)

    def test_invalid_page_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Pager(tmp_path / "x.db", page_size=1000)

    def test_operations_after_close_rejected(self, tmp_path):
        pager = Pager(tmp_path / "x.db", page_size=1024)
        pager.close()
        with pytest.raises(PagerClosedError):
            pager.allocate()


class TestClosedPager:
    @pytest.fixture
    def closed(self, tmp_path):
        pager = Pager(tmp_path / "closed.db", page_size=1024)
        page = pager.allocate()
        pager.close()
        return pager, page

    def test_every_operation_raises(self, closed):
        pager, page = closed
        with pytest.raises(PagerClosedError):
            pager.read(page)
        with pytest.raises(PagerClosedError):
            pager.write(page, b"\x00" * 1024)
        with pytest.raises(PagerClosedError):
            pager.allocate()
        with pytest.raises(PagerClosedError):
            pager.free(page)
        with pytest.raises(PagerClosedError):
            pager.meta
        with pytest.raises(PagerClosedError):
            pager.meta = b"x"
        with pytest.raises(PagerClosedError):
            pager.page_count()
        with pytest.raises(PagerClosedError):
            pager.sync()
        with pytest.raises(PagerClosedError):
            pager.free_list_length()

    def test_close_is_idempotent(self, closed):
        pager, _ = closed
        pager.close()


class TestFreeValidation:
    def test_double_free_rejected_at_free_time(self, pager):
        page = pager.allocate()
        pager.free(page)
        with pytest.raises(PageError, match="double free"):
            pager.free(page)

    def test_out_of_range_free_rejected(self, pager):
        with pytest.raises(PageError):
            pager.free(pager.page_count() + 5)

    def test_double_free_never_corrupts_the_list(self, pager):
        pages = [pager.allocate() for _ in range(3)]
        for page in pages:
            pager.free(page)
        for page in pages:
            with pytest.raises(PageError):
                pager.free(page)
        # The free list is still a clean 3-element chain, not a cycle.
        assert pager.free_list_length() == 3

    def test_page_is_free_tracks_state(self, pager):
        page = pager.allocate()
        assert not pager.page_is_free(page)
        pager.free(page)
        assert pager.page_is_free(page)
        assert pager.allocate() == page
        assert not pager.page_is_free(page)


class TestDualSlotHeader:
    def test_generation_advances_per_commit(self, tmp_path):
        path = tmp_path / "gen.db"
        with Pager(path, page_size=1024) as pager:
            first = pager.generation
            pager.allocate()
            pager.sync()
            assert pager.generation > first
        with Pager(path, page_size=1024) as pager:
            assert pager.generation >= first + 1

    def test_corrupt_newest_slot_falls_back_to_older(self, tmp_path):
        from repro.storage import FilePageDevice
        from tests.storage.fault import FaultInjectingPageDevice
        path = tmp_path / "dual.db"
        with Pager(path, page_size=1024) as pager:
            page = pager.allocate()
            pager.write(page, b"A" * 1024)
            pager.meta = b"state-1"
            pager.sync()
            pager.meta = b"state-1"
            pager.sync()
        # Both header slots name the same state; find and smash the newest.
        probe = Pager(path, page_size=1024)
        newest_slot = probe._slot
        probe.close()
        device = FaultInjectingPageDevice(FilePageDevice(path, 1024))
        device.flip_stored_bit(newest_slot, 20, 0xFF)
        device.close()
        # Reopen: the older slot still holds a committed header for the
        # same data, so nothing is lost.
        with Pager(path, page_size=1024) as pager:
            assert pager.read(page) == b"A" * 1024
            assert pager.meta == b"state-1"

    def test_both_slots_corrupt_is_a_typed_error(self, tmp_path):
        from repro.storage import FilePageDevice
        from tests.storage.fault import FaultInjectingPageDevice
        path = tmp_path / "dual.db"
        with Pager(path, page_size=1024) as pager:
            pager.allocate()
        device = FaultInjectingPageDevice(FilePageDevice(path, 1024))
        device.flip_stored_bit(0, 20, 0xFF)
        device.flip_stored_bit(1, 20, 0xFF)
        device.close()
        with pytest.raises(CorruptPageFileError):
            Pager(path, page_size=1024)
