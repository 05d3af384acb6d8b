"""Shadow paging: the retained generation's slots are never overwritten.

A pager maps logical pages to physical slots.  Whatever the session
does after a commit — rewrites, frees, evictions, further commits that
are not retained — the retained generation stays byte-for-byte on disk,
so reopening at it needs no sweep and no copy.
"""

import pytest

from repro.storage import (CorruptPageFileError, FilePageDevice, PageError,
                           Pager)
from tests.storage.fault import FaultInjectingPageDevice

PAGE = 512


def slot_bytes(path, slots):
    """Raw bytes of the given physical slots (data + trailer)."""
    device = FaultInjectingPageDevice(FilePageDevice(path, PAGE))
    try:
        return {slot: device._inner._read_raw(slot) for slot in slots}
    finally:
        device.close()


def committed(path, pages=4, generation=None):
    """A file whose last commit maps ``pages`` pages of known bytes."""
    with Pager(path, PAGE, generation=generation) as pager:
        ids = [pager.allocate() for _ in range(pages)]
        for n, page_id in enumerate(ids):
            pager.write(page_id, bytes([n + 1]) * PAGE)
        pager.sync()
        return ids, pager.generation, set(pager._retained)


class TestSingleFile:
    def test_writes_after_a_commit_leave_its_slots_alone(self, tmp_path):
        path = tmp_path / "f.db"
        ids, _, retained = committed(path)
        before = slot_bytes(path, retained)
        with Pager(path, PAGE) as pager:
            for page_id in ids:
                pager.write(page_id, b"\xee" * PAGE)
            pager.free(ids[0])
            pager.allocate()
            assert slot_bytes(path, retained) == before
            assert {pager._map[page_id] for page_id in ids[1:]} \
                .isdisjoint(retained)
        # The close committed nothing: the reopen is the last commit.
        with Pager(path, PAGE) as pager:
            assert [pager.read(page_id) for page_id in ids] == [
                bytes([n + 1]) * PAGE for n in range(len(ids))]

    def test_free_writes_nothing(self, tmp_path):
        device = FaultInjectingPageDevice(
            FilePageDevice(tmp_path / "f.db", PAGE))
        with Pager(device=device, page_size=PAGE) as pager:
            page_id = pager.allocate()
            pager.sync()
            writes = device.writes_seen
            pager.free(page_id)
            assert device.writes_seen == writes
            assert pager.page_is_free(page_id)

    def test_every_commit_is_retained_and_slots_are_reused(self, tmp_path):
        path = tmp_path / "f.db"
        with Pager(path, PAGE) as pager:
            ids = [pager.allocate() for _ in range(8)]
            sizes = []
            for round_ in range(6):
                for page_id in ids:
                    pager.write(page_id, bytes([round_]) * PAGE)
                pager.sync()
                sizes.append(pager._device.page_count())
        # Each round rewrites every page once: the file holds at most
        # three copies of each (the last two commits + working) plus
        # their maps, and stops growing once the superseded slots are
        # reused.
        assert sizes[-1] == sizes[3]
        assert sizes[-1] <= 2 + 3 * (len(ids) + 1)

    @pytest.mark.parametrize("reopen", [False, True],
                             ids=["one-session", "reopened"])
    def test_a_rotted_newest_header_falls_back_to_a_whole_generation(
            self, tmp_path, reopen):
        # Commits 1-3, then a session that rewrites, frees and
        # allocates without committing.  The previous commit is the
        # fallback of the newest header, so none of that touches it.
        path = tmp_path / "f.db"
        pager = Pager(path, PAGE)
        ids = [pager.allocate() for _ in range(6)]
        for gen in (1, 2, 3):
            for page_id in ids:
                pager.write(page_id, bytes([gen]) * PAGE)
            pager.sync()
            if reopen:
                pager.close()
                pager = Pager(path, PAGE)
        assert pager.generation == 3
        for page_id in ids:
            pager.write(page_id, b"\xee" * PAGE)
        pager.free(ids[0])
        extra = [pager.allocate() for _ in range(12)]
        for page_id in extra:
            pager.write(page_id, b"\xdd" * PAGE)
        newest = pager._slot
        pager.close()
        device = FaultInjectingPageDevice(FilePageDevice(path, PAGE))
        device.flip_stored_bit(newest, 12)      # the generation field
        device.close()
        with Pager(path, PAGE) as pager:
            assert pager.generation == 2
            assert [pager.read(page_id) for page_id in ids] == \
                [b"\x02" * PAGE] * len(ids)

    def test_an_unreadable_previous_commit_never_opens(self, tmp_path):
        path = tmp_path / "f.db"
        with Pager(path, PAGE) as pager:
            page_id = pager.allocate()
            for gen in (1, 2):
                pager.write(page_id, bytes([gen]) * PAGE)
                pager.sync()
            older_chain = list(pager._chain)    # generation 2's map
            pager.write(page_id, b"\x03" * PAGE)
            pager.sync()
            newest = pager._slot
        device = FaultInjectingPageDevice(FilePageDevice(path, PAGE))
        device.flip_stored_bit(older_chain[0], 20, 0x40)
        device.close()
        # The open cannot tell which slots generation 2 names, so it
        # zeroes that header rather than leave a fallback it may break.
        with Pager(path, PAGE) as pager:
            assert pager.read(page_id) == b"\x03" * PAGE
        device = FaultInjectingPageDevice(FilePageDevice(path, PAGE))
        device.flip_stored_bit(newest, 12)
        device.close()
        with pytest.raises(CorruptPageFileError, match="neither header"):
            Pager(path, PAGE)


class TestFailedCommit:
    def failing_sync(self, device, at):
        """Make the ``at``-th next ``sync`` (1-based) raise once."""
        real = device.sync
        calls = [0]

        def sync():
            calls[0] += 1
            if calls[0] == at:
                raise OSError(5, "injected sync failure")
            real()
        device.sync = sync

    def test_a_commit_that_fails_before_its_header_costs_no_slots(
            self, tmp_path):
        device = FaultInjectingPageDevice(
            FilePageDevice(tmp_path / "f.db", PAGE))
        with Pager(device=device, page_size=PAGE) as pager:
            ids = [pager.allocate() for _ in range(4)]
            pager.sync()
            gen = pager.generation
            for page_id in ids:
                pager.write(page_id, b"\x11" * PAGE)
            sizes = []
            for _ in range(4):
                self.failing_sync(device, 1)     # before the header
                with pytest.raises(OSError, match="injected"):
                    pager.sync()
                assert pager.generation == gen
                sizes.append(device.page_count())
            assert len(set(sizes)) == 1
            pager.sync()
            assert pager.generation == gen + 1
            assert device.page_count() == sizes[0]

    def test_a_header_that_may_have_landed_keeps_what_it_names(
            self, tmp_path):
        path = tmp_path / "f.db"
        ids, gen, _ = committed(path)
        device = FaultInjectingPageDevice(FilePageDevice(path, PAGE))
        pager = Pager(device=device, page_size=PAGE)
        for page_id in ids:
            pager.write(page_id, b"\x22" * PAGE)
        self.failing_sync(device, 2)             # after the header write
        with pytest.raises(OSError, match="injected"):
            pager.sync()
        assert pager.generation == gen
        # The header reached the file; later writes must not land on
        # the slots it names.
        for page_id in ids:
            pager.write(page_id, b"\x33" * PAGE)
        pager.close()
        with Pager(path, PAGE) as pager:
            assert pager.generation == gen + 1
            assert [pager.read(page_id) for page_id in ids] == \
                [b"\x22" * PAGE] * len(ids)


class TestEngineShard:
    def test_unretained_commits_never_touch_the_opened_generation(
            self, tmp_path):
        path = tmp_path / "shard.pages"
        ids, gen, retained = committed(path)
        before = slot_bytes(path, retained)
        # Opened at its recorded generation, a shard may commit more
        # than once (a save retried after a failure) without the
        # manifest naming any of it.
        with Pager(path, PAGE, generation=gen) as pager:
            for round_ in range(3):
                for page_id in ids:
                    pager.write(page_id, bytes([0x40 + round_]) * PAGE)
                pager.sync()
            assert pager.generation == gen + 3
            assert slot_bytes(path, retained) == before
        with Pager(path, PAGE) as pager:       # the newest header
            assert pager.generation == gen + 3
            assert pager.read(ids[0]) == b"\x42" * PAGE
        # Reopening at the recorded generation drops the newer commit
        # for good: its header never opens again.
        with Pager(path, PAGE, generation=gen) as pager:
            assert pager.read(ids[0]) == b"\x01" * PAGE
        with Pager(path, PAGE) as pager:
            assert pager.generation == gen
            assert pager.read(ids[0]) == b"\x01" * PAGE

    def test_retain_moves_the_protected_generation(self, tmp_path):
        path = tmp_path / "shard.pages"
        ids, gen, retained = committed(path)
        with Pager(path, PAGE, generation=gen) as pager:
            pager.write(ids[0], b"\x55" * PAGE)
            pager.sync()                   # gen + 1, not retained
            pager.write(ids[1], b"\x56" * PAGE)
            with pytest.raises(PageError, match="uncommitted"):
                pager.retain()             # only a commit is retained
            pager.sync()                   # gen + 2
            pager.retain()                 # the manifest names gen + 2
            # Slots only the old generation named are free again.
            assert set(pager._spare) >= retained - pager._retained
            pager.write(ids[2], b"\x57" * PAGE)
            pager.sync()                   # gen + 3, over gen's header
        with Pager(path, PAGE, generation=gen + 2) as pager:
            assert pager.read(ids[0]) == b"\x55" * PAGE
            assert pager.read(ids[1]) == b"\x56" * PAGE
            assert pager.read(ids[2]) == b"\x03" * PAGE
        with pytest.raises(CorruptPageFileError, match="generation"):
            Pager(path, PAGE, generation=gen)

    def test_open_at_a_generation_no_slot_holds_is_refused(self, tmp_path):
        path = tmp_path / "shard.pages"
        _, gen, _ = committed(path)
        with pytest.raises(CorruptPageFileError,
                           match=f"no header slot holds generation "
                                 f"{gen + 5}"):
            Pager(path, PAGE, generation=gen + 5)


class TestPageMap:
    def test_a_damaged_map_is_a_typed_error(self, tmp_path):
        path = tmp_path / "f.db"
        committed(path)
        with Pager(path, PAGE) as pager:
            chain = list(pager._chain)
        device = FaultInjectingPageDevice(FilePageDevice(path, PAGE))
        device.flip_stored_bit(chain[0], 20, 0x40)
        device.close()
        with pytest.raises(CorruptPageFileError):
            Pager(path, PAGE)

    def test_logical_ids_are_allocated_as_before(self, tmp_path):
        # Fresh ids count up from 2 and freed ids come back last-freed
        # first, across a commit and a reopen: trees see the same ids.
        path = tmp_path / "f.db"
        with Pager(path, PAGE) as pager:
            ids = [pager.allocate() for _ in range(5)]
            assert ids == [2, 3, 4, 5, 6]
            pager.free(ids[1])
            pager.free(ids[3])
            pager.sync()
        with Pager(path, PAGE) as pager:
            assert [pager.allocate() for _ in range(3)] == [5, 3, 7]
