"""Page checksums: trailers, refusal of the retired v1 format, scrub."""

import struct

import pytest

from repro.cli import main as cli_main
from repro.core import SWSTConfig, SWSTIndex
from repro.storage import (ChecksumError, CorruptPageFileError,
                           FilePageDevice, Pager, StorageError,
                           TornWriteError, UnsupportedFormatError,
                           probe_page_file, scrub_page_file)
from repro.storage.page import PAGE_TRAILER, SUPERBLOCK_SIZE

PAGE_SIZE = 1024
SLOT_SIZE = PAGE_SIZE + PAGE_TRAILER.size


def _slot_offset(page_id: int, byte: int = 0) -> int:
    return SUPERBLOCK_SIZE + page_id * SLOT_SIZE + byte


def _flip_byte(path, offset: int, mask: int = 0x01) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ mask]))


def _make_v1_file(path, pages: list[bytes], meta: bytes = b"",
                  free_head: int = 0) -> None:
    """Hand-craft a retired v1 page file (no superblock, no trailers)."""
    header = struct.pack("<8sIQ", b"SWSTPGR1", PAGE_SIZE, free_head)
    blob = (header + meta).ljust(PAGE_SIZE, b"\x00")
    for page in pages:
        blob += page.ljust(PAGE_SIZE, b"\x00")
    path.write_bytes(blob)


class TestV2RoundTrip:
    def test_data_survives_reopen(self, tmp_path):
        path = tmp_path / "v2.db"
        with Pager(path, page_size=PAGE_SIZE) as pager:
            pid = pager.allocate()
            pager.write(pid, b"\xa5" * PAGE_SIZE)
        with Pager(path, page_size=PAGE_SIZE) as pager:
            assert pager.read(pid) == b"\xa5" * PAGE_SIZE

    def test_new_files_are_v2_with_checksums(self, tmp_path):
        device = FilePageDevice(tmp_path / "new.db", PAGE_SIZE)
        try:
            assert device.checksums
        finally:
            device.close()

    def test_probe_reports_v2(self, tmp_path):
        path = tmp_path / "v2.db"
        Pager(path, page_size=PAGE_SIZE).close()
        assert probe_page_file(path) == PAGE_SIZE


class TestUnsupportedFormats:
    def test_v1_file_is_refused_untouched(self, tmp_path, capsys):
        path = tmp_path / "v1.db"
        _make_v1_file(path, [b"\x11" * PAGE_SIZE], meta=b"legacy")
        before = path.read_bytes()
        openers = [
            lambda: Pager(path, page_size=PAGE_SIZE),
            lambda: SWSTIndex.open(str(path),
                                   SWSTConfig(page_size=PAGE_SIZE)),
            lambda: probe_page_file(path),
            lambda: scrub_page_file(path),
        ]
        for opener in openers:
            with pytest.raises(UnsupportedFormatError) as excinfo:
                opener()
            assert isinstance(excinfo.value, StorageError)
        assert cli_main(["scrub", str(path)]) == 2
        assert "format-v1 page file" in capsys.readouterr().err
        assert path.read_bytes() == before

    def test_probe_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"NOTAPAGEFILE" + b"\x00" * 100)
        with pytest.raises(CorruptPageFileError) as excinfo:
            probe_page_file(path)
        assert not isinstance(excinfo.value, UnsupportedFormatError)


class TestCorruptionDetection:
    def _fresh_file(self, tmp_path):
        path = tmp_path / "v2.db"
        with Pager(path, page_size=PAGE_SIZE) as pager:
            pid = pager.allocate()
            pager.write(pid, bytes(range(256)) * (PAGE_SIZE // 256))
        return path, pid

    def test_flipped_data_bit_raises_checksum_error_naming_page(
            self, tmp_path):
        path, pid = self._fresh_file(tmp_path)
        _flip_byte(path, _slot_offset(pid, 100), 0x20)
        with Pager(path, page_size=PAGE_SIZE) as pager:
            with pytest.raises(ChecksumError) as excinfo:
                pager.read(pid)
        assert f"page {pid}" in str(excinfo.value)

    def test_flipped_trailer_crc_raises_checksum_error(self, tmp_path):
        path, pid = self._fresh_file(tmp_path)
        _flip_byte(path, _slot_offset(pid, PAGE_SIZE), 0x01)
        with Pager(path, page_size=PAGE_SIZE) as pager:
            with pytest.raises(ChecksumError):
                pager.read(pid)

    def test_smashed_trailer_tag_raises_torn_write_error(self, tmp_path):
        path, pid = self._fresh_file(tmp_path)
        # The format tag sits after the CRC word in the trailer.
        _flip_byte(path, _slot_offset(pid, PAGE_SIZE + 4), 0xFF)
        with Pager(path, page_size=PAGE_SIZE) as pager:
            with pytest.raises(TornWriteError):
                pager.read(pid)

    def test_corrupt_superblock_rejected(self, tmp_path):
        path, _ = self._fresh_file(tmp_path)
        _flip_byte(path, 9, 0x04)  # inside the superblock's page_size field
        with pytest.raises(StorageError):
            FilePageDevice(path, PAGE_SIZE)


class TestScrub:
    def test_clean_file_scrubs_clean(self, tmp_path):
        path = tmp_path / "v2.db"
        with Pager(path, page_size=PAGE_SIZE) as pager:
            for _ in range(4):
                pager.write(pager.allocate(), b"\x37" * PAGE_SIZE)
        report = scrub_page_file(path)
        assert report.ok
        assert report.corrupt == []
        assert report.committed is not None and report.committed.clean

    def test_scrub_names_the_corrupt_page(self, tmp_path):
        path = tmp_path / "v2.db"
        with Pager(path, page_size=PAGE_SIZE) as pager:
            pids = [pager.allocate() for _ in range(4)]
            for pid in pids:
                pager.write(pid, b"\x37" * PAGE_SIZE)
        victim = pids[2]
        _flip_byte(path, _slot_offset(victim, 11), 0x80)
        report = scrub_page_file(path)
        assert not report.ok
        assert [pid for pid, _ in report.corrupt] == [victim]


    def test_scrub_flags_uncommitted_overwrite_of_committed_page(
            self, tmp_path):
        # A committed page stamped with a newer generation than the
        # committed header is a crashed session's in-place overwrite;
        # recovery-on-open refuses such a file and scrub must agree.
        path = tmp_path / "v2.db"
        with Pager(path, page_size=PAGE_SIZE) as pager:
            pids = [pager.allocate() for _ in range(4)]
            for pid in pids:
                pager.write(pid, b"\x42" * PAGE_SIZE)
        committed = scrub_page_file(path).committed.generation
        device = FilePageDevice(path, PAGE_SIZE)
        try:
            device.set_write_generation(committed + 1)
            device.write(pids[1], b"\x99" * PAGE_SIZE)
        finally:
            device.close()
        report = scrub_page_file(path)
        assert not report.ok
        assert [pid for pid, _ in report.corrupt] == [pids[1]]
        assert "overwrites the committed snapshot" in report.corrupt[0][1]
