"""Page checksums: trailers, refusal of the retired formats, scrub."""

import struct
import zlib

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


def _v2_superblock() -> bytes:
    """The superblock of a retired format-v2 page file."""
    fixed = struct.pack("<8sIII", b"SWSTDV2\x00", PAGE_SIZE, 16, 0)
    return struct.pack("<8sIII", b"SWSTDV2\x00", PAGE_SIZE, 16,
                       zlib.crc32(fixed)).ljust(SUPERBLOCK_SIZE, b"\x00")


class TestV2RoundTrip:
    def test_data_survives_reopen(self, tmp_path):
        path = tmp_path / "v2.db"
        with Pager(path, page_size=PAGE_SIZE) as pager:
            pid = pager.allocate()
            pager.write(pid, b"\xa5" * PAGE_SIZE)
            pager.sync()
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

    def test_v2_file_is_refused_untouched(self, tmp_path, capsys):
        # Format v2 overwrote committed pages in place and kept no page
        # map; its superblock magic is refused, typed, before any write.
        path = tmp_path / "v2.db"
        path.write_bytes(_v2_superblock() + b"\x00" * 3 * (PAGE_SIZE + 16))
        before = path.read_bytes()
        for opener in (lambda: Pager(path, page_size=PAGE_SIZE),
                       lambda: SWSTIndex.open(str(path),
                                              SWSTConfig(page_size=PAGE_SIZE)),
                       lambda: scrub_page_file(path)):
            with pytest.raises(UnsupportedFormatError, match="format-v2"):
                opener()
        assert cli_main(["scrub", str(path)]) == 2
        assert "format-v2 page file" in capsys.readouterr().err
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
            pager.sync()
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
            pager.sync()
        report = scrub_page_file(path)
        assert report.ok
        assert report.corrupt == []
        assert report.committed is not None

    def test_scrub_names_the_corrupt_page(self, tmp_path):
        path = tmp_path / "v2.db"
        with Pager(path, page_size=PAGE_SIZE) as pager:
            pids = [pager.allocate() for _ in range(4)]
            for pid in pids:
                pager.write(pid, b"\x37" * PAGE_SIZE)
            pager.sync()
        victim = pids[2]
        _flip_byte(path, _slot_offset(victim, 11), 0x80)
        report = scrub_page_file(path)
        assert not report.ok
        assert [pid for pid, _ in report.corrupt] == [victim]

    def test_scrub_sweeps_only_what_the_generation_names(self, tmp_path):
        # A write after the commit lands in a slot the committed
        # generation does not name; tearing it (a crash mid-write)
        # damages nothing the file opens at, so scrub stays clean and
        # the reopen reads the committed bytes.
        path = tmp_path / "v3.db"
        with Pager(path, page_size=PAGE_SIZE) as pager:
            pid = pager.allocate()
            pager.write(pid, b"\x42" * PAGE_SIZE)
            pager.sync()
            pager.write(pid, b"\x99" * PAGE_SIZE)
            shadow = pager._map[pid]
        assert shadow != pid
        _flip_byte(path, _slot_offset(shadow, PAGE_SIZE + 4), 0xFF)
        report = scrub_page_file(path)
        assert report.ok and report.mapped == 2  # the page + its map
        with Pager(path, page_size=PAGE_SIZE) as pager:
            assert pager.read(pid) == b"\x42" * PAGE_SIZE
