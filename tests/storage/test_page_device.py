"""Page devices: the raw fixed-size page stores under the pager."""

import pytest

from repro.storage import (CorruptPageFileError, FilePageDevice,
                           MemoryPageDevice, PageError)
from repro.storage.errors import PagerClosedError


@pytest.fixture(params=["memory", "file"])
def device(request, tmp_path):
    dev = (MemoryPageDevice(page_size=512)
           if request.param == "memory"
           else FilePageDevice(tmp_path / "pages.bin", page_size=512))
    yield dev
    dev.close()


class TestDevice:
    def test_starts_empty(self, device):
        assert device.page_count() == 0

    def test_extend_returns_sequential_ids(self, device):
        assert [device.extend() for _ in range(3)] == [0, 1, 2]

    def test_extended_page_is_zeroed(self, device):
        page = device.extend()
        assert device.read(page) == b"\x00" * 512

    def test_write_read_round_trip(self, device):
        page = device.extend()
        device.write(page, b"\xab" * 512)
        assert device.read(page) == b"\xab" * 512

    def test_out_of_range_read_rejected(self, device):
        with pytest.raises(PageError):
            device.read(0)
        device.extend()
        with pytest.raises(PageError):
            device.read(1)

    def test_wrong_size_write_rejected(self, device):
        page = device.extend()
        with pytest.raises(PageError):
            device.write(page, b"x" * 511)

    def test_closed_device_rejects_io(self, device):
        page = device.extend()
        device.close()
        with pytest.raises(PagerClosedError):
            device.read(page)


class TestFileSpecific:
    def test_data_survives_reopen(self, tmp_path):
        path = tmp_path / "pages.bin"
        dev = FilePageDevice(path, page_size=512)
        page = dev.extend()
        dev.write(page, b"persist!".ljust(512, b"\x00"))
        dev.sync()
        dev.close()
        reopened = FilePageDevice(path, page_size=512)
        assert reopened.read(page).startswith(b"persist!")
        reopened.close()

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "pages.bin"
        path.write_bytes(b"x" * 700)  # no superblock
        with pytest.raises(CorruptPageFileError):
            FilePageDevice(path, page_size=512)

    def test_page_size_must_be_sector_aligned(self, tmp_path):
        with pytest.raises(ValueError):
            FilePageDevice(tmp_path / "x.bin", page_size=1000)

    def test_memory_device_accepts_any_positive_size(self):
        dev = MemoryPageDevice(page_size=100)
        page = dev.extend()
        dev.write(page, b"y" * 100)
        assert dev.read(page) == b"y" * 100
