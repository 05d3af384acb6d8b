"""FaultInjectingPageDevice: crash-at-write-k, tearing, error schedules."""

import pathlib

import pytest

from repro.storage import (ChecksumError, CorruptPageFileError,
                           FilePageDevice, Pager)
from tests.storage.fault import (FaultInjectingFileOps,
                                 FaultInjectingPageDevice, InjectedFault,
                                 crash_devices)

PAGE_SIZE = 1024


def _device(tmp_path, name="f.db", **kwargs):
    return FaultInjectingPageDevice(
        FilePageDevice(tmp_path / name, PAGE_SIZE), **kwargs)


class TestCrashAtWriteK:
    def test_nth_write_raises_and_device_stays_crashed(self, tmp_path):
        device = _device(tmp_path, fail_write=3)
        try:
            device.extend()
            device.extend()
            with pytest.raises(InjectedFault):
                device.extend()
            assert device.crashed
            with pytest.raises(InjectedFault):
                device.write(0, b"\x00" * PAGE_SIZE)
            with pytest.raises(InjectedFault):
                device.sync()
        finally:
            device.close()

    def test_crash_without_tear_loses_the_write(self, tmp_path):
        device = _device(tmp_path, fail_write=3)
        try:
            pid = device.extend()
            device.extend()
            with pytest.raises(InjectedFault):
                device.write(pid, b"\xee" * PAGE_SIZE)
        finally:
            device.close()
        clean = FilePageDevice(tmp_path / "f.db", PAGE_SIZE)
        try:
            assert clean.read(pid) == b"\x00" * PAGE_SIZE
        finally:
            clean.close()

    def test_torn_write_detected_on_reread(self, tmp_path):
        device = _device(tmp_path, fail_write=2, tear_bytes=100)
        try:
            pid = device.extend()
            with pytest.raises(InjectedFault):
                device.write(pid, b"\xee" * PAGE_SIZE)
        finally:
            device.close()
        clean = FilePageDevice(tmp_path / "f.db", PAGE_SIZE)
        try:
            with pytest.raises(CorruptPageFileError):
                clean.read(pid)
        finally:
            clean.close()

    def test_writes_seen_counts_without_faults(self, tmp_path):
        device = _device(tmp_path)
        try:
            device.extend()
            device.extend()
            device.write(0, b"\x00" * PAGE_SIZE)
            assert device.writes_seen == 3
            assert not device.crashed
        finally:
            device.close()


class TestSchedules:
    def test_write_error_schedule_is_transient(self, tmp_path):
        boom = OSError("scripted EIO")
        device = _device(tmp_path, write_errors={2: boom})
        try:
            device.extend()
            with pytest.raises(OSError, match="scripted EIO"):
                device.extend()
            # The device is not crashed: later writes succeed.
            pid = device.extend()
            device.write(pid, b"\x55" * PAGE_SIZE)
            assert device.read(pid) == b"\x55" * PAGE_SIZE
        finally:
            device.close()

    def test_read_error_schedule(self, tmp_path):
        device = _device(tmp_path, read_errors={2: OSError("scripted read")})
        try:
            pid = device.extend()
            device.read(pid)
            with pytest.raises(OSError, match="scripted read"):
                device.read(pid)
            assert device.read(pid) == b"\x00" * PAGE_SIZE
        finally:
            device.close()


class TestBitFlips:
    def test_flip_stored_bit_breaks_the_checksum(self, tmp_path):
        device = _device(tmp_path)
        try:
            pid = device.extend()
            device.write(pid, b"\x42" * PAGE_SIZE)
            device.flip_stored_bit(pid, 7, 0x10)
            with pytest.raises(ChecksumError):
                device.read(pid)
        finally:
            device.close()


class TestUnderThePager:
    def test_pager_runs_on_a_faultless_wrapper(self, tmp_path):
        device = _device(tmp_path)
        with Pager(device=device, page_size=PAGE_SIZE) as pager:
            pid = pager.allocate()
            pager.write(pid, b"\x24" * PAGE_SIZE)
            pager.sync()
            assert pager.read(pid) == b"\x24" * PAGE_SIZE
        # Reopen with a plain device: everything committed and intact.
        with Pager(tmp_path / "f.db", page_size=PAGE_SIZE) as pager:
            assert pager.read(pid) == b"\x24" * PAGE_SIZE

    def test_pager_init_crash_releases_the_file(self, tmp_path):
        device = _device(tmp_path, fail_write=1)
        with pytest.raises(InjectedFault):
            Pager(device=device, page_size=PAGE_SIZE)
        # The pager closed the device on failure; closing again is a no-op
        # at the wrapper level but must not warn about leaked handles.
        device.close()

    def test_uncommitted_overwrite_never_reaches_the_committed_page(
            self, tmp_path):
        device = FilePageDevice(tmp_path / "f.db", PAGE_SIZE)
        pager = Pager(device=device, page_size=PAGE_SIZE)
        pid = pager.allocate()
        pager.write(pid, b"\x10" * PAGE_SIZE)
        pager.sync()
        # Overwrite after the commit, then "lose power" before the next
        # commit: close the raw device under the pager.  The overwrite
        # went to a shadow slot, so the reopen reads the committed bytes.
        pager.write(pid, b"\x20" * PAGE_SIZE)
        device.sync()
        device.close()
        with Pager(tmp_path / "f.db", page_size=PAGE_SIZE) as reopened:
            assert reopened.read(pid) == b"\x10" * PAGE_SIZE

    def test_uncommitted_extend_is_truncated_on_reopen(self, tmp_path):
        device = FilePageDevice(tmp_path / "f.db", PAGE_SIZE)
        pager = Pager(device=device, page_size=PAGE_SIZE)
        pid = pager.allocate()
        pager.write(pid, b"\x10" * PAGE_SIZE)
        pager.sync()
        committed_slots = device.page_count()
        committed_pages = pager.page_count()
        # Allocate (extend) after the commit, then crash.
        pager.allocate()
        device.sync()
        device.close()
        with Pager(tmp_path / "f.db", page_size=PAGE_SIZE) as pager:
            assert pager.page_count() == committed_pages
            assert pager.read(pid) == b"\x10" * PAGE_SIZE
        device = FilePageDevice(tmp_path / "f.db", PAGE_SIZE)
        assert device.page_count() == committed_slots
        device.close()


class TestFileOpsSchedules:
    """FaultInjectingFileOps: the small-file (WAL/manifest) counterpart."""

    def test_op_error_is_transient(self, tmp_path):
        ops = FaultInjectingFileOps(op_errors={2: OSError("disk says no")})
        target = str(tmp_path / "a.bin")
        ops.write_file(target, b"one")
        with pytest.raises(OSError, match="disk says no"):
            ops.write_file(target, b"two")
        # Transient: the schedule entry is consumed, later ops succeed.
        ops.write_file(target, b"three")
        assert pathlib.Path(target).read_bytes() == b"three"
        assert [name for name, _ in ops.ops] == ["write_file"] * 3

    def test_fail_op_kills_the_ops_object(self, tmp_path):
        ops = FaultInjectingFileOps(fail_op=2)
        target = str(tmp_path / "a.bin")
        ops.write_file(target, b"one")
        with pytest.raises(InjectedFault):
            ops.append_file(target, b"two")
        assert ops.crashed
        # Dead is dead: every further operation fails too.
        with pytest.raises(InjectedFault):
            ops.fsync_file(target)
        assert pathlib.Path(target).read_bytes() == b"one"

    def test_short_write_tears_the_payload_and_crashes(self, tmp_path):
        ops = FaultInjectingFileOps(short_writes={2: 3})
        target = str(tmp_path / "a.bin")
        ops.write_file(target, b"base-")
        with pytest.raises(InjectedFault, match="short append"):
            ops.append_file(target, b"0123456789")
        assert ops.crashed
        # Exactly the scheduled prefix reached the disk.
        assert pathlib.Path(target).read_bytes() == b"base-012"

    def test_fsync_ordinal_counts_only_fsyncs(self, tmp_path):
        ops = FaultInjectingFileOps(
            fsync_errors={2: OSError("barrier lost")})
        target = str(tmp_path / "a.bin")
        ops.write_file(target, b"x")        # op 1: not an fsync
        ops.fsync_file(target)              # fsync ordinal 1
        ops.append_file(target, b"y")       # op 3: not an fsync
        with pytest.raises(OSError, match="barrier lost"):
            ops.fsync_file(target)          # fsync ordinal 2
        assert ops.fsyncs_seen == 2
        # Transient, like a device rejecting one barrier.
        ops.fsync_file(target)


class TestCrashDevices:
    def test_crash_devices_downs_every_registered_wrapper(self, tmp_path):
        devices = [_device(tmp_path, name=f"f{i}.db") for i in range(3)]
        try:
            for device in devices:
                device.extend()
            crash_devices(devices)
            for device in devices:
                assert device.crashed
                with pytest.raises(InjectedFault):
                    device.extend()
        finally:
            for device in devices:
                device.close()
