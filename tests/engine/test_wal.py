"""WAL unit tests: codec, writer, reader, torn tails, resume."""

import os
import pathlib
import struct

import pytest

from repro.core import Rect, SWSTConfig, SWSTIndex
from repro.engine.errors import WalCorruptError
from repro.engine.wal import (HEADER_SIZE, NONE_ARG, OP_ADVANCE, OP_CLOSE,
                              OP_INSERT, OP_RETAIN, OP_RUN, WalRecord,
                              WalReport, WalWriter, read_wal, replay,
                              wal_file_name)
from tests.storage.fault import FaultInjectingFileOps, InjectedFault


def make_config(**overrides):
    params = dict(window=100, slide=20, x_partitions=4, y_partitions=4,
                  d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                  page_size=512)
    params.update(overrides)
    return SWSTConfig(**params)


class TestNames:
    def test_wal_names_are_per_shard(self):
        assert wal_file_name(3) == "shard-003.wal"
        assert wal_file_name(12) == "shard-012.wal"


class TestCodec:
    def test_record_roundtrip(self, tmp_path):
        path = str(tmp_path / "w.wal")
        writer = WalWriter.reset(path, epoch=4)
        assert writer.log(OP_INSERT, (7, 1, 2, 10, NONE_ARG)) == 0
        assert writer.log(OP_ADVANCE, (11,)) == 1
        assert writer.pending == 2
        writer.commit()
        assert writer.pending == 0
        scan = read_wal(path)
        assert scan.epoch == 4
        assert not scan.torn
        assert scan.records == (
            WalRecord(0, OP_INSERT, (7, 1, 2, 10, NONE_ARG)),
            WalRecord(1, OP_ADVANCE, (11,)),
        )

    def test_record_bytes_are_pinned(self):
        # u32 n_args | u64 seq | u8 op | n_args x i64 | u32 crc, all
        # little-endian: the layout every existing log was written in.
        insert = WalRecord(41, OP_INSERT, (7, 12, 34, 500, NONE_ARG))
        assert insert.encode().hex() == (
            "05000000" "2900000000000000" "02"
            "0700000000000000" "0c00000000000000" "2200000000000000"
            "f401000000000000" "ffffffffffffffff" "14fdf26d")
        run = WalRecord(42, OP_RUN, (120, 3, 40, 41, 118, 9, -5, 7, 120))
        assert run.encode().hex() == (
            "09000000" "2a00000000000000" "07"
            "7800000000000000" "0300000000000000" "2800000000000000"
            "2900000000000000" "7600000000000000" "0900000000000000"
            "fbffffffffffffff" "0700000000000000" "7800000000000000"
            "7e37342c")

    def test_negative_args_roundtrip(self, tmp_path):
        path = str(tmp_path / "w.wal")
        writer = WalWriter.reset(path, epoch=0)
        writer.log(OP_RETAIN, (5, NONE_ARG))
        writer.commit()
        assert read_wal(path).records[0].args == (5, NONE_ARG)

    def test_empty_commit_is_a_noop(self, tmp_path):
        path = str(tmp_path / "w.wal")
        WalWriter.reset(path, epoch=1).commit()
        assert os.path.getsize(path) == HEADER_SIZE

    def test_log_is_not_durable_until_commit(self, tmp_path):
        path = str(tmp_path / "w.wal")
        writer = WalWriter.reset(path, epoch=0)
        writer.log(OP_ADVANCE, (5,))
        assert read_wal(path).records == ()
        writer.commit()
        assert len(read_wal(path).records) == 1


class TestReaderRejections:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "w.wal"
        path.write_bytes(b"SW")
        with pytest.raises(WalCorruptError, match="header truncated"):
            read_wal(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.wal"
        path.write_bytes(b"NOPE" + b"\x00" * (HEADER_SIZE - 4))
        with pytest.raises(WalCorruptError, match="bad magic"):
            read_wal(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "w.wal"
        path.write_bytes(struct.pack("<4sHHQ", b"SWAL", 99, 0, 0))
        with pytest.raises(WalCorruptError, match="unsupported version"):
            read_wal(str(path))

    def test_unknown_op_is_corruption(self, tmp_path):
        path = str(tmp_path / "w.wal")
        WalWriter.reset(path, epoch=0)
        with open(path, "ab") as handle:
            handle.write(WalRecord(0, 200, (1,)).encode())
        with pytest.raises(WalCorruptError, match="unknown op"):
            read_wal(path)

    def test_sequence_discontinuity_is_corruption(self, tmp_path):
        path = str(tmp_path / "w.wal")
        WalWriter.reset(path, epoch=0)
        with open(path, "ab") as handle:
            handle.write(WalRecord(0, OP_ADVANCE, (1,)).encode())
            handle.write(WalRecord(5, OP_ADVANCE, (2,)).encode())
        with pytest.raises(WalCorruptError, match="discontinuity"):
            read_wal(path)


class TestTornTail:
    def _committed(self, tmp_path, n=3):
        path = str(tmp_path / "w.wal")
        writer = WalWriter.reset(path, epoch=2)
        for t in range(n):
            writer.log(OP_ADVANCE, (t,))
        writer.commit()
        return path

    def test_short_final_record_is_torn_not_corrupt(self, tmp_path):
        path = self._committed(tmp_path)
        whole = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(WalRecord(3, OP_ADVANCE, (9,)).encode()[:-2])
        scan = read_wal(path)
        assert scan.torn
        assert len(scan.records) == 3
        assert scan.valid_bytes == whole

    def test_crc_flip_in_final_record_is_torn(self, tmp_path):
        path = self._committed(tmp_path)
        blob = bytearray(pathlib.Path(path).read_bytes())
        blob[-1] ^= 0xFF
        pathlib.Path(path).write_bytes(bytes(blob))
        scan = read_wal(path)
        assert scan.torn
        assert len(scan.records) == 2  # final record dropped

    def test_resume_truncates_the_tail(self, tmp_path):
        path = self._committed(tmp_path)
        whole = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        writer, scan = WalWriter.resume(path)
        assert scan.torn
        assert os.path.getsize(path) == whole
        assert writer.next_seq == 3
        writer.log(OP_ADVANCE, (99,))
        writer.commit()
        resumed = read_wal(path)
        assert not resumed.torn
        assert resumed.records[-1] == WalRecord(3, OP_ADVANCE, (99,))


class TestResumeAndRebase:
    def test_resume_continues_sequence_numbers(self, tmp_path):
        path = str(tmp_path / "w.wal")
        writer = WalWriter.reset(path, epoch=7)
        writer.log(OP_ADVANCE, (1,))
        writer.commit()
        resumed, scan = WalWriter.resume(path)
        assert (resumed.epoch, resumed.next_seq) == (7, 1)
        assert scan.records == (WalRecord(0, OP_ADVANCE, (1,)),)

    def test_reset_replaces_previous_log_atomically(self, tmp_path):
        path = str(tmp_path / "w.wal")
        writer = WalWriter.reset(path, epoch=1)
        writer.log(OP_ADVANCE, (1,))
        writer.commit()
        WalWriter.reset(path, epoch=2)
        scan = read_wal(path)
        assert (scan.epoch, scan.records) == (2, ())


class TestDurabilityBarrier:
    def test_commit_is_one_append_plus_one_fsync(self, tmp_path):
        path = str(tmp_path / "w.wal")
        ops = FaultInjectingFileOps()
        writer = WalWriter.reset(path, ops, epoch=0)
        before = len(ops.ops)
        for t in range(10):
            writer.log(OP_ADVANCE, (t,))
        writer.commit()
        names = [name for name, _ in ops.ops[before:]]
        assert names == ["append_file", "fsync_file"]

    def test_failed_fsync_surfaces_before_acknowledgement(self, tmp_path):
        path = str(tmp_path / "w.wal")
        ops = FaultInjectingFileOps()
        writer = WalWriter.reset(path, ops, epoch=0)
        # Reset spent some fsyncs; schedule the failure on the *next*
        # one, which is commit's group-commit barrier.
        ops.fsync_errors[ops.fsyncs_seen + 1] = InjectedFault("barrier")
        writer.log(OP_ADVANCE, (1,))
        with pytest.raises(InjectedFault):
            writer.commit()


class TestReplay:
    def test_replay_equals_direct_apply(self, tmp_path):
        config = make_config()
        direct = SWSTIndex(config)
        direct.insert(1, 5, 5, 0)
        direct.insert(2, 20, 20, 3, 10)
        direct.advance_time(6)
        direct._ingest_run_reports([WalReport(3, 40, 40, 5),
                                    WalReport(1, 6, 6, 6)])
        direct.close_object(1, 9)

        path = str(tmp_path / "w.wal")
        writer = WalWriter.reset(path, epoch=0)
        writer.log(OP_INSERT, (1, 5, 5, 0, NONE_ARG))
        writer.log(OP_INSERT, (2, 20, 20, 3, 10))
        writer.log(OP_RUN, (6, 3, 40, 40, 5, 1, 6, 6, 6))
        writer.log(OP_CLOSE, (1, 9))
        writer.commit()

        replayed = SWSTIndex(make_config())
        assert replay(replayed, read_wal(path).records) == 4
        key = lambda e: (e.oid, e.x, e.y, e.s,  # noqa: E731
                         -1 if e.d is None else e.d)
        assert sorted(map(key, replayed.scan())) \
            == sorted(map(key, direct.scan()))
        assert replayed.now == direct.now
