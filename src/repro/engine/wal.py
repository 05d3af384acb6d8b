"""Per-shard write-ahead log for warm worker processes.

Between two epoch commits (``save()`` calls) a warm worker mutates its
shard's page file freely, but only into slots the committed generation
does not name (shadow paging, :mod:`repro.storage.pager`): a SIGKILL
loses every write since the last commit and nothing else.  The WAL is
what makes acknowledged writes survive anyway: every mutation is
appended here and fsynced *before* it is acknowledged, and on restart
the worker reopens the shard at the generation the manifest records
and replays this log over it.

The sliding-window workload makes this log unusually cheap to reason
about: entry start times are non-decreasing (the same increasing-ending-
time structure the interval-index literature exploits), so the log is
pure append in logical time as well as in file offset — replay is a
single forward pass with no undo records.

On-disk format (all little-endian)::

    header:  magic "SWAL" | u16 version | u16 reserved | u64 epoch
    record:  u32 payload_len | u64 seq | u8 op | payload | u32 crc

``payload`` is ``payload_len`` signed 64-bit integers (the op's
arguments); ``crc`` is the CRC32 of everything before it in the record.
``epoch`` names the engine manifest epoch the log's *base* belongs to:
the two-phase ``save()`` resets each shard's WAL to the new epoch right
after the manifest FLIP, so a WAL whose epoch matches the manifest
holds exactly the not-yet-committed tail.

Replay rules:

* a short or CRC-bad **final** record is a torn tail — the crash landed
  mid-append before the fsync, so the record was never acknowledged;
  it is silently truncated on resume.
* damage anywhere **before** the last record, a bad header, or an epoch
  *ahead* of the manifest is :class:`~repro.engine.errors.WalCorruptError`
  — the acknowledged prefix itself is unreadable and replay must not
  guess.
* a WAL *behind* the manifest epoch is stale (its ops are already in the
  committed state) and is reset, never replayed.

Every op is one public :class:`~repro.core.index.SWSTIndex` method call,
so "replay equals direct apply" is structural, not incidental; the
engine validates arguments against its own mirror *before* logging, so
replaying a valid log never raises.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import struct
import zlib
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..core.records import ReportLike

from ..storage.fileops import DURABLE_FILE_OPS, FileOps
from .errors import WalCorruptError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..core.index import SWSTIndex

_MAGIC = b"SWAL"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")
_FIXED = struct.Struct("<IQB")
_CRC = struct.Struct("<I")
_ARG_SIZE = struct.calcsize("<q")

HEADER_SIZE = _HEADER.size

#: ``None`` durations/retentions are logged as this sentinel (all real
#: values are >= 1, so -1 is unambiguous).
NONE_ARG = -1

OP_ADVANCE = 1    #: (t,) -> advance_time(t)
OP_INSERT = 2     #: (oid, x, y, s, d|-1) -> insert(...)
OP_CLOSE = 3      #: (oid, t) -> close_object(oid, t)
OP_DELETE = 4     #: (oid, x, y, s, d|-1) -> delete(...)
OP_RETAIN = 5     #: (oid, r|-1) -> set_retention(oid, r)
OP_FORGET = 6     #: (oid,) -> forget_object(oid)
OP_RUN = 7        #: (t_max, oid1, x1, y1, t1, ...) -> batched report run

_KNOWN_OPS = frozenset({OP_ADVANCE, OP_INSERT, OP_CLOSE, OP_DELETE,
                        OP_RETAIN, OP_FORGET, OP_RUN})

#: One mutation in the op vocabulary: ``(op code, integer arguments)``.
Op = tuple[int, tuple[int, ...]]


def wal_file_name(shard_id: int) -> str:
    """WAL file name of one shard (lives next to its page file)."""
    return f"shard-{shard_id:03d}.wal"


@functools.lru_cache(maxsize=1024)
def _args_struct(n_args: int) -> struct.Struct:
    """The payload layout of a record with ``n_args`` arguments (a run
    record's count varies with its report count, hence the bound)."""
    return struct.Struct(f"<{n_args}q")


@dataclasses.dataclass(frozen=True, slots=True)
class WalRecord:
    """One logged operation: a sequence number, an op code, int args."""

    seq: int
    op: int
    args: tuple[int, ...]

    def encode(self) -> bytes:
        n_args = len(self.args)
        body = _FIXED.pack(n_args, self.seq, self.op) \
            + _args_struct(n_args).pack(*self.args)
        return body + _CRC.pack(zlib.crc32(body))


@dataclasses.dataclass(frozen=True, slots=True)
class WalReport:
    """Minimal ReportLike for replaying :data:`OP_RUN` batches."""

    oid: int
    x: int
    y: int
    t: int


@dataclasses.dataclass(frozen=True, slots=True)
class WalScan:
    """Result of reading a WAL file.

    Attributes:
        epoch: manifest epoch named by the header.
        records: every whole, CRC-valid record in order.
        valid_bytes: file offset just past the last valid record (the
            resume/truncation point).
        total_bytes: actual file size; ``> valid_bytes`` iff the file
            ends in a torn tail.
    """

    epoch: int
    records: tuple[WalRecord, ...]
    valid_bytes: int
    total_bytes: int

    @property
    def torn(self) -> bool:
        return self.total_bytes > self.valid_bytes


def _decode_one(blob: bytes, offset: int) -> tuple[WalRecord, int] | None:
    """Decode the record at ``offset``; None if short or CRC-bad."""
    end = offset + _FIXED.size
    if end > len(blob):
        return None
    n_args, seq, op = _FIXED.unpack_from(blob, offset)
    body_end = end + n_args * _ARG_SIZE
    crc_end = body_end + _CRC.size
    if crc_end > len(blob):
        return None
    (crc,) = _CRC.unpack_from(blob, body_end)
    if zlib.crc32(blob[offset:body_end]) != crc:
        return None
    args = _args_struct(n_args).unpack_from(blob, end)
    return WalRecord(seq, op, args), crc_end


def read_wal(path: str) -> WalScan:
    """Read and verify a WAL file.

    Stops at the first short or CRC-bad record (the torn tail a crash
    mid-append leaves).  Raises :class:`WalCorruptError` for a bad
    header, an unknown op code, or a sequence-number discontinuity —
    damage inside the acknowledged prefix, which replay must not step
    over.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < HEADER_SIZE:
        raise WalCorruptError(path, f"header truncated "
                                    f"({len(blob)} < {HEADER_SIZE} bytes)")
    magic, version, _reserved, epoch = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise WalCorruptError(path, f"bad magic {magic!r}")
    if version != _VERSION:
        raise WalCorruptError(path, f"unsupported version {version}")
    records: list[WalRecord] = []
    offset = HEADER_SIZE
    expected_seq: int | None = None
    while offset < len(blob):
        decoded = _decode_one(blob, offset)
        if decoded is None:
            break  # torn tail: never acknowledged, dropped on resume
        record, offset = decoded
        if record.op not in _KNOWN_OPS:
            raise WalCorruptError(path, f"unknown op {record.op} at "
                                        f"seq {record.seq}")
        if expected_seq is not None and record.seq != expected_seq:
            raise WalCorruptError(
                path, f"sequence discontinuity: expected {expected_seq}, "
                      f"found {record.seq}")
        expected_seq = record.seq + 1
        records.append(record)
    return WalScan(epoch=epoch, records=tuple(records),
                   valid_bytes=offset, total_bytes=len(blob))


def run_op(t_max: int, reports: Iterable[ReportLike]) -> Op:
    """Encode one shard-local report run as a single :data:`OP_RUN`."""
    return (OP_RUN, (t_max, *(arg for report in reports
                              for arg in (report.oid, report.x, report.y,
                                          report.t))))


def apply_op(shard: "SWSTIndex", op: int, args: Sequence[int]) -> Any:
    """Apply one op to ``shard``; returns the index method's result.

    The single definition of what each op code means: WAL replay, a
    worker acknowledging a live batch and the in-process backend all
    come through here, so "replay equals direct apply" is structural.
    Total for ops planned by the engine: argument validation happened
    against the engine's mirror before the op was built, and replay
    starts from the same base snapshot the log was written against, so
    each call is replayed into exactly the state it originally saw.
    """
    if op == OP_CLOSE:
        return shard.close_object(args[0], args[1])
    if op == OP_DELETE:
        oid, x, y, s, d = args
        return shard.delete(oid, x, y, s, None if d == NONE_ARG else d)
    if op == OP_FORGET:
        return shard.forget_object(args[0])
    if op == OP_ADVANCE:
        shard.advance_time(args[0])
    elif op == OP_INSERT:
        oid, x, y, s, d = args
        shard.insert(oid, x, y, s, None if d == NONE_ARG else d)
    elif op == OP_RETAIN:
        oid, retention = args
        shard.set_retention(oid,
                            None if retention == NONE_ARG else retention)
    elif op == OP_RUN:
        shard.advance_time(args[0])
        shard._ingest_run_reports(
            [WalReport(*args[base:base + 4])
             for base in range(1, len(args), 4)])
    else:  # pragma: no cover - read_wal rejects unknown ops
        raise WalCorruptError("<record>", f"unknown op {op}")
    return None


def apply_record(shard: "SWSTIndex", record: WalRecord) -> None:
    """Replay one logged record into ``shard``."""
    apply_op(shard, record.op, record.args)


def replay(shard: "SWSTIndex", records: Iterable[WalRecord]) -> int:
    """Apply ``records`` to ``shard`` in order; returns the count."""
    count = 0
    for record in records:
        apply_record(shard, record)
        count += 1
    return count


class WalWriter:
    """Append-side of one shard's WAL with fsync batching (group commit).

    :meth:`log` buffers encoded records in memory; :meth:`commit` writes
    the whole buffer with one ``append_file`` and makes it durable with
    one ``fsync_file`` — the worker's acknowledgement barrier.  Many
    logged ops per commit cost one fsync, which is where the warm-worker
    ingest win over a full per-batch ``save()`` comes from.
    """

    def __init__(self, path: str, fops: FileOps, epoch: int,
                 next_seq: int = 0) -> None:
        self.path = path
        self.fops = fops
        self.epoch = epoch
        self.next_seq = next_seq
        self._pending: list[bytes] = []

    @classmethod
    def reset(cls, path: str, fops: FileOps | None = None, *,
              epoch: int) -> "WalWriter":
        """(Re)create the WAL as an empty log for ``epoch``, atomically.

        The fresh header is written to a temp file, fsynced, renamed over
        any previous log and the directory fsynced — so a crash during
        reset leaves either the old complete log or the new empty one,
        never a half-written header.
        """
        ops = fops if fops is not None else DURABLE_FILE_OPS
        header = _HEADER.pack(_MAGIC, _VERSION, 0, epoch)
        tmp = path + ".tmp"
        ops.write_file(tmp, header)
        ops.replace(tmp, path)
        ops.fsync_dir(_parent_dir(path))
        return cls(path, ops, epoch)

    @classmethod
    def resume(cls, path: str, fops: FileOps | None = None,
               scan: WalScan | None = None) -> tuple["WalWriter", WalScan]:
        """Open an existing WAL for appending after replaying it.

        Truncates a torn tail (unacknowledged bytes) so the next append
        starts on a record boundary, and continues the sequence numbers
        where the valid prefix ended.  ``scan`` is the caller's
        :func:`read_wal` of ``path``, if it has one: recovery decodes
        the log once.
        """
        ops = fops if fops is not None else DURABLE_FILE_OPS
        if scan is None:
            scan = read_wal(path)
        if scan.torn:
            ops.truncate_file(path, scan.valid_bytes)
        next_seq = scan.records[-1].seq + 1 if scan.records else 0
        return cls(path, ops, scan.epoch, next_seq), scan

    def log(self, op: int, args: Sequence[int]) -> int:
        """Buffer one record; returns its sequence number.

        Not durable (or even on disk) until :meth:`commit`.
        """
        seq = self.next_seq
        self.next_seq = seq + 1
        self._pending.append(WalRecord(seq, op, tuple(args)).encode())
        return seq

    @property
    def pending(self) -> int:
        return len(self._pending)

    def commit(self) -> None:
        """Append and fsync everything logged since the last commit."""
        if not self._pending:
            return
        blob = b"".join(self._pending)
        self._pending.clear()
        self.fops.append_file(self.path, blob)
        self.fops.fsync_file(self.path)


def _parent_dir(path: str) -> str:
    return os.path.dirname(os.path.abspath(path))

