"""Fault injection: a page device wrapper that breaks on command.

:class:`FaultInjectingPageDevice` wraps any page device and injects
failures *below* the checksum layer, so the corruption it produces is
exactly what the recovery machinery must detect:

* **crash at write k** — the k-th write (counting ``write`` and ``extend``
  together) optionally tears (a prefix of the physical slot — data *and*
  trailer — is written, the suffix keeps its old bytes) and then raises
  :class:`OSError`; every later write or sync also raises, simulating a
  process that died at that instant.
* **scriptable error schedules** — map read/write ordinals to arbitrary
  exceptions for targeted ``OSError`` testing.
* **stored bit flips** — :meth:`flip_stored_bit` XORs a byte of the raw
  slot on disk (under the CRC), modelling bit rot.

The wrapper satisfies the :class:`repro.storage.page.PageDevice` protocol
and plugs under :class:`repro.storage.pager.Pager` either directly
(``Pager(device=...)``) or through ``SWSTConfig.device_factory``.

:class:`FaultInjectingFileOps` is the same idea one level up: it wraps
the engine's durable-file seam (:class:`repro.storage.fileops.FileOps`)
so the *manifest protocol* — temp-file writes, ``os.replace`` flips,
directory fsyncs, unlinks — can be killed at any single step.
The engine-level crash matrix iterates ``fail_op`` over every ordinal of
a ``save()`` and proves each prefix leaves a recoverable directory.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping, MutableSequence

from repro.storage.fileops import DURABLE_FILE_OPS, FileOps
from repro.storage.page import PageDevice


class InjectedFault(OSError):
    """The fault injector fired (distinguishable from real IO errors)."""


def crash_devices(devices: MutableSequence["FaultInjectingPageDevice"],
                  ) -> None:
    """Simulate a process kill across ``devices``.

    Sets ``crashed`` on every registered wrapper so any further IO — a
    buffer-pool flush, a pager header commit, the close path — raises
    :class:`InjectedFault`.  Whatever already reached the disk stays;
    nothing else gets through.  The crash matrices pair this with the
    ``registry`` argument of :func:`per_path_device_factory`.
    """
    for device in devices:
        device.crashed = True


def per_path_device_factory(
        match: str,
        base_factory: Callable[[str, int], Any] | None = None,
        registry: MutableSequence["FaultInjectingPageDevice"] | None = None,
        **fault_kwargs: Any) -> Callable[[str, int], Any]:
    """Build a ``device_factory`` that injects faults for selected paths.

    The sharded engine opens one page device per shard through the same
    ``SWSTConfig.device_factory``; each shard is distinguished only by its
    file path (``shard-000.pages``, ``shard-001.pages``, ...).  The factory
    returned here wraps the device in a
    :class:`FaultInjectingPageDevice` configured with ``fault_kwargs``
    *only* when ``match`` occurs in the path, so a single shard of an
    engine can be made to fail while its siblings stay healthy.

    Args:
        match: substring of the path that selects the faulty device(s).
        base_factory: how to build the underlying device; defaults to a
            plain :class:`~repro.storage.page.FilePageDevice`.
        registry: optional mutable sequence that collects every wrapper
            built; the engine crash matrix uses it to flip ``crashed``
            on all of an engine's devices at once (simulated kill).
        **fault_kwargs: passed to :class:`FaultInjectingPageDevice`.

    Returns:
        A ``(path, page_size) -> PageDevice`` callable for
        ``SWSTConfig.device_factory``.
    """
    def factory(path: str, page_size: int) -> Any:
        from repro.storage.page import FilePageDevice

        device = (base_factory(path, page_size)
                  if base_factory is not None
                  else FilePageDevice(path, page_size))
        try:
            if match in os.fspath(path):
                wrapper = FaultInjectingPageDevice(device, **fault_kwargs)
                if registry is not None:
                    registry.append(wrapper)
                return wrapper
            return device
        except BaseException:
            device.close()
            raise

    return factory


class FaultInjectingPageDevice:
    """Wrap ``device``, injecting faults according to the configuration.

    Args:
        device: the real page device (usually a
            :class:`~repro.storage.page.FilePageDevice`).
        fail_write: 1-based ordinal of the write operation at which to
            crash, or ``None`` to never crash.
        tear_bytes: how many bytes of the crashing write's physical slot
            reach the disk before the crash (0 = none; the write is lost
            entirely).
        fail_read: 1-based ordinal of the read operation at which to
            crash (sets ``crashed``, so every later operation fails
            too), or ``None`` to never crash on read.
        write_errors: optional map of write ordinal -> exception to raise
            *instead of* performing that write (the device stays usable).
        read_errors: optional map of read ordinal -> exception to raise
            instead of performing that read.
    """

    def __init__(self, device: PageDevice, *,
                 fail_write: int | None = None,
                 tear_bytes: int = 0,
                 fail_read: int | None = None,
                 write_errors: Mapping[int, Exception] | None = None,
                 read_errors: Mapping[int, Exception] | None = None) -> None:
        self._inner = device
        self.fail_write = fail_write
        self.tear_bytes = tear_bytes
        self.fail_read = fail_read
        self.write_errors = dict(write_errors or {})
        self.read_errors = dict(read_errors or {})
        self.writes_seen = 0
        self.reads_seen = 0
        self.crashed = False

    # -- delegated attributes ------------------------------------------------

    @property
    def page_size(self) -> int:
        return self._inner.page_size

    @property
    def checksums(self) -> bool:
        return getattr(self._inner, "checksums", False)

    def page_count(self) -> int:
        return self._inner.page_count()

    # -- fault machinery -----------------------------------------------------

    def _check_crashed(self) -> None:
        if self.crashed:
            raise InjectedFault("device crashed by fault injection")

    def _next_write(self) -> None:
        """Advance the write ordinal; raise if a fault is scheduled."""
        self._check_crashed()
        self.writes_seen += 1
        error = self.write_errors.pop(self.writes_seen, None)
        if error is not None:
            raise error

    def _crash_due(self) -> bool:
        return self.fail_write is not None \
            and self.writes_seen == self.fail_write

    def _tear_slot(self, page_id: int, data: bytes, fresh: bool) -> None:
        """Leave a torn physical slot: new prefix, stale suffix."""
        inner = self._inner
        if hasattr(inner, "_write_raw") and inner.checksums:
            new_blob = data + inner._make_trailer(data)
            old_blob = (b"\xff" * len(new_blob) if fresh
                        else inner._read_raw(page_id))
        else:
            new_blob = data
            old_blob = (b"\x00" * len(data) if fresh
                        else inner.read(page_id))
        tear = min(self.tear_bytes, len(new_blob))
        torn = new_blob[:tear] + old_blob[tear:]
        if hasattr(inner, "_write_raw") and inner.checksums:
            inner._write_raw(page_id, torn)
        else:
            inner.write(page_id, torn)

    def flip_stored_bit(self, page_id: int, byte_offset: int,
                        mask: int = 0x01) -> None:
        """XOR one stored byte of the page's physical slot (bit rot)."""
        inner = self._inner
        if hasattr(inner, "_read_raw"):
            blob = bytearray(inner._read_raw(page_id))
            blob[byte_offset] ^= mask
            inner._write_raw(page_id, bytes(blob))
        else:
            data = bytearray(inner.read(page_id))
            data[byte_offset] ^= mask
            inner.write(page_id, bytes(data))

    # -- device API ----------------------------------------------------------

    def read(self, page_id: int) -> bytes:
        self._check_crashed()
        self.reads_seen += 1
        error = self.read_errors.pop(self.reads_seen, None)
        if error is not None:
            raise error
        if self.fail_read is not None and self.reads_seen == self.fail_read:
            self.crashed = True
            raise InjectedFault(
                f"injected crash at read {self.reads_seen} "
                f"(page {page_id})")
        return self._inner.read(page_id)

    def write(self, page_id: int, data: bytes) -> None:
        self._next_write()
        if self._crash_due():
            self.crashed = True
            if self.tear_bytes > 0:
                self._tear_slot(page_id, data, fresh=False)
            raise InjectedFault(
                f"injected crash at write {self.writes_seen} "
                f"(page {page_id}, {self.tear_bytes} bytes reached disk)")
        self._inner.write(page_id, data)

    def extend(self) -> int:
        self._next_write()
        if self._crash_due():
            self.crashed = True
            if self.tear_bytes > 0:
                page_id = self._inner.extend()
                self._tear_slot(page_id, b"\x00" * self.page_size,
                                fresh=True)
            raise InjectedFault(
                f"injected crash at write {self.writes_seen} (extend, "
                f"{self.tear_bytes} bytes reached disk)")
        return self._inner.extend()

    def truncate(self, page_count: int) -> None:
        self._check_crashed()
        self._inner.truncate(page_count)

    def sync(self) -> None:
        self._check_crashed()
        self._inner.sync()

    def close(self) -> None:
        # Always release the real device, even after a simulated crash —
        # the *handle* must not leak just because the *disk* died.
        self._inner.close()


class FaultInjectingFileOps:
    """Wrap a :class:`~repro.storage.fileops.FileOps`, failing on command.

    Counts every durable-file operation the engine's manifest protocol
    performs — ``write_file``, ``replace``, ``fsync_dir``, ``unlink`` —
    and crashes at a chosen ordinal, after which every further operation
    fails too (the process is dead).  ``ops`` records each completed or
    attempted operation as ``(name, path)``, so the crash matrix can
    first run a fault-free save to learn the protocol length, then kill
    at every ordinal ``1..len(ops)``.

    Args:
        inner: the real implementation; defaults to the shared
            :data:`~repro.storage.fileops.DURABLE_FILE_OPS`.
        fail_op: 1-based ordinal of the operation at which to crash, or
            ``None`` to never crash.  The crashing operation does *not*
            reach the inner implementation — the kill lands just before
            the syscall.
        op_errors: optional map of ordinal -> exception raised instead
            of performing that operation (the ops object stays usable:
            a transient fault, not a kill).
        short_writes: optional map of op ordinal -> byte count.  When a
            ``write_file``/``append_file`` lands on a scheduled ordinal,
            only that many bytes of its payload reach the inner
            implementation before the process "dies" (``crashed`` is
            set and :class:`InjectedFault` raised) — a torn small-file
            write, the failure a WAL's CRC trailers must detect.
        fsync_errors: optional map of *fsync ordinal* -> exception.  The
            fsync ordinal counts ``fsync_file`` and ``fsync_dir`` calls
            only (1-based, separate from the global op counter), so a
            group-commit barrier can be failed without first counting
            the appends that led up to it.  Transient: the ops object
            stays usable, modelling a disk that rejected one barrier.
    """

    def __init__(self, inner: FileOps | None = None, *,
                 fail_op: int | None = None,
                 op_errors: Mapping[int, Exception] | None = None,
                 short_writes: Mapping[int, int] | None = None,
                 fsync_errors: Mapping[int, Exception] | None = None,
                 ) -> None:
        self._inner: FileOps = inner if inner is not None \
            else DURABLE_FILE_OPS
        self.fail_op = fail_op
        self.op_errors = dict(op_errors or {})
        self.short_writes = dict(short_writes or {})
        self.fsync_errors = dict(fsync_errors or {})
        self.ops: list[tuple[str, str]] = []
        self.fsyncs_seen = 0
        self.crashed = False

    def _next_op(self, name: str, path: str) -> None:
        if self.crashed:
            raise InjectedFault("file ops crashed by fault injection")
        self.ops.append((name, path))
        ordinal = len(self.ops)
        error = self.op_errors.pop(ordinal, None)
        if error is not None:
            raise error
        if self.fail_op is not None and ordinal == self.fail_op:
            self.crashed = True
            raise InjectedFault(
                f"injected crash at file op {ordinal} ({name} {path!r})")

    def _short_write_due(self) -> int | None:
        """Bytes to let through if this op is a scheduled short write."""
        return self.short_writes.pop(len(self.ops), None)

    def _next_fsync(self, name: str, path: str) -> None:
        """Advance the fsync ordinal; raise a scheduled transient error."""
        self.fsyncs_seen += 1
        error = self.fsync_errors.pop(self.fsyncs_seen, None)
        if error is not None:
            raise error

    def write_file(self, path: str, data: bytes) -> None:
        self._next_op("write_file", path)
        tear = self._short_write_due()
        if tear is not None:
            self._inner.write_file(path, data[:tear])
            self.crashed = True
            raise InjectedFault(
                f"injected short write at file op {len(self.ops)} "
                f"({tear}/{len(data)} bytes of {path!r} reached disk)")
        self._inner.write_file(path, data)

    def replace(self, src: str, dst: str) -> None:
        self._next_op("replace", dst)
        self._inner.replace(src, dst)

    def fsync_dir(self, path: str) -> None:
        self._next_op("fsync_dir", path)
        self._next_fsync("fsync_dir", path)
        self._inner.fsync_dir(path)

    def unlink(self, path: str) -> None:
        self._next_op("unlink", path)
        self._inner.unlink(path)

    def append_file(self, path: str, data: bytes) -> None:
        self._next_op("append_file", path)
        tear = self._short_write_due()
        if tear is not None:
            self._inner.append_file(path, data[:tear])
            self.crashed = True
            raise InjectedFault(
                f"injected short append at file op {len(self.ops)} "
                f"({tear}/{len(data)} bytes of {path!r} reached disk)")
        self._inner.append_file(path, data)

    def fsync_file(self, path: str) -> None:
        self._next_op("fsync_file", path)
        self._next_fsync("fsync_file", path)
        self._inner.fsync_file(path)

    def truncate_file(self, path: str, size: int) -> None:
        self._next_op("truncate_file", path)
        self._inner.truncate_file(path, size)

    def copy_file(self, src: str, dst: str) -> None:
        self._next_op("copy_file", dst)
        self._inner.copy_file(src, dst)

    def mkdir(self, path: str) -> None:
        self._next_op("mkdir", path)
        self._inner.mkdir(path)

    def rmdir(self, path: str) -> None:
        self._next_op("rmdir", path)
        self._inner.rmdir(path)
