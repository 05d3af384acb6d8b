"""Durable small-file operations (the sharded engine's manifest seam).

The engine's two-phase epoch commit hinges on a handful of filesystem
operations being *durable* and *ordered*: write a temp file and fsync it
(so its bytes are on disk before it gets a name), ``os.replace`` it over
the target (atomic on POSIX), fsync the containing directory (so the
rename itself survives power loss), unlink a marker file.  This module
wraps those four operations behind the :class:`FileOps` protocol so the
crash-matrix harness can substitute a fault-injecting implementation
(``FaultInjectingFileOps`` in ``tests/storage/fault.py``) and kill the
protocol at every step.

Page-level IO has its own seam (``SWSTConfig.device_factory``); this one
is for the *metadata* files that live next to the page files.
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable


@runtime_checkable
class FileOps(Protocol):
    """Durable filesystem operations used by directory-level commits."""

    def write_file(self, path: str, data: bytes) -> None:
        """Create/truncate ``path`` with ``data``, flushed and fsynced."""
        ...  # pragma: no cover - protocol

    def replace(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` over ``dst`` (``os.replace``)."""
        ...  # pragma: no cover - protocol

    def fsync_dir(self, path: str) -> None:
        """fsync directory ``path`` so renames/unlinks inside it persist."""
        ...  # pragma: no cover - protocol

    def unlink(self, path: str) -> None:
        """Remove ``path`` if it exists (missing is not an error)."""
        ...  # pragma: no cover - protocol

    def append_file(self, path: str, data: bytes) -> None:
        """Append ``data`` to ``path`` (created if missing), *not* fsynced.

        Durability is deferred to an explicit :meth:`fsync_file` so a WAL
        writer can batch many appends under one fsync (group commit).
        """
        ...  # pragma: no cover - protocol

    def fsync_file(self, path: str) -> None:
        """fsync ``path``'s contents (the group-commit barrier)."""
        ...  # pragma: no cover - protocol

    def truncate_file(self, path: str, size: int) -> None:
        """Truncate ``path`` to ``size`` bytes and fsync it."""
        ...  # pragma: no cover - protocol

    def copy_file(self, src: str, dst: str) -> None:
        """Durably copy ``src`` over ``dst``.

        The copy itself must be atomic with respect to crashes: either
        ``dst`` keeps its old bytes (or stays absent) or it holds a
        complete, fsynced copy of ``src``.  The containing directory is
        *not* fsynced here — callers batch that behind one
        :meth:`fsync_dir`, the same discipline as :meth:`replace`.
        """
        ...  # pragma: no cover - protocol

    def mkdir(self, path: str) -> None:
        """Create directory ``path`` (already existing is not an error)."""
        ...  # pragma: no cover - protocol

    def rmdir(self, path: str) -> None:
        """Remove empty directory ``path`` (missing is not an error)."""
        ...  # pragma: no cover - protocol


class DurableFileOps:
    """The real thing: plain ``os`` calls with the full fsync discipline."""

    def write_file(self, path: str, data: bytes) -> None:
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def fsync_dir(self, path: str) -> None:
        fd = -1
        try:
            fd = os.open(path, os.O_RDONLY)
            os.fsync(fd)
        finally:
            if fd >= 0:
                os.close(fd)

    def unlink(self, path: str) -> None:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass

    def append_file(self, path: str, data: bytes) -> None:
        with open(path, "ab") as handle:
            handle.write(data)
            handle.flush()

    def fsync_file(self, path: str) -> None:
        fd = -1
        try:
            fd = os.open(path, os.O_RDONLY)
            os.fsync(fd)
        finally:
            if fd >= 0:
                os.close(fd)

    def truncate_file(self, path: str, size: int) -> None:
        with open(path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    def copy_file(self, src: str, dst: str) -> None:
        with open(src, "rb") as handle:
            blob = handle.read()
        tmp = dst + ".tmp"
        self.write_file(tmp, blob)
        self.replace(tmp, dst)

    def mkdir(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def rmdir(self, path: str) -> None:
        try:
            os.rmdir(path)
        except FileNotFoundError:
            pass


#: Shared default instance (the operations are stateless).
DURABLE_FILE_OPS = DurableFileOps()
