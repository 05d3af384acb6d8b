"""Raw page devices.

A *page device* stores fixed-size pages addressed by integer id and knows
nothing about their contents.  Two implementations are provided:

* :class:`FilePageDevice` — pages live in a single binary file on disk.  This
  is the production device and the one the paper's cost model assumes.
* :class:`MemoryPageDevice` — pages live in a dict.  Used by tests and
  benchmarks that only care about *logical* node accesses (the paper's
  metric), where real disk IO would add noise without changing the counts.

On-disk format::

    superblock (512 bytes): magic "SWSTDV3\\0", page_size, trailer_size, crc32
    page slot i at offset 512 + i * (page_size + 8):
        page data (page_size bytes)
        trailer (8 bytes): crc32, format tag "SWP3"

The trailer lives *outside* the logical page, so the page size seen by every
layer above (pager, buffer pool, B+ tree fan-out) is identical with and
without checksums.  Reads verify the trailer: a wrong format tag raises
:class:`TornWriteError` (the write never completed), a CRC mismatch raises
:class:`ChecksumError`.

This is the only format: a non-empty file without the superblock magic is
refused with :class:`CorruptPageFileError`, or with its subclass
:class:`UnsupportedFormatError` when it is a retired format — the
superblock-less v1 file, or the v2 file whose pager overwrote committed
pages in place (no page map).  A refused file is never written to.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, Protocol

from .errors import (ChecksumError, CorruptPageFileError, PageError,
                     PagerClosedError, TornWriteError,
                     UnsupportedFormatError)

DEFAULT_PAGE_SIZE = 8192

#: Size of the superblock that prefixes the page slots.
SUPERBLOCK_SIZE = 512
SUPERBLOCK_MAGIC = b"SWSTDV3\x00"
#: First bytes of the retired formats: v1 (its pager header sat at offset
#: 0) and v2 (in-place pages, write-generation trailers, no page map).
_RETIRED_MAGICS = {b"SWSTPGR1": "format-v1 page file (no superblock)",
                   b"SWSTDV2\x00": "format-v2 page file (no page map)"}
_SUPERBLOCK = struct.Struct("<8sIII")  # magic, page_size, trailer_size, crc32

#: Per-page trailer: crc32, format tag.
PAGE_TRAILER = struct.Struct("<II")
TRAILER_TAG = 0x53575033  # "SWP3" little-endian
_TAG_BYTES = struct.pack("<I", TRAILER_TAG)


def read_superblock(path: str, handle: BinaryIO) -> int:
    """Page size named by the superblock of page file ``path``.

    Raises :class:`UnsupportedFormatError` for a retired format's magic
    and :class:`CorruptPageFileError` for anything else that is not a
    valid superblock.
    """
    handle.seek(0)
    head = handle.read(_SUPERBLOCK.size)
    retired = _RETIRED_MAGICS.get(head[:8])
    if retired is not None:
        raise UnsupportedFormatError(
            f"{path}: {retired}; this version reads only format v3 "
            f"(open and save it with the release that wrote it, then "
            f"rebuild)")
    if len(head) < _SUPERBLOCK.size or head[:8] != SUPERBLOCK_MAGIC:
        raise CorruptPageFileError(
            f"{path}: not a recognised SWST page file")
    magic, page_size, trailer_size, crc = _SUPERBLOCK.unpack_from(head)
    if zlib.crc32(_SUPERBLOCK.pack(magic, page_size, trailer_size, 0)) != crc:
        raise CorruptPageFileError(
            f"{path}: superblock failed its checksum")
    if trailer_size != PAGE_TRAILER.size:
        raise CorruptPageFileError(
            f"unsupported page trailer size {trailer_size}")
    return int(page_size)


class PageDevice(Protocol):
    """Minimal interface a page store must provide."""

    page_size: int
    checksums: bool

    def read(self, page_id: int) -> bytes: ...

    def write(self, page_id: int, data: bytes) -> None: ...

    def extend(self) -> int: ...

    def page_count(self) -> int: ...

    def truncate(self, page_count: int) -> None: ...

    def sync(self) -> None: ...

    def close(self) -> None: ...


class FilePageDevice:
    """Fixed-size checksummed pages stored in one binary file."""

    checksums = True

    def __init__(self, path: str | os.PathLike[str],
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0 or page_size % 512:
            raise ValueError(f"page_size must be a positive multiple of 512, "
                             f"got {page_size}")
        self.path = os.fspath(path)
        self.page_size = page_size
        self._slot_size = page_size + PAGE_TRAILER.size
        mode = "r+b" if os.path.exists(self.path) else "w+b"
        self._file = open(self.path, mode)
        self._closed = False
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size == 0:
                self._init_fresh()
            else:
                self._open_existing(size)
        except BaseException:
            self._closed = True
            self._file.close()
            raise

    # -- format handling -----------------------------------------------------

    def _init_fresh(self) -> None:
        fixed = _SUPERBLOCK.pack(SUPERBLOCK_MAGIC, self.page_size,
                                 PAGE_TRAILER.size, 0)
        crc = zlib.crc32(fixed)
        blob = _SUPERBLOCK.pack(SUPERBLOCK_MAGIC, self.page_size,
                                PAGE_TRAILER.size, crc)
        self._file.seek(0)
        self._file.write(blob.ljust(SUPERBLOCK_SIZE, b"\x00"))
        self._count = 0

    def _open_existing(self, size: int) -> None:
        page_size = read_superblock(self.path, self._file)
        if page_size != self.page_size:
            raise CorruptPageFileError(
                f"file page size {page_size} != requested {self.page_size}")
        payload = max(size - SUPERBLOCK_SIZE, 0)
        self._count = payload // self._slot_size
        if payload % self._slot_size:
            # A torn extend left a partial slot at the tail; drop it —
            # it was never part of any committed state.
            self._file.truncate(self._offset(self._count))

    def _offset(self, page_id: int) -> int:
        return SUPERBLOCK_SIZE + page_id * self._slot_size

    # -- trailer helpers -----------------------------------------------------

    def _make_trailer(self, data: bytes) -> bytes:
        return PAGE_TRAILER.pack(zlib.crc32(_TAG_BYTES, zlib.crc32(data)),
                                 TRAILER_TAG)

    def _verify_trailer(self, page_id: int, data: bytes,
                        trailer: bytes) -> None:
        crc, tag = PAGE_TRAILER.unpack(trailer)
        if tag != TRAILER_TAG:
            raise TornWriteError(
                f"page {page_id}: invalid trailer (torn or never-completed "
                f"write)")
        expected = zlib.crc32(_TAG_BYTES, zlib.crc32(data))
        if crc != expected:
            raise ChecksumError(
                f"page {page_id}: checksum mismatch (stored {crc:#010x}, "
                f"computed {expected:#010x})")

    # -- device API ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise PagerClosedError("page device is closed")

    def _check_id(self, page_id: int) -> None:
        if not 0 <= page_id < self._count:
            raise PageError(f"page id {page_id} out of range "
                            f"[0, {self._count})")

    def read(self, page_id: int) -> bytes:
        self._check_open()
        self._check_id(page_id)
        self._file.seek(self._offset(page_id))
        blob = self._file.read(self._slot_size)
        if len(blob) != self._slot_size:
            raise PageError(f"short read on page {page_id}")
        data, trailer = blob[:self.page_size], blob[self.page_size:]
        self._verify_trailer(page_id, data, trailer)
        return data

    def _write_at(self, page_id: int, data: bytes) -> None:
        self._file.seek(self._offset(page_id))
        self._file.write(data + self._make_trailer(data))

    def write(self, page_id: int, data: bytes) -> None:
        self._check_open()
        self._check_id(page_id)
        if len(data) != self.page_size:
            raise PageError(f"page data must be exactly {self.page_size} "
                            f"bytes, got {len(data)}")
        self._write_at(page_id, data)

    def extend(self) -> int:
        """Append one zeroed page and return its id."""
        self._check_open()
        page_id = self._count
        self._write_at(page_id, b"\x00" * self.page_size)
        self._count += 1
        return page_id

    def truncate(self, page_count: int) -> None:
        """Discard every page with id >= ``page_count`` (recovery only)."""
        self._check_open()
        if not 0 <= page_count <= self._count:
            raise PageError(f"cannot truncate to {page_count} pages "
                            f"(device holds {self._count})")
        self._file.flush()
        self._file.truncate(self._offset(page_count))
        self._count = page_count

    def page_count(self) -> int:
        return self._count

    def sync(self) -> None:
        self._check_open()
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.flush()
            self._file.close()

    # -- raw slot access (fault injection and forensics) ---------------------

    def _read_raw(self, page_id: int) -> bytes:
        """The physical slot bytes (data + trailer), unverified."""
        self._check_open()
        self._check_id(page_id)
        self._file.seek(self._offset(page_id))
        blob = self._file.read(self._slot_size)
        return blob.ljust(self._slot_size, b"\x00")

    def _write_raw(self, page_id: int, blob: bytes) -> None:
        """Overwrite the physical slot verbatim — below the checksum layer."""
        self._check_open()
        self._check_id(page_id)
        if len(blob) != self._slot_size:
            raise PageError(f"raw slot must be exactly {self._slot_size} "
                            f"bytes, got {len(blob)}")
        self._file.seek(self._offset(page_id))
        self._file.write(blob)


class MemoryPageDevice:
    """Pages stored in memory; same contract as :class:`FilePageDevice`."""

    checksums = False

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self._pages: list[bytes] = []
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise PagerClosedError("page device is closed")

    def _check_id(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise PageError(f"page id {page_id} out of range "
                            f"[0, {len(self._pages)})")

    def read(self, page_id: int) -> bytes:
        self._check_open()
        self._check_id(page_id)
        return self._pages[page_id]

    def write(self, page_id: int, data: bytes) -> None:
        self._check_open()
        self._check_id(page_id)
        if len(data) != self.page_size:
            raise PageError(f"page data must be exactly {self.page_size} "
                            f"bytes, got {len(data)}")
        self._pages[page_id] = bytes(data)

    def extend(self) -> int:
        self._check_open()
        self._pages.append(b"\x00" * self.page_size)
        return len(self._pages) - 1

    def truncate(self, page_count: int) -> None:
        self._check_open()
        if not 0 <= page_count <= len(self._pages):
            raise PageError(f"cannot truncate to {page_count} pages "
                            f"(device holds {len(self._pages)})")
        del self._pages[page_count:]

    def page_count(self) -> int:
        return len(self._pages)

    def sync(self) -> None:
        self._check_open()

    def close(self) -> None:
        self._closed = True
