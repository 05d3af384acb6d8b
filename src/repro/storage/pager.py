"""Pager: page allocation and a persistent free list on top of a page device.

Layout:

* Pages 0 and 1 are the two *header slots*.  Each holds::

      magic (8)  page_size (u32)  generation (u64)  page_count (u64)
      free_head (u64)  flags (u8)  meta_len (u32)  crc32 (u32)  meta...

  A commit writes the header to the slot holding the *older* generation,
  so the previous committed header survives a torn write; recovery picks
  the valid slot with the highest generation.  The tail after the fixed
  fields is available to the owner as an opaque *meta blob*.
* Freed pages are chained through their first 8 bytes.
* The owner's *blob* (SWST stores its tree catalog there) is a chain of
  data pages, each ``next_page (u64)  payload_len (u32)  payload...``;
  the meta blob holds the 8-byte id of the chain's head.
  :meth:`Pager.store_blob` replaces the chain, :meth:`Pager.load_blob`
  reads it back.

Commit protocol: every device write between commits is stamped (in the
page trailer, see :mod:`repro.storage.page`) with ``generation + 1`` — the
generation of the *next* commit.  :meth:`sync` and :meth:`close` commit:
data is fsynced, the header (naming that generation) is written to the
older slot, and the file is fsynced again.  The first mutation of a
session first commits a header with the *dirty* flag, so recovery knows a
write window was open; :meth:`close` commits with the *clean* flag.  For
an owner that stores a blob, :meth:`close` refuses that clean commit when
pages changed after the last stored blob was committed
(:class:`~repro.storage.errors.StaleBlobError`): the blob names the
owner's structure, and a clean header over pages it does not describe
would reopen as clean and wrong.

Recovery on open: pick the newest valid header slot; pages
beyond its committed ``page_count`` are uncommitted extends and are
truncated away; if the header is dirty (crashed session), every committed
page is checksum-verified and any page stamped with a generation newer
than the committed one — an in-place overwrite that never got committed —
raises :class:`CorruptPageFileError`.  A successful dirty recovery
commits a clean header so later opens skip the sweep.  Finally the free
list is walked (with cycle and range checks) into an in-memory freed-set,
which makes double frees detectable at :meth:`free` time.

The pager performs raw device IO only; caching and IO accounting live in
:class:`repro.storage.buffer.BufferPool`, which sits on top.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import NamedTuple

from .errors import (CorruptPageFileError, PageError, PagerClosedError,
                     StaleBlobError)
from .page import (DEFAULT_PAGE_SIZE, FilePageDevice, MemoryPageDevice,
                   PageDevice)

_MAGIC = b"SWSTPGR2"
# magic, page_size, generation, page_count, free_head, flags, meta_len, crc
_HEADER = struct.Struct("<8sIQQQBII")
_FREE_LINK = struct.Struct("<Q")
_PAGE_CHAIN = struct.Struct("<QI")  # next_page, payload_len
_FLAG_CLEAN = 0x01

#: Path sentinel selecting the in-memory device.
MEMORY = ":memory:"


class PagerHeader(NamedTuple):
    """The fields of one valid header slot."""

    generation: int
    page_count: int
    free_head: int
    clean: bool
    meta: bytes


def read_header_slots(device: PageDevice) -> dict[int, PagerHeader]:
    """The valid header slots of ``device``, keyed by slot number.

    A slot that cannot be read (missing, torn, failed checksum) or fails
    any header check is left out: a torn header slot is an expected
    crash artefact, and the other slot decides.
    """
    valid: dict[int, PagerHeader] = {}
    for slot in (0, 1):
        try:
            raw = device.read(slot)
            (magic, page_size, generation, page_count, free_head, flags,
             meta_len, crc) = _HEADER.unpack_from(raw)
        except (CorruptPageFileError, PageError, struct.error):
            continue
        if magic != _MAGIC or page_size != device.page_size:
            continue
        if meta_len > len(raw) - _HEADER.size:
            continue
        meta = raw[_HEADER.size:_HEADER.size + meta_len]
        probe = _HEADER.pack(magic, page_size, generation, page_count,
                             free_head, flags, meta_len, 0)
        if zlib.crc32(probe + meta) == crc:
            valid[slot] = PagerHeader(generation, page_count, free_head,
                                      bool(flags & _FLAG_CLEAN), meta)
    return valid


class Pager:
    """Allocate, free, read and write fixed-size pages.

    Args:
        path: file path, or :data:`MEMORY` for an in-memory device.
        page_size: page size in bytes (must match an existing file).
        device: pre-built page device to use instead of constructing one
            from ``path`` (e.g. the tests' fault-injecting wrapper,
            ``FaultInjectingPageDevice`` in ``tests/storage/fault.py``).
    """

    #: Lowest page id available to callers (the header slots come first).
    first_data_page = 2

    def __init__(self, path: str | os.PathLike[str] = MEMORY,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 device: PageDevice | None = None) -> None:
        self._device: PageDevice
        if device is not None:
            self._device = device
        elif os.fspath(path) == MEMORY:
            self._device = MemoryPageDevice(page_size)
        else:
            self._device = FilePageDevice(path, page_size)
        self.page_size = self._device.page_size
        self.meta_capacity = self.page_size - _HEADER.size
        self._closed = False
        self._mutated = False        # any mutation since the last commit
        self._marked = False         # dirty header committed this session
        self._blob_owner = False     # the owner stores/loads a blob
        self._blob_staged = False    # store_blob since the last commit
        self._blob_behind = False    # pages changed since the blob's commit
        self._freed: set[int] = set()
        self._meta = b""
        self._free_head = 0
        self._generation = 0
        self._slot = 1
        try:
            if self._device.page_count() == 0:
                self._init_fresh()
            else:
                self._open_existing()
        except BaseException:
            self._closed = True
            self._device.close()
            raise

    # -- open / create -------------------------------------------------------

    @property
    def _checksums(self) -> bool:
        return getattr(self._device, "checksums", False)

    @property
    def generation(self) -> int:
        """Generation of the last committed header."""
        return self._generation

    @property
    def session_marked(self) -> bool:
        """True once this session's dirty header has been committed.

        Exactly one dirty-mark commit happens per pager session (at the
        first mutation after open); knowing whether it already fired lets
        a caller predict the generation a ``sync()`` commit will reach —
        the sharded engine's two-phase epoch commit records that
        expectation in its PREPARE record.
        """
        return self._marked

    def _init_fresh(self) -> None:
        if self._checksums:
            self._device.set_write_generation(1)
        self._device.extend()  # header slot 0
        self._device.extend()  # header slot 1
        self._commit_header(clean=False)
        self._marked = True

    def _open_existing(self) -> None:
        valid = read_header_slots(self._device)
        if not valid:
            raise CorruptPageFileError(
                "neither header slot holds a valid committed header")
        self._slot, best = max(valid.items(),
                               key=lambda item: item[1].generation)
        self._generation = best.generation
        self._free_head = best.free_head
        self._meta = best.meta
        clean = best.clean
        committed = best.page_count
        present = self._device.page_count()
        if present < committed:
            raise CorruptPageFileError(
                f"file truncated: {present} pages on disk, "
                f"{committed} committed")
        if present > committed:
            # Uncommitted extends past the last commit; drop them.
            self._device.truncate(committed)
        if self._checksums:
            self._device.set_write_generation(self._generation + 1)
            if not clean:
                self._recovery_sweep(committed)
        self._load_free_list()
        if not clean and self._checksums:
            # The sweep proved the file is byte-exact at this generation;
            # commit a clean header so later opens skip it.
            self._commit_header(clean=True)

    def _recovery_sweep(self, committed_pages: int) -> None:
        """Full verify after an unclean shutdown.

        Every committed page must pass its checksum and carry a write
        generation no newer than the committed header — a newer stamp is
        an in-place overwrite from the crashed write window, which means
        the committed snapshot is gone.
        """
        for page_id in range(2, committed_pages):
            generation = self._device.check_page(page_id)
            if generation > self._generation:
                raise CorruptPageFileError(
                    f"page {page_id} holds uncommitted data from "
                    f"generation {generation} (committed "
                    f"{self._generation}); the last committed state did "
                    f"not survive the crash")

    def _load_free_list(self) -> None:
        """Walk the on-disk free list into the in-memory freed-set.

        Validates every link (range, cycles) so a corrupt chain is caught
        at open time instead of corrupting allocations later.
        """
        seen: set[int] = set()
        head = self._free_head
        while head:
            if head in seen:
                raise CorruptPageFileError("cycle in free list")
            if not self.first_data_page <= head < self._device.page_count():
                raise CorruptPageFileError(
                    f"free list links to invalid page {head}")
            seen.add(head)
            (head,) = _FREE_LINK.unpack_from(self._device.read(head))
        self._freed = seen

    # -- header commits ------------------------------------------------------

    def _commit_header(self, clean: bool) -> None:
        """Atomically publish the current state.

        Data is fsynced first, then the header naming it is written to the
        slot holding the older generation and fsynced in turn, so a torn
        header write can only lose the *new* commit, never the old one.
        """
        generation = self._generation + 1
        flags = _FLAG_CLEAN if clean else 0
        probe = _HEADER.pack(_MAGIC, self.page_size, generation,
                             self._device.page_count(), self._free_head,
                             flags, len(self._meta), 0)
        crc = zlib.crc32(probe + self._meta)
        fixed = _HEADER.pack(_MAGIC, self.page_size, generation,
                             self._device.page_count(), self._free_head,
                             flags, len(self._meta), crc)
        page = (fixed + self._meta).ljust(self.page_size, b"\x00")
        slot = 1 - self._slot
        self._device.sync()
        self._device.write(slot, page)
        self._device.sync()
        self._slot = slot
        self._generation = generation
        self._mutated = False
        if self._blob_staged:
            self._blob_staged = self._blob_behind = False
        if self._checksums:
            self._device.set_write_generation(self._generation + 1)

    def _ensure_marked(self) -> None:
        """Commit a dirty header before the session's first mutation, and
        note a mutation the stored blob (if any) does not cover yet."""
        if not self._marked:
            self._marked = True
            self._commit_header(clean=False)
        if not self._blob_staged:
            self._blob_behind = True

    # -- meta ----------------------------------------------------------------

    @property
    def meta(self) -> bytes:
        """Opaque owner-controlled blob persisted in the header page."""
        self._check_open()
        return self._meta

    @meta.setter
    def meta(self, blob: bytes) -> None:
        self._check_open()
        if len(blob) > self.meta_capacity:
            raise ValueError(f"meta blob of {len(blob)} bytes exceeds "
                             f"capacity {self.meta_capacity}")
        self._ensure_marked()
        self._meta = bytes(blob)
        self._mutated = True

    # -- owner blob ----------------------------------------------------------

    def store_blob(self, blob: bytes) -> None:
        """Replace the owner's blob with ``blob`` (durable at next commit).

        The new page chain is written in full before ``meta`` is pointed
        at it, and only then is the old chain freed.  Raw device I/O: the
        chain is not tree data and must not show up in node-access counts.
        """
        old_head = int.from_bytes(self._meta, "little")
        chunk = self.page_size - _PAGE_CHAIN.size
        pages = [self.allocate()
                 for _ in range(max(1, -(-len(blob) // chunk)))]
        for idx, page_id in enumerate(pages):
            payload = blob[idx * chunk:(idx + 1) * chunk]
            next_page = pages[idx + 1] if idx + 1 < len(pages) else 0
            raw = _PAGE_CHAIN.pack(next_page, len(payload)) + payload
            self.write(page_id, raw.ljust(self.page_size, b"\x00"))
        self.meta = pages[0].to_bytes(8, "little")
        while old_head:
            next_page, _ = _PAGE_CHAIN.unpack_from(self.read(old_head))
            self.free(old_head)
            old_head = next_page
        # Writes from here to the next commit belong to the owner's save
        # (it flushes the pages the blob names before it syncs).
        self._blob_owner = self._blob_staged = True

    def load_blob(self) -> bytes | None:
        """The blob last stored, or ``None`` if none ever was."""
        self._blob_owner = True
        head = int.from_bytes(self.meta, "little")
        if not head:
            return None
        parts: list[bytes] = []
        seen: set[int] = set()
        chunk = self.page_size - _PAGE_CHAIN.size
        while head:
            if head in seen:
                raise CorruptPageFileError(
                    f"cycle in blob page chain at page {head}")
            seen.add(head)
            raw = self.read(head)
            head, length = _PAGE_CHAIN.unpack_from(raw)
            if length > chunk:
                raise CorruptPageFileError(
                    f"blob page claims {length} payload bytes "
                    f"(max {chunk})")
            parts.append(raw[_PAGE_CHAIN.size:_PAGE_CHAIN.size + length])
        return b"".join(parts)

    # -- page lifecycle ------------------------------------------------------

    def allocate(self) -> int:
        """Return the id of a fresh zeroed page (reusing freed pages)."""
        self._check_open()
        self._ensure_marked()
        self._mutated = True
        if self._free_head:
            page_id = self._free_head
            if page_id not in self._freed:
                raise CorruptPageFileError(
                    f"free list head {page_id} is not a freed page")
            raw = self._device.read(page_id)
            (next_free,) = _FREE_LINK.unpack_from(raw)
            if next_free and next_free not in self._freed:
                raise CorruptPageFileError(
                    f"free page {page_id} links to non-free page "
                    f"{next_free}")
            self._free_head = next_free
            self._freed.discard(page_id)
            self._device.write(page_id, b"\x00" * self.page_size)
            return page_id
        return self._device.extend()

    def free(self, page_id: int) -> None:
        """Return ``page_id`` to the free list.

        Raises :class:`PageError` on a header page, an out-of-range id, or
        a page that is already free (double free).
        """
        self._check_open()
        if page_id < self.first_data_page:
            raise PageError("cannot free the header page")
        if page_id >= self._device.page_count():
            raise PageError(f"page id {page_id} out of range "
                            f"[0, {self._device.page_count()})")
        if page_id in self._freed:
            raise PageError(f"double free of page {page_id}")
        self._ensure_marked()
        link = _FREE_LINK.pack(self._free_head)
        self._device.write(page_id, link.ljust(self.page_size, b"\x00"))
        self._free_head = page_id
        self._freed.add(page_id)
        self._mutated = True

    def page_is_free(self, page_id: int) -> bool:
        """True if ``page_id`` is currently on the free list."""
        self._check_open()
        return page_id in self._freed

    def read(self, page_id: int) -> bytes:
        self._check_open()
        if page_id < self.first_data_page:
            raise PageError(f"page {page_id} is a pager header page; "
                            f"use .meta")
        return self._device.read(page_id)

    def write(self, page_id: int, data: bytes) -> None:
        self._check_open()
        if page_id < self.first_data_page:
            raise PageError(f"page {page_id} is a pager header page; "
                            f"use .meta")
        self._ensure_marked()
        self._mutated = True
        self._device.write(page_id, data)

    def page_count(self) -> int:
        """Total pages in the device, including header and freed pages."""
        self._check_open()
        return self._device.page_count()

    def free_list_length(self) -> int:
        """Walk the free list and return its length (O(list) reads)."""
        self._check_open()
        count = 0
        head = self._free_head
        seen: set[int] = set()
        while head:
            if head in seen:
                raise CorruptPageFileError("cycle in free list")
            seen.add(head)
            count += 1
            (head,) = _FREE_LINK.unpack_from(self._device.read(head))
        return count

    def sync(self) -> None:
        self._check_open()
        if self._mutated:
            self._commit_header(clean=False)
        else:
            self._device.sync()

    def close(self) -> None:
        """Commit a clean header and release the device.

        Raises :class:`~repro.storage.errors.StaleBlobError`, after
        releasing the device as :meth:`abort` does, if the owner stores
        or loads a blob and pages changed after that blob was last
        committed (and no new one is staged).
        """
        if self._closed:
            return
        if self._blob_owner and self._blob_behind \
                and not self._blob_staged:
            self.abort()
            raise StaleBlobError(
                "pages changed after the last stored blob was committed; "
                "store and sync a new blob (the owner's save) before "
                "closing, or abort")
        self._closed = True
        try:
            if self._marked:
                self._commit_header(clean=True)
        finally:
            self._device.close()

    def abort(self) -> None:
        """Close without committing: the header keeps its last durable state.

        The crash-equivalent counterpart of :meth:`close`.  If the session
        marked the header dirty, the file is left exactly as a kill would
        leave it — recovery-on-open (or a WAL replay above it) is the
        only way forward, which is precisely the discipline warm workers
        rely on.
        """
        if self._closed:
            return
        self._closed = True
        self._device.close()

    def _check_open(self) -> None:
        if self._closed:
            raise PagerClosedError("pager is closed")

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
