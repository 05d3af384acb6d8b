"""Pager: logical pages over shadow-paged physical slots.

Callers — the buffer pool, B+ trees, the owner's blob — see *logical*
page ids.  The pager maps each one to a *physical slot* of its page
device and never overwrites a slot that the *retained* generation names,
so that generation stays on disk whole whatever happens after it:
shadow paging (Lorie, "Physical Integrity in a Large Segmented
Database", TODS 1977).

Layout:

* Physical slots 0 and 1 are the two *header slots*.  Each holds::

      magic (8)  page_size (u32)  generation (u64)  page_count (u64)
      map_head (u64)  meta_len (u32)  crc32 (u32)  meta...

  ``page_count`` is the number of physical slots the generation spans
  and ``map_head`` the first slot of its page map (0: the empty map of
  a fresh file).  The tail after the fixed fields is available to the
  owner as an opaque *meta blob*.
* The *page map* is a chain of physical slots, each ``next_slot (u64)
  payload_len (u32)  payload...``.  Its payload is the logical page
  count, the free-list length, the slot of every logical page (0 for a
  free one; logical ids 0 and 1 are the header slots' and never mapped)
  and the free list, last-freed first.
* The owner's *blob* (SWST stores its tree catalog there) is a chain of
  logical pages in the same chain format; the meta blob holds the
  8-byte id of its head.  :meth:`Pager.store_blob` replaces the chain,
  :meth:`Pager.load_blob` reads it back.

**Writes.**  The first write of a logical page after the retained
generation goes to a slot no retained generation names; later writes
overwrite that slot.  :meth:`free` writes nothing: the free list is map
state.  Slots the retained generation names are reused only once a
newer generation is retained.

**Commits.**  :meth:`sync` commits: data is fsynced, the map is written
to free slots, and the header naming generation ``g + 1`` goes to the
header slot the retained generation does not occupy, fsynced in turn.
:meth:`close` commits nothing, so a close without a sync publishes
nothing.  A pager opened without a generation (a single file) retains
every commit as it lands, and keeps the previous commit whole too until
the next header overwrites its slot: if the newest header rots, the
open falls back to a generation nothing has overwritten.  One opened at
a generation (an engine shard: the manifest names it) keeps retaining
that one until :meth:`retain`, which the engine calls once the manifest
names the newer commit; it never opens the other header slot.

**Open.**  The header slot holding the requested generation (default:
the newest valid one) decides everything: a newer commit in the other
header slot is invalidated (an older one stays retained for a single
file, and is invalidated if its map cannot be read), slots past its ``page_count`` are
uncommitted extends and are truncated away, and every slot its map does
not name is free.  Nothing written after that
commit is ever read, so a crash — mid-write, after buffer-pool
evictions, between a shard's commit and the manifest flip — reopens at
exactly that generation, with no sweep and no copy.  Checksums (see
:mod:`repro.storage.page`) verify every read.

The pager performs raw device IO only; caching and IO accounting live in
:class:`repro.storage.buffer.BufferPool`, which sits on top.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Callable, NamedTuple

from .errors import CorruptPageFileError, PageError, PagerClosedError
from .page import (DEFAULT_PAGE_SIZE, FilePageDevice, MemoryPageDevice,
                   PageDevice)

_MAGIC = b"SWSTPGR3"
# magic, page_size, generation, page_count, map_head, meta_len, crc
_HEADER = struct.Struct("<8sIQQQII")
_PAGE_CHAIN = struct.Struct("<QI")  # next_page, payload_len
_MAP_COUNTS = struct.Struct("<II")  # logical pages, free-list length

#: Path sentinel selecting the in-memory device.
MEMORY = ":memory:"


class PagerHeader(NamedTuple):
    """The fields of one valid header slot."""

    generation: int
    page_count: int
    map_head: int
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
            (magic, page_size, generation, page_count, map_head, meta_len,
             crc) = _HEADER.unpack_from(raw)
        except (CorruptPageFileError, PageError, struct.error):
            continue
        if magic != _MAGIC or page_size != device.page_size:
            continue
        if meta_len > len(raw) - _HEADER.size:
            continue
        meta = raw[_HEADER.size:_HEADER.size + meta_len]
        probe = _HEADER.pack(magic, page_size, generation, page_count,
                             map_head, meta_len, 0)
        if zlib.crc32(probe + meta) == crc:
            valid[slot] = PagerHeader(generation, page_count, map_head,
                                      meta)
    return valid


def select_header(valid: dict[int, PagerHeader],
                  generation: int | None) -> tuple[int, PagerHeader]:
    """The header slot to open: the one at ``generation``, else (with
    ``None``) the newest.  Raises :class:`CorruptPageFileError` if there
    is none."""
    if generation is None:
        if not valid:
            raise CorruptPageFileError(
                "neither header slot holds a valid committed header")
        return max(valid.items(), key=lambda item: item[1].generation)
    for slot, head in valid.items():
        if head.generation == generation:
            return slot, head
    held = sorted(head.generation for head in valid.values())
    raise CorruptPageFileError(
        f"no header slot holds generation {generation} (valid slots "
        f"hold {held or 'none'})")


def read_chain(read: Callable[[int], bytes], head: int, page_size: int,
               limit: int) -> tuple[bytes, list[int]]:
    """The payload of the page chain starting at ``head`` and the pages
    it spans.  ``read`` fetches one page; ``limit`` bounds the ids (the
    pages of a valid chain are distinct and below it)."""
    parts: list[bytes] = []
    pages: list[int] = []
    seen: set[int] = set()
    chunk = page_size - _PAGE_CHAIN.size
    while head:
        if head in seen:
            raise CorruptPageFileError(
                f"cycle in page chain at page {head}")
        if head >= limit:
            raise CorruptPageFileError(
                f"page chain links to page {head}, past the last "
                f"page {limit - 1}")
        seen.add(head)
        pages.append(head)
        raw = read(head)
        next_page, length = _PAGE_CHAIN.unpack_from(raw)
        if length > chunk:
            raise CorruptPageFileError(
                f"chain page {head} claims {length} payload bytes "
                f"(max {chunk})")
        parts.append(raw[_PAGE_CHAIN.size:_PAGE_CHAIN.size + length])
        head = next_page
    return b"".join(parts), pages


def decode_map(payload: bytes, page_count: int,
               chain: list[int]) -> tuple[list[int], list[int]]:
    """Parse and validate a page-map payload: ``(map, free list)``.

    Every mapped slot must be a data slot below ``page_count``, named
    once and not by the map's own ``chain``; the free list must list
    exactly the unmapped logical pages.
    """
    if not payload:
        return [0, 0], []
    try:
        n_pages, n_free = _MAP_COUNTS.unpack_from(payload)
        slots = list(struct.unpack_from(f"<{n_pages}I", payload,
                                        _MAP_COUNTS.size))
        free = list(struct.unpack_from(
            f"<{n_free}I", payload, _MAP_COUNTS.size + 4 * n_pages))
    except struct.error as exc:
        raise CorruptPageFileError(f"page map is truncated: {exc}") \
            from exc
    if _MAP_COUNTS.size + 4 * (n_pages + n_free) != len(payload):
        raise CorruptPageFileError("page map has trailing bytes")
    if n_pages < 2 or slots[0] or slots[1]:
        raise CorruptPageFileError("page map maps the header pages")
    mapped = [slot for slot in slots if slot]
    named = set(mapped)
    if len(named) != len(mapped) or named & set(chain) \
            or not all(2 <= slot < page_count for slot in named):
        raise CorruptPageFileError(
            "page map names a slot twice, a header slot, a map slot or "
            "a slot past the committed pages")
    unmapped = {page for page in range(2, n_pages) if not slots[page]}
    if len(free) != len(unmapped) or set(free) != unmapped:
        raise CorruptPageFileError(
            "page map's free list disagrees with its unmapped pages")
    return slots, free


def _encode_map(slots: list[int], free: list[int]) -> bytes:
    return (_MAP_COUNTS.pack(len(slots), len(free))
            + struct.pack(f"<{len(slots)}I", *slots)
            + struct.pack(f"<{len(free)}I", *free))


class Pager:
    """Allocate, free, read and write fixed-size logical pages.

    Args:
        path: file path, or :data:`MEMORY` for an in-memory device.
        page_size: page size in bytes (must match an existing file).
        device: pre-built page device to use instead of constructing one
            from ``path`` (e.g. the tests' fault-injecting wrapper,
            ``FaultInjectingPageDevice`` in ``tests/storage/fault.py``).
        generation: open an existing file at exactly this committed
            generation, and keep it retained until :meth:`retain` (an
            engine shard).  ``None`` opens the newest valid header and
            retains every commit (a single file).
    """

    #: Lowest page id available to callers (the header slots come first).
    first_data_page = 2

    def __init__(self, path: str | os.PathLike[str] = MEMORY,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 device: PageDevice | None = None, *,
                 generation: int | None = None) -> None:
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
        self._auto_retain = generation is None
        self._meta = b""
        #: logical page -> physical slot (0: free); ids 0/1 unmapped.
        self._map: list[int] = [0, 0]
        #: free logical pages, reused from the end.
        self._free: list[int] = []
        #: slots of the last committed map's chain.
        self._chain: list[int] = []
        #: slots never overwritten: those the retained generation
        #: names (map, chain), for a single file also those of the
        #: generation in the other header slot.
        self._retained: set[int] = set()
        #: slots the retained generation alone names.
        self._named: set[int] = set()
        #: physical data slots no retained generation names, reused
        #: last-freed first (as the free list reuses logical pages, so
        #: a file that never retained a commit keeps slot == page id).
        self._spare: list[int] = []
        self._generation = 0
        self._slot = 0               # header slot of the last commit
        self._retained_slot = 0      # header slot of the retained one
        try:
            if self._device.page_count() == 0:
                self._init_fresh()
            else:
                self._open_existing(generation)
        except BaseException:
            self._closed = True
            self._device.close()
            raise

    # -- open / create -------------------------------------------------------

    @property
    def generation(self) -> int:
        """Generation of the last committed header."""
        return self._generation

    def _init_fresh(self) -> None:
        self._device.extend()  # header slot 0
        self._device.extend()  # header slot 1
        self._write_header(0, 0, map_head=0)
        self._device.sync()

    def _open_existing(self, generation: int | None) -> None:
        valid = read_header_slots(self._device)
        slot, head = select_header(valid, generation)
        committed = head.page_count
        present = self._device.page_count()
        if present < committed:
            raise CorruptPageFileError(
                f"file truncated: {present} pages on disk, "
                f"{committed} committed")
        payload, chain = read_chain(self._device.read, head.map_head,
                                    self.page_size, committed)
        self._map, self._free = decode_map(payload, committed, chain)
        older: set[int] = set()
        other = valid.get(1 - slot)
        if other is not None and other.generation > head.generation:
            # A commit the opener did not ask for (an engine shard's
            # manifest never named it): its slots are about to be
            # reused, so its header must never open again.
            self._invalidate(1 - slot)
        elif other is not None and self._auto_retain:
            # The previous commit of a single file is the fallback if
            # the newest header rots, so its slots stay whole too.
            try:
                older = self._names_of(other, committed)
            except (CorruptPageFileError, PageError):
                self._invalidate(1 - slot)
        if present > committed:
            # Uncommitted extends past the opened commit; drop them.
            self._device.truncate(committed)
        self._slot = self._retained_slot = slot
        self._generation = head.generation
        self._meta = head.meta
        self._chain = chain
        self._named = {*self._map, *chain} - {0}
        self._retained = self._named | older
        self._spare = [page for page in range(committed - 1, 1, -1)
                       if page not in self._retained]

    def _names_of(self, head: PagerHeader, limit: int) -> set[int]:
        """Every slot the commit ``head`` names, all below ``limit``."""
        payload, chain = read_chain(self._device.read, head.map_head,
                                    self.page_size, limit)
        slots, _ = decode_map(payload, min(head.page_count, limit), chain)
        return {*slots, *chain} - {0}

    def _invalidate(self, slot: int) -> None:
        """Zero header ``slot`` so its commit never opens again."""
        self._device.write(slot, b"\x00" * self.page_size)
        self._device.sync()

    # -- header commits ------------------------------------------------------

    def _write_header(self, slot: int, generation: int,
                      map_head: int) -> None:
        probe = _HEADER.pack(_MAGIC, self.page_size, generation,
                             self._device.page_count(), map_head,
                             len(self._meta), 0)
        crc = zlib.crc32(probe + self._meta)
        fixed = _HEADER.pack(_MAGIC, self.page_size, generation,
                             self._device.page_count(), map_head,
                             len(self._meta), crc)
        self._device.write(slot, (fixed + self._meta).ljust(
            self.page_size, b"\x00"))

    def _commit(self) -> None:
        """Atomically publish the current state as generation ``g + 1``.

        Data and the new map are fsynced first, then the header naming
        them is written to the header slot the retained generation does
        not occupy and fsynced in turn, so a torn header write can only
        lose the *new* commit, never the retained one.  A commit that
        raises leaves the generation as it was: the map's slots go back
        to the spares if the header was never written, and otherwise
        (it may have reached the disk) everything it names stays
        unwritten until a later commit is retained.
        """
        generation = self._generation + 1
        slot = 1 - self._retained_slot
        taken: list[int] = []
        header_sent = False

        def take() -> int:
            taken.append(self._take_slot())
            return taken[-1]

        try:
            chain = self._write_chain(_encode_map(self._map, self._free),
                                      take, self._device.write)
            self._device.sync()
            header_sent = True
            self._write_header(slot, generation, map_head=chain[0])
            self._device.sync()
        except BaseException:
            if header_sent:
                self._retained.update(taken, self._map)
                self._retained.discard(0)
            else:
                self._spare.extend(reversed(taken))
            raise
        self._generation = generation
        for old in self._chain:
            if old not in self._retained:
                self._spare.append(old)
        self._chain = chain
        self._slot = slot
        self._mutated = False
        if self._auto_retain:
            self.retain()

    def retain(self) -> None:
        """Make the last commit the retained generation.

        From here on its slots are never overwritten, and the slots no
        protected generation names any more are reused: for an engine
        shard those only the previously retained generation named, for
        a single file (which keeps the previous commit whole as the
        fallback of its newest header) those of the one before that.
        Called right after a commit — by the commit itself for a single
        file, by the engine once its manifest names the commit.
        """
        self._check_open()
        if self._retained_slot == self._slot:
            return
        if self._mutated:
            raise PageError("retain() after uncommitted writes: only a "
                            "commit can be retained")
        named = {*self._map, *self._chain} - {0}
        keep = named | self._named if self._auto_retain else named
        for slot in self._retained - keep:
            self._spare.append(slot)
        self._retained = keep
        self._named = named
        self._retained_slot = self._slot

    def _write_chain(self, payload: bytes, take: Callable[[], int],
                     write: Callable[[int, bytes], None]) -> list[int]:
        """Write ``payload`` as a page chain on pages ``take()`` hands
        out (all taken before the first write); returns them in order."""
        chunk = self.page_size - _PAGE_CHAIN.size
        parts = [payload[at:at + chunk]
                 for at in range(0, len(payload), chunk)] or [b""]
        pages = [take() for _ in parts]
        for part, page, next_page in zip(parts, pages, [*pages[1:], 0],
                                         strict=True):
            write(page, (_PAGE_CHAIN.pack(next_page, len(part))
                         + part).ljust(self.page_size, b"\x00"))
        return pages

    def _take_slot(self) -> int:
        """A physical slot no retained generation names (zeroed if the
        device had to grow)."""
        if self._spare:
            return self._spare.pop()
        return self._device.extend()

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
        pages = self._write_chain(blob, self.allocate, self.write)
        self.meta = pages[0].to_bytes(8, "little")
        while old_head:
            next_page, _ = _PAGE_CHAIN.unpack_from(self.read(old_head))
            self.free(old_head)
            old_head = next_page

    def load_blob(self) -> bytes | None:
        """The blob last stored, or ``None`` if none ever was."""
        head = int.from_bytes(self.meta, "little")
        if not head:
            return None
        blob, _ = read_chain(self.read, head, self.page_size,
                             len(self._map))
        return blob

    # -- page lifecycle ------------------------------------------------------

    def allocate(self) -> int:
        """Return the id of a fresh zeroed page (reusing freed ids)."""
        self._check_open()
        reused = bool(self._spare)
        slot = self._take_slot()
        if reused:
            try:
                self._device.write(slot, b"\x00" * self.page_size)
            except BaseException:
                self._spare.append(slot)
                raise
        self._mutated = True
        if self._free:
            page_id = self._free.pop()
            self._map[page_id] = slot
            return page_id
        self._map.append(slot)
        return len(self._map) - 1

    def free(self, page_id: int) -> None:
        """Return ``page_id`` to the free list; writes nothing.

        Raises :class:`PageError` on a header page, an out-of-range id, or
        a page that is already free (double free).
        """
        self._check_open()
        if page_id < self.first_data_page:
            raise PageError("cannot free the header page")
        if page_id >= len(self._map):
            raise PageError(f"page id {page_id} out of range "
                            f"[0, {len(self._map)})")
        slot = self._map[page_id]
        if not slot:
            raise PageError(f"double free of page {page_id}")
        self._map[page_id] = 0
        self._free.append(page_id)
        if slot not in self._retained:
            self._spare.append(slot)
        self._mutated = True

    def page_is_free(self, page_id: int) -> bool:
        """True if ``page_id`` is currently on the free list."""
        self._check_open()
        return self.first_data_page <= page_id < len(self._map) \
            and not self._map[page_id]

    def _unmapped(self, page_id: int) -> PageError:
        if page_id < self.first_data_page:
            return PageError(f"page {page_id} is a pager header page; "
                             f"use .meta")
        return PageError(f"page {page_id} is not allocated")

    def read(self, page_id: int) -> bytes:
        self._check_open()
        slots = self._map
        if self.first_data_page <= page_id < len(slots) and slots[page_id]:
            return self._device.read(slots[page_id])
        raise self._unmapped(page_id)

    def write(self, page_id: int, data: bytes) -> None:
        self._check_open()
        slots = self._map
        if not (self.first_data_page <= page_id < len(slots)
                and slots[page_id]):
            raise self._unmapped(page_id)
        slot = slots[page_id]
        if slot in self._retained:
            # First write since the retained commit: shadow it.
            fresh = self._take_slot()
            try:
                self._device.write(fresh, data)
            except BaseException:
                self._spare.append(fresh)
                raise
            self._map[page_id] = fresh
        else:
            self._device.write(slot, data)
        self._mutated = True

    def page_count(self) -> int:
        """Logical pages, including the header ids and freed pages."""
        self._check_open()
        return len(self._map)

    def free_list_length(self) -> int:
        """Number of freed logical pages awaiting reuse."""
        self._check_open()
        return len(self._free)

    def sync(self) -> None:
        """Commit if anything changed since the last commit."""
        self._check_open()
        if self._mutated:
            self._commit()
        else:
            self._device.sync()

    def close(self) -> None:
        """Release the device without committing.

        Whatever was written since the last commit went to slots no
        committed generation names, so the file keeps exactly its last
        commit — what a crash would leave too.
        """
        if not self._closed:
            self._closed = True
            self._device.close()

    def _check_open(self) -> None:
        if self._closed:
            raise PagerClosedError("pager is closed")

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
