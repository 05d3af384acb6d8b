"""Offline integrity sweep over a page file (the ``repro scrub`` command).

:func:`scrub_page_file` checksum-verifies every page slot a committed
generation names — both header slots, its page map and every mapped
page — without loading the index, reporting the exact ids and reasons
for any corrupt slots.  Slots the generation does not name are free:
they may hold anything a crash left, and nothing reads them.  It never
repairs anything — a clean report means "every byte the generation
names checks out", a non-empty ``corrupt`` list names what to restore
from backup.

:func:`probe_open` is the passive half of an open, for a recovery plan
that must not write: it answers whether a page file opens at a given
generation, reading only the header slots and the page map.
"""

from __future__ import annotations

import dataclasses
import os

from .errors import CorruptPageFileError, NoCatalogError, StorageError
from .page import FilePageDevice, read_superblock
from .pager import (PagerHeader, decode_map, read_chain, read_header_slots,
                    select_header)


@dataclasses.dataclass
class HeaderSlot:
    """One parsed header slot (``valid`` False if it fails checks)."""

    slot: int
    valid: bool
    generation: int = 0
    page_count: int = 0


@dataclasses.dataclass
class ScrubReport:
    """Result of a full integrity sweep.

    ``generation`` is the committed generation swept (``None`` when no
    header slot could be opened) and ``mapped`` the slots it names.
    """

    path: str
    page_size: int
    pages: int
    corrupt: list[tuple[int, str]]
    header_slots: list[HeaderSlot]
    generation: int | None = None
    mapped: int = 0

    @property
    def ok(self) -> bool:
        return not self.corrupt

    @property
    def committed(self) -> HeaderSlot | None:
        """The header slot of the generation swept, if any."""
        return next((slot for slot in self.header_slots
                     if slot.valid and slot.generation == self.generation),
                    None)

    def render(self) -> str:
        lines = [f"{self.path}: page size {self.page_size}, "
                 f"{self.pages} pages"]
        head = self.committed
        if head is None:
            lines.append("  header: NO VALID SLOT")
        else:
            lines.append(f"  header: slot {head.slot} generation "
                         f"{head.generation}, {head.page_count} committed "
                         f"pages, {self.mapped} in use")
        for page_id, reason in self.corrupt:
            lines.append(f"  page {page_id}: {reason}")
        lines.append(f"  {len(self.corrupt)} corrupt page(s)")
        return "\n".join(lines)


def probe_page_file(path: str | os.PathLike[str]) -> int:
    """Return the page size of a page file without a full open.

    Raises :class:`CorruptPageFileError` if the file does not start with
    a valid superblock (:class:`UnsupportedFormatError` for a retired
    format).
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        return read_superblock(path, handle)


def _committed_map(device: FilePageDevice, head: PagerHeader,
                   ) -> tuple[list[int], list[int]]:
    """The map and chain slots of one committed header."""
    if device.page_count() < head.page_count:
        raise CorruptPageFileError(
            f"file truncated: {device.page_count()} pages on disk, "
            f"{head.page_count} committed")
    payload, chain = read_chain(device.read, head.map_head,
                                device.page_size, head.page_count)
    slots, _ = decode_map(payload, head.page_count, chain)
    return slots, chain


def probe_open(path: str | os.PathLike[str], generation: int,
               ) -> tuple[int | None, StorageError | None]:
    """What opening ``path`` at ``generation`` would find, passively.

    Returns the newest valid header generation (``None`` when no header
    slot is valid) and the error ``SWSTIndex.open`` would raise (``None``
    when it opens): a retired format, no header slot at ``generation``,
    a truncated file, an unreadable page map — or no stored blob (the
    catalog), which a never-saved file lacks.  Reads the header slots
    and the page map, nothing else, and commits nothing.
    """
    path = os.fspath(path)
    try:
        page_size = probe_page_file(path)
    except FileNotFoundError as exc:
        return None, CorruptPageFileError(f"{path}: missing ({exc})")
    except OSError as exc:
        return None, CorruptPageFileError(f"{path}: {exc}")
    except StorageError as exc:
        return None, exc
    device = FilePageDevice(path, page_size)
    try:
        valid = read_header_slots(device)
        newest = max((head.generation for head in valid.values()),
                     default=None)
        try:
            _, head = select_header(valid, generation)
            _committed_map(device, head)
        except StorageError as exc:
            return newest, exc
        if not int.from_bytes(head.meta, "little"):
            return newest, NoCatalogError(
                "no saved catalog (never committed)")
        return newest, None
    finally:
        device.close()


def scrub_page_file(path: str | os.PathLike[str],
                    generation: int | None = None) -> ScrubReport:
    """Checksum-verify every slot committed ``generation`` (default: the
    newest valid one) names, and parse both header slots."""
    path = os.fspath(path)
    page_size = probe_page_file(path)
    device = FilePageDevice(path, page_size)
    corrupt: list[tuple[int, str]] = []
    header_slots: list[HeaderSlot] = []
    swept: int | None = None
    mapped = 0
    try:
        pages = device.page_count()
        valid = read_header_slots(device)
        for slot in (0, 1):
            header = valid.get(slot)
            header_slots.append(
                HeaderSlot(slot, valid=False) if header is None
                else HeaderSlot(slot, valid=True,
                                generation=header.generation,
                                page_count=header.page_count))
        try:
            _, head = select_header(valid, generation)
            swept = head.generation
            slots, chain = _committed_map(device, head)
        except StorageError as exc:
            corrupt.append((0, str(exc)))
        else:
            named = sorted({*slots, *chain} - {0})
            mapped = len(named)
            for slot in named:
                try:
                    device.read(slot)
                except StorageError as exc:
                    reason = str(exc)
                    prefix = f"page {slot}: "
                    if reason.startswith(prefix):
                        reason = reason[len(prefix):]
                    corrupt.append((slot, reason))
    finally:
        device.close()
    return ScrubReport(path=path, page_size=page_size, pages=pages,
                       corrupt=corrupt, header_slots=header_slots,
                       generation=swept, mapped=mapped)
