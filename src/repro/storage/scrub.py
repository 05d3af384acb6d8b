"""Offline integrity sweep over a page file (the ``repro scrub`` command).

:func:`scrub_page_file` checksum-verifies every page slot and parses the
pager's header slots without loading the index, reporting the exact ids
and reasons for any corrupt pages.  It never repairs anything — a clean
report means "every byte checks out", a non-empty ``corrupt`` list names
what to restore from backup.
"""

from __future__ import annotations

import dataclasses
import os

from .errors import StorageError
from .page import FilePageDevice, read_superblock
from .pager import PagerHeader, read_header_slots


@dataclasses.dataclass
class HeaderSlot:
    """One parsed header slot (``valid`` False if it fails checks)."""

    slot: int
    valid: bool
    generation: int = 0
    page_count: int = 0
    clean: bool = False


@dataclasses.dataclass
class ScrubReport:
    """Result of a full integrity sweep."""

    path: str
    page_size: int
    pages: int
    corrupt: list[tuple[int, str]]
    header_slots: list[HeaderSlot]

    @property
    def ok(self) -> bool:
        return not self.corrupt

    @property
    def committed(self) -> HeaderSlot | None:
        """The newest valid header slot, if any."""
        valid = [slot for slot in self.header_slots if slot.valid]
        return max(valid, key=lambda slot: slot.generation) if valid \
            else None

    def render(self) -> str:
        lines = [f"{self.path}: page size {self.page_size}, "
                 f"{self.pages} pages"]
        head = self.committed
        if head is None:
            lines.append("  header: NO VALID SLOT")
        else:
            state = "clean" if head.clean else "dirty"
            lines.append(f"  header: slot {head.slot} generation "
                         f"{head.generation}, {head.page_count} "
                         f"committed pages, {state}")
        for page_id, reason in self.corrupt:
            lines.append(f"  page {page_id}: {reason}")
        lines.append(f"  {len(self.corrupt)} corrupt page(s)")
        return "\n".join(lines)


def probe_page_file(path: str | os.PathLike[str]) -> int:
    """Return the page size of a page file without a full open.

    Raises :class:`CorruptPageFileError` if the file does not start with
    a valid superblock (:class:`UnsupportedFormatError` for a retired
    format-v1 file).
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        return read_superblock(path, handle)


def probe_committed_generation(path: str | os.PathLike[str]) -> int | None:
    """Newest committed header generation of a page file, probed passively.

    The engine's epoch recovery must learn how far each shard got
    *without opening it* — ``Pager`` open itself commits a header
    (recovery + clean mark), which would advance the generation and
    destroy the evidence.  This reads the two header slots directly
    and returns the highest valid generation.

    Returns ``None`` when no committed state is observable at all: the
    file is missing, unrecognisable, or neither header slot checks out.
    """
    path = os.fspath(path)
    try:
        page_size = probe_page_file(path)
    except (OSError, StorageError):
        return None
    device = FilePageDevice(path, page_size)
    try:
        head = _newest_header(device)
    finally:
        device.close()
    return head.generation if head is not None else None


def probe_open(path: str | os.PathLike[str]) -> tuple[int | None,
                                                     str | None]:
    """What opening ``path`` would find, probed passively.

    Returns the newest committed header generation (``None`` when no
    committed state is observable) and why ``SWSTIndex.open`` would
    refuse the file (``None`` when it opens).  These are the checks of
    recovery-on-open, made without committing anything: a valid header
    slot, every committed page on disk, after an unclean shutdown every
    committed page checksum-valid and stamped no newer than the header
    — and a stored blob (the catalog), which a never-saved file lacks.
    """
    path = os.fspath(path)
    try:
        page_size = probe_page_file(path)
    except (OSError, StorageError) as exc:
        return None, str(exc)
    device = FilePageDevice(path, page_size)
    try:
        head = _newest_header(device)
        if head is None:
            return None, "neither header slot holds a valid committed header"
        generation = head.generation
        if device.page_count() < head.page_count:
            return generation, (f"file truncated: {device.page_count()} "
                                f"pages on disk, {head.page_count} "
                                f"committed")
        for page_id in range(2, 2 if head.clean else head.page_count):
            try:
                stamp = device.check_page(page_id)
            except StorageError as exc:
                return generation, str(exc)
            if stamp > generation:
                return generation, (
                    f"page {page_id} holds uncommitted data from "
                    f"generation {stamp} (committed {generation})")
        if not int.from_bytes(head.meta, "little"):
            return generation, "no saved catalog (never committed)"
        return generation, None
    finally:
        device.close()


def _newest_header(device: FilePageDevice) -> PagerHeader | None:
    return max(read_header_slots(device).values(),
               key=lambda header: header.generation, default=None)


def scrub_page_file(path: str | os.PathLike[str]) -> ScrubReport:
    """Checksum-verify every page of ``path`` and parse its headers."""
    path = os.fspath(path)
    page_size = probe_page_file(path)
    device = FilePageDevice(path, page_size)
    corrupt: list[tuple[int, str]] = []
    header_slots: list[HeaderSlot] = []
    try:
        pages = device.page_count()
        generations: dict[int, int] = {}
        for page_id in range(pages):
            try:
                generations[page_id] = device.check_page(page_id)
            except StorageError as exc:
                reason = str(exc)
                prefix = f"page {page_id}: "
                if reason.startswith(prefix):
                    reason = reason[len(prefix):]
                corrupt.append((page_id, reason))
        valid = read_header_slots(device)
        for slot in (0, 1):
            header = valid.get(slot)
            header_slots.append(
                HeaderSlot(slot, valid=False) if header is None
                else HeaderSlot(slot, valid=True,
                                generation=header.generation,
                                page_count=header.page_count,
                                clean=header.clean))
        best = max(valid.values(), key=lambda header: header.generation,
                   default=None)
        if best is None:
            corrupt.append((0, "no valid committed header slot"))
        else:
            if best.page_count > pages:
                corrupt.append(
                    (0, f"header claims {best.page_count} pages but "
                        f"only {pages} are on disk"))
            # A committed page stamped newer than the committed
            # header is an in-place overwrite from a crashed write
            # window: the committed snapshot did not survive, and
            # recovery-on-open will refuse the file the same way.
            for page_id in range(2, min(best.page_count, pages)):
                generation = generations.get(page_id)
                if generation is not None \
                        and generation > best.generation:
                    corrupt.append(
                        (page_id,
                         f"uncommitted data from generation "
                         f"{generation} overwrites the committed "
                         f"snapshot (generation {best.generation})"))
    finally:
        device.close()
    return ScrubReport(path=path, page_size=page_size, pages=pages,
                       corrupt=corrupt, header_slots=header_slots)
