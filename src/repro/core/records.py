"""Data model: discretely moving point entries (paper Section III-A).

An entry ``<oid, x, y, s, d>`` says object ``oid`` sat at integer location
``(x, y)`` during the valid time ``[s, s + d)``.  A *current entry* is one
whose end timestamp is not yet known (``d is None``); the index stores it
under the sentinel duration ``ND = Dmax + 1`` until the object's next
position report fixes the real duration.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Protocol

#: On-disk duration sentinel marking a current entry inside a record payload.
CURRENT_DURATION = 0


class ReportLike(Protocol):
    """Anything the batched ingestion paths accept as a position report.

    Read-only properties so both plain and frozen dataclasses (e.g.
    :class:`repro.datagen.gstd.Report`) conform structurally.
    """

    @property
    def oid(self) -> int: ...

    @property
    def x(self) -> int: ...

    @property
    def y(self) -> int: ...

    @property
    def t(self) -> int: ...

_RECORD = struct.Struct("<QIIQQ")  # oid, x, y, s, d

#: Fixed byte width of a serialised entry (B+ tree value payload).
RECORD_SIZE = _RECORD.size

#: ``(x, y)`` of a record payload without decoding the rest of it — all
#: that rebuilding a memo needs once the key has given the temporal cell.
record_xy = struct.Struct("<8xII").unpack_from


def pack_record(oid: int, x: int, y: int, s: int, d: int | None) -> bytes:
    """The :data:`RECORD_SIZE`-byte payload of ``Entry(oid, x, y, s, d)``."""
    return _RECORD.pack(oid, x, y, s, CURRENT_DURATION if d is None else d)


@dataclass(frozen=True, slots=True)
class Entry:
    """One spatio-temporal record.

    Attributes:
        oid: object identifier.
        x: integer x coordinate.
        y: integer y coordinate.
        s: start timestamp (absolute, not modulo-reduced).
        d: valid duration, or ``None`` for a current entry whose end is
            unknown.
    """

    oid: int
    x: int
    y: int
    s: int
    d: int | None

    @property
    def is_current(self) -> bool:
        """True if this entry's final duration is not yet known."""
        return self.d is None

    @property
    def end(self) -> float:
        """Exclusive end timestamp; ``inf`` for current entries."""
        return float("inf") if self.d is None else self.s + self.d

    def valid_at(self, t: int) -> bool:
        """True if the entry's valid time ``[s, s + d)`` contains ``t``."""
        return self.s <= t < self.end

    def valid_during(self, t_lo: int, t_hi: int) -> bool:
        """True if the valid time overlaps the closed interval [t_lo, t_hi]."""
        return self.s <= t_hi and self.end > t_lo

    def pack(self) -> bytes:
        """Serialise to the fixed :data:`RECORD_SIZE`-byte payload."""
        return pack_record(self.oid, self.x, self.y, self.s, self.d)

    @classmethod
    def unpack(cls, raw: bytes) -> "Entry":
        """Inverse of :meth:`pack`."""
        oid, x, y, s, d_raw = _RECORD.unpack(raw)
        return cls(oid=oid, x=x, y=y, s=s,
                   d=None if d_raw == CURRENT_DURATION else d_raw)


def pack_entries(entries: Iterable[Entry]) -> bytes:
    """Entries as one blob of :data:`RECORD_SIZE`-byte payloads."""
    return b"".join([pack_record(e.oid, e.x, e.y, e.s, e.d) for e in entries])


def unpack_entries(blob: bytes) -> list[Entry]:
    """Inverse of :func:`pack_entries`."""
    return [Entry(oid, x, y, s, None if d == CURRENT_DURATION else d)
            for oid, x, y, s, d in _RECORD.iter_unpack(blob)]


@dataclass(frozen=True, slots=True)
class Rect:
    """Closed axis-aligned rectangle (the spatial area of a query)."""

    x_lo: int
    y_lo: int
    x_hi: int
    y_hi: int

    def __post_init__(self) -> None:
        if self.x_lo > self.x_hi or self.y_lo > self.y_hi:
            raise ValueError(f"empty rectangle {self}")

    def contains(self, x: int, y: int) -> bool:
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def intersects(self, other: "Rect") -> bool:
        return (self.x_lo <= other.x_hi and other.x_lo <= self.x_hi
                and self.y_lo <= other.y_hi and other.y_lo <= self.y_hi)

    def intersection(self, other: "Rect") -> "Rect | None":
        x_lo = max(self.x_lo, other.x_lo)
        y_lo = max(self.y_lo, other.y_lo)
        x_hi = min(self.x_hi, other.x_hi)
        y_hi = min(self.y_hi, other.y_hi)
        if x_lo > x_hi or y_lo > y_hi:
            return None
        return Rect(x_lo, y_lo, x_hi, y_hi)

    def covers(self, other: "Rect") -> bool:
        return (self.x_lo <= other.x_lo and other.x_hi <= self.x_hi
                and self.y_lo <= other.y_lo and other.y_hi <= self.y_hi)

    def area(self) -> int:
        """Closed-rectangle cell count."""
        return (self.x_hi - self.x_lo + 1) * (self.y_hi - self.y_lo + 1)
