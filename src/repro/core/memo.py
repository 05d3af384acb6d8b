"""The *isPresent* memo (paper Section III-B.3).

For every temporal cell ``(s-partition, d-partition)`` of a spatial cell,
the memo keeps the entry count and the minimum bounding rectangle of the
entry locations.  During query step IV-B(b) it prunes temporal cells that
are empty or whose MBR misses the query's spatial area — the optimisation
that makes long-duration entries cheap (paper Fig. 11).

The memo is only maintainable because SWST bounds *both* temporal
dimensions (modulo-reduced start time, duration); with the conventional
(t_start, t_end) representation neither axis can be gridded.

Implementation note: the paper stores a dense ``2·16·Sp·Dp``-byte array per
spatial cell; we store the same information sparsely (dict keyed by
temporal cell), which is behaviour-identical and lighter when data is
skewed.  On deletion the count is decremented and the MBR is cleared when
the cell empties; a partially emptied MBR is not shrunk (conservative: the
memo may under-prune, never over-prune).

On top of the per-cell table the memo keeps one *occupied-column bitmap*
(a single ``int``, bit ``m`` = "s-partition ``m`` has held an entry since
its tree was last dropped"), so step (b) skips a column that holds nothing
without probing its ``Dp`` temporal cells.  ``add`` sets the bit and only
``reset_partitions`` (the wholesale drop) clears it; ``remove`` leaves it
set rather than track per-column counts, so the bitmap is a superset of
the occupied columns — again under-pruning, never over-pruning.
"""

from __future__ import annotations

from .records import Rect


class CellMemo:
    """isPresent memo for one spatial cell."""

    __slots__ = ("_cells", "_generation", "_occupied")

    def __init__(self) -> None:
        # (s_part, d_part) -> [count, x_lo, y_lo, x_hi, y_hi]
        self._cells: dict[tuple[int, int], list[int]] = {}
        self._generation = 0
        self._occupied = 0

    @property
    def generation(self) -> int:
        """Monotone counter bumped by every mutation.

        Cached artifacts derived from the memo (the plan cache's
        memo-pruned key ranges) fence themselves on this counter: a
        generation mismatch means the pruning decision must be redone.
        """
        return self._generation

    @property
    def occupied_columns(self) -> int:
        """Bitmap of s-partitions that may hold entries (bit ``m`` set); a
        conservative superset — ``remove`` never clears a bit."""
        return self._occupied

    def add(self, s_part: int, d_part: int, x: int, y: int) -> None:
        """Record one entry at ``(x, y)`` in temporal cell (s_part, d_part)."""
        self._generation += 1
        cell = self._cells.get((s_part, d_part))
        if cell is None:
            self._cells[(s_part, d_part)] = [1, x, y, x, y]
            self._occupied |= 1 << s_part
            return
        cell[0] += 1
        if x < cell[1]:
            cell[1] = x
        if y < cell[2]:
            cell[2] = y
        if x > cell[3]:
            cell[3] = x
        if y > cell[4]:
            cell[4] = y

    def remove(self, s_part: int, d_part: int) -> None:
        """Remove one entry from a temporal cell."""
        key = (s_part, d_part)
        cell = self._cells.get(key)
        if cell is None:
            raise KeyError(f"temporal cell {key} is already empty")
        self._generation += 1
        cell[0] -= 1
        if cell[0] == 0:
            del self._cells[key]

    def count(self, s_part: int, d_part: int) -> int:
        cell = self._cells.get((s_part, d_part))
        return cell[0] if cell else 0

    def mbr(self, s_part: int, d_part: int) -> Rect | None:
        """MBR of the temporal cell's entries, or None if the cell is empty."""
        cell = self._cells.get((s_part, d_part))
        if cell is None:
            return None
        return Rect(cell[1], cell[2], cell[3], cell[4])

    def overlaps(self, s_part: int, d_part: int, area: Rect) -> bool:
        """True if the cell is non-empty and its MBR intersects ``area``."""
        cell = self._cells.get((s_part, d_part))
        if cell is None:
            return False
        return (cell[1] <= area.x_hi and area.x_lo <= cell[3]
                and cell[2] <= area.y_hi and area.y_lo <= cell[4])

    def reset_partitions(self, s_lo: int, s_hi: int) -> None:
        """Clear every temporal cell with s-partition in ``[s_lo, s_hi)``.

        Called when the corresponding B+ tree is dropped at a window
        boundary.
        """
        if s_hi > s_lo:
            self._occupied &= ~(((1 << (s_hi - s_lo)) - 1) << s_lo)
        stale = [key for key in self._cells if s_lo <= key[0] < s_hi]
        if stale:
            self._generation += 1
        for key in stale:
            del self._cells[key]

    def total_entries(self) -> int:
        """Total entry count across all temporal cells."""
        return sum(cell[0] for cell in self._cells.values())

    def total_in_partitions(self, s_lo: int, s_hi: int) -> int:
        """Entry count over s-partitions in ``[s_lo, s_hi)``."""
        return sum(cell[0] for key, cell in self._cells.items()
                   if s_lo <= key[0] < s_hi)

    def nonempty_cells(self) -> int:
        return len(self._cells)
