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
spatial cell.  We store the same information sparsely, in two tables:

* ``_cells`` maps a non-empty temporal cell to ``[count, x_lo, y_lo,
  x_hi, y_hi]``.  A cell is named by its *temporal prefix*
  ``s_part << d_bits | d_part`` — exactly the bits of a B+ key above its
  Z-value (``key >> z_bits``), so the index feeds keys straight in.
* ``_cols`` maps each non-empty s-partition column to the *exact* bitmap
  of its non-empty d-partitions (bit ``n`` set iff cell ``(s_part, n)``
  holds an entry).  A column is a key of ``_cols`` exactly when it holds
  an entry.

:meth:`spans` — step (b)'s sweep — walks only the set bits of each
column, so it costs O(non-empty cells) rather than O(``Dp``) per column.
On deletion the count is decremented, and the cell (and its bit, and an
emptied column) is dropped when it empties; a partially emptied MBR is
not shrunk (conservative: the memo may under-prune, never over-prune).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .overlap import ColumnOverlap
from .records import Rect


class CellMemo:
    """isPresent memo for one spatial cell.

    ``d_bits`` is the width of the d-partition field of the index's keys
    (:attr:`KeyCodec.d_bits`); it fixes how temporal prefixes are formed.
    """

    __slots__ = ("_cells", "_cols", "_d_bits", "_generation")

    def __init__(self, d_bits: int) -> None:
        # temporal prefix -> [count, x_lo, y_lo, x_hi, y_hi]
        self._cells: dict[int, list[int]] = {}
        # s_part -> bitmap of non-empty d-partitions (never 0)
        self._cols: dict[int, int] = {}
        self._d_bits = d_bits
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotone counter bumped by every mutation.

        Cached artifacts derived from the memo (the plan cache's
        memo-pruned key ranges) fence themselves on this counter: a
        generation mismatch means the pruning decision must be redone.
        """
        return self._generation

    def add_prefix(self, prefix: int, x: int, y: int) -> None:
        """Record one entry at ``(x, y)`` in the temporal cell with
        ``prefix = s_part << d_bits | d_part``."""
        self._generation += 1
        cell = self._cells.get(prefix)
        if cell is None:
            self._cells[prefix] = [1, x, y, x, y]
            s_part = prefix >> self._d_bits
            self._cols[s_part] = self._cols.get(s_part, 0) \
                | 1 << (prefix & ((1 << self._d_bits) - 1))
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

    def remove_prefix(self, prefix: int) -> None:
        """Remove one entry from the temporal cell with ``prefix``."""
        cell = self._cells.get(prefix)
        if cell is None:
            raise KeyError(f"temporal cell {self._split(prefix)} is already "
                           f"empty")
        self._generation += 1
        cell[0] -= 1
        if cell[0] == 0:
            del self._cells[prefix]
            s_part = prefix >> self._d_bits
            bits = self._cols[s_part] \
                & ~(1 << (prefix & ((1 << self._d_bits) - 1)))
            if bits:
                self._cols[s_part] = bits
            else:
                del self._cols[s_part]

    def add(self, s_part: int, d_part: int, x: int, y: int) -> None:
        """Record one entry at ``(x, y)`` in temporal cell (s_part, d_part)."""
        self.add_prefix(s_part << self._d_bits | d_part, x, y)

    def remove(self, s_part: int, d_part: int) -> None:
        """Remove one entry from a temporal cell."""
        self.remove_prefix(s_part << self._d_bits | d_part)

    def count(self, s_part: int, d_part: int) -> int:
        cell = self._cells.get(s_part << self._d_bits | d_part)
        return cell[0] if cell else 0

    def mbr(self, s_part: int, d_part: int) -> Rect | None:
        """MBR of the temporal cell's entries, or None if the cell is empty."""
        cell = self._cells.get(s_part << self._d_bits | d_part)
        if cell is None:
            return None
        return Rect(cell[1], cell[2], cell[3], cell[4])

    def overlaps(self, s_part: int, d_part: int, area: Rect) -> bool:
        """True if the cell is non-empty and its MBR intersects ``area``."""
        cell = self._cells.get(s_part << self._d_bits | d_part)
        if cell is None:
            return False
        return (cell[1] <= area.x_hi and area.x_lo <= cell[3]
                and cell[2] <= area.y_hi and area.y_lo <= cell[4])

    def spans(self, columns: Iterable[ColumnOverlap], area: Rect
              ) -> list[tuple[int, int, int]]:
        """Step IV-B(b): ``(s_part, n_min, n_max)`` of every column with a
        cell in ``d_first..Dp−1`` whose MBR intersects ``area``.

        ``n_min``/``n_max`` are the lowest and highest such d-partitions.
        Only the column's set bits are visited: upwards from ``d_first``
        to the first hit, then downwards from the top to the last hit.
        """
        cells = self._cells
        cols = self._cols
        d_bits = self._d_bits
        ax_lo, ay_lo, ax_hi, ay_hi = area.x_lo, area.y_lo, area.x_hi, \
            area.y_hi
        out: list[tuple[int, int, int]] = []
        for column in columns:
            s_part = column.s_part
            d_first = column.d_first
            bits = cols.get(s_part, 0) >> d_first
            if not bits:
                continue
            base = (s_part << d_bits) + d_first
            while bits:
                low = bits & -bits
                off = low.bit_length() - 1
                cell = cells[base + off]
                if (cell[1] <= ax_hi and ax_lo <= cell[3]
                        and cell[2] <= ay_hi and ay_lo <= cell[4]):
                    break
                bits ^= low
            else:
                continue
            n_min = n_max = d_first + off
            rest = bits ^ low
            while rest:
                off = rest.bit_length() - 1
                cell = cells[base + off]
                if (cell[1] <= ax_hi and ax_lo <= cell[3]
                        and cell[2] <= ay_hi and ay_lo <= cell[4]):
                    n_max = d_first + off
                    break
                rest ^= 1 << off
            out.append((s_part, n_min, n_max))
        return out

    def reset_partitions(self, s_lo: int, s_hi: int) -> None:
        """Clear every temporal cell with s-partition in ``[s_lo, s_hi)``.

        Called when the corresponding B+ tree is dropped at a window
        boundary.
        """
        stale = [s_part for s_part in self._cols if s_lo <= s_part < s_hi]
        if not stale:
            return
        self._generation += 1
        cells = self._cells
        for s_part in stale:
            bits = self._cols.pop(s_part)
            base = s_part << self._d_bits
            while bits:
                low = bits & -bits
                del cells[base + low.bit_length() - 1]
                bits ^= low

    def cells(self) -> Iterator[tuple[tuple[int, int], tuple[int, Rect]]]:
        """Read-only view: ``((s_part, d_part), (count, MBR))`` of every
        non-empty temporal cell."""
        for prefix, cell in self._cells.items():
            yield self._split(prefix), (cell[0], Rect(*cell[1:]))

    def columns(self) -> Iterator[tuple[int, int]]:
        """Read-only view: ``(s_part, bitmap)`` of every non-empty column,
        bit ``n`` set iff temporal cell ``(s_part, n)`` is non-empty."""
        return iter(self._cols.items())

    def total_entries(self) -> int:
        """Total entry count across all temporal cells."""
        return sum(cell[0] for cell in self._cells.values())

    def total_in_partitions(self, s_lo: int, s_hi: int) -> int:
        """Entry count over s-partitions in ``[s_lo, s_hi)``."""
        lo, hi = s_lo << self._d_bits, s_hi << self._d_bits
        return sum(cell[0] for prefix, cell in self._cells.items()
                   if lo <= prefix < hi)

    def nonempty_cells(self) -> int:
        return len(self._cells)

    def _split(self, prefix: int) -> tuple[int, int]:
        return prefix >> self._d_bits, prefix & ((1 << self._d_bits) - 1)
