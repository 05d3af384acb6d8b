"""B+ tree key codec (paper Section III-B.2).

A key is the fixed-width bit concatenation::

    KEY(s, d, x, y) = [s-partition(s)]₂ ⊕ [d-partition(d)]₂ ⊕ [zc(x, y)]₂

ordered so that (a) every entry of one s-partition column sits in one
contiguous key band — the band that is dropped wholesale when the window
slides — (b) within a column, entries are ordered by d-partition, and (c)
within one temporal cell, by Z-curve spatial proximity.  Because both the
modulo-reduced start time and the duration are bounded, key width never
grows with stream time.

``spatial_keys=False`` reproduces the ablation of Section V-D.1: the Z bits
are omitted and the spatial pruning inside a cell is lost.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Iterable, Sequence

from ..sfc.zcurve import zc_encode, zc_encode_many
from .config import SWSTConfig
from .records import Rect


@dataclass(frozen=True)
class DecodedKey:
    """The three fields of a decoded SWST key."""

    s_part: int
    d_part: int
    z_value: int


class KeyCodec:
    """Encode/decode SWST composite keys for one configuration."""

    def __init__(self, config: SWSTConfig) -> None:
        self.config = config
        # s-partition spans both modulo windows: [0, 2·Sp).
        self.s_bits = max(1, (2 * config.sp - 1).bit_length())
        self.d_bits = max(1, (config.dp - 1).bit_length())
        self.zc_order = config.zc_order
        self.z_bits = 2 * self.zc_order if config.spatial_keys else 0
        self.key_bits = self.s_bits + self.d_bits + self.z_bits
        if self.key_bits > 128:
            raise ValueError(f"key of {self.key_bits} bits exceeds the "
                             f"128-bit B+ tree key width")

    # -- scalar encode/decode --------------------------------------------------

    def encode(self, s: int, d: int, x: int, y: int) -> int:
        """Key of an entry with start ``s``, duration ``d`` (``ND`` allowed),
        location ``(x, y)``."""
        return self.pack(self.config.s_partition(s),
                         self.config.d_partition(d),
                         x, y)

    def pack(self, s_part: int, d_part: int, x: int, y: int) -> int:
        """Key from explicit partition indices and a location."""
        key = (s_part << self.d_bits) | d_part
        if self.z_bits:
            key = (key << self.z_bits) | zc_encode(x, y, self.zc_order)
        return key

    def split(self, key: int) -> tuple[int, int]:
        """``(s_part, d_part)`` of one key — its isPresent memo cell."""
        rest = key >> self.z_bits
        return rest >> self.d_bits, rest & ((1 << self.d_bits) - 1)

    def with_d_partition(self, key: int, d_part: int) -> int:
        """``key`` with its d-partition bits replaced by ``d_part``: where a
        record moves when only its duration changes (same s-partition,
        same Z bits — the finalise pair of a current entry)."""
        z_bits = self.z_bits
        old = (key >> z_bits) & ((1 << self.d_bits) - 1)
        return key ^ ((old ^ d_part) << z_bits)

    def decode(self, key: int) -> DecodedKey:
        """Split a key back into its fields."""
        z_value = key & ((1 << self.z_bits) - 1) if self.z_bits else 0
        s_part, d_part = self.split(key)
        return DecodedKey(s_part=s_part, d_part=d_part, z_value=z_value)

    # -- batched encode/decode ---------------------------------------------------

    def encode_many(self,
                    items: Iterable[tuple[int, int, int, int]]) -> list[int]:
        """Keys of many ``(s, d, x, y)`` tuples in one pass."""
        s_partition = self.config.s_partition
        d_partition = self.config.d_partition
        d_bits, z_bits = self.d_bits, self.z_bits
        if not z_bits:
            return [(s_partition(s) << d_bits) | d_partition(d)
                    for s, d, _x, _y in items]
        batch = list(items)
        zs = zc_encode_many(((x, y) for _s, _d, x, y in batch),
                            self.zc_order)
        return [(((s_partition(s) << d_bits) | d_partition(d)) << z_bits) | z
                for (s, d, _x, _y), z in zip(batch, zs, strict=True)]

    def split_many(self, keys: Sequence[int]) -> list[tuple[int, int]]:
        """``(s_part, d_part)`` of many keys in one pass.

        The refinement step classifies every candidate by its temporal
        cell but never needs the Z bits, so this skips materialising
        :class:`DecodedKey` objects.
        """
        z_bits, d_bits = self.z_bits, self.d_bits
        d_mask = (1 << d_bits) - 1
        return [(key >> z_bits >> d_bits, (key >> z_bits) & d_mask)
                for key in keys]

    # -- range generation --------------------------------------------------------

    def column_range(self, s_part: int, d_lo: int, d_hi: int,
                     clipped: Rect) -> tuple[int, int]:
        """Key range covering d-partitions ``[d_lo, d_hi]`` of one s-partition
        column, spatially clipped to ``clipped`` (paper step IV-B(b)).

        By the Z-curve corner property, using ``zc`` of the lower-left corner
        in the low key and of the upper-right corner in the high key covers
        every point of the clipped rectangle.
        """
        if d_lo > d_hi:
            raise ValueError(f"empty d-partition range [{d_lo}, {d_hi}]")
        z_lo, z_hi = self.rect_z(clipped)
        return self.column_range_z(s_part, d_lo, d_hi, z_lo, z_hi)

    def rect_z(self, clipped: Rect) -> tuple[int, int]:
        """Z-values of a rectangle's lower-left and upper-right corners.

        The query pipeline encodes these once per spatial cell and
        reuses them for every s-partition column of both trees (the
        clipped rectangle is a per-cell constant).
        """
        if not self.z_bits:
            return 0, 0
        return (zc_encode(clipped.x_lo, clipped.y_lo, self.zc_order),
                zc_encode(clipped.x_hi, clipped.y_hi, self.zc_order))

    def column_range_z(self, s_part: int, d_lo: int, d_hi: int,
                       z_lo: int, z_hi: int) -> tuple[int, int]:
        """:meth:`column_range` with the corner Z-values precomputed."""
        d_bits, z_bits = self.d_bits, self.z_bits
        return (((s_part << d_bits | d_lo) << z_bits) | z_lo,
                ((s_part << d_bits | d_hi) << z_bits) | z_hi)
