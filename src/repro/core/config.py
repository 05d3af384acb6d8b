"""SWST configuration: the paper's Table I notation as a dataclass.

=========  ==================================================================
Notation   Meaning
=========  ==================================================================
``W``      sliding window size (time units)
``L``      slide (step with which the window moves); also the s-axis
           interval size Δ in the paper's default setting (L = Δ = δ)
``Xp Yp``  number of uniform spatial partitions along x / y
``Sp``     number of s-partitions per window (derived, ``⌈Wmax / L⌉``)
``Dp``     number of d-partitions (derived, ``⌈Dmax / δ⌉``)
``Dmax``   maximum regular valid duration
``ND``     duration sentinel for current entries, ``Dmax + 1``
``Wmax``   maximum actual window extent, ``W + L - 1``
=========  ==================================================================

All timestamps and coordinates are non-negative integers; overlap arithmetic
throughout the package is exact integer math based on the partition formulas
of Section III-B.2:

* ``s-partition(s) = ⌊(s mod 2·Wmax) · Sp / Wmax⌋`` ∈ [0, 2·Sp)
* ``d-partition(d) = ⌊(d - 1) · Dp / (Dmax + 1)⌋`` ∈ [0, Dp)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from .records import Rect


@dataclass(frozen=True)
class SWSTConfig:
    """Tunable parameters of an SWST index (paper Table II defaults, scaled).

    Args:
        window: sliding window size ``W``.
        slide: slide parameter ``L`` (granularity of window movement).
        x_partitions, y_partitions: spatial grid resolution ``Xp × Yp``.
        d_max: maximum regular duration ``Dmax``.
        duration_interval: d-axis interval size δ.
        space: spatial domain as a closed rectangle.
        s_partitions: s-partitions per window; defaults to ``⌈Wmax / L⌉``.
        page_size: disk page size in bytes.
        buffer_capacity: buffer pool capacity in pages (B+ tree nodes
            are cached decoded).  Has no effect on logical node-access
            counts.
        spatial_keys: include the Z-curve spatial bits in B+ tree keys
            (disable only for the ablation study of Section V-D.1).
        use_memo: prune temporal cells with the isPresent memo (disable
            only for the Fig. 11 with/without-memo comparison).
        n_shards: number of independent index shards the cell space is
            partitioned across when the index is driven through
            :class:`repro.engine.ShardedEngine`.  A plain
            :class:`~repro.core.index.SWSTIndex` ignores this (it is
            always one shard); the engine requires it to match the
            on-disk shard directory.
        device_factory: optional ``(path, page_size) -> PageDevice``
            callable; when set, the index builds its pager on the returned
            device instead of opening ``path`` directly.  The tests plug
            their fault-injecting device (``tests/storage/fault.py``), or
            any custom device, under the whole stack this way.  Excluded from equality
            and repr — it is plumbing, not an index parameter.
    """

    window: int = 20000
    slide: int = 100
    x_partitions: int = 20
    y_partitions: int = 20
    d_max: int = 2000
    duration_interval: int = 100
    space: Rect = field(default_factory=lambda: Rect(0, 0, 10000, 10000))
    s_partitions: int | None = None
    page_size: int = 8192
    buffer_capacity: int = 512
    spatial_keys: bool = True
    use_memo: bool = True
    n_shards: int = 1
    device_factory: Callable[[str, int], Any] | None = \
        field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.slide < 1:
            raise ValueError(f"slide must be >= 1, got {self.slide}")
        if self.slide > self.window:
            raise ValueError("slide must not exceed the window size")
        if self.x_partitions < 1 or self.y_partitions < 1:
            raise ValueError(
                f"spatial partitions must be >= 1, got "
                f"{self.x_partitions}x{self.y_partitions}")
        if self.d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {self.d_max}")
        if self.duration_interval < 1:
            raise ValueError(f"duration_interval must be >= 1, got "
                             f"{self.duration_interval}")
        if self.space.x_lo < 0 or self.space.y_lo < 0:
            raise ValueError("spatial domain must be non-negative")
        if self.s_partitions is not None and self.s_partitions < 1:
            raise ValueError(f"s_partitions must be >= 1 or None, got "
                             f"{self.s_partitions}")
        if self.page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {self.page_size}")
        if self.buffer_capacity < 1:
            raise ValueError(f"buffer_capacity must be >= 1, got "
                             f"{self.buffer_capacity}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")

    # -- derived quantities --------------------------------------------------
    # Once per config object: ``cached_property`` fills the instance dict
    # directly (frozen stays frozen; eq / hash / repr only see fields).

    @cached_property
    def w_max(self) -> int:
        """Maximum actual window extent ``Wmax = W + L - 1``."""
        return self.window + self.slide - 1

    @cached_property
    def sp(self) -> int:
        """Number of s-partitions per window (``Sp``)."""
        if self.s_partitions is not None:
            return self.s_partitions
        return -(-self.w_max // self.slide)  # ceil

    @cached_property
    def dp(self) -> int:
        """Number of d-partitions (``Dp``)."""
        return -(-self.d_max // self.duration_interval)  # ceil

    @cached_property
    def nd(self) -> int:
        """Sentinel duration for current entries (``ND = Dmax + 1``)."""
        return self.d_max + 1

    @cached_property
    def zc_order(self) -> int:
        """Bits per spatial axis for the Z-curve (covers the domain)."""
        extent = max(self.space.x_hi, self.space.y_hi)
        return max(1, extent.bit_length())

    # -- partition arithmetic --------------------------------------------------

    def s_partition(self, s: int) -> int:
        """Modulo-space s-partition index in ``[0, 2·Sp)`` of start time s."""
        w_max = self.w_max
        return ((s % (2 * w_max)) * self.sp) // w_max

    def d_partition(self, d: int) -> int:
        """d-partition index in ``[0, Dp)`` of duration ``d ∈ [1, ND]``."""
        if not 1 <= d <= self.nd:
            raise ValueError(f"duration {d} outside [1, {self.nd}]")
        return ((d - 1) * self.dp) // self.nd

    def tree_of(self, s: int) -> int:
        """Which of the two B+ trees holds start time ``s`` (0 or 1)."""
        return (s // self.w_max) % 2

    def s_cell_bounds(self, m: int) -> tuple[int, int]:
        """Modulo-space start-time range ``[S1, S2)`` of s-partition ``m``.

        Partition ``m`` holds exactly the (modulo) start times ``s`` with
        ``s_partition(s) == m``; the bounds follow from inverting the floor
        formula.
        """
        if not 0 <= m < 2 * self.sp:
            raise ValueError(f"s-partition {m} outside [0, {2 * self.sp})")
        s1 = -(-(m * self.w_max) // self.sp)          # ceil(m·Wmax / Sp)
        s2 = -(-((m + 1) * self.w_max) // self.sp)    # ceil((m+1)·Wmax / Sp)
        return s1, s2

    def d_cell_bounds(self, n: int) -> tuple[int, int]:
        """Duration range ``[D1, D2)`` of d-partition ``n`` (inclusive lo)."""
        if not 0 <= n < self.dp:
            raise ValueError(f"d-partition {n} outside [0, {self.dp})")
        d1 = -(-(n * self.nd) // self.dp) + 1
        d2 = -(-((n + 1) * self.nd) // self.dp) + 1
        return d1, d2

    # -- sliding window arithmetic ---------------------------------------------

    def lifetime_end(self, s: int) -> int:
        """End of an entry's lifetime: ``⌈(s + W) / L⌉ · L``."""
        return -(-(s + self.window) // self.slide) * self.slide

    def is_expired(self, s: int, now: int) -> bool:
        """True if an entry that started at ``s`` is expired at time ``now``."""
        return now > self.lifetime_end(s)

    def queriable_period(self, now: int,
                         window: int | None = None) -> tuple[int, int]:
        """Closed queriable time period ``[τ', τ]`` at current time ``now``.

        Args:
            now: the current stream time τ.
            window: logical window size ``W' <= W``; defaults to the physical
                window.
        """
        w = self.window if window is None else window
        if w > self.window:
            raise ValueError(f"logical window {w} exceeds physical window "
                             f"{self.window}")
        if w < 1:
            raise ValueError(f"logical window must be >= 1, got {w}")
        lo = max((now // self.slide) * self.slide - w, 0)
        return lo, now
