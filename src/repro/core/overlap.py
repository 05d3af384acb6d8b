"""Temporal overlap classification (paper Section IV-B(a), Theorems 1–3).

Given a query time interval ``[tl, th]`` (a timeslice is ``tl == th``), this
module computes, for every s-partition column that can contain qualifying
entries, the contiguous band of overlapping d-partitions and the sub-band
whose cells overlap *fully* — entries in fully overlapping cells are
guaranteed to qualify and skip the refinement step.

The classification is *exact* and costs O(1) integer arithmetic per column,
as Theorems 1–3 promise: instead of transliterating the paper's
continuous-time inequalities (or walking the d-partitions) it inverts the
integer partition formulas of :class:`SWSTConfig` in closed form.  Since
``d_partition(d) = ⌊(d - 1)·Dp / ND⌋``, partition ``n`` holds the durations
``[D1(n), D2(n))`` with ``D1(n) = ⌈n·ND / Dp⌉ + 1`` and ``D2(n) = D1(n + 1)``.
For a column with physical starts ``[s1, s2)``, qualifying starts
``[a_lo, a_hi]``:

* the *first overlapping* partition is the smallest ``n`` whose latest end
  passes ``t_lo``: ``a_hi + D2(n) - 1 > t_lo  ⇔  (n + 1)·ND > gap·Dp`` with
  ``gap = t_lo - a_hi``, so ``n = ⌊gap·Dp / ND⌋`` (0 when ``gap <= 0``),
  capped at ``Dp - 1`` because the top partition hosts current entries
  (d = ∞), which always reach past ``t_lo``;
* the *first full* partition is the smallest ``n`` whose earliest end
  passes ``t_lo``: ``s1 + D1(n) > t_lo  ⇔  n·ND > gap·Dp`` with
  ``gap = t_lo - s1 - 1``, so ``n = ⌊gap·Dp / ND⌋ + 1`` (0 when
  ``gap < 0``), capped at ``Dp`` (no full cell).  ``s1 <= a_hi`` and
  ``Dp < ND`` make it never smaller than the first overlapping partition.

The test suite checks the result against brute-force enumeration of
representable ``(s, d)`` pairs, against the per-partition loops this closed
form replaced, and against the paper's merge algorithm (kept as a test
oracle in ``tests/core/merge.py``).

An entry ``(s, d)`` qualifies for interval query ``[tl, th]`` under queriable
period ``[q_lo, q_hi]`` iff::

    q_lo <= s <= min(q_hi, th)   and   s + d > tl

(current entries have ``d = ∞`` and satisfy the second condition whenever
the first holds).  The classification accounts for *physically present but
no longer queriable* entries (starts below ``q_lo`` that have expired but
whose tree has not been dropped yet): a column containing such starts can
never be classified full.
"""

from __future__ import annotations

from typing import NamedTuple

from .config import SWSTConfig


class ColumnOverlap(NamedTuple):
    """Overlap classification of one s-partition column (immutable).

    Attributes:
        s_part: modulo-space s-partition index in ``[0, 2·Sp)``.
        tree: which of the two B+ trees holds this column (0 or 1).
        s_abs_lo: smallest absolute start timestamp in the column that can
            qualify (clipped to the queriable period).
        s_abs_hi: largest qualifying absolute start timestamp.
        d_first: first overlapping d-partition (inclusive).  The overlapping
            band always extends to ``Dp - 1`` because longer durations only
            increase overlap.
        d_full: first *fully* overlapping d-partition, or ``Dp`` when no
            cell of the column overlaps fully.
    """

    s_part: int
    tree: int
    s_abs_lo: int
    s_abs_hi: int
    d_first: int
    d_full: int

    def overlap_kind(self, d_part: int) -> str:
        """'none' / 'partial' / 'full' classification of one temporal cell."""
        if d_part < self.d_first:
            return "none"
        return "full" if d_part >= self.d_full else "partial"


def classify_interval(config: SWSTConfig, now: int, t_lo: int, t_hi: int,
                      window: int | None = None) -> list[ColumnOverlap]:
    """Classify temporal cells for interval query ``[t_lo, t_hi]``.

    Args:
        config: index configuration.
        now: current stream time τ (the newest start timestamp seen).
        t_lo, t_hi: closed query time interval.
        window: optional logical window size ``W' <= W``.

    Returns:
        Column classifications ordered by absolute start time (hence sorted
        and disjoint in key space), at most one per modulo s-partition.
    """
    if t_lo > t_hi:
        raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
    q_lo, q_hi = config.queriable_period(now, window)
    s_hi_eff = min(q_hi, t_hi)
    if s_hi_eff < q_lo:
        return []
    w_max, sp, dp, nd = config.w_max, config.sp, config.dp, config.nd
    cycle_len = 2 * w_max
    columns: list[ColumnOverlap] = []
    for cycle in range(q_lo // cycle_len, s_hi_eff // cycle_len + 1):
        base = cycle * cycle_len
        m_lo = _s_part_at(config, max(q_lo - base, 0))
        m_hi = _s_part_at(config, min(s_hi_eff - base, cycle_len - 1))
        # Column m holds the starts [S1(m), S1(m + 1)) of this cycle, with
        # S1(m) = ⌈m·Wmax / Sp⌉ (SWSTConfig.s_cell_bounds).
        s2 = base - (-(m_lo * w_max) // sp)
        for m in range(m_lo, m_hi + 1):
            s1 = s2                 # smallest physical start in the column
            s2 = base - (-((m + 1) * w_max) // sp)   # exclusive upper bound
            a_lo = max(s1, q_lo)    # clipped qualifying start bounds
            a_hi = min(s2 - 1, s_hi_eff)
            if a_lo > a_hi:
                continue
            gap = t_lo - a_hi
            d_first = 0 if gap <= 0 else min(gap * dp // nd, dp - 1)
            # A column can only contain full cells when every physically
            # present start is both queriable (s1 >= q_lo) and within the
            # query's start bound (s2 - 1 <= s_hi_eff).
            d_full = dp
            if s1 >= q_lo and s2 - 1 <= s_hi_eff:
                gap = t_lo - s1 - 1
                d_full = 0 if gap < 0 else min(gap * dp // nd + 1, dp)
            columns.append(ColumnOverlap(m, 0 if m < sp else 1, a_lo, a_hi,
                                         d_first, d_full))
    return columns


def classify_timeslice(config: SWSTConfig, now: int, t: int,
                       window: int | None = None) -> list[ColumnOverlap]:
    """Classify temporal cells for timeslice query ``t`` (= interval [t, t])."""
    return classify_interval(config, now, t, t, window)


def _s_part_at(config: SWSTConfig, s_mod: int) -> int:
    """s-partition index of a modulo-space start time (no re-reduction)."""
    return (s_mod * config.sp) // config.w_max
