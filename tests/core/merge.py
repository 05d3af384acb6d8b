"""The paper's interval-query merge algorithm (Section IV-B(a)), as an oracle.

For an interval query ``[tl, th]`` the paper computes overlapping-region
triplets ``(so, do_p, do_f)`` for the two endpoint timeslices separately
(Theorems 1 and 2), merges the two sorted column lists with three rules,
and finally upgrades partial cells that Theorem 3 proves full.

``repro.core.overlap`` computes the same classification directly from the
qualification predicate, and that is what the index runs; this module
implements the published algorithm faithfully and lives with the tests as
the oracle ``test_merge.py`` checks the direct classifier against.  One
correction is applied: the paper's rule 2 marks every column "only in
th's region or between the regions" as fully overlapping,
but the column *containing* ``th`` can hold starts greater than ``th`` and
must keep its endpoint classification (the paper's own Fig. 4(b) classifies
that column partial).  Rule 2 is therefore applied only to columns whose
entire start range lies within ``[tl+1, th]``; the Theorem-3 refinement then
restores any full cells this conservatism missed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SWSTConfig
from repro.core.overlap import ColumnOverlap, _s_part_at


@dataclass(frozen=True)
class _Column:
    """Physical bounds of one enumerated s-partition column."""

    m: int
    s1: int       # first physical start (absolute)
    s2: int       # exclusive upper bound of physical starts
    a_lo: int     # clipped qualifying bounds
    a_hi: int
    tree: int


def _enumerate_columns(config: SWSTConfig, q_lo: int,
                       s_hi_eff: int) -> list[_Column]:
    """Columns whose clipped start range is non-empty, in absolute order."""
    cycle_len = 2 * config.w_max
    columns: list[_Column] = []
    for cycle in range(q_lo // cycle_len, s_hi_eff // cycle_len + 1):
        base = cycle * cycle_len
        m_lo = _s_part_at(config, max(q_lo - base, 0))
        m_hi = _s_part_at(config, min(s_hi_eff - base, cycle_len - 1))
        for m in range(m_lo, m_hi + 1):
            s1_mod, s2_mod = config.s_cell_bounds(m)
            s1, s2 = base + s1_mod, base + s2_mod
            a_lo, a_hi = max(s1, q_lo), min(s2 - 1, s_hi_eff)
            if a_lo <= a_hi:
                columns.append(_Column(m=m, s1=s1, s2=s2, a_lo=a_lo,
                                       a_hi=a_hi,
                                       tree=0 if m < config.sp else 1))
    return columns


def _timeslice_triplet(config: SWSTConfig, col: _Column,
                       t: int) -> tuple[int, int] | None:
    """(do_p, do_f) for timeslice ``t`` on one column, or None if disjoint.

    Theorem 1 (exact integer form): a cell is full iff every entry
    satisfies ``s <= t < s + d``, i.e. ``S2 - 1 <= t`` and ``S1 + D1 > t``.
    Theorem 2 falls out of the same arithmetic: when the start and end
    ranges overlap, no ``n`` satisfies both conditions.
    """
    if col.s1 > t:
        return None  # every start is after t
    dp = config.dp
    do_p = dp
    for n in range(dp):
        if n == dp - 1:
            do_p = min(do_p, n)  # current entries always reach t
            break
        _, d2 = config.d_cell_bounds(n)
        if min(col.s2 - 1, t) + d2 - 1 > t:
            do_p = min(do_p, n)
            break
    if do_p == dp:
        return None
    do_f = dp
    if col.s2 - 1 <= t:
        for n in range(do_p, dp):
            d1, _ = config.d_cell_bounds(n)
            if col.s1 + d1 > t:
                do_f = n
                break
    return do_p, do_f


def classify_interval_merge(config: SWSTConfig, now: int, t_lo: int,
                            t_hi: int,
                            window: int | None = None) -> list[ColumnOverlap]:
    """Merge-based interval classification; equivalent to
    :func:`repro.core.overlap.classify_interval`."""
    if t_lo > t_hi:
        raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
    q_lo, q_hi = config.queriable_period(now, window)
    s_hi_eff = min(q_hi, t_hi)
    if s_hi_eff < q_lo:
        return []
    columns = _enumerate_columns(config, q_lo, s_hi_eff)
    dp = config.dp
    results: list[ColumnOverlap] = []
    for col in columns:
        lo_triplet = _timeslice_triplet(config, col, t_lo)
        hi_triplet = _timeslice_triplet(config, col, t_hi)
        if lo_triplet is not None:
            # Rule 1: the merged column region equals tl's region.
            do_p, do_f = lo_triplet
        elif hi_triplet is not None or col.s1 > t_lo:
            if col.s2 - 1 <= t_hi and col.s1 > t_lo:
                # Rule 2 (corrected): the whole column's starts lie in
                # (tl, th]; every entry has s <= th and s + d > s > tl.
                do_p, do_f = 0, 0
            elif hi_triplet is not None:
                do_p, do_f = hi_triplet
            else:
                continue
        else:
            # Rule 3: no overlap for this column.
            continue
        # Full classification requires every physically present start to be
        # queriable and within the query's start bound (window clipping).
        if not (col.s1 >= q_lo and col.s2 - 1 <= s_hi_eff):
            do_f = dp
        else:
            # Theorem 3 refinement: upgrade partial cells that are actually
            # full for the whole interval: S2-1 <= th and S1 + D1 > tl.
            if col.s2 - 1 <= t_hi:
                for n in range(do_p, do_f):
                    d1, _ = config.d_cell_bounds(n)
                    if col.s1 + d1 > t_lo:
                        do_f = n
                        break
        results.append(ColumnOverlap(s_part=col.m, tree=col.tree,
                                     s_abs_lo=col.a_lo, s_abs_hi=col.a_hi,
                                     d_first=do_p,
                                     d_full=max(do_f, do_p)))
    return results
