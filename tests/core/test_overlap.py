"""Temporal overlap classification vs brute-force enumeration.

The brute force enumerates every physically representable (s, d) pair in
the two live windows and checks the classifier's three promises:

* *coverage* — every qualifying pair lies in a reported column at or above
  ``d_first``;
* *full soundness* — every pair in a cell classified full qualifies;
* *none soundness* — no pair below ``d_first`` (or in an unreported
  column) qualifies.

The classifier inverts the d-partition formula in closed form; the
per-partition loops it replaced live on here as reference functions
(:func:`reference_classify`) and must agree with it on random
configurations and on every partition edge.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (ColumnOverlap, SWSTConfig, classify_interval,
                        classify_timeslice)

CFG = SWSTConfig(window=40, slide=10, d_max=12, duration_interval=4)


def qualifying(cfg: SWSTConfig, s: int, d: int, t_lo: int, t_hi: int,
               now: int, window=None) -> bool:
    q_lo, q_hi = cfg.queriable_period(now, window)
    if not q_lo <= s <= min(q_hi, t_hi):
        return False
    if d == cfg.nd:  # current entry: open-ended
        return True
    return s + d > t_lo


def physical_pairs(cfg: SWSTConfig, now: int):
    """All (s, d) pairs that can physically sit in the two live trees."""
    window_idx = now // cfg.w_max
    s_lo = max(window_idx - 1, 0) * cfg.w_max
    for s in range(s_lo, now + 1):
        for d in range(1, cfg.nd + 1):
            yield s, d


def check_classification(cfg: SWSTConfig, now: int, t_lo: int, t_hi: int,
                         window=None) -> None:
    columns = {(c.tree, c.s_part): c
               for c in classify_interval(cfg, now, t_lo, t_hi, window)}
    for s, d in physical_pairs(cfg, now):
        col = columns.get((cfg.tree_of(s), cfg.s_partition(s)))
        d_part = cfg.d_partition(d)
        ok = qualifying(cfg, s, d, t_lo, t_hi, now, window)
        if col is None or d_part < col.d_first:
            assert not ok, (f"qualifying pair (s={s}, d={d}) missed for "
                            f"query [{t_lo}, {t_hi}] at now={now}")
            continue
        if ok:
            assert col.s_abs_lo <= s <= col.s_abs_hi
        if d_part >= col.d_full:
            assert ok, (f"cell marked full but (s={s}, d={d}) does not "
                        f"qualify for [{t_lo}, {t_hi}] at now={now}")


class TestAgainstBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(now=st.integers(0, 400), offset=st.integers(-80, 20),
           length=st.integers(0, 80))
    def test_interval_queries(self, now, offset, length):
        t_lo = max(now + offset - length, 0)
        t_hi = t_lo + length
        check_classification(CFG, now, t_lo, t_hi)

    @settings(max_examples=120, deadline=None)
    @given(now=st.integers(0, 400), offset=st.integers(-60, 0))
    def test_timeslice_queries(self, now, offset):
        t = max(now + offset, 0)
        check_classification(CFG, now, t, t)

    @settings(max_examples=60, deadline=None)
    @given(now=st.integers(30, 400), offset=st.integers(-25, 0),
           length=st.integers(0, 30), window=st.integers(1, 40))
    def test_logical_windows(self, now, offset, length, window):
        t_lo = max(now + offset - length, 0)
        check_classification(CFG, now, t_lo, t_lo + length, window)

    def test_exhaustive_small_sweep(self):
        cfg = SWSTConfig(window=12, slide=4, d_max=6, duration_interval=3)
        for now in range(0, 60, 7):
            for t_lo in range(max(now - 20, 0), now + 1, 3):
                for length in (0, 2, 9):
                    check_classification(cfg, now, t_lo, t_lo + length)


class TestStructure:
    def test_columns_sorted_and_unique(self):
        columns = classify_interval(CFG, 200, 150, 190)
        keys = [(c.tree, c.s_part) for c in columns]
        assert len(keys) == len(set(keys))
        starts = [c.s_abs_lo for c in columns]
        assert starts == sorted(starts)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            classify_interval(CFG, 100, 50, 40)

    def test_future_query_yields_nothing_before_window(self):
        # Query entirely before the queriable period.
        cfg = CFG
        q_lo, _ = cfg.queriable_period(300)
        assert classify_interval(cfg, 300, 0, q_lo - 1) == [] or all(
            c.s_abs_hi < q_lo for c in
            classify_interval(cfg, 300, 0, q_lo - 1))

    def test_timeslice_is_degenerate_interval(self):
        assert classify_timeslice(CFG, 200, 170) == \
            classify_interval(CFG, 200, 170, 170)

    def test_d_first_never_exceeds_d_full(self):
        for now in (50, 120, 333):
            for c in classify_interval(CFG, now, max(now - 30, 0), now):
                assert 0 <= c.d_first <= c.d_full <= CFG.dp

    def test_overlap_kind_labels(self):
        columns = classify_interval(CFG, 200, 150, 190)
        assert columns, "expected at least one column"
        col = columns[0]
        if col.d_first > 0:
            assert col.overlap_kind(col.d_first - 1) == "none"
        if col.d_full < CFG.dp:
            assert col.overlap_kind(col.d_full) == "full"
        if col.d_first < col.d_full:
            assert col.overlap_kind(col.d_first) == "partial"


# -- the per-partition loops the closed form replaced ------------------------


def _first_overlapping_d(config: SWSTConfig, a_hi: int, t_lo: int) -> int:
    """Smallest d-partition whose latest possible end exceeds ``t_lo``
    (``a_hi + D2(n) - 1 > t_lo``); the top partition hosts current
    entries (d = ∞) and always overlaps."""
    dp = config.dp
    for n in range(dp):
        if n == dp - 1:
            return n
        _, d2 = config.d_cell_bounds(n)
        if a_hi + d2 - 1 > t_lo:
            return n
    raise AssertionError("unreachable: the top partition always overlaps")


def _first_full_d(config: SWSTConfig, s1: int, t_lo: int) -> int:
    """Smallest d-partition whose earliest possible end exceeds ``t_lo``
    (``s1 + D1(n) > t_lo``), or ``Dp``."""
    dp = config.dp
    for n in range(dp):
        d1, _ = config.d_cell_bounds(n)
        if s1 + d1 > t_lo:
            return n
    return dp


def reference_classify(config: SWSTConfig, now: int, t_lo: int, t_hi: int,
                       window=None) -> list[ColumnOverlap]:
    """``classify_interval`` as it was before the closed form: every
    bound through ``s_cell_bounds`` / ``d_cell_bounds``, one loop over the
    d-partitions per column and predicate."""
    q_lo, q_hi = config.queriable_period(now, window)
    s_hi_eff = min(q_hi, t_hi)
    if s_hi_eff < q_lo:
        return []
    cycle_len = 2 * config.w_max
    columns = []
    for cycle in range(q_lo // cycle_len, s_hi_eff // cycle_len + 1):
        base = cycle * cycle_len
        m_lo = config.s_partition(max(q_lo, base))
        m_hi = config.s_partition(min(s_hi_eff, base + cycle_len - 1))
        for m in range(m_lo, m_hi + 1):
            s1_mod, s2_mod = config.s_cell_bounds(m)
            s1, s2 = base + s1_mod, base + s2_mod
            a_lo, a_hi = max(s1, q_lo), min(s2 - 1, s_hi_eff)
            if a_lo > a_hi:
                continue
            d_first = _first_overlapping_d(config, a_hi, t_lo)
            d_full = (_first_full_d(config, s1, t_lo)
                      if s1 >= q_lo and s2 - 1 <= s_hi_eff else config.dp)
            columns.append(ColumnOverlap(
                s_part=m, tree=0 if m < config.sp else 1, s_abs_lo=a_lo,
                s_abs_hi=a_hi, d_first=d_first,
                d_full=max(d_full, d_first)))
    return columns


@st.composite
def configs(draw) -> SWSTConfig:
    """Configurations that stress the floors and ceilings: ``L ∤ W``,
    ``Dmax`` not a multiple of δ, ``Dp = 1`` (δ >= Dmax), explicit
    ``s_partitions`` finer and coarser than the default."""
    window = draw(st.integers(1, 120))
    d_max = draw(st.integers(1, 90))
    return SWSTConfig(
        window=window, slide=draw(st.integers(1, window)), d_max=d_max,
        duration_interval=draw(st.integers(1, d_max + 3)),
        s_partitions=draw(st.none() | st.integers(1, 30)))


#: Hand-picked corner configurations for the edge sweep.
EDGE_CONFIGS = (
    CFG,
    SWSTConfig(window=37, slide=5, d_max=23, duration_interval=7),
    SWSTConfig(window=30, slide=30, d_max=9, duration_interval=9),   # Dp 1
    SWSTConfig(window=50, slide=7, d_max=10, duration_interval=1),
    SWSTConfig(window=41, slide=6, d_max=17, duration_interval=4,
               s_partitions=5),
    SWSTConfig(window=24, slide=4, d_max=13, duration_interval=5,
               s_partitions=19),
)


class TestClosedFormAgainstLoops:
    @settings(max_examples=300, deadline=None)
    @given(config=configs(), now_cycles=st.floats(0, 7),
           back=st.floats(0, 1.3), length=st.floats(0, 1.2),
           window_share=st.none() | st.floats(0, 1))
    def test_random_configs(self, config, now_cycles, back, length,
                            window_share):
        now = int(now_cycles * config.w_max)
        t_lo = max(now - int(back * config.window), 0)
        t_hi = t_lo + int(length * config.window)
        window = (None if window_share is None
                  else max(1, int(window_share * config.window)))
        assert classify_interval(config, now, t_lo, t_hi, window) == \
            reference_classify(config, now, t_lo, t_hi, window)

    @pytest.mark.parametrize("config", EDGE_CONFIGS,
                             ids=lambda c: f"W{c.window}L{c.slide}"
                                           f"D{c.d_max}d{c.duration_interval}")
    def test_every_partition_edge(self, config):
        """``t_lo`` placed exactly on, one below and one above every
        ``D1(n)`` / ``D2(n)`` edge of every column, ``t_hi`` on ``q_lo``,
        ``s_hi_eff`` and the ``2·Wmax`` wrap."""
        cycle_len = 2 * config.w_max
        d_edges = {d for n in range(config.dp)
                   for d in config.d_cell_bounds(n)}
        for now in (config.w_max - 1, cycle_len - 1, cycle_len,
                    3 * config.w_max + config.slide // 2, 2 * cycle_len + 1):
            q_lo, _ = config.queriable_period(now)
            wrap = now // cycle_len * cycle_len
            t_his = {t for t in (now, now + 3, q_lo - 1, q_lo, q_lo + 1,
                                 wrap - 1, wrap, wrap + 1) if t >= 0}
            starts = {bound for column in reference_classify(config, now, 0,
                                                              now)
                      for bound in (column.s_abs_lo, column.s_abs_hi)}
            t_los = {s + d + delta for s in starts for d in d_edges
                     for delta in (-2, -1, 0, 1)} | t_his
            for t_hi in t_his:
                for t_lo in t_los:
                    if 0 <= t_lo <= t_hi:
                        assert classify_interval(config, now, t_lo, t_hi) \
                            == reference_classify(config, now, t_lo, t_hi), \
                            (now, t_lo, t_hi)


def test_classification_cost_is_constant_per_column(monkeypatch):
    """Count-based cost guard (no wall clock): on the Table-II deployment
    the classifier never calls ``d_cell_bounds`` — no walk over the
    d-partitions — and makes O(1) calls of any kind per column."""
    config = SWSTConfig(window=20000, slide=100, d_max=2000,
                        duration_interval=100)
    d_cell_calls = []
    original = SWSTConfig.d_cell_bounds
    monkeypatch.setattr(
        SWSTConfig, "d_cell_bounds",
        lambda self, n: d_cell_calls.append(n) or original(self, n))
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count_calls)
    try:
        columns = classify_interval(config, 100_000, 81_000, 98_000)
    finally:
        sys.setprofile(None)
    assert len(columns) > 150
    assert d_cell_calls == []
    assert calls <= 12 * len(columns) + 40, (calls, len(columns))
