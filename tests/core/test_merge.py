"""The paper's merge algorithm must agree with the direct classifier."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SWSTConfig, classify_interval

from .merge import classify_interval_merge

CFG = SWSTConfig(window=40, slide=10, d_max=12, duration_interval=4)


def _normalize(columns):
    return sorted((c.tree, c.s_part, c.s_abs_lo, c.s_abs_hi, c.d_first,
                   c.d_full) for c in columns)


class TestEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(now=st.integers(0, 500), offset=st.integers(-80, 0),
           length=st.integers(0, 80))
    def test_merge_equals_direct_for_intervals(self, now, offset, length):
        t_lo = max(now + offset - length, 0)
        t_hi = t_lo + length
        direct = classify_interval(CFG, now, t_lo, t_hi)
        merged = classify_interval_merge(CFG, now, t_lo, t_hi)
        assert _normalize(direct) == _normalize(merged)

    @settings(max_examples=100, deadline=None)
    @given(now=st.integers(0, 500), offset=st.integers(-60, 0))
    def test_merge_equals_direct_for_timeslices(self, now, offset):
        t = max(now + offset, 0)
        direct = classify_interval(CFG, now, t, t)
        merged = classify_interval_merge(CFG, now, t, t)
        assert _normalize(direct) == _normalize(merged)

    @settings(max_examples=60, deadline=None)
    @given(now=st.integers(40, 500), offset=st.integers(-30, 0),
           length=st.integers(0, 40), window=st.integers(1, 40))
    def test_merge_respects_logical_windows(self, now, offset, length,
                                            window):
        t_lo = max(now + offset - length, 0)
        t_hi = t_lo + length
        direct = classify_interval(CFG, now, t_lo, t_hi, window)
        merged = classify_interval_merge(CFG, now, t_lo, t_hi, window)
        assert _normalize(direct) == _normalize(merged)

    def test_other_configurations(self):
        for cfg in (SWSTConfig(window=12, slide=4, d_max=6,
                               duration_interval=3),
                    SWSTConfig(window=100, slide=7, d_max=30,
                               duration_interval=11)):
            for now in range(0, 6 * cfg.w_max, cfg.w_max // 3):
                for t_lo in range(max(now - cfg.window, 0), now + 1,
                                  max(cfg.window // 4, 1)):
                    for length in (0, cfg.slide, cfg.window // 2):
                        direct = classify_interval(cfg, now, t_lo,
                                                   t_lo + length)
                        merged = classify_interval_merge(cfg, now, t_lo,
                                                         t_lo + length)
                        assert _normalize(direct) == _normalize(merged)
