"""Property-based save/reopen round-trip, including retention overrides.

The catalog must preserve the stored entries, the current table, the
clock and the per-object retention overrides; the reopened
index must pass its own integrity check and answer queries identically
— retention filtering included.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Rect, SWSTConfig, SWSTIndex

CFG = SWSTConfig(window=200, slide=20, x_partitions=3, y_partitions=3,
                 d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                 page_size=512)

stream_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),                          # oid
        st.integers(0, 99),                         # x
        st.integers(0, 99),                         # y
        st.one_of(st.integers(0, 6),                # gap (rare window jump)
                  st.integers(150, 500)),
        st.one_of(st.none(), st.integers(1, 40)),   # duration (None=report)
    ),
    min_size=1, max_size=80,
)

retention_strategy = st.dictionaries(
    st.integers(0, 5), st.integers(1, CFG.window), max_size=4)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=stream_strategy, retentions=retention_strategy)
def test_save_reopen_round_trip(tmp_path_factory, stream, retentions):
    path = str(tmp_path_factory.mktemp("rt") / "swst.db")
    index = SWSTIndex(CFG, path=path)
    t = 0
    for oid, x, y, gap, duration in stream:
        t += gap
        index.insert(oid, x, y, t, duration)
    for oid, retention in retentions.items():
        index.set_retention(oid, retention)
    expected_entries = sorted((e.oid, e.x, e.y, e.s, e.d)
                              for e in index.scan())
    expected_current = index.current_objects()
    expected_now = index.now
    q_lo, q_hi = CFG.queriable_period(index.now)
    probe = (CFG.space, max(q_lo - 20, 0), q_hi + 20)
    expected_result = sorted((e.oid, e.x, e.y, e.s, e.d)
                             for e in index.query_interval(*probe))
    index.save()
    index.close()

    reopened = SWSTIndex.open(path, CFG)
    try:
        assert sorted((e.oid, e.x, e.y, e.s, e.d)
                      for e in reopened.scan()) == expected_entries
        assert reopened.current_objects() == expected_current
        assert reopened.now == expected_now
        for oid in range(6):
            assert reopened.retention_of(oid) == \
                retentions.get(oid, CFG.window)
        assert sorted((e.oid, e.x, e.y, e.s, e.d)
                      for e in reopened.query_interval(*probe)) == \
            expected_result
        reopened.check_integrity()
    finally:
        reopened.close()


def test_retention_survives_two_save_cycles(tmp_path):
    path = str(tmp_path / "swst.db")
    index = SWSTIndex(CFG, path=path)
    index.report(1, 10, 10, 0)
    index.set_retention(1, 50)
    index.set_retention(4, 120)
    index.save()
    index.close()
    second = SWSTIndex.open(path, CFG)
    assert second.retention_of(1) == 50
    assert second.retention_of(4) == 120
    second.set_retention(4, None)  # clear one override, keep the other
    second.save()
    second.close()
    third = SWSTIndex.open(path, CFG)
    assert third.retention_of(1) == 50
    assert third.retention_of(4) == CFG.window
    third.check_integrity()
    third.close()


def test_retention_filtering_agrees_after_reopen(tmp_path):
    """An override short enough to hide an old entry hides it both live
    and after a reopen (the bug this PR fixes: overrides were dropped by
    the catalog, silently re-extending retention to the full window)."""
    path = str(tmp_path / "swst.db")
    index = SWSTIndex(CFG, path=path)
    index.insert(1, 10, 10, 0, 10)
    index.insert(2, 20, 20, 0, 10)
    index.advance_time(150)
    index.set_retention(1, 40)  # entry at s=0 is now outside oid 1's window
    live = sorted(e.oid for e in index.query_interval(CFG.space, 0, 150))
    assert live == [2]
    index.save()
    index.close()
    reopened = SWSTIndex.open(path, CFG)
    assert sorted(e.oid for e in
                  reopened.query_interval(CFG.space, 0, 150)) == live
    reopened.close()
