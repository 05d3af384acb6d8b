"""Property-based save/reopen round-trip, including retention overrides.

The catalog must preserve the stored entries, the current table, the
clock and the per-object retention overrides; the reopened
index must pass its own integrity check and answer queries identically
— retention filtering included.  The memos ``open()`` derives from the
B+ keys must equal a rebuild from the stored records.
"""

import dataclasses
import random
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import KeyCodec, Rect, SWSTConfig, SWSTIndex
from repro.core.memo import CellMemo
from repro.core.records import Entry
from repro.storage.stats import IOStats

from ..conftest import examples

CFG = SWSTConfig(window=200, slide=20, x_partitions=3, y_partitions=3,
                 d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                 page_size=512)

#: The default layout, keys without Z bits, and a single d-partition.
CONFIGS = (CFG,
           dataclasses.replace(CFG, spatial_keys=False),
           dataclasses.replace(CFG, duration_interval=CFG.d_max))
assert CONFIGS[2].dp == 1

stream_strategy = st.lists(
    st.tuples(
        st.integers(0, 5),                          # oid
        st.integers(0, 99),                         # x
        st.integers(0, 99),                         # y
        st.one_of(st.integers(0, 6),                # gap (rare window jump)
                  st.integers(150, 500)),
        st.one_of(st.none(),                        # duration (None=report),
                  st.integers(1, 2 * CFG.d_max)),   # above Dmax included
    ),
    min_size=1, max_size=80,
)

retention_strategy = st.dictionaries(
    st.integers(0, 5), st.integers(1, CFG.window), max_size=4)


def _entries(entries) -> list[tuple[int, int, int, int, int]]:
    """Entries as sortable tuples: a current entry's ``d=None`` is -1."""
    return sorted((e.oid, e.x, e.y, e.s, -1 if e.d is None else e.d)
                  for e in entries)


def reference_memos(index: SWSTIndex) -> dict[tuple[int, int], CellMemo]:
    """The memos rebuilt from decoded records, not keys: every entry's
    temporal cell from its own ``s`` and ``d``."""
    config = index.config
    memos = {}
    for cell, trees in index._trees.items():
        memo = memos[cell] = CellMemo(index.codec.d_bits)
        for tree in trees:
            if tree is None:
                continue
            for _, payload in tree.items():
                entry = Entry.unpack(payload)
                d_key = index._d_key(entry.d)
                memo.add(config.s_partition(entry.s),
                         config.d_partition(d_key), entry.x, entry.y)
    return memos


def assert_memos_match_records(index: SWSTIndex) -> None:
    reference = reference_memos(index)
    assert index._memos.keys() == reference.keys()
    for cell, memo in reference.items():
        assert dict(index._memos[cell].cells()) == dict(memo.cells()), cell
        assert dict(index._memos[cell].columns()) == \
            dict(memo.columns()), cell


@settings(max_examples=examples(120), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=st.sampled_from(CONFIGS), stream=stream_strategy,
       retentions=retention_strategy, k=st.sampled_from((0, 3, 4, 6)),
       lead=st.integers(0, 2 * CFG.w_max))
def test_save_reopen_round_trip(tmp_path_factory, config, stream, retentions,
                                k, lead):
    """The stream starts ``lead`` before ``k·Wmax``, so it crosses that
    window boundary (and, for odd ``k``, the ``2·Wmax`` wrap) early;
    ``k = 0`` starts a fresh index at ``t = 0``."""
    path = str(tmp_path_factory.mktemp("rt") / "swst.db")
    index = SWSTIndex(config, path=path)
    t = max(k * config.w_max - lead, 0)
    for oid, x, y, gap, duration in stream:
        t += gap
        index.insert(oid, x, y, t, duration)
    for oid, retention in retentions.items():
        index.set_retention(oid, retention)
    expected_entries = _entries(index.scan())
    expected_current = index.current_objects()
    expected_now = index.now
    q_lo, q_hi = config.queriable_period(index.now)
    probe = (config.space, max(q_lo - 20, 0), q_hi + 20)
    expected_result = _entries(index.query_interval(*probe))
    index.save()
    index.close()

    reopened = SWSTIndex.open(path, config)
    try:
        assert _entries(reopened.scan()) == expected_entries
        assert reopened.current_objects() == expected_current
        assert reopened.now == expected_now
        for oid in range(6):
            assert reopened.retention_of(oid) == \
                retentions.get(oid, config.window)
        assert _entries(reopened.query_interval(*probe)) == expected_result
        assert_memos_match_records(reopened)
        reopened.check_integrity()
    finally:
        reopened.close()


def _saved_stream(path: str, config: SWSTConfig) -> None:
    """A fixed stream across one window boundary, saved at ``path``:
    reports, closed entries above and below Dmax."""
    rng = random.Random(32)
    index = SWSTIndex(config, path=path)
    t = 0
    for i in range(3000):
        t += rng.random() < 0.125
        index.report(rng.randrange(200), rng.randint(0, 99),
                     rng.randint(0, 99), t)
        if i % 50 == 0:
            index.insert(1000 + i, rng.randint(0, 99), rng.randint(0, 99),
                         t, rng.choice([5, 41, 90]))
    index.save()
    index.close()


def test_open_derives_memos_from_keys(tmp_path):
    """Count-based cost guard (no wall clock): ``open`` decodes no record,
    computes no partition and splits no key — every memo cell is a key's
    temporal prefix — and
    reads exactly the pages it read when it decoded every record."""
    config = dataclasses.replace(CFG, buffer_capacity=16)
    path = str(tmp_path / "swst.db")
    _saved_stream(path, config)
    watched = {Entry.unpack.__func__.__code__: "Entry.unpack",
               SWSTConfig.s_partition.__code__: "s_partition",
               SWSTConfig.d_partition.__code__: "d_partition",
               KeyCodec.split.__code__: "KeyCodec.split"}
    calls = {name: 0 for name in watched.values()}

    def count_calls(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls[watched[frame.f_code]] += 1

    sys.setprofile(count_calls)
    try:
        opened = SWSTIndex.open(path, config)
    finally:
        sys.setprofile(None)
    try:
        assert calls == {"Entry.unpack": 0, "s_partition": 0,
                         "d_partition": 0, "KeyCodec.split": 0}
        assert opened.stats == IOStats(logical_reads=478, physical_reads=478,
                                       node_parses=478)
        assert len(opened) == 2964
        assert_memos_match_records(opened)
        opened.check_integrity()
    finally:
        opened.close()


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
