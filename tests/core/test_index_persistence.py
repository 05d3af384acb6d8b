"""SWSTIndex save/open round-trips on a real page file."""

import random

import pytest

from repro.core import Entry, Rect, SWSTConfig, SWSTIndex
from repro.storage import CorruptPageFileError, Pager

CFG = SWSTConfig(window=2000, slide=100, x_partitions=4, y_partitions=4,
                 d_max=300, duration_interval=50,
                 space=Rect(0, 0, 999, 999), page_size=1024)

EVERYWHERE = Rect(0, 0, 999, 999)


def _populate(index, steps=800, seed=3):
    rng = random.Random(seed)
    t = 0
    for _ in range(steps):
        t += rng.randrange(0, 4)
        index.report(rng.randrange(20), rng.randrange(1000),
                     rng.randrange(1000), t)
    return t


class TestSaveOpen:
    def test_round_trip_preserves_entries(self, tmp_path):
        path = str(tmp_path / "swst.db")
        index = SWSTIndex(CFG, path=path)
        _populate(index)
        expected = sorted((e.oid, e.x, e.y, e.s, e.d) for e in index.scan())
        index.save()
        index.close()
        reopened = SWSTIndex.open(path, CFG)
        got = sorted((e.oid, e.x, e.y, e.s, e.d) for e in reopened.scan())
        assert got == expected
        reopened.close()

    def test_round_trip_preserves_clock_and_current_table(self, tmp_path):
        path = str(tmp_path / "swst.db")
        index = SWSTIndex(CFG, path=path)
        _populate(index)
        now = index.now
        current = index.current_objects()
        index.save()
        index.close()
        reopened = SWSTIndex.open(path, CFG)
        assert reopened.now == now
        assert reopened.current_objects() == current
        reopened.close()

    def test_queries_agree_after_reopen(self, tmp_path):
        path = str(tmp_path / "swst.db")
        index = SWSTIndex(CFG, path=path)
        _populate(index)
        q_lo, q_hi = CFG.queriable_period(index.now)
        area = Rect(100, 100, 600, 600)
        before = {(e.oid, e.s) for e in
                  index.query_interval(area, q_lo, q_hi)}
        index.save()
        index.close()
        reopened = SWSTIndex.open(path, CFG)
        after = {(e.oid, e.s) for e in
                 reopened.query_interval(area, q_lo, q_hi)}
        assert after == before
        reopened.close()

    def test_stream_continues_after_reopen(self, tmp_path):
        path = str(tmp_path / "swst.db")
        index = SWSTIndex(CFG, path=path)
        last = _populate(index)
        index.save()
        index.close()
        reopened = SWSTIndex.open(path, CFG)
        reopened.insert(999, 500, 500, last + 10, 50)
        result = reopened.query_interval(EVERYWHERE, last, last + 20)
        assert Entry(999, 500, 500, last + 10, 50) in list(result)
        reopened.close()

    def test_save_twice_reclaims_old_catalog(self, tmp_path):
        path = str(tmp_path / "swst.db")
        index = SWSTIndex(CFG, path=path)
        _populate(index, steps=200)
        index.save()
        pages_after_first = index.pager.page_count()
        index.save()
        # The second catalog reuses the freed pages of the first.
        assert index.pager.page_count() <= pages_after_first + 1
        index.close()

    def test_open_without_catalog_fails(self, tmp_path):
        path = str(tmp_path / "empty.db")
        index = SWSTIndex(CFG, path=path)
        index.close()
        with pytest.raises(CorruptPageFileError):
            SWSTIndex.open(path, CFG)

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[:-4],       # ends right after the current table
        lambda blob: blob + b"\x00",  # one byte past the retention table
    ], ids=["no-retention-table", "trailing-byte"])
    def test_open_rejects_catalog_of_wrong_length(self, tmp_path, damage):
        path = str(tmp_path / "swst.db")
        index = SWSTIndex(CFG, path=path)
        _populate(index)
        index.save()
        index.close()
        with Pager(path, page_size=CFG.page_size) as pager:
            pager.store_blob(damage(pager.load_blob()))
            pager.sync()
        with pytest.raises(CorruptPageFileError):
            SWSTIndex.open(path, CFG)

    def test_memo_rebuilt_on_open_prunes_identically(self, tmp_path):
        path = str(tmp_path / "swst.db")
        index = SWSTIndex(CFG, path=path)
        _populate(index)
        area = Rect(0, 0, 300, 300)
        q_lo, q_hi = CFG.queriable_period(index.now)
        res_before = index.query_interval(area, q_lo, q_hi)
        index.save()
        index.close()
        reopened = SWSTIndex.open(path, CFG)
        res_after = reopened.query_interval(area, q_lo, q_hi)
        assert {e.oid for e in res_after} == {e.oid for e in res_before}
        # The rebuilt memo is at least as tight as the live one (live MBRs
        # are never shrunk after deletions), so pruning cannot get worse.
        assert res_after.stats.candidates <= res_before.stats.candidates
        reopened.close()
