"""check_integrity: the cross-structure invariants hold through every
lifecycle event (inserts, updates, deletes, drops, reopen)."""

import random

import pytest

from repro.core import Rect, SWSTConfig, SWSTIndex

CFG = SWSTConfig(window=2000, slide=100, x_partitions=4, y_partitions=4,
                 d_max=300, duration_interval=50,
                 space=Rect(0, 0, 999, 999), page_size=1024)


def _random_ops(index, steps, seed, objects=20):
    rng = random.Random(seed)
    t = index.now
    closed = []
    for _ in range(steps):
        t += rng.randrange(0, 4)
        oid = rng.randrange(objects)
        x, y = rng.randrange(1000), rng.randrange(1000)
        if rng.random() < 0.7:
            index.report(oid, x, y, t)
        else:
            d = rng.randrange(1, 301)
            index.insert(oid + 100, x, y, t, d)
            closed.append((oid + 100, x, y, t, d))
    return closed


class TestIntegrity:
    def test_after_pure_inserts(self):
        index = SWSTIndex(CFG)
        _random_ops(index, 800, seed=1)
        index.check_integrity()
        index.close()

    def test_after_deletes(self):
        index = SWSTIndex(CFG)
        closed = _random_ops(index, 800, seed=2)
        rng = random.Random(3)
        rng.shuffle(closed)
        for victim in closed[: len(closed) // 2]:
            index.delete(*victim)
        index.check_integrity()
        index.close()

    def test_after_window_drops(self):
        index = SWSTIndex(CFG)
        _random_ops(index, 600, seed=4)
        index.advance_time(index.now + 3 * CFG.w_max)
        index.check_integrity()
        _random_ops(index, 400, seed=5)
        index.check_integrity()
        index.close()

    def test_after_reopen(self, tmp_path):
        path = str(tmp_path / "x.db")
        index = SWSTIndex(CFG, path=path)
        _random_ops(index, 500, seed=6)
        index.save()
        index.close()
        reopened = SWSTIndex.open(path, CFG)
        reopened.check_integrity()
        reopened.close()

    def test_detects_size_corruption(self):
        index = SWSTIndex(CFG)
        _random_ops(index, 100, seed=7)
        index._size += 1
        with pytest.raises(AssertionError):
            index.check_integrity()
        index.close()

    def test_detects_current_table_corruption(self):
        index = SWSTIndex(CFG)
        index.report(1, 10, 10, 100)
        index._current[99] = (1, 1, 1)
        with pytest.raises(AssertionError):
            index.check_integrity()
        index.close()

    def test_detects_memo_corruption(self):
        index = SWSTIndex(CFG)
        index.insert(1, 10, 10, 100, 50)
        memo = index._memos[index.grid.cell_of(10, 10)]
        s_part = CFG.s_partition(100)
        d_part = CFG.d_partition(50)
        memo.add(s_part, d_part, 10, 10)    # a count with no entry
        with pytest.raises(AssertionError, match="memo count 2 != stored 1"):
            index.check_integrity()
        index.close()

    @pytest.mark.parametrize("flip", ["stale", "missing"])
    def test_detects_column_bitmap_corruption(self, flip):
        """A column bitmap must equal its non-empty d-partitions in both
        directions: a bit with no cell, and a cell with no bit, are each
        caught (the bitmap is private, so the test corrupts it there)."""
        index = SWSTIndex(CFG)
        index.insert(1, 10, 10, 100, 50)
        index.check_integrity()
        memo = index._memos[index.grid.cell_of(10, 10)]
        s_part = CFG.s_partition(100)
        d_part = CFG.d_partition(50)
        other = (d_part + 1) % CFG.dp
        memo._cols[s_part] ^= 1 << (other if flip == "stale" else d_part)
        with pytest.raises(AssertionError, match=f"memo column {s_part} "):
            index.check_integrity()
        index.close()
