"""Disk B+ tree: insertion, search, deletion, rebalancing, wholesale drop."""

import pytest

from repro.btree import BPlusTree
from repro.storage import MEMORY, BufferPool, Pager

VALUE = 8


def value(i: int) -> bytes:
    return i.to_bytes(VALUE, "big")


@pytest.fixture
def pool():
    return BufferPool(Pager(MEMORY, page_size=512), capacity=128)


@pytest.fixture
def tree(pool):
    return BPlusTree(pool, value_size=VALUE)


class TestInsertSearch:
    def test_empty_tree_has_no_entries(self, tree):
        assert tree.range_search(0, 10**9) == []
        assert len(tree) == 0

    def test_single_insert_found(self, tree):
        tree.insert(5, value(50))
        assert tree.search(5) == [value(50)]

    def test_absent_key_not_found(self, tree):
        tree.insert(5, value(50))
        assert tree.search(6) == []

    def test_many_inserts_stay_sorted(self, tree):
        for key in range(200, 0, -1):
            tree.insert(key, value(key))
        items = list(tree.items())
        assert [k for k, _ in items] == list(range(1, 201))

    def test_splits_preserve_entries(self, tree):
        n = tree.leaf_cap * 10
        for key in range(n):
            tree.insert(key, value(key))
        assert len(tree) == n
        assert tree.height() >= 2
        tree.check_invariants()

    def test_duplicate_keys_supported(self, tree):
        for i in range(50):
            tree.insert(7, value(i))
        assert sorted(tree.search(7)) == [value(i) for i in range(50)]

    def test_duplicate_run_across_splits(self, tree):
        n = tree.leaf_cap * 5
        for i in range(n):
            tree.insert(42, value(i))
        tree.check_invariants()
        assert len(tree.search(42)) == n

    def test_key_out_of_range_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.insert(-1, value(0))
        with pytest.raises(ValueError):
            tree.insert(1 << 128, value(0))

    def test_wrong_value_size_rejected(self, tree):
        with pytest.raises(ValueError):
            tree.insert(1, b"wrong-size")


class TestRangeSearch:
    def test_closed_range_bounds(self, tree):
        for key in range(10):
            tree.insert(key, value(key))
        got = [k for k, _ in tree.range_search(3, 6)]
        assert got == [3, 4, 5, 6]

    def test_empty_range_returns_nothing(self, tree):
        tree.insert(5, value(5))
        assert tree.range_search(7, 6) == []

    def test_range_spans_leaves(self, tree):
        n = tree.leaf_cap * 4
        for key in range(n):
            tree.insert(key, value(key))
        got = [k for k, _ in tree.range_search(1, n - 2)]
        assert got == list(range(1, n - 1))

    def test_range_finds_duplicates_at_separator(self, tree):
        # Fill a leaf with equal keys, force a split, then search the key.
        n = tree.leaf_cap + 5
        for i in range(n):
            tree.insert(100, value(i))
        tree.insert(99, value(0))
        tree.insert(101, value(0))
        assert len(tree.range_search(100, 100)) == n

    def test_iter_range_is_lazy(self, tree):
        for key in range(100):
            tree.insert(key, value(key))
        iterator = tree.iter_range(0, 99)
        first = next(iterator)
        assert first == (0, value(0))


class TestDelete:
    def test_delete_by_exact_value(self, tree):
        tree.insert(5, value(1))
        tree.insert(5, value(2))
        assert tree.delete(5, value(1))
        assert tree.search(5) == [value(2)]

    def test_delete_missing_returns_false(self, tree):
        tree.insert(5, value(1))
        assert not tree.delete(6, value(1))
        assert not tree.delete(5, value(9))

    def test_delete_any_with_none_match(self, tree):
        tree.insert(5, value(1))
        assert tree.delete(5)
        assert tree.search(5) == []

    def test_delete_by_predicate(self, tree):
        tree.insert(5, value(10))
        tree.insert(5, value(11))
        assert tree.delete(5, lambda v: v == value(11))
        assert tree.search(5) == [value(10)]

    def test_delete_everything_leaves_empty_tree(self, tree):
        n = tree.leaf_cap * 6
        for key in range(n):
            tree.insert(key, value(key))
        for key in range(n):
            assert tree.delete(key, value(key))
        assert len(tree) == 0
        tree.check_invariants()

    def test_delete_collapses_height(self, tree):
        n = tree.leaf_cap * 6
        for key in range(n):
            tree.insert(key, value(key))
        tall = tree.height()
        for key in range(n - 2):
            tree.delete(key, value(key))
        assert tree.height() < tall
        tree.check_invariants()

    def test_interleaved_insert_delete_keeps_invariants(self, tree):
        import random
        rng = random.Random(5)
        live = []
        for step in range(2000):
            if rng.random() < 0.6 or not live:
                key = rng.randrange(100)
                tree.insert(key, value(step))
                live.append((key, value(step)))
            else:
                key, val = live.pop(rng.randrange(len(live)))
                assert tree.delete(key, val)
        tree.check_invariants()
        assert sorted(live) == sorted(
            (k, v) for k, v in tree.items())

    def test_delete_duplicate_at_separator_boundary(self, tree):
        n = tree.leaf_cap + 3
        for i in range(n):
            tree.insert(50, value(i))
        for i in range(n):
            assert tree.delete(50, value(i)), f"failed at duplicate {i}"
        assert tree.search(50) == []


class TestDrop:
    def test_drop_frees_all_pages(self, tree, pool):
        n = tree.leaf_cap * 8
        for key in range(n):
            tree.insert(key, value(key))
        pages = tree.node_count()
        frees_before = pool.stats.frees
        freed = tree.drop()
        assert freed == pages
        assert pool.stats.frees - frees_before == pages

    def test_dropped_tree_is_empty_and_usable(self, tree):
        for key in range(100):
            tree.insert(key, value(key))
        tree.drop()
        assert len(tree) == 0
        tree.insert(7, value(7))
        assert tree.search(7) == [value(7)]

    def test_drop_cost_is_pages_not_entries(self, tree, pool):
        n = tree.leaf_cap * 8
        for key in range(n):
            tree.insert(key, value(key))
        before = pool.stats.snapshot()
        tree.drop()
        delta = pool.stats.diff(before)
        # O(pages): far fewer accesses than entries.
        assert delta.logical_reads < n / 4


class TestPersistence:
    def test_reopen_by_root_page(self, tmp_path):
        path = tmp_path / "t.db"
        pager = Pager(path, page_size=512)
        pool = BufferPool(pager, capacity=64)
        tree = BPlusTree(pool, value_size=VALUE)
        for key in range(300):
            tree.insert(key, value(key))
        root = tree.root_page
        pool.close()
        pager.sync()
        pager.close()
        pager = Pager(path, page_size=512)
        pool = BufferPool(pager, capacity=64)
        reopened = BPlusTree(pool, value_size=VALUE, root_page=root)
        assert [k for k, _ in reopened.items()] == list(range(300))
        pool.close()
        pager.close()
