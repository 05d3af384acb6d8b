"""isPresent memo: MBR maintenance, pruning predicate, partition resets,
column bitmaps and the step (b) sweep."""

import pytest

from repro.core import CellMemo, ColumnOverlap, Rect


@pytest.fixture
def memo():
    return CellMemo(d_bits=2)


class TestAddRemove:
    def test_empty_cell_reports_nothing(self, memo):
        assert memo.count(0, 0) == 0
        assert memo.mbr(0, 0) is None

    def test_single_point_mbr(self, memo):
        memo.add(2, 3, 10, 20)
        assert memo.mbr(2, 3) == Rect(10, 20, 10, 20)
        assert memo.count(2, 3) == 1

    def test_mbr_grows_to_cover_points(self, memo):
        memo.add(0, 0, 10, 20)
        memo.add(0, 0, 5, 40)
        memo.add(0, 0, 30, 5)
        assert memo.mbr(0, 0) == Rect(5, 5, 30, 40)

    def test_remove_decrements_and_clears(self, memo):
        memo.add(0, 0, 1, 1)
        memo.add(0, 0, 2, 2)
        memo.remove(0, 0)
        assert memo.count(0, 0) == 1
        memo.remove(0, 0)
        assert memo.mbr(0, 0) is None

    def test_remove_from_empty_cell_raises(self, memo):
        with pytest.raises(KeyError):
            memo.remove(0, 0)

    def test_mbr_is_conservative_after_partial_remove(self, memo):
        # The MBR never shrinks on partial deletes (documented behaviour:
        # it may under-prune but never over-prunes).
        memo.add(0, 0, 0, 0)
        memo.add(0, 0, 100, 100)
        memo.remove(0, 0)
        assert memo.mbr(0, 0) == Rect(0, 0, 100, 100)


class TestOverlaps:
    def test_overlap_with_area(self, memo):
        memo.add(1, 1, 50, 50)
        assert memo.overlaps(1, 1, Rect(0, 0, 60, 60))
        assert not memo.overlaps(1, 1, Rect(51, 0, 60, 60))

    def test_empty_cell_never_overlaps(self, memo):
        assert not memo.overlaps(1, 1, Rect(0, 0, 1000, 1000))

    def test_edge_touching_counts_as_overlap(self, memo):
        memo.add(0, 0, 10, 10)
        assert memo.overlaps(0, 0, Rect(10, 10, 20, 20))


class TestReset:
    def test_reset_partitions_clears_range(self, memo):
        memo.add(0, 0, 1, 1)
        memo.add(5, 2, 1, 1)
        memo.add(9, 0, 1, 1)
        memo.reset_partitions(0, 6)
        assert memo.count(0, 0) == 0
        assert memo.count(5, 2) == 0
        assert memo.count(9, 0) == 1

    def test_reset_is_half_open(self, memo):
        memo.add(5, 0, 1, 1)
        memo.reset_partitions(0, 5)
        assert memo.count(5, 0) == 1

    def test_totals(self, memo):
        memo.add(0, 0, 1, 1)
        memo.add(0, 0, 2, 2)
        memo.add(7, 3, 1, 1)
        assert memo.total_entries() == 3
        assert memo.total_in_partitions(0, 5) == 2
        assert memo.total_in_partitions(5, 10) == 1
        assert memo.nonempty_cells() == 2


class TestPrefix:
    def test_prefix_names_the_same_cell(self, memo):
        memo.add_prefix(5 << 2 | 3, 7, 8)
        assert memo.count(5, 3) == 1
        assert memo.mbr(5, 3) == Rect(7, 8, 7, 8)
        memo.remove_prefix(5 << 2 | 3)
        assert memo.count(5, 3) == 0

    def test_remove_from_empty_cell_names_it(self, memo):
        with pytest.raises(KeyError, match=r"\(5, 3\)"):
            memo.remove_prefix(5 << 2 | 3)


class TestViews:
    def test_cells_yields_count_and_mbr(self, memo):
        memo.add(1, 2, 10, 20)
        memo.add(1, 2, 30, 5)
        memo.add(4, 0, 1, 1)
        assert dict(memo.cells()) == {(1, 2): (2, Rect(10, 5, 30, 20)),
                                      (4, 0): (1, Rect(1, 1, 1, 1))}

    def test_columns_are_exact(self, memo):
        memo.add(1, 2, 0, 0)
        memo.add(1, 0, 0, 0)
        memo.add(3, 3, 0, 0)
        assert dict(memo.columns()) == {1: 0b101, 3: 0b1000}
        memo.remove(1, 2)
        assert dict(memo.columns()) == {1: 0b1, 3: 0b1000}
        memo.remove(3, 3)
        assert dict(memo.columns()) == {1: 0b1}

    def test_reset_pops_whole_columns(self, memo):
        memo.add(1, 2, 0, 0)
        memo.add(2, 1, 0, 0)
        memo.add(6, 0, 0, 0)
        memo.reset_partitions(1, 3)
        assert dict(memo.columns()) == {6: 0b1}
        assert dict(memo.cells()) == {(6, 0): (1, Rect(0, 0, 0, 0))}


class TestSpans:
    def col(self, s_part, d_first=0):
        return ColumnOverlap(s_part, 0, 0, 0, d_first, 4)

    def test_empty_and_missed_columns_give_no_span(self, memo):
        memo.add(1, 1, 50, 50)
        area = Rect(0, 0, 10, 10)
        assert memo.spans([self.col(0), self.col(1)], area) == []

    def test_span_runs_from_first_to_last_overlapping_cell(self, memo):
        memo.add(2, 0, 5, 5)
        memo.add(2, 1, 90, 90)      # misses the area
        memo.add(2, 2, 8, 8)
        memo.add(2, 3, 95, 95)      # misses the area
        area = Rect(0, 0, 10, 10)
        assert memo.spans([self.col(2)], area) == [(2, 0, 2)]
        assert memo.spans([self.col(2, d_first=1)], area) == [(2, 2, 2)]
        assert memo.spans([self.col(2, d_first=3)], area) == []

    def test_single_hit_is_a_one_cell_span(self, memo):
        memo.add(0, 3, 5, 5)
        assert memo.spans([self.col(0)], Rect(0, 0, 9, 9)) == [(0, 3, 3)]
