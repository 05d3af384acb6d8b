"""Model-based property test for the isPresent memo."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CellMemo, ColumnOverlap, Rect

from ..conftest import examples

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5), st.integers(0, 3),
                  st.integers(0, 99), st.integers(0, 99)),
        st.tuples(st.just("remove"), st.integers(0, 5), st.integers(0, 3),
                  st.just(0), st.just(0)),
        st.tuples(st.just("reset"), st.integers(0, 5), st.integers(0, 6),
                  st.just(0), st.just(0)),
    ),
    max_size=200,
)


@settings(max_examples=examples(60), deadline=None)
@given(operations)
def test_memo_matches_multiset_model(ops):
    """The memo's counts match a dict-of-lists model, and every surviving
    point is covered by its cell's MBR (MBRs are allowed to be larger —
    conservative — but never smaller)."""
    memo = CellMemo(2)
    model: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for op, s_part, d_part, x, y in ops:
        if op == "add":
            memo.add(s_part, d_part, x, y)
            model.setdefault((s_part, d_part), []).append((x, y))
        elif op == "remove":
            key = (s_part, d_part)
            if model.get(key):
                memo.remove(s_part, d_part)
                model[key].pop()
                if not model[key]:
                    del model[key]
        else:  # reset partitions [s_part, s_part + d_part)
            memo.reset_partitions(s_part, s_part + d_part)
            for key in [k for k in model
                        if s_part <= k[0] < s_part + d_part]:
                del model[key]
    for key, points in model.items():
        assert memo.count(*key) == len(points)
        mbr = memo.mbr(*key)
        assert mbr is not None
        for x, y in points:
            assert mbr.contains(x, y)
    assert memo.total_entries() == sum(len(p) for p in model.values())
    # Cells absent from the model are empty in the memo.
    for s_part in range(6):
        for d_part in range(4):
            if (s_part, d_part) not in model:
                assert memo.count(s_part, d_part) == 0


@settings(max_examples=examples(60), deadline=None)
@given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                min_size=1, max_size=50),
       st.tuples(st.integers(0, 99), st.integers(0, 99),
                 st.integers(0, 99), st.integers(0, 99)))
def test_memo_overlap_never_false_negative(points, probe):
    """If any stored point is inside the probe area, overlaps() is True
    (the pruning predicate may over-approximate, never under)."""
    memo = CellMemo(2)
    for x, y in points:
        memo.add(0, 0, x, y)
    x_lo, y_lo = min(probe[0], probe[2]), min(probe[1], probe[3])
    x_hi, y_hi = max(probe[0], probe[2]), max(probe[1], probe[3])
    area = Rect(x_lo, y_lo, x_hi, y_hi)
    if any(area.contains(x, y) for x, y in points):
        assert memo.overlaps(0, 0, area)


def _nonempty(memo: CellMemo) -> dict[int, set[int]]:
    """``{s: {d : count(s, d) > 0}}`` over non-empty columns, by probing."""
    found: dict[int, set[int]] = {}
    for s_part in range(12):
        for d_part in range(4):
            if memo.count(s_part, d_part):
                found.setdefault(s_part, set()).add(d_part)
    return found


def _bitmaps(memo: CellMemo) -> dict[int, set[int]]:
    return {s_part: {d for d in range(bits.bit_length()) if bits >> d & 1}
            for s_part, bits in memo.columns()}


@settings(max_examples=examples(80), deadline=None)
@given(operations)
def test_column_bitmaps_are_exact(ops):
    """After any add/remove/reset sequence each column's bitmap is exactly
    its set of non-empty d-partitions, and a column is present exactly
    when it holds an entry: ``remove`` clears the bit of a cell it
    empties and drops a column it empties, ``reset_partitions`` drops
    whole columns."""
    memo = CellMemo(2)
    assert dict(memo.columns()) == {}
    for op, s_part, d_part, x, y in ops:
        if op == "add":
            memo.add(s_part, d_part, x, y)
        elif op == "remove":
            if memo.count(s_part, d_part):
                memo.remove(s_part, d_part)
        else:
            memo.reset_partitions(s_part, s_part + d_part)
        assert _bitmaps(memo) == _nonempty(memo)
        assert all(bits for _, bits in memo.columns())
    memo.reset_partitions(0, 12)
    assert dict(memo.columns()) == {} and memo.total_entries() == 0
    memo.add(3, 1, 5, 5)
    assert _bitmaps(memo) == _nonempty(memo) == {3: {1}}


@settings(max_examples=examples(80), deadline=None)
@given(operations,
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)),
                max_size=6, unique_by=lambda c: c[0]),
       st.tuples(st.integers(0, 99), st.integers(0, 99),
                 st.integers(0, 99), st.integers(0, 99)))
def test_spans_equal_exhaustive_probe_sweep(ops, columns, probe):
    """``spans`` — the bitmap walk — finds the same first and last
    overlapping d-partition as probing ``d_first..3`` one by one."""
    memo = CellMemo(2)
    for op, s_part, d_part, x, y in ops:
        if op == "add":
            memo.add(s_part, d_part, x, y)
        elif op == "remove":
            if memo.count(s_part, d_part):
                memo.remove(s_part, d_part)
        else:
            memo.reset_partitions(s_part, s_part + d_part)
    area = Rect(min(probe[0], probe[2]), min(probe[1], probe[3]),
                max(probe[0], probe[2]), max(probe[1], probe[3]))
    cols = [ColumnOverlap(s_part, 0, 0, 0, d_first, 4)
            for s_part, d_first in columns]
    expected = []
    for column in cols:
        hit = [n for n in range(column.d_first, 4)
               if memo.overlaps(column.s_part, n, area)]
        if hit:
            expected.append((column.s_part, hit[0], hit[-1]))
    assert memo.spans(cols, area) == expected
