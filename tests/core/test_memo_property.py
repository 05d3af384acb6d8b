"""Model-based property test for the isPresent memo."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CellMemo, Rect

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


@settings(max_examples=60, deadline=None)
@given(operations)
def test_memo_matches_multiset_model(ops):
    """The memo's counts match a dict-of-lists model, and every surviving
    point is covered by its cell's MBR (MBRs are allowed to be larger —
    conservative — but never smaller)."""
    memo = CellMemo()
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                min_size=1, max_size=50),
       st.tuples(st.integers(0, 99), st.integers(0, 99),
                 st.integers(0, 99), st.integers(0, 99)))
def test_memo_overlap_never_false_negative(points, probe):
    """If any stored point is inside the probe area, overlaps() is True
    (the pruning predicate may over-approximate, never under)."""
    memo = CellMemo()
    for x, y in points:
        memo.add(0, 0, x, y)
    x_lo, y_lo = min(probe[0], probe[2]), min(probe[1], probe[3])
    x_hi, y_hi = max(probe[0], probe[2]), max(probe[1], probe[3])
    area = Rect(x_lo, y_lo, x_hi, y_hi)
    if any(area.contains(x, y) for x, y in points):
        assert memo.overlaps(0, 0, area)


def _occupied(memo: CellMemo) -> set[int]:
    return {s for s in range(12) if any(memo.count(s, d) for d in range(4))}


def _bits(memo: CellMemo) -> set[int]:
    assert memo.occupied_columns >> 12 == 0
    return {s for s in range(12) if memo.occupied_columns >> s & 1}


@settings(max_examples=80, deadline=None)
@given(operations)
def test_occupied_bitmap_is_a_conservative_superset(ops):
    """The occupied-column bitmap never misses a column that holds an
    entry; ``remove`` may leave stale bits, ``reset_partitions`` (the
    wholesale drop) clears exactly its range, and a reset of every
    partition makes the bitmap exact again."""
    memo = CellMemo()
    assert memo.occupied_columns == 0
    for op, s_part, d_part, x, y in ops:
        if op == "add":
            memo.add(s_part, d_part, x, y)
        elif op == "remove":
            if memo.count(s_part, d_part):
                before = memo.occupied_columns
                memo.remove(s_part, d_part)
                assert memo.occupied_columns == before
        else:
            outside = {s for s in _bits(memo)
                       if not s_part <= s < s_part + d_part}
            memo.reset_partitions(s_part, s_part + d_part)
            assert _bits(memo) == outside
        assert _bits(memo) >= _occupied(memo)
    memo.reset_partitions(0, 12)
    assert memo.occupied_columns == 0 and memo.total_entries() == 0
    memo.add(3, 1, 5, 5)
    assert _bits(memo) == _occupied(memo) == {3}
