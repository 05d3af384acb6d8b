"""Step IV-B(b) with exact column bitmaps: same decisions, same stats.

``SWSTIndex._build_key_ranges`` asks the memo for each column's span
(``CellMemo.spans``), which walks only the set bits of the column's
exact d-partition bitmap instead of probing ``d_first..Dp-1`` one cell
at a time.  The ranges and the ``columns_examined`` accounting must
equal an exhaustive probe sweep of every column — at a small shape and
at the deployment's ``Sp = 201``, ``Dp = 20`` — and whole-index query
statistics must equal what the index produced before the bitmaps
existed (golden totals captured with the exhaustive sweep), on a live
index whose removes empty cells and columns, across window drops, and
on a reopened one whose memos ``_rebuild_memos`` derived from the keys.
"""

import random

from repro.core import (QueryStats, Rect, SWSTConfig, SWSTIndex,
                        classify_interval)

CFG = SWSTConfig(window=400, slide=20, d_max=60, duration_interval=20,
                 x_partitions=3, y_partitions=3, space=Rect(0, 0, 999, 999),
                 page_size=512, buffer_capacity=64)
W_MAX = CFG.w_max

#: The e2e deployment's temporal shape (``Sp = 201``, ``Dp = 20``) at a
#: tenth of its window, so a test stream crosses window drops quickly.
DEPLOY = SWSTConfig(window=2000, slide=10, d_max=200, duration_interval=10,
                    x_partitions=3, y_partitions=3,
                    space=Rect(0, 0, 999, 999), page_size=512,
                    buffer_capacity=64)
assert (DEPLOY.sp, DEPLOY.dp) == (201, 20)


def stream(seed: int, objects: int, t_end: int):
    """Fixed-seed position reports ``(oid, x, y, t)`` in timestamp order."""
    rng = random.Random(seed)
    reports = []
    for oid in range(objects):
        t = rng.randrange(0, 40)
        while t <= t_end:
            reports.append((t, oid, rng.randrange(1000), rng.randrange(1000)))
            t += rng.randrange(1, 90)
    return [(oid, x, y, t) for t, oid, x, y in sorted(reports)]


def exhaustive_key_ranges(index: SWSTIndex, columns, memo, clipped: Rect):
    """The pre-bitmap step (b): probe ``d_first..Dp-1`` of every column."""
    dp = index.config.dp
    z_lo, z_hi = index.codec.rect_z(clipped)
    ranges = []
    for column in columns:
        hit = [n for n in range(column.d_first, dp)
               if memo.overlaps(column.s_part, n, clipped)]
        if hit:
            ranges.append(index.codec.column_range_z(
                column.s_part, hit[0], hit[-1], z_lo, z_hi))
    return tuple(ranges), len(columns)


def check_sweeps(index: SWSTIndex, rng: random.Random) -> tuple[int, int]:
    """One random interval query's step (b), for every overlapping cell
    and both trees, against the exhaustive sweep.  Returns ``(checked,
    pruned_by_bitmap)``: (cell, tree) pairs compared, and examined
    columns that hold no entry at all in the exact column map."""
    config = index.config
    now = index.now
    t_lo = max(now - rng.randrange(0, config.window), 0)
    t_hi = t_lo + rng.randrange(0, 200)
    columns = classify_interval(config, now, t_lo, t_hi)
    x0, y0 = rng.randrange(900), rng.randrange(900)
    area = Rect(x0, y0, x0 + rng.randrange(10, 500),
                y0 + rng.randrange(10, 500))
    checked = pruned_by_bitmap = 0
    for cell in index.grid.overlapping_cells(area):
        memo = index._memos.get((cell.cx, cell.cy))
        if memo is None:
            continue
        bitmaps = dict(memo.columns())
        for tree in (0, 1):
            cols = tuple(c for c in columns if c.tree == tree)
            got = index._build_key_ranges(cols, memo, cell.clipped)
            assert got == exhaustive_key_ranges(index, cols, memo,
                                                cell.clipped)
            checked += 1
            pruned_by_bitmap += sum(c.s_part not in bitmaps for c in cols)
    return checked, pruned_by_bitmap


def test_key_ranges_equal_exhaustive_sweep(tmp_path):
    rng = random.Random(11)
    with SWSTIndex(CFG) as index:
        checked = pruned_by_bitmap = 0
        for oid, x, y, t in stream(5, 25, 4 * W_MAX + 60):
            index.report(oid, x, y, t)      # closes the previous entry
            if rng.random() > 0.1:
                continue
            c, p = check_sweeps(index, rng)
            checked += c
            pruned_by_bitmap += p
        assert checked > 200 and pruned_by_bitmap > 200
    check_deployment_shape(str(tmp_path / "deploy.db"))


def check_deployment_shape(path: str) -> None:
    """``Sp = 201``, ``Dp = 20``: current entries (and durations above
    ``Dmax``) sit in the top d-partition; finalising a report empties its
    top cell and deletes empty whole columns; the stream crosses two
    window drops; then the index is reopened and probed again."""
    rng = random.Random(23)
    w_max = DEPLOY.w_max
    index = SWSTIndex(DEPLOY, path=path)
    last: dict[int, tuple[int, int, int]] = {}
    closed: list[tuple[int, int, int, int, int]] = []
    checked = pruned = emptied_cells = emptied_columns = top_cells = 0
    t = 0
    try:
        while t < 3 * w_max + 100:
            t += rng.choice((0, 0, 1, 2, 5))
            oid = rng.randrange(30)
            x, y = rng.randrange(1000), rng.randrange(1000)
            if oid in last:
                px, py, ps = last[oid]
                if t > ps:
                    closed.append((oid, px, py, ps, t - ps))
                else:
                    continue
            index.report(oid, x, y, t)
            last[oid] = (x, y, t)
            if closed and rng.random() < 0.2:
                victim = closed.pop(rng.randrange(len(closed)))
                if index.delete(*victim):
                    _, vx, vy, vs, vd = victim
                    memo = index._memos[index.grid.cell_of(vx, vy)]
                    s_part = DEPLOY.s_partition(vs)
                    d_part = DEPLOY.d_partition(min(vd, DEPLOY.nd))
                    emptied_cells += memo.count(s_part, d_part) == 0
                    emptied_columns += s_part not in dict(memo.columns())
            if rng.random() < 0.05:
                c, p = check_sweeps(index, rng)
                checked += c
                pruned += p
                top_cells += sum(memo.count(s, DEPLOY.dp - 1) > 0
                                 for memo in index._memos.values()
                                 for s, _ in memo.columns())
        assert index.now // w_max == 3       # windows 0 and 1 dropped
        index.check_integrity()
        index.save()
        index.close()
        index = SWSTIndex.open(path, DEPLOY)
        reopened = 0
        for _ in range(40):
            reopened += check_sweeps(index, rng)[0]
        index.check_integrity()
    finally:
        index.close()
    assert checked > 500 and pruned > 10_000 and top_cells > 1_000
    assert reopened > 50
    assert emptied_cells > 200 and emptied_columns > 100


FIELDS = ("node_accesses", "key_ranges", "columns_examined", "candidates",
          "refined_out", "results")

#: ``FIELDS`` totals over :func:`probe` at each checkpoint, captured at
#: the parent commit (exhaustive sweep, no bitmap).  A live memo keeps
#: unshrunk MBRs of closed entries, a rebuilt one is exact — hence the
#: smaller reopened figures, there as here.
GOLDEN = {
    "k3-live": (224, 231, 967, 319, 163, 156),
    "k3-reopened": (216, 222, 967, 314, 158, 156),
    "k4-live": (267, 307, 1094, 518, 233, 285),
    "k4-reopened": (257, 290, 1094, 485, 200, 285),
    "k6-live": (187, 182, 874, 286, 150, 136),
    "k6-reopened": (185, 178, 874, 280, 144, 136),
}


def probe(index: SWSTIndex) -> tuple[int, ...]:
    """A fixed panel of interval queries; summed statistics (FIELDS)."""
    rng = random.Random(index.now)
    total = QueryStats()
    results = 0
    for _ in range(24):
        x0, y0 = rng.randrange(800), rng.randrange(800)
        area = Rect(x0, y0, x0 + rng.randrange(20, 600),
                    y0 + rng.randrange(20, 600))
        t_lo = max(index.now - rng.randrange(0, CFG.window + 40), 0)
        result = index.query_interval(area, t_lo,
                                      t_lo + rng.choice((0, 15, 90, 300)))
        total.merge(result.stats)
        results += len(result)
    return (total.node_accesses, total.key_ranges, total.columns_examined,
            total.candidates, total.refined_out, results)


def test_query_stats_identical_across_window_drops_and_reopen(tmp_path):
    """A stream crossing ``k·Wmax`` for k = 3, 4 and 6, probed live (stale
    bits from closed entries) and after ``save()`` + ``open()`` (bitmap
    rebuilt from the trees): the statistics are the parent commit's."""
    path = str(tmp_path / "index.db")
    index = SWSTIndex(CFG, path=path)
    checkpoints = [k * W_MAX + 35 for k in (3, 4, 6)]
    seen = {}
    try:
        for oid, x, y, t in stream(3, 30, 6 * W_MAX + 40):
            if checkpoints and t > checkpoints[0]:
                k = checkpoints.pop(0) // W_MAX
                index.advance_time(k * W_MAX + 35)
                seen[f"k{k}-live"] = probe(index)
                index.save()
                index.close()
                index = SWSTIndex.open(path, CFG)
                seen[f"k{k}-reopened"] = probe(index)
            index.report(oid, x, y, t)
        index.check_integrity()
    finally:
        index.close()
    assert not checkpoints
    assert seen == GOLDEN
