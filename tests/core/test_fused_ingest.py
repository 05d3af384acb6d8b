"""The fused ingest path against the generic pair it replaced.

``_ingest_report`` / ``_finalize_current`` derive each record's cell,
tree, s-partition and Z bits once and move the finalised record by
swapping the d-partition bits of its key.  The reference below is the
path they replaced — one ``_physical_delete`` + ``_physical_insert`` per
B+ operation, every key built from scratch — and must be
indistinguishable from it: same records in the same order in every tree,
same memos, same current table, same logical IO.  The cost guards count
calls (never wall time), and the golden pins the paper's metric.
"""

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Entry, Rect, SWSTConfig, SWSTIndex
from repro.core.grid import SpatialGrid
from repro.core.keys import KeyCodec
from repro.datagen import GSTDConfig, GSTDGenerator
from repro.engine import ShardedEngine


class ReferenceIndex(SWSTIndex):
    """The current-entry protocol spelt with the generic pair."""

    def _ingest_report(self, oid, x, y, s, cell):
        previous = self._current.get(oid)
        if previous is not None:
            if previous[2] == s:
                px, py, ps = previous
                self._physical_delete(Entry(oid, px, py, ps, None))
            else:
                self._finalize_current(oid, previous, end=s)
        self._physical_insert(Entry(oid, x, y, s, None))
        self._current[oid] = (x, y, s)

    def _finalize_current(self, oid, previous, end):
        px, py, ps = previous
        if ps // self.config.w_max < max(self._drop_epoch - 1, 0):
            return
        if end <= ps:
            raise ValueError(f"object {oid} cannot be finalised at {end} "
                             f"<= its current start {ps}")
        self._physical_delete(Entry(oid, px, py, ps, None))
        self._physical_insert(Entry(oid, px, py, ps, end - ps))


class R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


def make_config(**overrides):
    # Wmax = 59; Dmax = 25 is not a multiple of delta = 10.
    params = dict(window=50, slide=10, x_partitions=3, y_partitions=3,
                  d_max=25, duration_interval=10, space=Rect(0, 0, 63, 63),
                  page_size=512)
    params.update(overrides)
    return SWSTConfig(**params)


CONFIGS = {
    "dmax-not-multiple-of-delta": make_config(),
    "no-spatial-keys": make_config(spatial_keys=False),
    "one-d-partition": make_config(d_max=7, duration_interval=10),
    "explicit-s-partitions": make_config(s_partitions=4, d_max=40),
}

W_MAX = make_config().w_max

# One step: (op, oid, x, y, time gap).  Gaps of 0 are same-timestamp
# corrections, gaps above Dmax give ND-keyed finalised records (same
# d-partition on both sides of the pair), and gaps of k*Wmax (k = 3, 4,
# 6, plus 2 for the first droppable distance) make the previous entry's
# window long gone by the next report.
step_strategy = st.tuples(
    st.sampled_from(["report", "report", "report", "extend", "close"]),
    st.integers(0, 4), st.integers(0, 63), st.integers(0, 63),
    st.one_of(st.integers(0, 3), st.integers(20, 45),
              st.sampled_from([k * W_MAX + 1 for k in (2, 3, 4, 6)])))


def drive(index, steps):
    """Feed ``steps``; ``extend`` steps are buffered into one batch that
    is flushed (cell-grouped, with repeats) before any other op."""
    t = 0
    pending = []
    for op, oid, x, y, gap in steps:
        t += gap
        if op == "extend":
            pending.append(R(oid, x, y, t))
            continue
        if pending:
            index.extend(pending)
            pending = []
        if op == "report":
            index.report(oid, x, y, t)
        else:
            try:
                index.close_object(oid, t)
            except ValueError:
                pass  # close at the current start: refused identically
    if pending:
        index.extend(pending)


def observable(index):
    trees = {(cell, i): list(tree.items())
             for cell, pair in index._trees.items()
             for i, tree in enumerate(pair) if tree is not None}
    memos = {cell: (dict(memo.cells()), dict(memo.columns()))
             for cell, memo in index._memos.items()}
    return (trees, memos, len(index), index.current_objects(), index.now,
            index.stats.snapshot(), list(index.scan()))


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(step_strategy, min_size=1, max_size=60))
def test_fused_path_equals_generic_pair(name, steps):
    config = CONFIGS[name]
    with SWSTIndex(config) as fused, ReferenceIndex(config) as reference:
        drive(fused, steps)
        drive(reference, steps)
        assert observable(fused) == observable(reference)
        fused.check_integrity()


@pytest.mark.parametrize("k", [3, 4, 6])
def test_previous_entry_in_a_dropped_window_costs_no_io(k):
    config = make_config()
    with SWSTIndex(config) as fused, ReferenceIndex(config) as reference:
        for index in (fused, reference):
            index.report(1, 5, 5, 10)
            index.advance_time(k * config.w_max + 1)
        before = fused.stats.snapshot()
        fused._finalize_current(1, (5, 5, 10), end=k * config.w_max + 2)
        assert fused.stats.diff(before).node_accesses == 0
        for index in (fused, reference):
            index.report(1, 60, 60, k * config.w_max + 2)
        assert observable(fused) == observable(reference)


def test_every_check_of_the_generic_pair_is_kept():
    config = make_config()
    with SWSTIndex(config) as index:
        index.report(1, 5, 5, 10)
        with pytest.raises(ValueError, match="cannot be finalised"):
            index.close_object(1, 10)
        with pytest.raises(KeyError, match="not found"):
            index._finalize_current(2, (9, 9, 10), end=12)
        with pytest.raises(ValueError, match="outside domain"):
            index._finalize_current(1, (64, 5, 10), end=12)
        assert index.current_objects() == {1: (5, 5, 10)}
        index.check_integrity()


class TestCostGuards:
    """Counts, not clocks: what a report may derive, and how often."""

    def test_a_report_encodes_two_keys_and_locates_two_cells(
            self, monkeypatch):
        calls = {"encode": 0, "cell_of": 0}
        encode, cell_of = KeyCodec.encode, SpatialGrid.cell_of

        def counting_encode(self, *args):
            calls["encode"] += 1
            return encode(self, *args)

        def counting_cell_of(self, *args):
            calls["cell_of"] += 1
            return cell_of(self, *args)

        monkeypatch.setattr(KeyCodec, "encode", counting_encode)
        monkeypatch.setattr(SpatialGrid, "cell_of", counting_cell_of)
        n = 40
        with SWSTIndex(make_config()) as index:
            index.extend([R(oid, oid, 63 - oid, 1) for oid in range(n)])
            calls.update(encode=0, cell_of=0)
            # No object repeats; each one finalises a previous entry.
            index.extend([R(oid, 63 - oid, oid, 5) for oid in range(n)])
            assert len(index) == 2 * n
        assert 0 < calls["encode"] <= 2 * n
        assert 0 < calls["cell_of"] <= 2 * n

    def test_derived_constants_are_computed_once_per_config(
            self, monkeypatch):
        evaluations = []
        compute = SWSTConfig.w_max.func

        def counting(config):
            evaluations.append(config)
            return compute(config)

        monkeypatch.setattr(SWSTConfig.w_max, "func", counting)
        config = make_config()
        with SWSTIndex(config) as index:
            index.extend([R(oid, oid, oid, t)
                          for t in range(1, 200, 7) for oid in range(5)])
            index.query_interval(config.space, 0, index.now)
        assert evaluations == [config]

    def test_cached_constants_leave_the_dataclass_contract_alone(self):
        cold, warm = make_config(), make_config()
        derived = (warm.w_max, warm.sp, warm.dp, warm.nd, warm.zc_order)
        assert derived == (59, 6, 3, 26, 6)
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert pickle.loads(pickle.dumps(warm)) == cold
        wider = dataclasses.replace(warm, window=80)
        assert (wider.w_max, wider.sp) == (89, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            warm.window = 1


def test_node_accesses_per_report_golden():
    """``core.index.node_accesses_per_report`` at tier-1 size: the
    benchmark's deployment shape (two shards, /extend batches of 64, a
    slide every L), captured at the commit before the fused path."""
    config = SWSTConfig(window=2000, slide=100, x_partitions=4,
                        y_partitions=4, d_max=300, duration_interval=50,
                        space=Rect(0, 0, 999, 999), page_size=1024,
                        buffer_capacity=32, n_shards=2)
    stream = list(GSTDGenerator(GSTDConfig(
        num_objects=60, max_time=9000, interval_lo=1, interval_hi=300,
        space=config.space, seed=1)).stream())
    with ShardedEngine(config, executor="thread") as engine:
        last_slide = 0
        for i in range(0, len(stream), 64):
            chunk = stream[i:i + 64]
            engine.extend(chunk)
            if chunk[-1].t - last_slide >= config.slide:
                engine.advance_time(chunk[-1].t)
                last_slide = chunk[-1].t
        per_shard = [(s.logical_reads, s.logical_writes, s.allocations,
                      s.frees) for s in engine.shard_stats()]
    # (logical reads, logical writes, allocations, frees) per shard:
    # 8.951 node accesses per report.
    assert len(stream) == 3651
    assert per_shard == [(11435, 6121, 194, 134), (9898, 5226, 166, 120)]
