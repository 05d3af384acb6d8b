"""Backend-parity equivalence oracle.

The engine is one coordinator over two shard backends; this suite is
the single place that pins what both must do.  On either backend —
in-process shards (``ShardedEngine``) or warm worker processes
(``WorkerEngine``) — an engine at any shard count returns exactly the
results of a plain SWSTIndex fed the same interleaved workload, and the
cross-shard current-entry protocol, input validation and degraded
attribution behave identically.  A single-shard in-process engine
additionally preserves the unsharded node-access counts.
"""

import contextlib
import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Rect, SWSTConfig, SWSTIndex
from repro.engine import (PartialResult, RetryPolicy, SerialExecutor,
                          ShardedEngine, WorkerEngine)

from .worker_faults import WorkerFaults

BACKENDS = ["in-process", "workers"]


@contextlib.contextmanager
def engine_on(backend, config, **seams):
    """The one fixture: an empty engine over the requested backend."""
    if backend == "in-process":
        with ShardedEngine(config, executor=SerialExecutor(),
                           **seams) as engine:
            yield engine
        return
    with tempfile.TemporaryDirectory() as tmp:
        engine = WorkerEngine(config, os.path.join(tmp, "engine.d"),
                              **seams)
        try:
            yield engine
        finally:
            engine.close()


def fail_shard(engine, shard_id, monkeypatch):
    """Make one shard unable to answer queries, whatever runs it."""
    if isinstance(engine, WorkerEngine):
        # Crash-loop: every respawn dies before its ready handshake.
        WorkerFaults(monkeypatch).arm(shard_id, kill_at_ready=True,
                                      persistent=True)
        engine.pool.kill(shard_id)
        return

    def broken(*args):
        raise OSError("injected shard fault")

    shard = engine.shards[shard_id]
    shard._query_area_planned = broken
    shard._query_area_planned_many = broken


def make_config(n_shards, **overrides):
    params = dict(window=200, slide=20, x_partitions=3, y_partitions=3,
                  d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                  page_size=512, n_shards=n_shards)
    params.update(overrides)
    return SWSTConfig(**params)


def positions_in_different_shards(engine):
    """Two (x, y) positions whose cells live in different shards."""
    first_shard = engine.shard_map.shard_of_cell(0, 0)
    for cx in range(engine.config.x_partitions):
        for cy in range(engine.config.y_partitions):
            if engine.shard_map.shard_of_cell(cx, cy) != first_shard:
                bounds = engine.grid.cell_bounds(cx, cy)
                return (0, 0), (bounds.x_lo, bounds.y_lo)
    raise AssertionError("map assigned every cell to one shard")


class R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


CFG = SWSTConfig(window=200, slide=20, x_partitions=3, y_partitions=3,
                 d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                 page_size=512)


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


def sorted_entries(result):
    return sorted((entry_key(e) for e in result.entries))


# One workload step: (op, oid, x, y, time gap, duration).
op_strategy = st.tuples(
    st.sampled_from(["report", "insert", "close", "forget", "advance"]),
    st.integers(0, 5),
    st.integers(0, 99),
    st.integers(0, 99),
    st.one_of(st.integers(0, 6), st.integers(150, 500)),
    st.integers(1, 40),
)

query_strategy = st.lists(
    st.tuples(
        st.integers(0, 80), st.integers(0, 80),
        st.integers(1, 60), st.integers(1, 60),
        st.integers(0, 700), st.integers(0, 120),
        st.sampled_from([None, 50, 200]),
    ),
    min_size=1, max_size=15,
)


def apply_workload(target, ops):
    t = 0
    for op, oid, x, y, gap, duration in ops:
        t += gap
        if op == "report":
            target.report(oid, x, y, t)
        elif op == "insert":
            target.insert(oid, x, y, t, duration)
        elif op == "close":
            try:
                target.close_object(oid, t)
            except ValueError:
                # close at/before the object's current start is invalid
                # input; both targets must reject it identically (state
                # divergence would fail the assertions below).
                pass
        elif op == "forget":
            target.forget_object(oid)
        elif op == "advance":
            target.advance_time(t)
    return t


def assert_matches_plain(engine, plain, queries, t):
    assert len(engine) == len(plain)
    assert engine.current_objects() == plain.current_objects()
    engine.check_integrity()
    for x_lo, y_lo, width, height, t_lo, length, window in queries:
        area = Rect(x_lo, y_lo, x_lo + width, y_lo + height)
        t_hi = t_lo + length
        assert sorted_entries(
            engine.query_interval(area, t_lo, t_hi, window)) == \
            sorted_entries(plain.query_interval(area, t_lo, t_hi, window))
        assert engine.count_interval(area, t_lo, t_hi, window)[0] == \
            plain.count_interval(area, t_lo, t_hi, window)[0]

    # Ties at the k-th distance may be broken differently by the
    # merge and by the expanding-ring search; distances must agree.
    def knn_distances(result):
        return sorted((e.x - 50) ** 2 + (e.y - 50) ** 2
                      for e in result.entries)

    assert knn_distances(engine.query_knn(50, 50, 3, 0, t)) == \
        knn_distances(plain.query_knn(50, 50, 3, 0, t))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=80),
       queries=query_strategy,
       n_shards=st.sampled_from([1, 2, 4, 7]))
def test_engine_equals_plain_index(backend, ops, queries, n_shards):
    with SWSTIndex(CFG) as plain, \
            engine_on(backend, make_config(n_shards)) as engine:
        t = apply_workload(plain, ops)
        apply_workload(engine, ops)
        assert_matches_plain(engine, plain, queries, t)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=60),
       n_shards=st.sampled_from([2, 4, 7]))
def test_extend_equals_plain_index(backend, ops, n_shards):
    """Batched ingestion through the engine matches the plain index."""
    t = 0
    reports = []
    for _, oid, x, y, gap, _ in ops:
        t += gap
        reports.append(R(oid, x, y, t))
    with SWSTIndex(CFG) as plain, \
            engine_on(backend, make_config(n_shards)) as engine:
        plain.extend(reports, batch_size=16)
        engine.extend(reports, batch_size=16)
        assert len(engine) == len(plain)
        assert engine.current_objects() == plain.current_objects()
        engine.check_integrity()
        assert sorted_entries(
            engine.query_interval(CFG.space, 0, t + 1)) == \
            sorted_entries(plain.query_interval(CFG.space, 0, t + 1))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=80),
       queries=query_strategy,
       n_shards=st.sampled_from([2, 4, 7]))
def test_thread_and_serial_executors_are_indistinguishable(ops, queries,
                                                           n_shards):
    """``thread`` without a deadline *is* the inline lane: same entries in
    the same tree order, same per-shard IO counters, and no pool built."""
    config = make_config(n_shards)
    reports, t = [], 0
    for _, oid, x, y, gap, _ in ops:
        t += gap
        reports.append(R(oid, x, y, t))
    observed = []
    for spec in ("thread", "serial"):
        with ShardedEngine(config, executor=spec) as engine:
            end = apply_workload(engine, ops)
            engine.extend([R(r.oid, r.x, r.y, r.t + end) for r in reports],
                          batch_size=16)
            answers = [sorted_entries(engine.query_interval(
                Rect(x_lo, y_lo, x_lo + width, y_lo + height),
                t_lo, t_lo + length, window))
                for x_lo, y_lo, width, height, t_lo, length, window
                in queries]
            observed.append((
                [[entry_key(e) for e in shard.scan()]
                 for shard in engine.shards],
                engine.shard_stats(), answers, engine.current_objects()))
            assert getattr(engine._backend.executor, "_pool", None) is None
    assert observed[0] == observed[1]


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrossShardCurrentProtocol:
    """The one piece of cross-shard logic: finalise the previous current
    entry wherever it lives, then insert the new one."""

    def test_object_moving_between_shards_is_finalised(self, backend):
        with engine_on(backend, make_config(4)) as engine:
            (x1, y1), (x2, y2) = positions_in_different_shards(engine)
            engine.report(7, x1, y1, 10)
            first_home = engine._cur[7][0]
            engine.report(7, x2, y2, 25)
            assert engine._cur[7][0] != first_home
            assert engine.current_objects() == {7: (x2, y2, 25)}
            entries = {(e.x, e.y, e.s, e.d) for e in
                       engine.query_interval(engine.config.space, 0, 30)}
            assert entries == {(x1, y1, 10, 15), (x2, y2, 25, None)}
            engine.check_integrity()

    def test_same_timestamp_rereport_is_position_correction(self, backend):
        with engine_on(backend, make_config(4)) as engine:
            (x1, y1), (x2, y2) = positions_in_different_shards(engine)
            engine.report(7, x1, y1, 10)
            engine.report(7, x2, y2, 10)
            entries = [(e.x, e.y, e.s, e.d) for e in
                       engine.query_interval(engine.config.space, 0, 30)]
            assert entries == [(x2, y2, 10, None)]
            assert len(engine) == 1
            engine.check_integrity()

    @pytest.mark.parametrize("batched", [False, True])
    def test_hops_across_far_window_boundaries(self, backend, batched):
        """Objects hopping shards across ``k * Wmax`` boundaries with
        k >= 3 — where a modulo slip in the two-tree wrap or a stale
        mirror entry would hide: one previous entry is long dropped
        when its object reappears on another shard (nothing left to
        finalise), one is still live across the boundary (finalised on
        its old shard with the real duration)."""
        config = make_config(4)
        w_max = config.w_max
        with SWSTIndex(CFG) as plain, \
                engine_on(backend, config) as engine:
            (x1, y1), (x2, y2) = positions_in_different_shards(engine)
            reports = [
                R(1, x1, y1, 5),                  # dropped before it hops
                R(2, x1, y1, 3 * w_max - 4),      # alive across k = 3
                R(1, x2, y2, 3 * w_max + 7),
                R(2, x2, y2, 3 * w_max + 9),
                R(2, x1, y1 + 1, 4 * w_max + 2),  # and back, across k = 4
                R(1, x1, y1, 6 * w_max + 1),      # dropped again (k = 6)
            ]
            if batched:
                plain.extend(reports)
                engine.extend(reports)
            else:
                for target in (plain, engine):
                    for r in reports:
                        target.report(r.oid, r.x, r.y, r.t)
            t = reports[-1].t
            queries = [(0, 0, 99, 99, t_lo, 2 * w_max, None)
                       for t_lo in range(0, t, w_max // 2)]
            assert_matches_plain(engine, plain, queries, t)
            assert engine.current_objects() == {
                1: (x1, y1, 6 * w_max + 1)}


@pytest.mark.parametrize("backend", BACKENDS)
class TestValidationLeavesStateIntact:
    def test_rejected_close_keeps_the_mirror_entry(self, backend):
        with engine_on(backend, make_config(4)) as engine:
            (x1, y1), _ = positions_in_different_shards(engine)
            engine.report(7, x1, y1, 10)
            mirror = dict(engine._cur)
            with pytest.raises(ValueError):
                engine.close_object(7, 10)  # t <= current start
            assert engine._cur == mirror
            assert engine.current_objects() == {7: (x1, y1, 10)}
            engine.check_integrity()
            assert engine.close_object(7, 30) is True
            assert engine.close_object(7, 31) is False

    def test_set_retention_range_is_validated_up_front(self, backend):
        with engine_on(backend, make_config(4)) as engine:
            window = engine.config.window
            for bad in (0, -3, window + 1):
                with pytest.raises(ValueError, match="retention"):
                    engine.set_retention(5, bad)
            assert engine.retention_of(5) == window
            engine.set_retention(5, 40)
            assert engine.retention_of(5) == 40
            engine.set_retention(5, None)
            assert engine.retention_of(5) == window


@pytest.mark.parametrize("backend", BACKENDS)
def test_stats_are_the_sum_of_per_shard_stats(backend):
    with engine_on(backend, make_config(4)) as engine:
        before = engine.stats.snapshot()
        engine.insert(1, 5, 5, 0, 10)
        engine.insert(2, 95, 95, 1, 10)
        delta = engine.stats.diff(before)
        assert delta.node_accesses > 0
        per_shard = engine.shard_stats()
        assert len(per_shard) == 4
        assert sum(s.node_accesses for s in per_shard) == \
            engine.stats.node_accesses


@pytest.mark.parametrize("backend", BACKENDS)
def test_degraded_batch_attributes_failure_to_overlapping_rects(
        backend, monkeypatch):
    """strict=False: a failed shard degrades exactly the rectangles
    whose area overlaps it; disjoint rectangles stay complete."""
    crashed = 1
    config = make_config(3, x_partitions=4, y_partitions=4)
    rng = random.Random(11)
    t = 0
    reports = []
    for _ in range(200):
        t += rng.choice([0, 1, 1, 2])
        reports.append(R(rng.randrange(25), rng.randrange(100),
                         rng.randrange(100), t))
    with engine_on(backend, config,
                   retry_policy=RetryPolicy(attempts=1)) as engine:
        engine.extend(reports)
        # A cell-sized rectangle that misses the crashed shard.
        clear = next(
            rect for rect in (Rect(x, y, x + 24, y + 24)
                              for x in range(0, 75, 25)
                              for y in range(0, 75, 25))
            if crashed not in engine._shards_for_area(rect))
        q_lo, q_hi = config.queriable_period(engine.now)
        clear_oracle = sorted_entries(
            engine.query_interval(clear, q_lo, q_hi))
        surviving = sorted(
            entry_key(e)
            for e in engine.query_interval(config.space, q_lo, q_hi)
            if engine._shard_id_of(e.x, e.y) != crashed)
        fail_shard(engine, crashed, monkeypatch)
        batch = engine.query_interval_many([config.space, clear], q_lo,
                                           q_hi, strict=False)
        assert batch.stats.degraded
        degraded, unaffected = batch.results
        assert isinstance(degraded, PartialResult)
        assert [f.shard_id for f in degraded.failures] == [crashed]
        assert degraded.stats.degraded
        assert sorted_entries(degraded) == surviving
        assert unaffected.complete
        assert not unaffected.stats.degraded
        assert sorted_entries(unaffected) == clear_oracle


class TestSingleShardPreservation:
    """n_shards=1 must keep the exact unsharded cost model (the paper's
    node-access numbers must reproduce through the engine)."""

    def test_node_accesses_identical_on_mixed_workload(self):
        rng = random.Random(42)
        config = make_config(1)
        t = 0
        reports = []
        for _ in range(600):
            t += rng.choice([0, 0, 1, 1, 2, 9])
            reports.append(R(rng.randrange(20), rng.randrange(100),
                             rng.randrange(100), t))
        with SWSTIndex(CFG) as plain, \
                ShardedEngine(config, executor=SerialExecutor()) as engine:
            plain.extend(reports)
            engine.extend(reports)
            query_times = [(lo := rng.randrange(0, t + 1),
                            lo + rng.randrange(0, 50)) for _ in range(25)]
            for target in (plain, engine):
                for lo, hi in query_times:
                    target.query_interval(Rect(10, 10, 70, 70), lo, hi)
            plain_stats = plain.stats.snapshot()
            engine_stats = engine.stats
            assert vars(plain_stats) == vars(engine_stats)
            assert plain_stats.node_accesses == engine_stats.node_accesses
