"""ShardedEngine behaviour: routing, cross-shard protocol, lifecycle."""

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import (EngineClosedError, EngineError, SerialExecutor,
                          ShardedEngine, ThreadedExecutor)


def make_config(n_shards=4, **overrides):
    params = dict(window=200, slide=20, x_partitions=4, y_partitions=4,
                  d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                  page_size=512, n_shards=n_shards)
    params.update(overrides)
    return SWSTConfig(**params)


@pytest.fixture
def engine():
    with ShardedEngine(make_config(), executor=SerialExecutor()) as eng:
        yield eng


def cells_in_different_shards(engine):
    """Two (x, y) positions whose cells live in different shards."""
    width = (engine.config.space.x_hi + 1) // engine.config.x_partitions
    first = (0, 0)
    first_shard = engine.shard_map.shard_of_cell(0, 0)
    for cx in range(engine.config.x_partitions):
        for cy in range(engine.config.y_partitions):
            if engine.shard_map.shard_of_cell(cx, cy) != first_shard:
                return ((first[0] * width, first[1] * width),
                        (cx * width, cy * width))
    raise AssertionError("map assigned every cell to one shard")


class TestRouting:
    def test_insert_lands_in_owning_shard_only(self, engine):
        engine.insert(1, 5, 5, 0, 10)
        owner = engine._shard_id_of(5, 5)
        for shard_id, shard in enumerate(engine.shards):
            assert len(shard) == (1 if shard_id == owner else 0)

    def test_query_returns_routed_entry(self, engine):
        engine.insert(1, 5, 5, 0, 10)
        result = engine.query_timeslice(Rect(0, 0, 20, 20), 5)
        assert [(e.oid, e.x, e.y, e.s, e.d) for e in result] == \
            [(1, 5, 5, 0, 10)]

    def test_query_fans_out_only_to_overlapping_shards(self, engine):
        area = Rect(0, 0, 10, 10)
        shard_ids = engine._shards_for_area(area)
        cells = {(c.cx, c.cy) for c in engine.grid.overlapping_cells(area)}
        expected = sorted({engine.shard_map.shard_of_cell(cx, cy)
                           for cx, cy in cells})
        assert shard_ids == expected
        assert len(shard_ids) < engine.n_shards

    def test_len_sums_shards(self, engine):
        engine.insert(1, 5, 5, 0, 10)
        engine.insert(2, 95, 95, 1, 10)
        assert len(engine) == 2


class TestCrossShardCurrents:
    def test_extend_routes_cross_shard_objects(self, engine):
        (x1, y1), (x2, y2) = cells_in_different_shards(engine)

        class R:
            def __init__(self, oid, x, y, t):
                self.oid, self.x, self.y, self.t = oid, x, y, t

        engine.extend([R(1, x1, y1, 0), R(2, x2, y2, 1), R(1, x2, y2, 5),
                       R(2, x2, y2 + 1, 6)])
        assert engine.current_objects() == {1: (x2, y2, 5),
                                            2: (x2, y2 + 1, 6)}
        engine.check_integrity()

    def test_close_object_routes_to_home_shard(self, engine):
        (x1, y1), (x2, y2) = cells_in_different_shards(engine)
        engine.report(7, x2, y2, 10)
        assert engine.close_object(7, 30) is True
        assert engine.current_objects() == {}
        assert engine.close_object(7, 31) is False
        entries = [(e.x, e.y, e.s, e.d)
                   for e in engine.query_interval(engine.config.space, 0, 40)]
        assert entries == [(x2, y2, 10, 20)]

    def test_delete_routed_by_cell(self, engine):
        engine.insert(1, 5, 5, 0, 10)
        assert engine.delete(1, 5, 5, 0, 10) is True
        assert engine.delete(1, 5, 5, 0, 10) is False
        assert len(engine) == 0

    def test_forget_object_sweeps_every_shard(self, engine):
        (x1, y1), (x2, y2) = cells_in_different_shards(engine)
        engine.report(7, x1, y1, 10)
        engine.report(7, x2, y2, 20)
        engine.insert(8, x1, y1, 21, 5)
        assert engine.forget_object(7) == 2
        assert engine.current_objects() == {}
        assert len(engine) == 1

    def test_retention_applies_across_shards(self, engine):
        engine.set_retention(5, 40)
        assert engine.retention_of(5) == 40
        for shard in engine.shards:
            assert shard.retention_of(5) == 40


class TestCoordinatedWindow:
    def test_clocks_advance_in_lockstep(self, engine):
        engine.insert(1, 5, 5, 0, 10)
        engine.advance_time(150)
        assert engine.now == 150
        assert all(shard.now == 150 for shard in engine.shards)

    def test_drop_epoch_fires_on_every_shard(self):
        config = make_config()
        with ShardedEngine(config, executor=SerialExecutor()) as eng:
            for oid in range(16):
                x = (oid % 4) * 25
                y = (oid // 4) * 25
                eng.insert(oid, x, y, 0, 10)
            populated = len(eng)
            assert populated == 16
            eng.advance_time(3 * config.w_max)
            assert len(eng) == 0
            assert all(shard.now == 3 * config.w_max
                       for shard in eng.shards)
            eng.check_integrity()

    def test_clock_cannot_move_backwards(self, engine):
        engine.advance_time(50)
        with pytest.raises(ValueError):
            engine.advance_time(49)


class TestValidation:
    def test_rejects_out_of_domain(self, engine):
        with pytest.raises(ValueError):
            engine.insert(1, 1000, 5, 0, 10)

    def test_rejects_out_of_order(self, engine):
        engine.insert(1, 5, 5, 10, 10)
        with pytest.raises(ValueError):
            engine.insert(2, 5, 5, 9, 10)

    def test_rejects_bad_duration(self, engine):
        with pytest.raises(ValueError):
            engine.insert(1, 5, 5, 0, 0)

    def test_rejects_empty_interval(self, engine):
        with pytest.raises(ValueError):
            engine.query_interval(engine.config.space, 10, 9)

    def test_rejects_bad_k(self, engine):
        with pytest.raises(ValueError):
            engine.query_knn(5, 5, 0, 0)

    def test_rejects_oversized_logical_window(self, engine):
        with pytest.raises(ValueError):
            engine.query_timeslice(engine.config.space, 0, window=10_000)


class TestLifecycle:
    def test_closed_engine_raises_typed_error(self):
        eng = ShardedEngine(make_config(), executor=SerialExecutor())
        eng.close()
        with pytest.raises(EngineClosedError):
            eng.insert(1, 5, 5, 0, 10)
        with pytest.raises(EngineClosedError):
            eng.query_timeslice(Rect(0, 0, 10, 10), 0)
        eng.close()  # idempotent

    def test_owned_executor_closed_with_engine(self):
        # A spec string is resolved — and therefore owned — by the engine.
        eng = ShardedEngine(make_config(), executor="thread")
        executor = eng._backend.executor
        assert isinstance(executor, ThreadedExecutor)
        executor.submit(lambda: None).result()  # spin the pool up
        assert executor._pool is not None
        eng.close()
        assert executor._pool is None

    def test_default_executor_is_inline(self):
        with ShardedEngine(make_config()) as eng:
            assert isinstance(eng._backend.executor, SerialExecutor)

    def test_borrowed_executor_left_running(self):
        ex = ThreadedExecutor(max_workers=2)
        try:
            eng = ShardedEngine(make_config(), executor=ex)
            ex.submit(lambda: None).result()  # spin the pool up
            eng.close()
            assert ex._pool is not None
        finally:
            ex.close()

    def test_memory_engine_has_no_directory(self, engine):
        assert engine.directory is None
        assert engine.shard_path(0) == ":memory:"
