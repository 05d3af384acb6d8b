"""Engine-side query planning for in-process shards: one plan per
fan-out (S2 — retried shard tasks reuse the original plan, with no
stats double-count), the engine plan cache's epoch fence (S1), and the
batched multi-rectangle scatter-gather equivalence oracle (S4).  Worker
shards derive their own plans; ``test_worker_wire.py`` covers them."""

import contextlib
import dataclasses
import random

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import (EngineCloseError, PartialResult, RetryPolicy,
                          SerialExecutor, ShardedEngine)
from tests.storage.fault import InjectedFault, per_path_device_factory

N_SHARDS = 3


def make_config(**overrides):
    params = dict(window=200, slide=20, x_partitions=4, y_partitions=4,
                  d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                  page_size=512, n_shards=N_SHARDS)
    params.update(overrides)
    return SWSTConfig(**params)


class R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


def workload(seed=11, count=300, t0=0):
    rng = random.Random(seed)
    t = t0
    reports = []
    for _ in range(count):
        t += rng.choice([0, 1, 1, 2])
        reports.append(R(rng.randrange(25), rng.randrange(100),
                         rng.randrange(100), t))
    return reports


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


def stats_without_cache_hits(stats):
    clone = dataclasses.replace(stats)
    clone.plan_cache_hits = 0
    return clone


def close_quietly(eng):
    with contextlib.suppress(OSError, EngineCloseError):
        eng.close()


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("planfanout") / "index.d"
    with ShardedEngine(make_config(), path,
                       executor=SerialExecutor()) as eng:
        eng.extend(workload())
        eng.save()
    return path


class _FlakyOnce:
    """Wraps a shard's bound ``_query_area_planned``; the first call
    raises a retryable fault *before* doing any work, later calls pass
    through.  Records ``id(plan)`` per attempt."""

    def __init__(self, inner):
        self.inner = inner
        self.plan_ids = []
        self.failures_left = 1

    def __call__(self, area, plan):
        self.plan_ids.append(id(plan))
        if self.failures_left:
            self.failures_left -= 1
            raise OSError("injected transient fault")
        return self.inner(area, plan)


class TestRetriedTasksSharePlan:
    """S2 regression: a retried shard task must re-enter the planned
    entry point with the *original* plan object — not re-derive it —
    and the retry must not double-count any statistics."""

    def test_retry_reuses_the_original_plan_object(self, saved_dir):
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            healthy = eng.query_interval(eng.config.space, q_lo, q_hi)
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            shard = eng.shards[1]
            flaky = _FlakyOnce(shard._query_area_planned)
            shard._query_area_planned = flaky
            result = eng.query_interval(eng.config.space, q_lo, q_hi)
            assert len(flaky.plan_ids) == 2  # failed attempt + retry
            assert flaky.plan_ids[0] == flaky.plan_ids[1]
            assert sorted(map(entry_key, result.entries)) == \
                sorted(map(entry_key, healthy.entries))
            # The failed attempt contributed nothing: the merged stats
            # are identical to an entirely healthy run.
            assert stats_without_cache_hits(result.stats) == \
                stats_without_cache_hits(healthy.stats)

    def test_all_shards_receive_the_same_plan_instance(self, saved_dir):
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            seen = []
            for shard in eng.shards:
                inner = shard._query_area_planned

                def spy(area, plan, _inner=inner):
                    seen.append(id(plan))
                    return _inner(area, plan)

                shard._query_area_planned = spy
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            eng.query_interval(eng.config.space, q_lo, q_hi)
            assert len(seen) == N_SHARDS
            assert len(set(seen)) == 1


class TestEngineEpochFence:
    """S1 at the engine front end: the engine keeps no plan cache, so
    every fan-out derives its plan at the current clock and a pre-slide
    plan is never fanned out after the clock moved."""

    def test_every_fanout_derives_its_plan_at_the_clock(self, saved_dir):
        cfg = make_config()
        with ShardedEngine.open(saved_dir, cfg,
                                executor=SerialExecutor()) as eng:
            clocks = []
            derive = eng._plan_for

            def spy(*args):
                plan = derive(*args)
                clocks.append(plan.clock)
                return plan

            eng._plan_for = spy
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            area = eng.config.space
            first = eng.query_interval(area, q_lo, q_hi)
            again = eng.query_interval(area, q_lo, q_hi)
            assert stats_without_cache_hits(first.stats) == \
                stats_without_cache_hits(again.stats)
            before = eng.now
            eng.advance_time(eng.now + cfg.slide)
            post = eng.query_interval(area, q_lo, q_hi)
            assert clocks == [before, before, eng.now]
            for result in (first, again, post):
                assert result.stats.plan_cache_hits == 0
            # Leave the shared directory as saved: a close would save
            # the slide.
            eng.abort()
        with ShardedEngine.open(saved_dir, cfg,
                                executor=SerialExecutor()) as fresh:
            fresh.advance_time(fresh.now + cfg.slide)
            expected = fresh.query_interval(area, q_lo, q_hi)
        assert sorted(map(entry_key, post.entries)) == \
            sorted(map(entry_key, expected.entries))
        assert stats_without_cache_hits(post.stats) == \
            stats_without_cache_hits(expected.stats)


class TestEngineManyEquivalence:
    AREAS = [Rect(0, 0, 99, 99), Rect(10, 10, 40, 70), Rect(60, 5, 99, 30),
             Rect(25, 25, 25, 25), Rect(10, 10, 40, 70)]

    def test_batched_equals_scalar_loop(self, saved_dir):
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            batch = eng.query_interval_many(self.AREAS, q_lo, q_hi)
            assert len(batch.results) == len(self.AREAS)
            for area, result in zip(self.AREAS, batch.results):
                scalar = eng.query_interval(area, q_lo, q_hi)
                assert [entry_key(e) for e in result.entries] == \
                    [entry_key(e) for e in scalar.entries]

    def test_batch_shares_one_engine_plan(self, saved_dir):
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            plans = []
            for shard in eng.shards:
                inner = shard._query_area_planned_many

                def spy(areas, plan, _inner=inner):
                    plans.append(plan)
                    return _inner(areas, plan)

                shard._query_area_planned_many = spy
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            batch = eng.query_interval_many(self.AREAS, q_lo, q_hi)
            assert len(plans) == N_SHARDS
            assert all(plan is plans[0] for plan in plans)
            assert batch.stats.plan_cache_hits == 0

    def test_empty_batch(self, saved_dir):
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            batch = eng.query_interval_many([], q_lo, q_hi)
            assert len(batch) == 0

    def test_invalid_interval_rejected(self, saved_dir):
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            with pytest.raises(ValueError, match="empty query interval"):
                eng.query_interval_many([Rect(0, 0, 9, 9)], 10, 9)


class TestDegradedManyAttribution:
    def test_failures_attributed_only_to_overlapping_rects(self, saved_dir):
        """strict=False: a failed shard degrades exactly the rectangles
        whose area overlaps it; disjoint rectangles stay complete."""
        crashed = 1
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            # Probe for a small rectangle that misses the crashed shard
            # (grid-hash sharding: cell-sized rects map to few shards).
            clear = next(
                rect for rect in (Rect(x, y, x + 24, y + 24)
                                  for x in range(0, 75, 25)
                                  for y in range(0, 75, 25))
                if crashed not in eng._shards_for_area(rect))
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            clear_oracle = sorted(
                entry_key(e)
                for e in eng.query_interval(clear, q_lo, q_hi))
            full = eng.query_interval(eng.config.space, q_lo, q_hi)
            surviving = sorted(
                entry_key(e) for e in full
                if eng._shard_id_of(e.x, e.y) != crashed)
        devices = []
        config = dataclasses.replace(
            make_config(buffer_capacity=2),
            device_factory=per_path_device_factory(
                f"shard-{crashed:03d}", registry=devices))
        eng = ShardedEngine.open(saved_dir, config,
                                 executor=SerialExecutor(),
                                 retry_policy=RetryPolicy(attempts=1))
        try:
            (device,) = devices
            eng.shards[crashed].pool.drop_cache()
            device.crashed = True
            areas = [eng.config.space, clear]
            batch = eng.query_interval_many(areas, q_lo, q_hi,
                                            strict=False)
            assert batch.stats.degraded
            degraded, unaffected = batch.results
            assert isinstance(degraded, PartialResult)
            assert not degraded.complete
            assert [f.shard_id for f in degraded.failures] == [crashed]
            assert sorted(map(entry_key, degraded.entries)) == surviving
            assert unaffected.complete
            assert not unaffected.stats.degraded
            assert sorted(map(entry_key, unaffected.entries)) == \
                clear_oracle
        finally:
            close_quietly(eng)

    def test_strict_batch_raises_on_any_failure(self, saved_dir):
        from repro.engine import ShardQueryError

        devices = []
        config = dataclasses.replace(
            make_config(buffer_capacity=2),
            device_factory=per_path_device_factory("shard-000",
                                                   registry=devices))
        eng = ShardedEngine.open(saved_dir, config,
                                 executor=SerialExecutor(),
                                 retry_policy=RetryPolicy(attempts=1))
        try:
            eng.shards[0].pool.drop_cache()
            devices[0].crashed = True
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            with pytest.raises(ShardQueryError) as excinfo:
                eng.query_interval_many([eng.config.space], q_lo, q_hi)
            assert excinfo.value.shard_id == 0
            assert isinstance(excinfo.value.__cause__, InjectedFault)
        finally:
            close_quietly(eng)
