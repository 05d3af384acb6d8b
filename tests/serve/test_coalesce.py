"""Coalescer: batched responses are byte-identical to scalar queries,
strictness demuxes per request, linger/batch knobs behave."""

import asyncio
import contextlib
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Rect, SWSTConfig
from repro.engine import (EngineCloseError, SerialExecutor,
                          ShardQueryError, ShardedEngine)
from repro.serve import AsyncEngine, Coalescer, ServeStats
from tests.storage.fault import per_path_device_factory

N_SHARDS = 3


def make_config(**overrides):
    params = dict(window=200, slide=20, x_partitions=4, y_partitions=4,
                  d_max=40, duration_interval=10,
                  space=Rect(0, 0, 99, 99), page_size=512,
                  n_shards=N_SHARDS)
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


def gather_coalesced(engine, areas, t_lo, t_hi, *, stricts=None,
                     max_batch=64, max_linger=0.0, timer=None):
    """Run one query per area concurrently through a fresh coalescer."""
    stricts = stricts if stricts is not None else [True] * len(areas)
    stats = ServeStats()
    facade = AsyncEngine(engine, stats=stats)

    async def main():
        coalescer = Coalescer(facade, stats, max_batch=max_batch,
                              max_linger=max_linger, timer=timer)
        results = await asyncio.gather(
            *(coalescer.query_interval(area, t_lo, t_hi, strict=strict)
              for area, strict in zip(areas, stricts)),
            return_exceptions=True)
        await coalescer.drain()
        return results

    try:
        return asyncio.run(main()), stats
    finally:
        facade.close()


@st.composite
def rect(draw):
    x_lo = draw(st.integers(0, 99))
    y_lo = draw(st.integers(0, 99))
    x_hi = draw(st.integers(x_lo, 99))
    y_hi = draw(st.integers(y_lo, 99))
    return Rect(x_lo, y_lo, x_hi, y_hi)


@pytest.fixture(scope="module")
def loaded_engine():
    with ShardedEngine(make_config(),
                       executor=SerialExecutor()) as eng:
        eng.extend(workload())
        yield eng


@given(areas=st.lists(rect(), min_size=1, max_size=8),
       t_lo=st.integers(0, 20), span=st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_coalesced_equals_scalar(loaded_engine, areas, t_lo, span):
    """Every coalesced response is byte-identical to the scalar call."""
    t_hi = t_lo + span
    results, stats = gather_coalesced(loaded_engine, areas, t_lo, t_hi)
    assert stats.engine_query_calls == 1  # one batch served them all
    for area, result in zip(areas, results):
        scalar = loaded_engine.query_interval(area, t_lo, t_hi)
        assert result.entries == scalar.entries

    if len(areas) > 1:
        assert stats.coalesced_batches == 1
        assert stats.coalesced_requests == len(areas)


def test_distinct_signatures_do_not_merge(loaded_engine):
    stats = ServeStats()
    facade = AsyncEngine(loaded_engine, stats=stats)

    async def main():
        coalescer = Coalescer(facade, stats)
        area = Rect(0, 0, 99, 99)
        return await asyncio.gather(
            coalescer.query_interval(area, 0, 5),
            coalescer.query_interval(area, 0, 6),
            coalescer.query_interval(area, 0, 5))

    try:
        first, second, third = asyncio.run(main())
    finally:
        facade.close()
    assert stats.engine_query_calls == 2  # (0,5) merged, (0,6) alone
    assert first.entries == third.entries
    assert first.entries == \
        loaded_engine.query_interval(Rect(0, 0, 99, 99), 0, 5).entries
    assert second.entries == \
        loaded_engine.query_interval(Rect(0, 0, 99, 99), 0, 6).entries


def test_max_batch_flushes_without_linger(loaded_engine):
    fired = []

    def never_timer(delay, callback):
        fired.append(delay)

        class Handle:
            def cancel(self):
                pass

        return Handle()

    areas = [Rect(0, 0, 99, 99), Rect(0, 0, 9, 9), Rect(10, 10, 40, 40)]
    results, stats = gather_coalesced(
        loaded_engine, areas, 0, 5, max_batch=3, max_linger=60.0,
        timer=never_timer)
    # The timer never fired: reaching max_batch forced the flush.
    assert fired == [60.0]
    assert stats.engine_query_calls == 1
    for area, result in zip(areas, results):
        assert result.entries == \
            loaded_engine.query_interval(area, 0, 5).entries


def test_scalar_passthrough_when_disabled(loaded_engine):
    areas = [Rect(0, 0, 99, 99), Rect(0, 0, 9, 9)]
    results, stats = gather_coalesced(loaded_engine, areas, 0, 5,
                                      max_batch=1)
    assert stats.engine_query_calls == 2  # one engine call per request
    assert stats.coalesced_batches == 0
    for area, result in zip(areas, results):
        assert result.entries == \
            loaded_engine.query_interval(area, 0, 5).entries


def test_identical_rects_collapse_to_one_evaluation(loaded_engine):
    """Requests for the same rectangle under one signature share one
    engine-side evaluation (request collapsing), and every waiter's
    response still equals the scalar call's."""
    stats = ServeStats()
    facade = AsyncEngine(loaded_engine, stats=stats)
    seen_areas = []

    class Recording:
        async def query_interval_many(self, areas, *args, **kwargs):
            seen_areas.append(list(areas))
            return await facade.query_interval_many(areas, *args,
                                                    **kwargs)

    tile = Rect(10, 10, 40, 40)
    other = Rect(50, 50, 99, 99)
    areas = [tile, other, tile, tile, other]

    async def main():
        coalescer = Coalescer(facade, stats)
        coalescer._engine = Recording()
        return await asyncio.gather(
            *(coalescer.query_interval(area, 0, 5) for area in areas))

    try:
        results = asyncio.run(main())
    finally:
        facade.close()
    # The engine saw each distinct rectangle exactly once...
    assert seen_areas == [[tile, other]]
    assert stats.engine_query_calls == 1
    assert stats.collapsed_requests == 3
    # ...and every waiter got its own rectangle's scalar-equal answer.
    for area, result in zip(areas, results):
        assert result.entries == \
            loaded_engine.query_interval(area, 0, 5).entries


def test_node_accesses_reach_the_client(loaded_engine):
    """The paper's metric survives coalescing (regression: every wire
    response used to report ``node_accesses: 0``).  A flush that
    evaluated exactly one distinct rectangle has no shared descents, so
    that rectangle's result carries the call's node accesses — equal to
    the scalar call's; a multi-rectangle flush cannot attribute shared
    descents, keeps per-rect 0 and exposes the batch figure once."""
    from repro.serve.wire import result_json

    tile = Rect(10, 10, 60, 60)
    t_lo, t_hi = loaded_engine.config.queriable_period(loaded_engine.now)
    scalar = loaded_engine.query_interval(tile, t_lo,
                                          t_hi).stats.node_accesses
    assert scalar > 0

    (alone,), _ = gather_coalesced(loaded_engine, [tile], t_lo, t_hi)
    assert alone.stats.node_accesses == scalar
    assert result_json(alone)["stats"]["node_accesses"] == scalar

    # Identical concurrent requests collapse to one distinct rectangle.
    collapsed, stats = gather_coalesced(loaded_engine, [tile] * 3, t_lo,
                                        t_hi)
    assert stats.collapsed_requests == 2
    assert [r.stats.node_accesses for r in collapsed] == [scalar] * 3

    other = Rect(0, 0, 5, 5)
    mixed, _ = gather_coalesced(loaded_engine, [tile, other], t_lo, t_hi)
    assert [r.stats.node_accesses for r in mixed] == [0, 0]
    batch = loaded_engine.query_interval_many([tile, other], t_lo, t_hi)
    assert batch.stats.node_accesses >= scalar
    assert [r.stats.node_accesses for r in batch.results] == [0, 0]


def test_engine_failure_reaches_every_waiter(loaded_engine):
    stats = ServeStats()
    facade = AsyncEngine(loaded_engine, stats=stats)

    class Boom(Exception):
        pass

    def exploding(*args, **kwargs):
        raise Boom("fan-out failed")

    async def main():
        coalescer = Coalescer(facade, stats)
        coalescer._engine = type(
            "F", (), {"query_interval_many":
                      staticmethod(_async(exploding))})()
        return await asyncio.gather(
            coalescer.query_interval(Rect(0, 0, 99, 99), 0, 5),
            coalescer.query_interval(Rect(0, 0, 9, 9), 0, 5),
            return_exceptions=True)

    try:
        results = asyncio.run(main())
    finally:
        facade.close()
    assert all(isinstance(r, Boom) for r in results)


def _async(fn):
    async def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


# -- degraded attribution under an injected shard failure -----------------------


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-degraded") / "index.d"
    with ShardedEngine(make_config(), path,
                       executor=SerialExecutor()) as eng:
        eng.extend(workload())
        eng.save()
    return path


def open_with_crashed_shard(path, shard_id):
    """Open the directory, then crash one shard's device in place (its
    two-page pool emptied first, so queries reach it)."""
    devices = []
    config = dataclasses.replace(
        make_config(buffer_capacity=2),
        device_factory=per_path_device_factory(
            f"shard-{shard_id:03d}", registry=devices))
    eng = ShardedEngine.open(path, config, executor=SerialExecutor())
    (device,) = devices
    eng.shards[shard_id].pool.drop_cache()
    device.crashed = True
    return eng, device


def close_quietly(eng):
    with contextlib.suppress(OSError, EngineCloseError):
        eng.close()


def test_degraded_attribution_matches_scalar(saved_dir):
    """strict=False: coalesced failure attribution is per rectangle,
    identical to the scalar degraded path."""
    eng, _device = open_with_crashed_shard(saved_dir, 1)
    try:
        q_lo, q_hi = eng.config.queriable_period(eng.now)
        areas = [Rect(0, 0, 99, 99), Rect(0, 0, 20, 20),
                 Rect(60, 60, 99, 99), Rect(30, 0, 99, 30)]
        results, stats = gather_coalesced(
            eng, areas, q_lo, q_hi, stricts=[False] * len(areas))
        assert stats.engine_query_calls == 1
        degraded_seen = 0
        for area, result in zip(areas, results):
            scalar = eng.query_interval(area, q_lo, q_hi, strict=False)
            assert result.entries == scalar.entries
            coalesced_failed = sorted(
                f.shard_id for f in getattr(result, "failures", []))
            scalar_failed = sorted(
                f.shard_id for f in getattr(scalar, "failures", []))
            assert coalesced_failed == scalar_failed
            degraded_seen += bool(coalesced_failed)
        # The workload spans the whole space, so the full-space rect
        # must have hit the crashed shard...
        assert degraded_seen >= 1
        # ...while attribution stays per-rect: a rect that never
        # touches shard 1 reports no failure at all (checked above via
        # the scalar comparison).
    finally:
        close_quietly(eng)


def test_mixed_strictness_demuxes_in_one_batch(saved_dir):
    """One batch, two contracts: the strict request fails typed, the
    degraded one still gets its partial result."""
    eng, _device = open_with_crashed_shard(saved_dir, 1)
    try:
        full = Rect(0, 0, 99, 99)
        q_lo, q_hi = eng.config.queriable_period(eng.now)
        results, stats = gather_coalesced(
            eng, [full, full], q_lo, q_hi, stricts=[True, False])
        assert stats.engine_query_calls == 1
        strict_result, degraded_result = results
        assert isinstance(strict_result, ShardQueryError)
        assert strict_result.shard_id == 1
        scalar = eng.query_interval(full, q_lo, q_hi, strict=False)
        assert degraded_result.entries == scalar.entries
        assert [f.shard_id for f in degraded_result.failures] == \
            [f.shard_id for f in scalar.failures]
    finally:
        close_quietly(eng)
