"""AsyncEngine facade: bridging, slide barrier, single-writer lane."""

import asyncio

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import (SerialExecutor, ShardedEngine,
                          ThreadedExecutor)
from repro.serve import AsyncEngine, ServeClosedError


def make_config(**overrides):
    params = dict(window=200, slide=20, x_partitions=4, y_partitions=4,
                  d_max=40, duration_interval=10,
                  space=Rect(0, 0, 99, 99), page_size=512, n_shards=2)
    params.update(overrides)
    return SWSTConfig(**params)


@pytest.fixture
def engine():
    with ShardedEngine(make_config(),
                       executor=SerialExecutor()) as eng:
        yield eng


def test_borrows_caller_supplied_executor(engine):
    pool = ThreadedExecutor(max_workers=1)
    try:
        async def main():
            facade = AsyncEngine(engine, executor=pool)
            try:
                await facade.report(1, 10, 20, 0)
                return await facade.query_interval(Rect(0, 0, 99, 99), 0, 0)
            finally:
                facade.close()

        assert [e.oid for e in asyncio.run(main()).entries] == [1]
        # Closing the facade left the borrowed pool running.
        assert pool.submit(lambda: 7).result(timeout=10) == 7
    finally:
        pool.close()


def test_round_trip_query(engine):
    async def main():
        facade = AsyncEngine(engine)
        try:
            await facade.report(1, 10, 20, 0)
            await facade.extend([_R(2, 30, 40, 1), _R(3, 50, 60, 2)])
            result = await facade.query_interval(
                Rect(0, 0, 99, 99), 0, 2)
            assert {e.oid for e in result.entries} == {1, 2, 3}
            n, _stats = await facade.count_interval(
                Rect(0, 0, 99, 99), 0, 2)
            assert n == 3
            knn = await facade.query_knn(10, 20, 1, 0, 2)
            assert [e.oid for e in knn.entries] == [1]
        finally:
            facade.close()

    asyncio.run(main())
    assert engine.now == 2  # the engine outlives the facade


class _R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


def test_matches_direct_engine_calls(engine):
    async def main():
        facade = AsyncEngine(engine)
        try:
            await facade.extend(
                [_R(oid, (7 * oid) % 100, (13 * oid) % 100, oid // 10)
                 for oid in range(40)])
            through_facade = await facade.query_interval(
                Rect(0, 0, 99, 99), 0, 4)
            return through_facade
        finally:
            facade.close()

    through_facade = asyncio.run(main())
    direct = engine.query_interval(Rect(0, 0, 99, 99), 0, 4)
    key = lambda e: (e.oid, e.x, e.y, e.s)  # noqa: E731
    assert sorted(through_facade.entries, key=key) == \
        sorted(direct.entries, key=key)


def test_slide_is_a_barrier(engine):
    async def main():
        facade = AsyncEngine(engine)
        try:
            await facade.extend([_R(i, i, i, 0) for i in range(5)])
            in_read = asyncio.Event()
            release = asyncio.Event()

            def slow_read():
                # Runs on the pool thread while the loop drives the
                # slide; the loop releases us only after checking that
                # the slide is still parked behind this read.
                loop.call_soon_threadsafe(in_read.set)
                fut = asyncio.run_coroutine_threadsafe(
                    release.wait(), loop)
                fut.result(timeout=10)
                return facade.engine.query_interval(
                    Rect(0, 0, 99, 99), 0, 0)

            loop = asyncio.get_running_loop()
            read_task = asyncio.create_task(facade.read(slow_read))
            await in_read.wait()
            slide_task = asyncio.create_task(facade.advance_time(40))
            while facade.gate.state != "draining":
                await asyncio.sleep(0)
            assert not slide_task.done()
            release.set()
            await read_task
            await slide_task
            assert facade.gate.state == "idle"
            assert facade.now == 40
            assert facade.stats.slides == 1
        finally:
            facade.close()

    asyncio.run(main())


def test_a_stale_slide_changes_and_journals_nothing(engine):
    async def main():
        facade = AsyncEngine(engine)
        try:
            await facade.extend([_R(1, 5, 5, 30)])
            facade._journal = []
            await facade.advance_time(10)
            assert facade.now == 30
            assert facade._journal == []
            assert facade.stats.slides == 0
            await facade.advance_time(30)
            assert facade._journal == [("advance_time", (30,))]
            assert facade.stats.slides == 1
        finally:
            facade._journal = None
            facade.close()

    asyncio.run(main())
    # The coordinator itself stays strict.
    with pytest.raises(ValueError, match="backwards"):
        engine.advance_time(10)


def test_mutations_serialize_fifo(engine):
    async def main():
        facade = AsyncEngine(engine)
        try:
            # Interleaved submissions with ascending timestamps: the
            # single-writer lane must apply them in submission order or
            # the engine rejects the stream as non-monotonic.
            await asyncio.gather(
                *(facade.report(oid, oid, oid, t)
                  for t, oid in enumerate([1, 2, 3, 4, 5, 6, 7, 8])))
            assert facade.stats.mutations == 8
        finally:
            facade.close()

    asyncio.run(main())


def test_closed_facade_refuses_work(engine):
    async def main():
        facade = AsyncEngine(engine)
        facade.close()
        facade.close()  # idempotent
        with pytest.raises(ServeClosedError):
            await facade.query_interval(Rect(0, 0, 99, 99), 0, 0)

    asyncio.run(main())
