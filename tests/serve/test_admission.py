"""Admission control and the app-level error model (no sockets)."""

import asyncio
import json

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import SerialExecutor, ShardedEngine
from repro.serve import (AdmissionController, AsyncEngine, Overloaded,
                         Request, ServeApp, ServeStats)


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


def post(path, obj):
    return Request(method="POST", path=path,
                   body=json.dumps(obj).encode())


def get(path, **headers):
    return Request(method="GET", path=path, headers=headers)


def run_app(engine, coro_fn, **app_kwargs):
    facade = AsyncEngine(engine)
    app = ServeApp(facade, **app_kwargs)
    try:
        return asyncio.run(coro_fn(app))
    finally:
        facade.close()


def test_typed_rejection_at_capacity():
    stats = ServeStats()
    controller = AdmissionController(2, stats, retry_after=0.25)

    async def main():
        await controller.admit().__aenter__()
        controller.try_admit()
        with pytest.raises(Overloaded) as info:
            controller.try_admit()
        assert info.value.depth == 2
        assert info.value.capacity == 2
        assert info.value.retry_after == 0.25
        assert stats.overload_rejections == 1
        controller.release()
        controller.try_admit()  # a freed slot admits again

    asyncio.run(main())


def test_retry_hint_jitter_comes_from_the_seam():
    stats = ServeStats()
    values = iter([0.5, 0.0])
    controller = AdmissionController(1, stats, retry_after=0.1,
                                     rng=lambda: next(values))
    controller.try_admit()
    with pytest.raises(Overloaded) as first:
        controller.try_admit()
    with pytest.raises(Overloaded) as second:
        controller.try_admit()
    assert first.value.retry_after == pytest.approx(0.15)
    assert second.value.retry_after == pytest.approx(0.1)


def test_overload_maps_to_503_with_retry_after(engine):
    async def main(app):
        release = asyncio.Event()
        original = app.engine.query_interval

        async def stalling(*args, **kwargs):
            await release.wait()
            return await original(*args, **kwargs)

        app.engine.query_interval = stalling
        q = {"area": [0, 0, 99, 99], "t_lo": 0, "t_hi": 0}
        stuck = [asyncio.create_task(app.handle(post("/query", q)))
                 for _ in range(2)]
        while app.stats.queue_depth < 2:
            await asyncio.sleep(0)
        rejected = await app.handle(post("/query", q))
        release.set()
        served = await asyncio.gather(*stuck)
        return rejected, served

    rejected, served = run_app(engine, main, capacity=2, max_batch=1)
    assert rejected.status == 503
    assert rejected.payload["error"] == "overloaded"
    assert rejected.payload["depth"] == 2
    assert "Retry-After" in rejected.headers
    assert all(r.status == 200 for r in served)


def test_control_plane_bypasses_admission(engine):
    async def main(app):
        # Saturate the only admission slot with a stalled query...
        release = asyncio.Event()
        original = app.engine.query_interval

        async def stalling(*args, **kwargs):
            await release.wait()
            return await original(*args, **kwargs)

        app.engine.query_interval = stalling
        q = {"area": [0, 0, 99, 99], "t_lo": 0, "t_hi": 0}
        stuck = asyncio.create_task(app.handle(post("/query", q)))
        while app.stats.queue_depth < 1:
            await asyncio.sleep(0)
        # ...the control plane still answers.
        health = await app.handle(get("/healthz"))
        stats = await app.handle(get("/stats"))
        release.set()
        await stuck
        return health, stats

    health, stats = run_app(engine, main, capacity=1, max_batch=1)
    assert health.status == 200
    assert stats.status == 200
    assert stats.payload["queue_depth"] == 1


def test_deadline_maps_to_504(engine):
    async def main(app):
        async def never(*args, **kwargs):
            await asyncio.Event().wait()

        app.engine.query_interval = never
        q = {"area": [0, 0, 99, 99], "t_lo": 0, "t_hi": 0}
        request = post("/query", q)
        request.headers["x-deadline"] = "0.05"
        return await app.handle(request)

    response = run_app(engine, main, max_batch=1)
    assert response.status == 504
    assert response.payload["error"] == "deadline_exceeded"
    assert response.payload["timeout"] == pytest.approx(0.05)


def test_bad_requests_map_to_400(engine):
    async def main(app):
        return [
            await app.handle(Request(method="POST", path="/query",
                                     body=b"{nope")),
            await app.handle(post("/query", {"area": [0, 0, 99]})),
            await app.handle(post("/insert", {"oid": "one"})),
            await app.handle(get("/query", **{"x-deadline": "-1"})),
        ]

    responses = run_app(engine, main)
    assert [r.status for r in responses] == [400, 400, 400, 400]
    assert all(r.payload["error"] == "bad_request" for r in responses)
    assert "x_lo" in responses[1].payload["detail"]


def test_unknown_path_and_wrong_method(engine):
    async def main(app):
        return (await app.handle(get("/nope")),
                await app.handle(get("/insert")))

    not_found, wrong_method = run_app(engine, main)
    assert not_found.status == 404
    assert wrong_method.status == 405


def test_engine_domain_error_maps_to_500(engine):
    async def main(app):
        # Location outside the spatial domain: passes the wire checks,
        # rejected by the engine's own validation.
        return await app.handle(post("/report", {"oid": 1, "x": 5000,
                                                 "y": 5000, "t": 0}))

    response = run_app(engine, main)
    assert response.status == 500
    assert response.payload["error"] == "internal"
    assert response.payload["type"] == "ValueError"


def test_degraded_result_maps_to_206(engine):
    async def main(app):
        from repro.core.results import QueryStats
        from repro.engine import PartialResult
        from repro.engine.errors import ShardFailure

        partial = PartialResult(
            entries=[], stats=QueryStats(degraded=True),
            failures=[ShardFailure(1, "shard-001", OSError("crashed"))])

        async def degraded(*args, **kwargs):
            del args, kwargs
            return partial

        app.engine.query_interval = degraded
        q = {"area": [0, 0, 99, 99], "t_lo": 0, "t_hi": 0,
             "strict": False}
        return await app.handle(post("/query", q))

    response = run_app(engine, main, max_batch=1)
    assert response.status == 206
    assert response.payload["degraded"] is True
    assert response.payload["failures"][0]["shard_id"] == 1


def test_stats_show_the_recovery_plan_the_server_opened_with(tmp_path,
                                                             engine):
    """``/stats`` carries the plan ``open()`` executed: here a save
    that died after shard 0 committed, before the manifest flip."""
    path = tmp_path / "index.d"
    with ShardedEngine(make_config(), path,
                       executor=SerialExecutor()) as eng:
        eng.insert(1, 5, 5, 0)
        eng.save()
    manifest = json.loads((path / "engine.json").read_text())
    eng = ShardedEngine.open(path, make_config(), executor=SerialExecutor())
    eng.insert(2, 6, 6, 1)
    eng.shards[0].save()      # one shard's commit; no flip names it
    eng.abort()

    async def main(app):
        return (await app.handle(get("/stats"))).payload["recovery"]

    with ShardedEngine.open(path, make_config(),
                            executor=SerialExecutor()) as eng:
        recovery = run_app(eng, main)
    assert recovery["action"] == "clean"
    assert recovery["epoch"] == manifest["epoch"]
    gens = manifest["shards"]
    assert recovery["shards"] == [
        {"shard": 0, "action": f"open generation {gens[0]}, drop "
                               f"uncommitted generation {gens[0] + 1}, "
                               f"no WAL", "replayed": 0, "torn": 0},
        {"shard": 1, "action": f"open generation {gens[1]}, no WAL",
         "replayed": 0, "torn": 0}]
    # An engine a constructor built opened nothing.
    assert run_app(engine, main) is None
