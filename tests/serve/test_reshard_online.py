"""Online reshard under live traffic.

The three-phase online reshard (freeze / build / flip) must be
invisible to readers and merely a hiccup to writers:

* every read issued while the build runs gets a 200 with a response
  *byte-identical* to the pre-reshard answer for the same query (the
  data the readers look at does not change during the run);
* writes are absorbed — they complete *while* the build is still
  running (the stall is bounded by the freeze/flip sections, not the
  build), land in the catch-up journal, and survive the generation
  flip and a process restart;
* a save or second reshard racing an in-flight reshard is a typed 409,
  and both work again once the flip lands.

The build phase is gated on a :class:`threading.Event` so the overlap
is deterministic: the test provably issues its reads and writes while
the reshard is mid-build, not before or after.
"""

import asyncio
import importlib
import json
import os
import threading

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import EngineError, SerialExecutor, ShardedEngine
from repro.engine.reshard import GenerationBuild
from repro.serve import Request
from repro.serve.main import ServeOptions, serve

OLD_SHARDS = 2
NEW_SHARDS = 5
READERS = 4
READS_PER_READER = 5
WRITES_DURING_BUILD = 6


def make_config(n_shards=OLD_SHARDS):
    return SWSTConfig(window=200, slide=20, x_partitions=4, y_partitions=4,
                      d_max=40, duration_interval=10,
                      space=Rect(0, 0, 99, 99), page_size=512,
                      n_shards=n_shards)


def post(path, obj):
    return Request(method="POST", path=path,
                   body=json.dumps(obj).encode())


def wire_bytes(response):
    """The exact bytes a transport adapter would send for a response."""
    return json.dumps(response.payload, sort_keys=True).encode()


#: Readers watch the lower-left quadrant; concurrent writes land in the
#: upper-right, so the read answer is byte-stable across the reshard.
READ_QUERY = post("/query", {"area": [0, 0, 49, 49], "t_lo": 0, "t_hi": 0})


def copies(directory):
    """Every file under ``directory`` that is a copy of a page file (a
    stage snapshot left behind, or a base of an older format)."""
    return sorted(name for _, _, names in os.walk(directory)
                  for name in names
                  if name.endswith(".base") or name.startswith("source-"))


class BuildGate:
    """Monkeypatch hook stalling ``GenerationBuild.build`` on an event."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def install(self, monkeypatch):
        original = GenerationBuild.build

        def gated(build):
            self.entered.set()
            assert self.release.wait(timeout=60), "test never released"
            return original(build)

        monkeypatch.setattr(GenerationBuild, "build", gated)

    async def entered_async(self):
        while not self.entered.is_set():
            await asyncio.sleep(0.005)


def run_online_reshard(tmp_path, monkeypatch, body):
    """Serve a seeded directory, run ``body(app, gate, state)`` inside."""
    gate = BuildGate()
    gate.install(monkeypatch)
    options = ServeOptions(index=str(tmp_path / "online.d"),
                           config=make_config(), create=True,
                           executor="serial", capacity=16, max_batch=4,
                           max_linger=0.0)
    state = {}

    async def main():
        shutdown = asyncio.Event()

        async def ready(server, app):
            seed = [[oid, (oid * 7) % 50, (oid * 13) % 50, 0]
                    for oid in range(20)]
            assert (await app.handle(
                post("/extend", {"reports": seed}))).status == 200
            baseline = await app.handle(READ_QUERY)
            assert baseline.status == 200
            state["baseline"] = wire_bytes(baseline)
            await body(app, gate, state)
            shutdown.set()

        return await serve(options, ready=ready, shutdown=shutdown,
                           echo=lambda line: None)

    state["stats"] = asyncio.run(main())
    return state


def test_reads_identical_and_writes_absorbed_mid_build(tmp_path,
                                                       monkeypatch):
    async def body(app, gate, state):
        reshard_task = asyncio.create_task(
            app.handle(post("/reshard", {"n_shards": NEW_SHARDS})))
        await gate.entered_async()

        async def reader():
            bodies = []
            for _ in range(READS_PER_READER):
                response = await app.handle(READ_QUERY)
                assert response.status == 200
                bodies.append(wire_bytes(response))
                await asyncio.sleep(0)
            return bodies

        async def writer():
            statuses = []
            for i in range(WRITES_DURING_BUILD):
                reports = [[100 + i, 60 + (i * 5) % 40,
                            60 + (i * 7) % 40, 0]]
                response = await app.handle(
                    post("/extend", {"reports": reports}))
                statuses.append(response.status)
                await asyncio.sleep(0)
            return statuses

        outcomes = await asyncio.gather(writer(),
                                        *(reader() for _ in range(READERS)))
        # The build is still stalled: everything above provably ran
        # mid-reshard.  Writes completed (bounded stall — they never
        # wait for the build) and every read matched the pre-reshard
        # bytes exactly.
        assert not reshard_task.done()
        assert outcomes[0] == [200] * WRITES_DURING_BUILD
        for bodies in outcomes[1:]:
            assert bodies == [state["baseline"]] * READS_PER_READER

        gate.release.set()
        flip = await reshard_task
        assert flip.status == 200
        report = flip.payload
        assert report["old_n_shards"] == OLD_SHARDS
        assert report["n_shards"] == NEW_SHARDS
        # The build dropped its stage copies; nothing else copies a
        # page file.
        assert copies(str(tmp_path / "online.d")) == []

        # Post-flip: the same entry set (merge order and physical stats
        # legitimately change with the shard count), and the journaled
        # writes survived the generation swap.
        after = await app.handle(READ_QUERY)
        assert after.status == 200
        baseline = json.loads(state["baseline"])
        key = lambda e: [v if v is not None else -1 for v in e]  # noqa: E731
        assert sorted(after.payload["entries"], key=key) \
            == sorted(baseline["entries"], key=key)
        assert (await app.handle(post("/save", {}))).status == 200

    state = run_online_reshard(tmp_path, monkeypatch, body)
    assert state["stats"].reshards == 1

    # The journal replay was durable: a cold reopen at the new shard
    # count sees the seed AND every mid-build write.
    with ShardedEngine.open(str(tmp_path / "online.d"),
                            make_config(NEW_SHARDS),
                            executor=SerialExecutor()) as eng:
        eng.check_integrity()
        assert len(eng) == 20 + WRITES_DURING_BUILD
        assert eng.generation == 1


def test_save_and_second_reshard_get_409_mid_flight(tmp_path, monkeypatch):
    async def body(app, gate, state):
        reshard_task = asyncio.create_task(
            app.handle(post("/reshard", {"n_shards": NEW_SHARDS})))
        await gate.entered_async()

        save = await app.handle(post("/save", {}))
        assert save.status == 409
        assert save.payload["error"] == "reshard_in_progress"
        second = await app.handle(post("/reshard", {"n_shards": 3}))
        assert second.status == 409

        gate.release.set()
        assert (await reshard_task).status == 200
        # Both verbs work again after the flip.
        assert (await app.handle(post("/save", {}))).status == 200

    state = run_online_reshard(tmp_path, monkeypatch, body)
    assert state["stats"].reshards == 1
    assert state["stats"].saves >= 1


def fail(*args, **kwargs):
    raise EngineError("injected reshard failure")


def disk_full(*args, **kwargs):
    raise OSError(28, "injected: no space left on device")


@pytest.mark.parametrize("point, flipped", [
    ("manifest", False),                # the manifest rewrite itself
    ("cleanup", True),                  # inside commit, after it
    ("reopen", True),                   # after commit returned
])
def test_failed_flip_never_saves_the_dropped_generation(tmp_path,
                                                        monkeypatch,
                                                        point, flipped):
    """Writes absorbed mid-build reach the generation the manifest names
    at shutdown, wherever the flip failed: the old one if the manifest
    was never rewritten, the new one if it was."""
    if point == "manifest":
        # A full disk at the commit point: an untyped OSError, which
        # the app still answers with a 500 (and serves on).
        # (``repro.engine.reshard`` as an attribute is the function.)
        monkeypatch.setattr(importlib.import_module("repro.engine.reshard"),
                            "write_json_atomic", disk_full)
    elif point == "cleanup":
        monkeypatch.setattr(GenerationBuild, "_cleanup_old_generation",
                            fail)
    else:
        monkeypatch.setattr(ShardedEngine, "reopen", fail)

    async def body(app, gate, state):
        reshard_task = asyncio.create_task(
            app.handle(post("/reshard", {"n_shards": NEW_SHARDS})))
        await gate.entered_async()
        for i in range(WRITES_DURING_BUILD):
            reports = [[100 + i, 60 + i, 60 + i, 0]]
            assert (await app.handle(
                post("/extend", {"reports": reports}))).status == 200
        gate.release.set()
        response = await reshard_task
        assert response.status == 500
        assert response.payload["error"] == "internal"
        assert response.payload["type"] == (
            "OSError" if point == "manifest" else "EngineError")
        if not flipped:
            # The old generation serves on, and its close saves this.
            assert (await app.handle(post("/extend", {
                "reports": [[200, 70, 70, 1]]}))).status == 200

    run_online_reshard(tmp_path, monkeypatch, body)
    n_shards = NEW_SHARDS if flipped else OLD_SHARDS
    with ShardedEngine.open(str(tmp_path / "online.d"),
                            make_config(n_shards),
                            executor=SerialExecutor()) as eng:
        assert eng.recovery.action == "clean"
        eng.check_integrity()
        assert eng.generation == (1 if flipped else 0)
        assert len(eng) == 20 + WRITES_DURING_BUILD + (0 if flipped else 1)
