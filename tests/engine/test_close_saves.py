"""A close is a save or an abort, never a page file under a stale catalog.

Each scenario saves the first 200 reports of one stream, reopens with a
4-page buffer pool (so tree pages are evicted to disk), takes 300 more
reports and closes *without* ``save()``.  The reopened index must equal
an in-memory model fed all 500 reports and pass ``check_integrity`` —
or, after an abort, the model of the 200 saved reports.
"""

import asyncio
import dataclasses
import http.client
import json
import random

from repro.core import Rect, SWSTConfig, SWSTIndex
from repro.engine import SerialExecutor, ShardedEngine
from repro.engine.recovery import OPEN
from repro.serve import ServeOptions
from repro.serve.main import serve
from tests.storage.fault import InjectedFault, per_path_device_factory

CONFIG = SWSTConfig(window=200, slide=20, x_partitions=4, y_partitions=4,
                    d_max=40, duration_interval=10,
                    space=Rect(0, 0, 99, 99), page_size=512)
SAVED, UNSAVED = 200, 300


class R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


def stream(n=SAVED + UNSAVED):
    rng = random.Random(5)
    t, reports = 0, []
    for _ in range(n):
        t += rng.choice([0, 1, 1, 2])
        reports.append(R(rng.randrange(40), rng.randrange(100),
                         rng.randrange(100), t))
    return reports


def model_state():
    model = SWSTIndex(CONFIG)
    model.extend(stream())
    return state_of(model)


def state_of(index):
    return (index.now, len(index), sorted(map(repr, index.scan())),
            index.current_objects())


def small_pool(config):
    return dataclasses.replace(config, buffer_capacity=4)


def test_single_file_close_saves_unsaved_reports(tmp_path):
    path = str(tmp_path / "swst.db")
    reports = stream()
    with SWSTIndex(CONFIG, path=path) as index:
        index.extend(reports[:SAVED])
        index.save()
    index = SWSTIndex.open(path, small_pool(CONFIG))
    assert not index.unsaved          # opening is not a mutation
    assert not index.close_object(999, index.now)
    assert index.forget_object(999) == 0
    index.set_retention(999, None)
    assert not index.unsaved          # nor is a call that changes nothing
    index.extend(reports[SAVED:])
    assert index.unsaved
    index.close()
    with SWSTIndex.open(path, CONFIG) as reopened:
        reopened.check_integrity()
        assert state_of(reopened) == model_state()


def test_sharded_close_runs_the_two_phase_save(tmp_path):
    config = dataclasses.replace(CONFIG, n_shards=3)
    reports = stream()
    with ShardedEngine(config, tmp_path / "eng",
                       executor=SerialExecutor()) as engine:
        engine.extend(reports[:SAVED])
        engine.save()
        saved_epoch = engine.epoch
    engine = ShardedEngine.open(tmp_path / "eng", small_pool(config),
                                executor=SerialExecutor())
    engine.extend(reports[SAVED:])
    engine.close()
    with ShardedEngine.open(tmp_path / "eng", config,
                            executor=SerialExecutor()) as reopened:
        assert reopened.epoch == saved_epoch + 1   # one epoch, not torn
        assert reopened.recovery.action == "clean"
        reopened.check_integrity()
        assert state_of(reopened) == model_state()


def test_close_of_an_unchanged_engine_writes_nothing(tmp_path):
    config = dataclasses.replace(CONFIG, n_shards=3)
    with ShardedEngine(config, tmp_path / "eng") as engine:
        engine.extend(stream()[:SAVED])
        engine.save()
        epoch = engine.epoch
    before = {p: p.read_bytes() for p in (tmp_path / "eng").rglob("*")
              if p.is_file()}
    with ShardedEngine.open(tmp_path / "eng", config) as engine:
        engine.query_interval(CONFIG.space, 0, engine.now)
        # Calls that find nothing to change are not mutations either.
        assert not engine.close_object(999, engine.now)
        assert engine.forget_object(999) == 0
        engine.set_retention(999, None)
    after = {p: p.read_bytes() for p in (tmp_path / "eng").rglob("*")
             if p.is_file()}
    assert after == before
    with ShardedEngine.open(tmp_path / "eng", config) as engine:
        assert engine.epoch == epoch


def test_single_file_abort_reopens_at_the_last_save(tmp_path):
    """A kill mid-session (``abort()``) after evictions: the reopen is
    exactly the last save.  Shadow paging never overwrote a page that
    save names, so there is nothing to detect, sweep or restore."""
    path = str(tmp_path / "swst.db")
    reports = stream()
    with SWSTIndex(CONFIG, path=path) as index:
        index.extend(reports[:SAVED])
        index.save()
        saved_state = state_of(index)
    index = SWSTIndex.open(path, small_pool(CONFIG))
    index.extend(reports[SAVED:])
    assert index.stats.physical_writes > 0   # evictions reached the file
    index.abort()
    with SWSTIndex.open(path, CONFIG) as reopened:
        reopened.check_integrity()
        assert state_of(reopened) == saved_state
    model = SWSTIndex(CONFIG)
    model.extend(reports[:SAVED])
    assert saved_state == state_of(model)


def test_close_after_two_failed_saves_reopens_at_the_last_save(tmp_path):
    """Retrying a failed save cannot tear the directory.  The first save
    dies at shard 1 after shard 0 committed; the retry dies at shard 0
    before it commits again.  Shard 0's commit is one the manifest never
    named, so every shard reopens at the last good save."""
    config = dataclasses.replace(CONFIG, n_shards=3)
    reports = stream(2 * SAVED)
    with ShardedEngine(config, tmp_path / "eng",
                       executor=SerialExecutor()) as engine:
        engine.extend(reports[:SAVED])
        engine.save()
        saved_epoch = engine.epoch
    devices = []
    faulty = dataclasses.replace(config, device_factory=(
        per_path_device_factory("shard", registry=devices)))
    engine = ShardedEngine.open(tmp_path / "eng", faulty,
                                executor=SerialExecutor())
    engine.extend(reports[SAVED:])
    for victim in (1, 0):
        devices[victim].fail_write = devices[victim].writes_seen + 1
        try:
            engine.save()
        except InjectedFault:
            continue
        raise AssertionError("save() on a dead device succeeded")
    engine.close()
    with ShardedEngine.open(tmp_path / "eng", config,
                            executor=SerialExecutor()) as reopened:
        assert reopened.epoch == saved_epoch
        reopened.check_integrity()
        model = SWSTIndex(CONFIG)
        model.extend(reports[:SAVED])
        assert state_of(reopened) == state_of(model)
        assert [shard.pages for shard in reopened.recovery.shards] \
            == [OPEN] * 3
        assert reopened.recovery.shards[0].uncommitted is not None


def test_served_directory_keeps_unsaved_extends_at_shutdown(tmp_path):
    """In-process ``repro serve``: acknowledged ``/extend`` batches with
    no ``/save`` survive a graceful shutdown."""
    config = dataclasses.replace(CONFIG, n_shards=3)
    options = ServeOptions(index=str(tmp_path / "serve.d"),
                           config=small_pool(config), create=True,
                           executor="serial")
    reports = [[r.oid, r.x, r.y, r.t] for r in stream()]

    def client(port):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for lo in range(0, len(reports), 50):
                body = json.dumps({"reports": reports[lo:lo + 50]})
                conn.request("POST", "/extend", body=body.encode())
                response = conn.getresponse()
                response.read()
                assert response.status == 200
        finally:
            conn.close()

    async def main():
        shutdown = asyncio.Event()

        async def ready(server, app):
            await asyncio.to_thread(client, server.port)
            shutdown.set()

        await serve(options, ready=ready, shutdown=shutdown,
                    echo=lambda line: None)

    asyncio.run(main())
    with ShardedEngine.open(tmp_path / "serve.d", config) as reopened:
        reopened.check_integrity()
        assert state_of(reopened) == model_state()
