"""A close is a save or an abort, never a clean header over a stale catalog.

Each scenario saves the first 200 reports of one stream, reopens with a
4-page buffer pool (so tree pages are evicted to disk), takes 300 more
reports and closes *without* ``save()``.  The reopened index must equal
an in-memory model fed all 500 reports and pass ``check_integrity``.
"""

import asyncio
import dataclasses
import http.client
import json
import random

import pytest

from repro.core import Rect, SWSTConfig, SWSTIndex
from repro.engine import SerialExecutor, ShardedEngine
from repro.serve import ServeOptions
from repro.serve.main import serve
from repro.storage import CorruptPageFileError, Pager, StaleBlobError

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


def test_pager_refuses_a_clean_header_over_a_stale_blob(tmp_path):
    path = tmp_path / "pages.db"
    with Pager(path, page_size=512) as pager:
        page = pager.allocate()
        pager.store_blob(b"catalog naming page %d" % page)
        pager.sync()
    pager = Pager(path, page_size=512)
    assert pager.load_blob().startswith(b"catalog")
    pager.write(page, b"\x01" * 512)
    with pytest.raises(StaleBlobError):
        pager.close()
    # Released as by abort(): the last commit stands, nothing leaked.
    with pytest.raises(CorruptPageFileError, match="uncommitted"):
        Pager(path, page_size=512)


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
