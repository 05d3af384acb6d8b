"""Concurrent worker start: every shard is forked before any handshake
is collected, so the shards' WAL replays run side by side — and a
failure during that start behaves exactly as the one-at-a-time start
did: same restart budget, same typed error, no worker left behind."""

import multiprocessing
import random
import shutil

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import WorkerEngine, WorkerRecoveryError
from repro.engine.wal import HEADER_SIZE, WalRecord, read_wal
from repro.engine.worker import WorkerPool

from .worker_faults import WorkerFaults

N_SHARDS = 3


def make_config():
    return SWSTConfig(window=200, slide=20, x_partitions=4, y_partitions=4,
                      d_max=40, duration_interval=10,
                      space=Rect(0, 0, 99, 99), page_size=512,
                      n_shards=N_SHARDS)


class R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


def workload(seed, count):
    rng = random.Random(seed)
    t = 0
    reports = []
    for _ in range(count):
        t += rng.choice([0, 1, 2])
        reports.append(R(rng.randrange(20), rng.randrange(100),
                         rng.randrange(100), t))
    return reports


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


def state_of(engine):
    return (engine.now, len(engine),
            sorted(entry_key(e) for e in engine.scan()))


def unsaved_directory(path):
    """An engine directory whose whole history lives in epoch-0 WALs;
    returns the state a fault-free run left behind."""
    with WorkerEngine(make_config(), path) as eng:
        for chunk in range(0, 240, 16):
            eng.extend(workload(1, 240)[chunk:chunk + 16])
        return state_of(eng)


def shard_processes():
    return [child for child in multiprocessing.active_children()
            if child.name.startswith("swst-shard-")]


class TestLaunchBeforeHandshake:
    @pytest.mark.parametrize("how", ["create", "open"])
    def test_every_worker_runs_before_the_first_handshake(
            self, tmp_path, monkeypatch, how):
        path = str(tmp_path / "e.d")
        if how == "open":
            unsaved_directory(path)
        seen = []
        recv = WorkerPool._recv

        def witness(pool, shard_id, handle, timeout=None):
            if not seen:
                seen.append({sid: h.process.is_alive()
                             for sid, h in pool._handles.items()})
            return recv(pool, shard_id, handle, timeout)

        monkeypatch.setattr(WorkerPool, "_recv", witness)
        if how == "create":
            eng = WorkerEngine(make_config(), path)
        else:
            eng = WorkerEngine.open(path, make_config())
        with eng:
            assert seen[0] == {sid: True for sid in range(N_SHARDS)}
            assert eng.pool.spawn_counts == [1] * N_SHARDS


class TestFailuresDuringStart:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_replay_kill_converges_with_the_serial_restart_count(
            self, tmp_path, monkeypatch, victim):
        """The victim dies after replaying one record while its
        siblings replay; the restart policy's second attempt recovers
        it, exactly one restart as with a one-at-a-time start."""
        path = str(tmp_path / "victim.d")
        before = unsaved_directory(path)
        shutil.copytree(path, tmp_path / "oracle.d")
        with WorkerEngine.open(str(tmp_path / "oracle.d"),
                               make_config()) as eng:
            oracle = state_of(eng)
        assert oracle == before
        WorkerFaults(monkeypatch).arm(victim, kill_at_replay=1)
        with WorkerEngine.open(path, make_config()) as eng:
            expected = [1] * N_SHARDS
            expected[victim] = 2
            assert eng.pool.spawn_counts == expected
            assert state_of(eng) == oracle
            eng.check_integrity()

    def test_terminal_failure_takes_every_launched_worker_down(
            self, tmp_path, monkeypatch):
        """Shard 1's WAL breaks its sequence chain before the last
        record: recovery is refused with the same typed error, and
        shard 0 — launched and already handshaken — dies with it."""
        path = tmp_path / "e.d"
        unsaved_directory(str(path))
        wal = path / "shard-001.wal"
        scan = read_wal(str(wal))
        assert len(scan.records) >= 3
        records = list(scan.records)
        second = records[1]
        records[1] = WalRecord(second.seq + 100, second.op, second.args)
        wal.write_bytes(wal.read_bytes()[:HEADER_SIZE]
                        + b"".join(record.encode() for record in records))

        launched = []
        launch = WorkerPool.launch

        def record(pool, shard_id):
            launch(pool, shard_id)
            launched.append(pool._handles[shard_id].process)

        monkeypatch.setattr(WorkerPool, "launch", record)
        with pytest.raises(WorkerRecoveryError,
                           match="WalCorruptError.*discontinuity") as info:
            WorkerEngine.open(str(path), make_config())
        assert info.value.shard_id == 1
        assert [p.name for p in launched] == [
            f"swst-shard-{sid}" for sid in range(N_SHARDS)]
        assert not any(process.is_alive() for process in launched)
        assert shard_processes() == []
