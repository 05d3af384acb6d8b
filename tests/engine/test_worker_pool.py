"""Warm worker pool supervision: restarts, heartbeats, breakers,
degraded mode, graceful shutdown, and durability across kills."""

import os
import random

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import (CircuitBreaker, CircuitOpenError, PartialResult,
                          RetryPolicy, ShardQueryError, WorkerCrashError,
                          WorkerEngine)
from tests.storage.fault import FaultInjectingFileOps

from .worker_faults import WorkerFaults

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


def workload(seed, count, t0=0):
    rng = random.Random(seed)
    t = t0
    return [R(rng.randrange(20), rng.randrange(100), rng.randrange(100),
              (t := t + rng.choice([0, 1, 2])))
            for _ in range(count)]


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


def state_of(engine):
    return (engine.now, len(engine),
            sorted(entry_key(e) for e in engine.scan()))


class TestSupervisedRestart:
    def test_killed_worker_restarts_transparently(self, tmp_path):
        config = make_config()
        with WorkerEngine(config, str(tmp_path / "e.d")) as eng:
            eng.extend(workload(1, 80))
            before = state_of(eng)
            victim = 1
            eng.pool.kill(victim)
            assert not eng.pool.alive(victim)
            # The next operation touching the shard restarts it; WAL
            # replay restores every acknowledged write.
            assert state_of(eng) == before
            assert eng.pool.spawn_counts[victim] == 2
            eng.check_integrity()

    def test_kill_all_then_full_resync(self, tmp_path):
        config = make_config()
        with WorkerEngine(config, str(tmp_path / "e.d")) as eng:
            eng.extend(workload(2, 120))
            before = state_of(eng)
            q_lo, q_hi = config.queriable_period(eng.now)
            expected = sorted(
                entry_key(e) for e in
                eng.query_interval(config.space, q_lo, q_hi))
            eng.pool.kill_all()
            result = eng.query_interval(config.space, q_lo, q_hi)
            assert sorted(entry_key(e) for e in result) == expected
            assert state_of(eng) == before

    def test_mutations_resume_after_kill(self, tmp_path):
        config = make_config()
        oracle_dir = str(tmp_path / "oracle.d")
        victim_dir = str(tmp_path / "victim.d")
        phase1, phase2 = workload(3, 60), workload(4, 60, t0=200)
        with WorkerEngine(config, oracle_dir) as oracle:
            oracle.extend(phase1)
            oracle.extend(phase2)
            expected = state_of(oracle)
        with WorkerEngine(config, victim_dir) as eng:
            eng.extend(phase1)
            eng.pool.kill_all()
            eng.extend(phase2)
            assert state_of(eng) == expected


class TestHeartbeat:
    def test_poison_task_trips_the_deadline_then_recovers(self, tmp_path,
                                                          monkeypatch):
        faults = WorkerFaults(monkeypatch)
        config = make_config()
        eng = WorkerEngine(config, str(tmp_path / "e.d"),
                           heartbeat_timeout=1.0)
        try:
            eng.extend(workload(5, 40))
            before = state_of(eng)
            # Arm a poison task on shard 0's next restart: its first
            # batch blocks forever, and the pool's heartbeat deadline
            # kills the wedged worker instead of hanging the engine.
            faults.arm(0, hang_at_apply=1)
            eng.pool.kill(0)
            target = before[0] + 50
            with pytest.raises(WorkerCrashError, match="heartbeat"):
                eng.advance_time(target)
            # The hung worker was killed pre-acknowledgement; the
            # restart replays its WAL and the engine converges on the
            # advanced clock everywhere.
            assert eng.now == target
            eng.check_integrity()
        finally:
            eng.close()


class TestCircuitBreaker:
    def test_crash_loop_opens_the_breaker(self, tmp_path, monkeypatch):
        faults = WorkerFaults(monkeypatch)
        config = make_config()
        eng = WorkerEngine(
            config, str(tmp_path / "e.d"),
            retry_policy=RetryPolicy(attempts=1),
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1,
                                                   cooldown=1000.0))
        try:
            eng.extend(workload(6, 40))
            # Crash-loop shard 2: every respawn dies before the ready
            # handshake.
            faults.arm(2, kill_at_ready=True, persistent=True)
            eng.pool.kill(2)
            q_lo, q_hi = config.queriable_period(eng.now)
            with pytest.raises(ShardQueryError):
                eng.query_interval(config.space, q_lo, q_hi)
            # The failed restart tripped the breaker: the shard now
            # fails fast without a spawn attempt.
            spawns = eng.pool.spawn_counts[2]
            with pytest.raises(CircuitOpenError):
                eng._backend._ensure(2)
            assert eng.pool.spawn_counts[2] == spawns
        finally:
            eng.close()

    def test_degraded_query_while_crash_looping(self, tmp_path,
                                                monkeypatch):
        faults = WorkerFaults(monkeypatch)
        config = make_config()
        eng = WorkerEngine(config, str(tmp_path / "e.d"),
                           retry_policy=RetryPolicy(attempts=1))
        try:
            eng.extend(workload(7, 80))
            q_lo, q_hi = config.queriable_period(eng.now)
            full = eng.query_interval(config.space, q_lo, q_hi)
            faults.arm(1, kill_at_ready=True, persistent=True)
            eng.pool.kill(1)
            result = eng.query_interval(config.space, q_lo, q_hi,
                                        strict=False)
            assert isinstance(result, PartialResult)
            assert result.stats.degraded
            assert [f.shard_id for f in result.failures] == [1]
            surviving = {entry_key(e) for e in result}
            assert surviving <= {entry_key(e) for e in full}
            # Heal the shard: the same query is whole again.
            faults.disarm(1)
            healed = eng.query_interval(config.space, q_lo, q_hi,
                                        strict=False)
            assert not healed.stats.degraded
            assert {entry_key(e) for e in healed} \
                == {entry_key(e) for e in full}
        finally:
            eng.close()


class TestShutdown:
    def test_graceful_close_reopens_from_wal(self, tmp_path):
        config = make_config()
        path = str(tmp_path / "e.d")
        with WorkerEngine(config, path) as eng:
            eng.extend(workload(8, 100))
            expected = state_of(eng)
        # close() stops the workers without a save: everything lives in
        # the epoch-0 WALs and comes back on open.
        with WorkerEngine.open(path, config) as eng:
            assert state_of(eng) == expected

    def test_closed_engine_rejects_use(self, tmp_path):
        config = make_config()
        eng = WorkerEngine(config, str(tmp_path / "e.d"))
        eng.close()
        from repro.engine import EngineClosedError
        with pytest.raises(EngineClosedError):
            eng.extend(workload(9, 5))
        with pytest.raises(EngineClosedError):
            len(eng)
        eng.close()  # idempotent

    def test_workers_do_not_outlive_the_engine(self, tmp_path):
        config = make_config()
        eng = WorkerEngine(config, str(tmp_path / "e.d"))
        eng.extend(workload(10, 30))
        processes = [eng.pool._handles[sid].process
                     for sid in range(N_SHARDS)]
        eng.close()
        for process in processes:
            assert not process.is_alive()


class JournalFileOps(FaultInjectingFileOps):
    """Records each file op as ``pid name path`` in a journal file, so
    the copies a forked worker inherits report to the test too."""

    def __init__(self, journal):
        super().__init__()
        self.journal = journal

    def _next_op(self, name, path):
        super()._next_op(name, path)
        with open(self.journal, "a") as handle:
            handle.write(f"{os.getpid()} {name} {path}\n")


class TestFileOpsSeam:
    def test_workers_do_their_io_through_the_engines_file_ops(self,
                                                              tmp_path):
        journal = tmp_path / "ops.log"
        path = tmp_path / "e.d"
        with WorkerEngine(make_config(), str(path),
                          file_ops=JournalFileOps(str(journal))) as eng:
            eng.extend(workload(11, 60))
            eng.save()
            pids = [eng.pool._handles[sid].process.pid
                    for sid in range(N_SHARDS)]
        seen = {(int(pid), name, file) for pid, name, file in
                (line.split(" ", 2)
                 for line in journal.read_text().splitlines())}
        for sid, pid in enumerate(pids):
            wal = str(path / f"shard-{sid:03d}.wal")
            # The group commit: one append and one fsync of the WAL.
            assert (pid, "append_file", wal) in seen
            assert (pid, "fsync_file", wal) in seen
            # The post-save checkpoint: a fresh WAL (no copy of anything).
            assert (pid, "replace", wal) in seen
        assert not any(name == "copy_file" for _, name, _ in seen)
        # The coordinator's manifest writes use the same object.
        assert (os.getpid(), "replace", str(path / "engine.json")) in seen
