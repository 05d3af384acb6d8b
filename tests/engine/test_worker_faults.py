"""Self-test of the worker fault helper (``worker_faults.py``): an arm
reaches only its own shard's next incarnation, a persistent arm fires
until it is disarmed in the test process, and the test process itself
is never faulted."""

import os
import random

from repro.core import Rect, SWSTConfig
from repro.engine import RetryPolicy, WorkerEngine, worker
from repro.engine.wal import run_op
from repro.storage.fileops import DURABLE_FILE_OPS

from .worker_faults import WorkerFaults

N_SHARDS = 3


def make_config(n_shards=N_SHARDS):
    return SWSTConfig(window=200, slide=20, x_partitions=4, y_partitions=4,
                      d_max=40, duration_interval=10,
                      space=Rect(0, 0, 99, 99), page_size=512,
                      n_shards=n_shards)


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


def state_of(engine):
    return (engine.now, len(engine), sorted(map(repr, engine.scan())))


def test_an_arm_reaches_only_its_shards_next_incarnation(tmp_path,
                                                         monkeypatch):
    faults = WorkerFaults(monkeypatch)
    with WorkerEngine(make_config(), str(tmp_path / "e.d")) as eng:
        eng.extend(workload(1, 60))
        expected = state_of(eng)
        faults.arm(1, kill_at_ready=True)
        eng.pool.kill_all()
        assert state_of(eng) == expected
        # Shard 1's armed incarnation died before its handshake and the
        # restart policy's retry came up clean; its siblings started
        # once each, and the launch used the arm up.
        assert eng.pool.spawn_counts == [2, 3, 2]
        assert faults.armed == {}
        eng.pool.kill_all()
        assert state_of(eng) == expected
        assert eng.pool.spawn_counts == [3, 4, 3]


def test_a_persistent_arm_fires_until_disarmed(tmp_path, monkeypatch):
    faults = WorkerFaults(monkeypatch)
    config = make_config()
    with WorkerEngine(config, str(tmp_path / "e.d"),
                      retry_policy=RetryPolicy(attempts=2),
                      breaker_factory=None) as eng:
        eng.extend(workload(2, 80))
        q_lo, q_hi = config.queriable_period(eng.now)
        full = sorted(map(repr, eng.query_interval(config.space, q_lo,
                                                   q_hi)))
        faults.arm(1, kill_at_ready=True, persistent=True)
        eng.pool.kill(1)
        for _ in range(2):
            spawns = eng.pool.spawn_counts[1]
            result = eng.query_interval(config.space, q_lo, q_hi,
                                        strict=False)
            assert [f.shard_id for f in result.failures] == [1]
            # Every attempt launched a fresh incarnation; each died.
            assert eng.pool.spawn_counts[1] >= spawns + 2
        assert 1 in faults.armed
        faults.disarm(1)
        spawns = eng.pool.spawn_counts[1]
        healed = eng.query_interval(config.space, q_lo, q_hi, strict=False)
        assert not healed.stats.degraded
        assert sorted(map(repr, healed)) == full
        assert eng.pool.spawn_counts[1] == spawns + 1


def test_the_test_process_is_never_faulted(tmp_path, monkeypatch):
    """Run every wrapped function in the test process while it holds a
    worker's script for the shard: only the pid guard stops each kill.
    (``hang_at_apply`` is left out: it shares the guard, and a failure
    would hang the suite instead of failing it.)"""
    faults = WorkerFaults(monkeypatch)
    config = make_config(n_shards=1)
    directory = str(tmp_path / "e.d")
    with WorkerEngine(config, directory) as eng:
        eng.extend(workload(3, 40))
        eng.save()
        epoch = eng.epoch
    faults._shard = 0
    faults._script = {
        "kill_before_commit": 1, "kill_after_commit": 1,
        "kill_after_apply": 1, "kill_at_replay": 1, "kill_at_ready": True,
        "kill_at_save": True, "kill_after_save": True,
        "kill_at_checkpoint": True}
    fops = DURABLE_FILE_OPS
    shard, writer, _ = worker._recover_shard(0, directory, config, fops, 0)
    try:
        now = shard.now + 1
        worker._apply_batch(shard, writer, [run_op(now, [R(1, 5, 5, now)])])
    finally:
        shard.abort()
    shard, writer, plan = worker._recover_shard(0, directory, config, fops,
                                                0)
    try:
        assert plan.replayed == 1
        shard.save()
        worker._checkpoint(0, shard, directory, fops, epoch, 0)
    finally:
        shard.abort()
    # The wrappers ran here (they counted) and never fired.
    assert (faults._batches, faults._replayed) == (1, 1)
    assert os.getpid() == faults._runner
