"""One recovery decision, checked against both openers and scrub.

``plan_recovery`` reads a directory and decides its whole recovery
without writing.  For every directory state the crash matrices produce
— the engine crash matrix, the save kill matrices (file-op and device),
the reshard kill matrix and the worker-kill matrix — plus a WAL ahead
of its manifest, this suite checks
that the plan computed before ``open()`` is exactly what
``ShardedEngine.open`` and ``WorkerEngine.open`` execute (each on its
own copy), that a refusal is the same typed error, and that ``repro
scrub`` exits 1 exactly when the plan refuses.
"""

import dataclasses
import json
import os
import random
import shutil
import struct

import pytest

from repro.cli import main as run_cli
from repro.core import Rect, SWSTConfig, SWSTIndex
from repro.engine import (EngineError, SerialExecutor, ShardedEngine,
                          WorkerCrashError, WorkerEngine,
                          WorkerRecoveryError, plan_recovery, reshard)
from repro.engine import recovery
from repro.engine.wal import read_wal
from tests.storage.fault import (FaultInjectingFileOps, InjectedFault,
                                 crash_devices, per_path_device_factory)

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
    reports = []
    for _ in range(count):
        t += rng.choice([0, 1, 1, 2])
        reports.append(R(rng.randrange(25), rng.randrange(100),
                         rng.randrange(100), t))
    return reports


def file_bytes(path):
    return {file: file.read_bytes()
            for file in path.rglob("*") if file.is_file()}


def report_twenty(eng):
    """The 20 reports a torn save fails to commit."""
    t = eng.now
    for oid in range(20):
        eng.report(oid, (oid * 13) % 100, (oid * 29) % 100, t)


# -- in-process states --------------------------------------------------------


def saved(path, config=None):
    with ShardedEngine(config or make_config(), path,
                       executor=SerialExecutor()) as eng:
        eng.extend(workload(21, 200))
        eng.save()


def save_more(path):
    with ShardedEngine.open(path, make_config(),
                            executor=SerialExecutor()) as eng:
        eng.advance_time(eng.now + 1)
        report_twenty(eng)
        eng.save()


def tear_save(path, damage=None):
    """Crash shard-002's device mid-save: shards 0 and 1 committed."""
    faulty = make_config(
        device_factory=per_path_device_factory("shard-002", fail_write=1))
    eng = ShardedEngine.open(path, faulty, executor=SerialExecutor())
    try:
        if damage:
            damage()
        report_twenty(eng)
        with pytest.raises(OSError):
            eng.save()
    finally:
        # After a failed save, close releases the shard the save did not
        # reach as a crash would (no flush to fail on the dead device).
        eng.close()


def poison(path, shard_id):
    """A mid-session crash on one shard file: the buffer pool evicts
    uncommitted pages into it, then the process dies."""
    recorded = json.loads((path / "engine.json").read_text())["shards"]
    shard = SWSTIndex.open(path / f"shard-{shard_id:03d}.pages",
                           make_config(buffer_capacity=2),
                           generation=recorded[shard_id])
    t = shard.now + 1
    for oid in range(200):
        shard.report(1000 + oid, (oid * 7) % 100, (oid * 11) % 100, t)
    assert shard.stats.physical_writes > 0, "nothing reached the file"
    shard.abort()


def crash_save(path, *, fail_op=None, kill_shard=None, first=False):
    """Process death in a save: a file-op fault or a device kill."""
    devices = []
    faulty = make_config(device_factory=per_path_device_factory(
        "shard", registry=devices))
    ops = FaultInjectingFileOps(fail_op=fail_op)
    if first:
        eng = ShardedEngine(faulty, path, executor=SerialExecutor(),
                            file_ops=ops)
    else:
        saved(path)
        eng = ShardedEngine.open(path, faulty, executor=SerialExecutor(),
                                 file_ops=ops)
    try:
        eng.extend(workload(22, 100, t0=eng.now))
        if kill_shard is not None:
            device = devices[kill_shard]
            device.fail_write = device.writes_seen + 1
        with pytest.raises((OSError, InjectedFault)):
            eng.save()
    finally:
        crash_devices(devices)
        try:
            eng.close()
        except (EngineError, OSError):
            pass


def crashed_reshard(path, fail_op):
    saved(path)
    with pytest.raises(InjectedFault):
        reshard(path, 5, make_config(),
                file_ops=FaultInjectingFileOps(fail_op=fail_op))


IN_PROCESS_STATES = {
    "clean": saved,
    "poisoned-shard": lambda p: (saved(p), save_more(p), poison(p, 1)),
    "torn-save": lambda p: (saved(p), tear_save(p)),
    # Save file-op kills, every shard committed: 1 and 2 before the
    # manifest replace (the old manifest stands), 3 after it.
    **{f"save-op-{op}": (lambda p, op=op: crash_save(p, fail_op=op))
       for op in (1, 2, 3)},
    **{f"save-device-{sid}-{which}": (
        lambda p, sid=sid, first=(which == "first"): crash_save(
            p, kill_shard=sid, first=first))
       for sid in range(N_SHARDS) for which in ("first", "second")},
    # Reshard kills: staging, the last op before the flip, the flip,
    # cleanup.
    **{f"reshard-op-{op}": (lambda p, op=op: crashed_reshard(p, op))
       for op in (4, 11, 12, 17)},
}


# -- worker states ------------------------------------------------------------


def worker_session(path, faults, monkeypatch, *, buffer_capacity=None,
                   ingest_kill=None, save_kill=None, checkpoint_kill=None,
                   close=True, wal_ahead=None):
    """A worker directory: save, ingest past it (optionally with a
    scripted kill), optionally a scripted save or checkpoint kill, then
    the coordinator dies (every worker killed) or, with ``close``, stops
    cleanly.  ``wal_ahead`` then moves that shard's WAL header one epoch
    past the manifest."""
    config = make_config() if buffer_capacity is None \
        else make_config(buffer_capacity=buffer_capacity)
    eng = WorkerEngine(config, str(path))
    try:
        eng.extend(workload(21, 200))
        eng.save()
        if ingest_kill is not None:
            sid, script = ingest_kill
            faults.arm(sid, **script)
            eng.pool.kill(sid)
            with pytest.raises(WorkerCrashError):
                eng.extend(workload(23, 150, t0=eng.now), batch_size=16)
        else:
            eng.extend(workload(23, 150, t0=eng.now))
        if save_kill is not None:
            # A failed save resolves nothing on disk (its abort only
            # kills the workers), so it leaves what a coordinator that
            # died with the save would.
            sid, script = save_kill
            faults.arm(sid, **script)
            eng.pool.kill(sid)
            with pytest.raises(WorkerCrashError):
                eng.save()
        if checkpoint_kill is not None:
            faults.arm(checkpoint_kill, kill_at_checkpoint=True)
            eng.pool.kill(checkpoint_kill)
            eng.save()
        if not close:
            eng.pool.kill_all()
    finally:
        eng.close()
    if wal_ahead is not None:
        wal = path / f"shard-{wal_ahead:03d}.wal"
        blob = bytearray(wal.read_bytes())
        struct.pack_into("<Q", blob, 8, eng.epoch + 1)
        wal.write_bytes(bytes(blob))


WORKER_STATES = {
    "worker-acked-wal": {},
    "worker-mid-session-kill": {"buffer_capacity": 4, "close": False},
    "worker-torn-save": {"save_kill": (2, {"kill_at_save": True}),
                         "close": False},
    "worker-save-commit-kill": {"save_kill": (0, {"kill_after_save": True}),
                                "close": False},
    "worker-stale-wal": {"checkpoint_kill": 1, "close": False},
    "worker-ingest-kill": {"ingest_kill": (1, {"kill_after_commit": 2}),
                           "close": False},
    "worker-wal-ahead": {"wal_ahead": 1},
}

STATES = [*IN_PROCESS_STATES, *WORKER_STATES]


def build_state(name, path, monkeypatch):
    if name in IN_PROCESS_STATES:
        IN_PROCESS_STATES[name](path)
    else:
        worker_session(path, WorkerFaults(monkeypatch), monkeypatch,
                       **WORKER_STATES[name])
        monkeypatch.undo()


def sharded_open(path, config=None):
    return ShardedEngine.open(path, config or make_config(),
                              executor=SerialExecutor())


def worker_open(path, config=None):
    return WorkerEngine.open(path, config or make_config())


@pytest.mark.parametrize("state", STATES)
def test_both_openers_execute_the_plan(tmp_path, monkeypatch, capsys,
                                       state):
    path = tmp_path / "state.d"
    build_state(state, path, monkeypatch)
    before = file_bytes(path)
    n_shards = json.loads((path / "engine.json").read_text())["n_shards"]
    config = make_config(n_shards=n_shards)
    plan = plan_recovery(path, config)
    assert plan_recovery(path) == plan
    assert file_bytes(path) == before, "planning wrote to the directory"
    capsys.readouterr()
    refusal = plan.refusal
    assert run_cli(["scrub", str(path)]) == (0 if refusal is None else 1)
    assert plan.render() in capsys.readouterr().out.replace("\n  ", "\n")
    for opener in (sharded_open, worker_open):
        copy = tmp_path / opener.__name__
        shutil.copytree(path, copy)
        expected = dataclasses.replace(plan, directory=str(copy))
        error = refusal if refusal is not None or opener is worker_open \
            else plan.in_process_refusal()
        if error is None:
            with opener(copy, config) as eng:
                assert eng.recovery == expected
            continue
        shard_level = plan.error is None and opener is worker_open
        with pytest.raises(WorkerRecoveryError if shard_level
                           else type(error)) as info:
            opener(copy, config)
        if shard_level:
            assert type(error).__name__ in str(info.value)


# -- the three states the two copies of the rules disagreed on ---------------


def test_torn_save_reopens_at_the_last_save_on_both_backends(tmp_path):
    """Both openers open every shard at the generation the manifest
    records: the 198 entries saved before the torn save are back, none
    of its 20 reports is."""
    path = tmp_path / "index.d"
    saved(path)
    shutil.copytree(path, tmp_path / "oracle.d")
    with sharded_open(tmp_path / "oracle.d") as eng:
        oracle = (eng.epoch, eng.now, sorted(map(repr, eng.scan())))
    assert len(oracle[2]) == 198
    tear_save(path)
    assert [shard.uncommitted is not None
            for shard in plan_recovery(path).shards] == [True, True, False]
    shutil.copytree(path, tmp_path / "copy.d")
    for opener, where in ((sharded_open, path),
                          (worker_open, tmp_path / "copy.d")):
        with opener(where) as eng:
            assert (eng.epoch, eng.now,
                    sorted(map(repr, eng.scan()))) == oracle


def test_mid_session_kill_scrubs_clean_and_plans_replay(
        tmp_path, monkeypatch, capsys):
    path = tmp_path / "index.d"
    build_state("worker-mid-session-kill", path, monkeypatch)
    capsys.readouterr()
    assert run_cli(["scrub", str(path)]) == 0
    out = capsys.readouterr().out
    recorded = json.loads((path / "engine.json").read_text())["shards"]
    for sid in range(N_SHARDS):
        acked = len(read_wal(str(path / f"shard-{sid:03d}.wal")).records)
        assert acked
        assert (f"shard {sid}: open generation {recorded[sid]}, "
                f"replay {acked}") in out
    with worker_open(path) as eng:
        assert [shard.replayed for shard in eng.recovery.shards] == [
            len(read_wal(str(path / f"shard-{sid:03d}.wal")).records)
            for sid in range(N_SHARDS)]


def test_scrub_names_each_openers_action_on_a_torn_worker_save(
        tmp_path, monkeypatch, capsys):
    path = tmp_path / "index.d"
    build_state("worker-torn-save", path, monkeypatch)
    capsys.readouterr()
    assert run_cli(["scrub", str(path)]) == 0
    out = capsys.readouterr().out
    assert "drop uncommitted generation" in out
    assert "ShardedEngine.open() refuses" in out
    assert "WorkerEngine.open() executes this plan" in out
    before = file_bytes(path)
    with pytest.raises(EngineError, match="WorkerEngine and save"):
        sharded_open(path)
    assert file_bytes(path) == before
    with worker_open(path) as eng:
        assert [shard.uncommitted is not None
                for shard in eng.recovery.shards] == [True, True, False]
        assert all(shard.pages == recovery.OPEN
                   and shard.wal == recovery.REPLAY and shard.replayed
                   for shard in eng.recovery.shards)


def test_a_stale_wal_with_records_is_reset_not_replayed(
        tmp_path, monkeypatch, capsys):
    """A worker killed after the flip, before its checkpoint, leaves a
    WAL one epoch behind that still holds records: already committed,
    so nothing replays."""
    path = tmp_path / "index.d"
    build_state("worker-stale-wal", path, monkeypatch)
    assert read_wal(str(path / "shard-001.wal")).records
    shard = plan_recovery(path).shards[1]
    assert (shard.wal, shard.replayed) == (recovery.STALE, 0)
    capsys.readouterr()
    assert run_cli(["scrub", str(path)]) == 0
    assert shard.describe().endswith("reset stale WAL, 0 replayed")
    assert f"shard 1: {shard.describe()}" in capsys.readouterr().out


def test_worker_open_decodes_each_wal_once(tmp_path, monkeypatch):
    """The coordinator plans only the directory; each worker decodes its
    own WAL, once."""
    path = tmp_path / "index.d"
    build_state("worker-mid-session-kill", path, monkeypatch)
    log = tmp_path / "decodes.log"
    read = recovery.read_wal

    def counted(wal_path):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {os.path.basename(wal_path)}\n")
        return read(wal_path)

    monkeypatch.setattr(recovery, "read_wal", counted)
    with worker_open(path):
        pass
    lines = log.read_text().split("\n")[:-1]
    assert sorted(line.split()[1] for line in lines) == [
        f"shard-{sid:03d}.wal" for sid in range(N_SHARDS)]
    assert str(os.getpid()) not in {line.split()[0] for line in lines}
