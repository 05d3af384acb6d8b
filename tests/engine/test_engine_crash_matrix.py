"""Engine-level crash matrix: kill a save() at every fault point.

The two-phase epoch commit claims the whole directory flips atomically:
a crash at *any* step of ``save()`` must leave a directory that reopens
as exactly the pre-save snapshot (roll back) or exactly the post-save
snapshot (roll forward) — never a mix.  This matrix proves it by
construction:

* two *oracle* directories run the same workload fault-free and stop at
  the pre-save / post-save states;
* the victim directory replays the workload with a
  :class:`FaultInjectingFileOps` that kills the manifest protocol at
  ordinal ``k``, for every ``k`` — plus a simulated process death (all
  page devices flip to ``crashed`` so ``close()`` cannot commit
  anything, only release handles);
* the victim is reopened with healthy ops/devices and its queries are
  compared entry-for-entry against both oracles.

Device-level kills *between* shard commits are the documented
typed-error arm (EpochTornError) and are asserted separately.

Every engine here runs with ``snapshots=False``: this file pins down
the bare 8-op manifest protocol and its one unrecoverable middle.  The
snapshot-enabled protocol (CoW epoch snapshots, no torn state) has its
own matrix in tests/engine/test_reshard_crash_matrix.py.
"""

import dataclasses
import random

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import (EngineError, EpochTornError, SerialExecutor,
                          ShardedEngine)
from repro.storage import (FaultInjectingFileOps, InjectedFault,
                           crash_devices, per_path_device_factory)

N_SHARDS = 3
#: One epoch save = 8 durable file operations: PREPARE (tmp write,
#: replace, dir fsync), FLIP (tmp write, replace, dir fsync), cleanup
#: (marker unlink, dir fsync).
SAVE_FILE_OPS = 8


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


PHASE_1 = lambda: workload(7, 150)  # noqa: E731
PHASE_2 = lambda: workload(8, 100, t0=PHASE_1()[-1].t)  # noqa: E731


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


def build_phase1(path, config):
    """Fault-free phase-1 directory: extend + save (epoch 1)."""
    with ShardedEngine(config, path, executor=SerialExecutor(),
                       snapshots=False) as eng:
        eng.extend(PHASE_1())
        eng.save()


def apply_phase2_and_save(eng):
    eng.extend(PHASE_2())
    eng.save()


def snapshot(path, config):
    """Observable state of a directory: full scan plus query results."""
    with ShardedEngine.open(path, config,
                            executor=SerialExecutor()) as eng:
        q_lo, q_hi = config.queriable_period(eng.now)
        full = eng.query_interval(config.space, q_lo, q_hi)
        sub = eng.query_interval(Rect(10, 10, 60, 60), q_lo, q_hi)
        count, _ = eng.count_interval(config.space, q_lo, q_hi)
        return {
            "now": eng.now,
            "len": len(eng),
            "scan": sorted(entry_key(e) for e in eng.scan()),
            "full": sorted(entry_key(e) for e in full),
            "sub": sorted(entry_key(e) for e in sub),
            "count": count,
        }


@pytest.fixture(scope="module")
def oracles(tmp_path_factory):
    """Pre-save and post-save oracle snapshots (fault-free runs)."""
    config = make_config()
    pre_dir = tmp_path_factory.mktemp("oracle") / "pre.d"
    post_dir = tmp_path_factory.mktemp("oracle") / "post.d"
    build_phase1(pre_dir, config)
    build_phase1(post_dir, config)
    with ShardedEngine.open(post_dir, config, executor=SerialExecutor(),
                            snapshots=False) as eng:
        apply_phase2_and_save(eng)
    return {"pre": snapshot(pre_dir, config),
            "post": snapshot(post_dir, config)}


def crash_save_at(path, config, fail_op):
    """Phase-2 save killed at file op ``fail_op``; simulated process death.

    Returns the FaultInjectingFileOps for protocol introspection.
    """
    build_phase1(path, config)
    devices = []
    faulty = dataclasses.replace(
        config,
        device_factory=per_path_device_factory("shard", registry=devices))
    ops = FaultInjectingFileOps(fail_op=fail_op)
    eng = ShardedEngine.open(path, faulty, executor=SerialExecutor(),
                             file_ops=ops, snapshots=False)
    try:
        with pytest.raises(InjectedFault):
            apply_phase2_and_save(eng)
    finally:
        # Simulated kill: every device dies with the process, so close()
        # cannot commit state the "dead" process never made durable —
        # it only releases OS handles.
        crash_devices(devices)
        try:
            eng.close()
        except (EngineError, OSError):
            pass
    return ops


class TestFileOpKillMatrix:
    """Kill every durable-file step of a save; reopen must be A or B."""

    @pytest.mark.parametrize("fail_op", range(1, SAVE_FILE_OPS + 1))
    def test_reopen_yields_pre_or_post_snapshot(self, tmp_path, oracles,
                                                fail_op):
        config = make_config()
        path = tmp_path / "victim.d"
        crash_save_at(path, config, fail_op)
        observed = snapshot(path, config)
        assert observed in (oracles["pre"], oracles["post"]), (
            f"fault point {fail_op}: reopened state matches neither "
            f"the pre-save nor the post-save oracle")
        # The mapping is deterministic, not merely one-of: ops 1-3 die
        # inside PREPARE (no shard committed -> roll back); from op 4 on
        # every shard committed (roll forward / finished flip).
        expected = "pre" if fail_op <= 3 else "post"
        assert observed == oracles[expected], (
            f"fault point {fail_op}: expected the {expected}-save oracle")

    def test_save_protocol_length_matches_matrix(self, tmp_path):
        """The matrix covers every op: a fault-free save is 8 ops."""
        config = make_config()
        path = tmp_path / "probe.d"
        build_phase1(path, config)
        ops = FaultInjectingFileOps()
        with ShardedEngine.open(path, config, executor=SerialExecutor(),
                                file_ops=ops, snapshots=False) as eng:
            apply_phase2_and_save(eng)
        assert len(ops.ops) == SAVE_FILE_OPS
        assert [name for name, _ in ops.ops] == [
            "write_file", "replace", "fsync_dir",   # PREPARE
            "write_file", "replace", "fsync_dir",   # FLIP
            "unlink", "fsync_dir",                  # cleanup
        ]

    def test_recovery_is_idempotent(self, tmp_path, oracles):
        """Crash, recover, and the directory keeps reopening identically."""
        config = make_config()
        path = tmp_path / "victim.d"
        crash_save_at(path, config, 5)  # dies mid-FLIP
        first = snapshot(path, config)
        second = snapshot(path, config)
        assert first == second == oracles["post"]
        assert not (path / "engine.prepare.json").exists()


class TestDeviceKillDuringCommit:
    """Kills landing *inside* the shard-commit phase."""

    def test_first_shard_kill_rolls_back(self, tmp_path, oracles):
        config = make_config()
        path = tmp_path / "victim.d"
        build_phase1(path, config)
        devices = []
        faulty = dataclasses.replace(
            config,
            device_factory=per_path_device_factory(
                "shard", registry=devices))
        eng = ShardedEngine.open(path, faulty, executor=SerialExecutor(),
                                 snapshots=False)
        try:
            eng.extend(PHASE_2())
            # Arm the fault *after* ingestion so the kill lands on
            # shard-000's first write of the commit phase.  Every device
            # is wrapped so the simulated death below stops *all* shards
            # from committing at close.
            device = devices[0]
            device.fail_write = device.writes_seen + 1
            with pytest.raises(OSError):
                eng.save()
        finally:
            crash_devices(devices)
            try:
                eng.close()
            except (EngineError, OSError):
                pass
        # Shard 0 commits first; its death means *no* shard committed
        # the new epoch, so recovery rolls the marker back.
        assert snapshot(path, config) == oracles["pre"]

    def test_last_shard_kill_is_typed_torn_error(self, tmp_path):
        config = make_config()
        path = tmp_path / "victim.d"
        build_phase1(path, config)
        devices = []
        faulty = dataclasses.replace(
            config,
            device_factory=per_path_device_factory(
                "shard", registry=devices))
        eng = ShardedEngine.open(path, faulty, executor=SerialExecutor(),
                                 snapshots=False)
        try:
            eng.extend(PHASE_2())
            # Arm the fault after ingestion: the kill lands on the last
            # shard's first write of the commit phase, i.e. after its
            # siblings already committed the new epoch in place.
            device = devices[N_SHARDS - 1]
            device.fail_write = device.writes_seen + 1
            with pytest.raises(OSError):
                eng.save()
        finally:
            crash_devices(devices)
            try:
                eng.close()
            except (EngineError, OSError):
                pass
        # Earlier shards committed in place, the last one did not:
        # neither snapshot is whole, and reopen says so — typed, with
        # both shard groups named — instead of serving a mix.
        with pytest.raises(EpochTornError) as excinfo:
            ShardedEngine.open(path, make_config(),
                               executor=SerialExecutor())
        assert excinfo.value.committed == list(range(N_SHARDS - 1))
        assert excinfo.value.pending == [N_SHARDS - 1]
