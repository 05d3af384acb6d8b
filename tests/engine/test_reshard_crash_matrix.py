"""Reshard and save crash matrices.

Two atomicity claims, proved op-by-op:

* ``reshard()`` flips a directory to a new shard count in a single
  manifest write.  A :class:`FaultInjectingFileOps` kills the protocol
  at every file-operation ordinal; the reopened directory must be
  *exactly* the old generation (before the manifest replace) or
  *exactly* the new one (from the replace on) — same data either way,
  never a mix, never an error.

* ``save()`` has **no** unrecoverable window: every shard's page file
  keeps the generation the manifest records (or, before a directory's
  first save, the empty state) intact until the manifest flip names a
  newer one, so recovery opens every shard there.  Device kills at
  *every* shard commit — including the mixed middle — must reopen as
  exactly the pre-save state, and a file-op kill matrix over the
  protocol must land on the pre/post boundary deterministically.
"""

import dataclasses
import json
import random

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import (EngineError, SerialExecutor, ShardedEngine,
                          reshard)
from repro.engine.scrub import scrub_directory
from tests.storage.fault import (FaultInjectingFileOps, InjectedFault,
                                 crash_devices, per_path_device_factory)

OLD_SHARDS = 3
NEW_SHARDS = 5
#: One reshard of a 3-shard directory to 5 shards = 17 durable file
#: operations (stage 6, build 4, flip 3, cleanup 4 for the three old
#: page files); pinned by the probe below.
RESHARD_FILE_OPS = 17
#: The manifest replace — the single commit point — is op 12 of 17.
RESHARD_FLIP_OP = 12
#: A 3-shard save = the 3-op manifest FLIP; the shard commits before it
#: are page-file writes, not file ops.
SAVE_FILE_OPS = 3
#: Ordinal of the FLIP's manifest replace in the op stream.
SAVE_FLIP_OP = 2
#: Last file op a kill can land on with the old manifest still in
#: place (the replace itself dies before its syscall); a kill from the
#: following directory fsync on finds the new manifest.
SAVE_COMMIT_BOUNDARY = SAVE_FLIP_OP


def make_config(n_shards=OLD_SHARDS, **overrides):
    params = dict(window=200, slide=20, x_partitions=4, y_partitions=4,
                  d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                  page_size=512, n_shards=n_shards)
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


PHASE_1 = lambda: workload(11, 150)  # noqa: E731
PHASE_2 = lambda: workload(12, 100, t0=PHASE_1()[-1].t)  # noqa: E731


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


def build_phase1(path, config):
    """Fault-free phase-1 directory: extend + save (epoch 1)."""
    with ShardedEngine(config, path, executor=SerialExecutor()) as eng:
        eng.extend(PHASE_1())
        eng.save()


def snapshot(path, n_shards):
    """Observable state of a directory: full scan plus query results."""
    config = make_config(n_shards)
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


def read_manifest(path):
    return json.loads((path / "engine.json").read_text())


class TestReshardFileOpKillMatrix:
    """Kill reshard() at every durable file op; reopen must be a whole
    old or whole new generation with identical data."""

    @pytest.fixture(scope="class")
    def oracle(self, tmp_path_factory):
        """Query-state oracle (identical for both generations) plus the
        exact old/new manifests a crash must resolve to."""
        path = tmp_path_factory.mktemp("oracle") / "idx.d"
        build_phase1(path, make_config())
        old_manifest = read_manifest(path)
        state = snapshot(path, OLD_SHARDS)
        reshard(path, NEW_SHARDS, make_config())
        new_manifest = read_manifest(path)
        assert snapshot(path, NEW_SHARDS) == state
        return {"state": state, "old": old_manifest, "new": new_manifest}

    @pytest.mark.parametrize("fail_op", range(1, RESHARD_FILE_OPS + 1))
    def test_reopen_is_whole_old_or_new_generation(self, tmp_path, oracle,
                                                   fail_op):
        path = tmp_path / "victim.d"
        build_phase1(path, make_config())
        ops = FaultInjectingFileOps(fail_op=fail_op)
        with pytest.raises(InjectedFault):
            reshard(path, NEW_SHARDS, make_config(), file_ops=ops)
        manifest = read_manifest(path)
        # Deterministic boundary: the single manifest replace commits.
        arm = "old" if fail_op <= RESHARD_FLIP_OP else "new"
        assert manifest == oracle[arm], (
            f"fault point {fail_op}: manifest matches neither "
            f"generation exactly")
        assert snapshot(path, manifest["n_shards"]) == oracle["state"], (
            f"fault point {fail_op}: reopened data diverged")

    def test_protocol_length_matches_matrix(self, tmp_path):
        """The matrix covers every op: a fault-free reshard is 17 ops,
        with the manifest replace at ordinal 12."""
        path = tmp_path / "probe.d"
        build_phase1(path, make_config())
        ops = FaultInjectingFileOps()
        reshard(path, NEW_SHARDS, make_config(), file_ops=ops)
        names = [name for name, _ in ops.ops]
        assert len(names) == RESHARD_FILE_OPS
        assert names == (
            ["mkdir", "fsync_dir"]                    # STAGE: gen dir
            + ["copy_file"] * OLD_SHARDS + ["fsync_dir"]
            + ["unlink"] * OLD_SHARDS + ["fsync_dir"]  # BUILD: drop copies
            + ["write_file", "replace", "fsync_dir"]   # FLIP: manifest
            + ["unlink"] * OLD_SHARDS + ["fsync_dir"])  # CLEANUP
        assert names[RESHARD_FLIP_OP - 1] == "replace"
        # The only copies are the stage's read snapshots; the old
        # generation's files are gone afterwards.
        assert [op_path.rsplit("/", 1)[1] for name, op_path in ops.ops
                if name == "copy_file"] \
            == [f"source-{sid:03d}.pages" for sid in range(OLD_SHARDS)]
        assert sorted(file.name for file in path.iterdir()) \
            == ["engine.json", "gen-001"]
        assert sorted(file.name for file in (path / "gen-001").iterdir()) \
            == [f"shard-{sid:03d}.pages" for sid in range(NEW_SHARDS)]

    def test_crashed_reshard_then_retry_succeeds(self, tmp_path, oracle):
        """Debris from a mid-build crash never blocks the next attempt."""
        path = tmp_path / "victim.d"
        build_phase1(path, make_config())
        with pytest.raises(InjectedFault):
            reshard(path, NEW_SHARDS, make_config(),
                    file_ops=FaultInjectingFileOps(fail_op=4))
        report = reshard(path, NEW_SHARDS, make_config())
        assert report.new_n_shards == NEW_SHARDS
        assert snapshot(path, NEW_SHARDS) == oracle["state"]

    def test_reshard_from_nonzero_generation(self, tmp_path, oracle):
        """gen-1 -> gen-2 keeps the same crash-free equivalence."""
        path = tmp_path / "victim.d"
        build_phase1(path, make_config())
        reshard(path, NEW_SHARDS, make_config())
        report = reshard(path, 2, make_config())
        assert report.generation == 2
        assert snapshot(path, 2) == oracle["state"]
        assert not (path / "gen-001").exists()


@pytest.fixture(scope="module")
def save_oracles(tmp_path_factory):
    """Never-saved (epoch 0), pre-save and post-save oracle snapshots
    (fault-free runs)."""
    empty_dir = tmp_path_factory.mktemp("oracle") / "empty.d"
    pre_dir = tmp_path_factory.mktemp("oracle") / "pre.d"
    post_dir = tmp_path_factory.mktemp("oracle") / "post.d"
    ShardedEngine(make_config(), empty_dir, executor=SerialExecutor()).close()
    build_phase1(pre_dir, make_config())
    build_phase1(post_dir, make_config())
    with ShardedEngine.open(post_dir, make_config(),
                            executor=SerialExecutor()) as eng:
        eng.extend(PHASE_2())
        eng.save()
    return {"empty": snapshot(empty_dir, OLD_SHARDS),
            "pre": snapshot(pre_dir, OLD_SHARDS),
            "post": snapshot(post_dir, OLD_SHARDS)}


class TestSaveDeviceKillMatrix:
    """Device kills at every shard commit of a save: always a clean
    rollback — for a directory's first save too, where the state rolled
    back to is "empty"."""

    @pytest.mark.parametrize("first_save", [False, True],
                             ids=["second-save", "first-save"])
    @pytest.mark.parametrize("kill_shard", range(OLD_SHARDS))
    def test_kill_at_shard_commit_rolls_back(self, tmp_path, save_oracles,
                                             kill_shard, first_save):
        path = tmp_path / "victim.d"
        devices = []
        faulty = dataclasses.replace(
            make_config(),
            device_factory=per_path_device_factory(
                "shard", registry=devices))
        if first_save:
            phase, pre, post = PHASE_1, "empty", "pre"
            eng = ShardedEngine(faulty, path, executor=SerialExecutor())
        else:
            phase, pre, post = PHASE_2, "pre", "post"
            build_phase1(path, make_config())
            eng = ShardedEngine.open(path, faulty, executor=SerialExecutor())
        try:
            eng.extend(phase())
            # Arm after ingestion so the kill lands on this shard's
            # first write of the commit phase — i.e. after every
            # earlier shard already committed its new generation.
            device = devices[kill_shard]
            device.fail_write = device.writes_seen + 1
            with pytest.raises(OSError):
                eng.save()
        finally:
            crash_devices(devices)
            try:
                eng.close()
            except (EngineError, OSError):
                pass
        # Every shard reopens at the generation the old manifest records
        # — or, before any save, the empty state — so every arm,
        # including the mixed middle, is a rollback, and scrub says so.
        assert scrub_directory(path).ok
        first = snapshot(path, OLD_SHARDS)
        assert first == save_oracles[pre], (
            f"kill at shard {kill_shard}: reopen is not the pre-save "
            f"state")
        # Recovery is idempotent and leaves a directory that can save.
        assert snapshot(path, OLD_SHARDS) == first
        with ShardedEngine.open(path, make_config(),
                                executor=SerialExecutor()) as eng:
            eng.extend(phase())
            eng.save()
        assert snapshot(path, OLD_SHARDS) == save_oracles[post]


class TestSaveFileOpKillMatrix:
    """File-op kills over the save protocol."""

    @staticmethod
    def crash_save_at(path, fail_op):
        """Phase-2 save killed at file op ``fail_op``; process death."""
        build_phase1(path, make_config())
        devices = []
        faulty = dataclasses.replace(
            make_config(),
            device_factory=per_path_device_factory(
                "shard", registry=devices))
        ops = FaultInjectingFileOps(fail_op=fail_op)
        eng = ShardedEngine.open(path, faulty, executor=SerialExecutor(),
                                 file_ops=ops)
        try:
            with pytest.raises(InjectedFault):
                eng.extend(PHASE_2())
                eng.save()
        finally:
            crash_devices(devices)
            try:
                eng.close()
            except (EngineError, OSError):
                pass

    @pytest.mark.parametrize("fail_op", range(1, SAVE_FILE_OPS + 1))
    def test_reopen_yields_pre_or_post_snapshot(self, tmp_path,
                                                save_oracles, fail_op):
        path = tmp_path / "victim.d"
        self.crash_save_at(path, fail_op)
        expected = "pre" if fail_op <= SAVE_COMMIT_BOUNDARY else "post"
        assert snapshot(path, OLD_SHARDS) == save_oracles[expected], (
            f"fault point {fail_op}: expected the {expected}-save "
            f"oracle")

    def test_recovery_is_idempotent(self, tmp_path, save_oracles):
        """Crash, recover, and the directory keeps reopening identically."""
        path = tmp_path / "victim.d"
        self.crash_save_at(path, SAVE_FLIP_OP)  # dies mid-FLIP
        first = snapshot(path, OLD_SHARDS)
        assert first == snapshot(path, OLD_SHARDS) == save_oracles["pre"]
        # Only the dead FLIP's temp file is left over: no marker, no
        # base, nothing a reopen has to resolve.
        assert sorted(file.name for file in path.iterdir()) == [
            "engine.json", "engine.json.tmp",
            *(f"shard-{sid:03d}.pages" for sid in range(OLD_SHARDS))]

    def test_protocol_length_matches_matrix(self, tmp_path):
        """The manifest FLIP alone: 3 ops, no marker, no copies."""
        path = tmp_path / "probe.d"
        build_phase1(path, make_config())
        ops = FaultInjectingFileOps()
        with ShardedEngine.open(path, make_config(),
                                executor=SerialExecutor(),
                                file_ops=ops) as eng:
            eng.extend(PHASE_2())
            eng.save()
        names = [name for name, _ in ops.ops]
        assert len(names) == SAVE_FILE_OPS
        assert names == ["write_file", "replace", "fsync_dir"]  # FLIP
        assert names[SAVE_FLIP_OP - 1] == "replace"
