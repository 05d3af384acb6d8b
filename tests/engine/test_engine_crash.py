"""Crash behaviour: fault-inject a single shard's device — the healthy
siblings reopen cleanly, the failing shard raises a typed error naming
it, and a save torn between shard commits rolls back from the shards'
bases or, with a base at the wrong generation, is refused untouched.
A shard poisoned mid-session restores its own base and nothing else."""

import dataclasses
import json
import random

import pytest

from repro.cli import main as run_cli
from repro.core import Rect, SWSTConfig, SWSTIndex
from repro.engine import (EngineCloseError, EpochTornError, SerialExecutor,
                          ShardedEngine, ShardOpenError)
from repro.storage import StorageError, probe_committed_generation
from tests.storage.fault import (FaultInjectingFileOps, InjectedFault,
                                 crash_devices, per_path_device_factory)


def make_config(n_shards=3, **overrides):
    params = dict(window=200, slide=20, x_partitions=4, y_partitions=4,
                  d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                  page_size=512, n_shards=n_shards)
    params.update(overrides)
    return SWSTConfig(**params)


class R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


def build_saved_engine(path, config):
    rng = random.Random(3)
    t = 0
    reports = []
    for _ in range(300):
        t += rng.choice([0, 1, 1, 2])
        reports.append(R(rng.randrange(25), rng.randrange(100),
                         rng.randrange(100), t))
    with ShardedEngine(config, path, executor=SerialExecutor()) as eng:
        eng.extend(reports)
        eng.save()
        return eng.now


def save_more(path, config):
    """One more epoch: reopen, report 20 objects a tick later, save."""
    with ShardedEngine.open(path, config, executor=SerialExecutor()) as eng:
        t = eng.now + 1
        for oid in range(20):
            eng.report(oid, (oid * 13) % 100, (oid * 29) % 100, t)
        eng.save()


def state(path, config):
    with ShardedEngine.open(path, config, executor=SerialExecutor()) as eng:
        return eng.epoch, eng.now, sorted(map(repr, eng.scan()))


def file_bytes(path):
    return {file: file.read_bytes()
            for file in path.rglob("*") if file.is_file()}


def poison(path, config):
    """A mid-session crash on one shard file: evicted pages stamped past
    its committed generation, which storage recovery refuses."""
    small = dataclasses.replace(config, buffer_capacity=2)
    shard = SWSTIndex.open(path, small)
    t = shard.now + 1
    for oid in range(200):
        shard.report(1000 + oid, (oid * 7) % 100, (oid * 11) % 100, t)
    assert shard.stats.physical_writes > 0  # evictions reached the file
    shard.abort()
    with pytest.raises(StorageError):
        SWSTIndex.open(path, config)


class TestShardOpenFailure:
    def test_failing_shard_raises_typed_error(self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        build_saved_engine(path, config)
        faulty = dataclasses.replace(
            config,
            device_factory=per_path_device_factory(
                "shard-001",
                read_errors={1: InjectedFault("device gone")}))
        with pytest.raises(ShardOpenError) as excinfo:
            ShardedEngine.open(path, faulty, executor=SerialExecutor())
        assert excinfo.value.shard_id == 1
        assert "shard-001" in excinfo.value.path
        assert isinstance(excinfo.value.__cause__, Exception)

    def test_healthy_shards_unaffected_by_siblings_fault(self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        now = build_saved_engine(path, config)
        faulty = dataclasses.replace(
            config,
            device_factory=per_path_device_factory(
                "shard-001",
                read_errors={1: InjectedFault("device gone")}))
        with pytest.raises(ShardOpenError):
            ShardedEngine.open(path, faulty, executor=SerialExecutor())
        # The fault was confined to one device: the full directory still
        # opens once the fault clears, data intact...
        with ShardedEngine.open(path, config,
                                executor=SerialExecutor()) as eng:
            assert len(eng) > 0
            eng.check_integrity()
        # ...and each healthy shard also opens fine on its own while the
        # faulty device is still broken.
        for shard_id in (0, 2):
            shard_path = path / f"shard-{shard_id:03d}.pages"
            with SWSTIndex.open(shard_path, faulty) as shard:
                assert shard.now == now

    def test_fault_between_shard_commits_is_detected_as_torn(self,
                                                             tmp_path):
        config = make_config()

        def tear_save(path, damage=None):
            # Crash shard-002's device at its next write: save() commits
            # shards 0 and 1 to the new epoch, then fails on shard 2.
            # The storage layer commits in place, so the only whole copy
            # of the old epoch is the shards' bases — which ``damage``,
            # run mid-session, breaks.
            faulty = dataclasses.replace(
                config,
                device_factory=per_path_device_factory("shard-002",
                                                       fail_write=1))
            eng = ShardedEngine.open(path, faulty,
                                     executor=SerialExecutor())
            try:
                if damage:
                    damage()
                t = eng.now
                for oid in range(20):
                    eng.report(oid, (oid * 13) % 100, (oid * 29) % 100, t)
                with pytest.raises(OSError):
                    eng.save()
            finally:
                # After a failed save, close releases the shard the save
                # did not reach as a crash would (no flush to fail on).
                eng.close()

        # Bases intact: the tear reopens as exactly the pre-save state.
        intact = tmp_path / "intact.d"
        build_saved_engine(intact, config)
        oracle = state(intact, config)
        tear_save(intact)
        assert run_cli(["scrub", str(intact)]) == 0
        assert state(intact, config) == oracle
        # One base put back from an older epoch (damage from outside):
        # its generation is not the manifest's, so reopen refuses the mix
        # with a typed error naming both shard groups — deterministically,
        # on every attempt, touching no file — and scrub calls it
        # unrecoverable.
        path = tmp_path / "damaged.d"
        build_saved_engine(path, config)
        base = path / "shard-001.pages.base"
        stale = base.read_bytes()
        save_more(path, config)
        tear_save(path, damage=lambda: base.write_bytes(stale))
        before = file_bytes(path)
        for _ in range(2):
            with pytest.raises(EpochTornError) as excinfo:
                ShardedEngine.open(path, config, executor=SerialExecutor())
            assert excinfo.value.committed == [0, 1]
            assert excinfo.value.pending == [2]
        assert run_cli(["scrub", str(path)]) == 1
        assert file_bytes(path) == before

    def test_transient_save_fault_is_retryable_in_process(self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        build_saved_engine(path, config)
        # A *transient* write error (not a crash) fails one save()
        # mid-epoch; the process is still alive, so simply calling
        # save() again completes the epoch and the directory is whole.
        faulty = dataclasses.replace(
            config,
            device_factory=per_path_device_factory(
                "shard-002",
                write_errors={1: InjectedFault("transient write fault")}))
        with ShardedEngine.open(path, faulty,
                                executor=SerialExecutor()) as eng:
            t = eng.now
            for oid in range(20):
                eng.report(oid, (oid * 13) % 100, (oid * 29) % 100, t)
            epoch_before = eng.epoch
            with pytest.raises(OSError):
                eng.save()
            eng.save()
            assert eng.epoch == epoch_before + 1
            expected_len = len(eng)
        with ShardedEngine.open(path, config,
                                executor=SerialExecutor()) as eng:
            eng.check_integrity()
            assert len(eng) == expected_len


def recorded_gens(path):
    return json.loads((path / "engine.json").read_text())["shards"]


def base_valid(path, sid, gen):
    """The base rule, probed from outside: a base holds exactly the
    manifest's generation (a never-committed shard needs none)."""
    return gen == 0 or probe_committed_generation(
        path / f"shard-{sid:03d}.pages.base") == gen


def bases_valid(path):
    return [base_valid(path, sid, gen)
            for sid, gen in enumerate(recorded_gens(path))]


class TestBaseRule:
    """One committed copy per shard, restored only at the manifest's
    generation, and only for the shard that needs it."""

    def test_poisoned_shard_restores_only_its_own_base(self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        build_saved_engine(path, config)
        oracle = state(path, config)
        poison(path / "shard-001.pages", config)
        before = file_bytes(path)
        assert state(path, config) == oracle
        after = file_bytes(path)
        for name in ("shard-000.pages", "shard-002.pages",
                     "shard-000.pages.base", "shard-001.pages.base",
                     "shard-002.pages.base", "engine.json"):
            assert after[path / name] == before[path / name], name
        assert after[path / "shard-001.pages"] \
            != before[path / "shard-001.pages"]
        assert state(path, config) == oracle

    def test_base_at_wrong_generation_is_never_restored(self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        build_saved_engine(path, config)
        base = path / "shard-001.pages.base"
        stale = base.read_bytes()
        save_more(path, config)
        base.write_bytes(stale)
        poison(path / "shard-001.pages", config)
        before = file_bytes(path)
        for _ in range(2):
            with pytest.raises(ShardOpenError) as excinfo:
                ShardedEngine.open(path, config, executor=SerialExecutor())
            assert excinfo.value.shard_id == 1
        assert file_bytes(path) == before

    def test_crash_before_the_base_copy_regains_bases_at_open(self,
                                                             tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        build_saved_engine(path, config)
        devices = []
        faulty = dataclasses.replace(
            config, device_factory=per_path_device_factory(
                "shard", registry=devices))
        # Ops 1-8 are the manifest protocol; op 9 is the first base copy.
        ops = FaultInjectingFileOps(fail_op=9)
        eng = ShardedEngine.open(path, faulty, executor=SerialExecutor(),
                                 file_ops=ops)
        try:
            t = eng.now + 1
            for oid in range(20):
                eng.report(oid, (oid * 13) % 100, (oid * 29) % 100, t)
            with pytest.raises(InjectedFault):
                eng.save()
            expected = (eng.epoch, eng.now, sorted(map(repr, eng.scan())))
        finally:
            crash_devices(devices)
            with pytest.raises(EngineCloseError):
                eng.close()
        assert bases_valid(path) == [False] * 3
        assert state(path, config) == expected
        assert bases_valid(path) == [True] * 3

    def test_directory_without_bases_opens_and_gains_them(self, tmp_path):
        """The layout older code left: a ``snapshots/<E>/`` copy set and
        no bases.  Its page files were closed past the recorded
        generation, so no valid base can be copied from them: ``open()``
        serves the saved state and saves it once, as epoch ``E+1``,
        which writes every base.  ``snapshots/`` is never read or
        touched, and a crash right after that open restores."""
        config = make_config()
        path = tmp_path / "index.d"
        build_saved_engine(path, config)
        epoch, now, scan = state(path, config)
        snapshots = path / "snapshots" / f"{epoch:06d}"
        snapshots.mkdir(parents=True)
        for sid in range(3):
            (path / f"shard-{sid:03d}.pages.base").rename(
                snapshots / f"shard-{sid:03d}.pages")
        copies = file_bytes(path / "snapshots")
        assert bases_valid(path) == [False] * 3
        assert state(path, config) == (epoch + 1, now, scan)
        assert bases_valid(path) == [True] * 3
        poison(path / "shard-001.pages", config)
        assert state(path, config) == (epoch + 1, now, scan)
        assert file_bytes(path / "snapshots") == copies
