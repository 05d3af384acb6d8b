"""Crash behaviour: fault-inject a single shard's device — the healthy
siblings reopen cleanly, the failing shard raises a typed error naming
it, and a save torn between shard commits rolls back from the epoch
snapshot or, with that snapshot damaged, is refused untouched."""

import dataclasses
import random

import pytest

from repro.cli import main as run_cli
from repro.core import Rect, SWSTConfig, SWSTIndex
from repro.engine import (EpochTornError, SerialExecutor, ShardedEngine,
                          ShardOpenError)
from repro.storage import InjectedFault, per_path_device_factory


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

        def state(path):
            with ShardedEngine.open(path, config,
                                    executor=SerialExecutor()) as eng:
                return eng.epoch, eng.now, sorted(map(repr, eng.scan()))

        def file_bytes(path):
            return {file: file.read_bytes()
                    for file in path.rglob("*") if file.is_file()}

        def tear_save(path, damage):
            # Crash shard-002's device at its next write: save() commits
            # shards 0 and 1 to the new epoch, then fails on shard 2.
            # The storage layer commits in place, so the only whole copy
            # of the old epoch is ``snapshots/<E>/`` — which ``damage``
            # breaks.
            faulty = dataclasses.replace(
                config,
                device_factory=per_path_device_factory("shard-002",
                                                       fail_write=1))
            eng = ShardedEngine.open(path, faulty,
                                     executor=SerialExecutor())
            try:
                t = eng.now
                for oid in range(20):
                    eng.report(oid, (oid * 13) % 100, (oid * 29) % 100, t)
                if damage:
                    (path / "snapshots" / f"{eng.epoch:06d}"
                     / "shard-001.pages").unlink()
                with pytest.raises(OSError):
                    eng.save()
            finally:
                with pytest.raises(OSError):
                    eng.close()

        # Snapshot intact: the tear reopens as exactly the pre-save state.
        intact = tmp_path / "intact.d"
        build_saved_engine(intact, config)
        oracle = state(intact)
        tear_save(intact, damage=False)
        assert run_cli(["scrub", str(intact)]) == 0
        assert state(intact) == oracle
        # Snapshot damaged from outside: reopen refuses the mix with a
        # typed error naming both shard groups — deterministically, on
        # every attempt, touching no file — and scrub calls it
        # unrecoverable.
        path = tmp_path / "damaged.d"
        build_saved_engine(path, config)
        tear_save(path, damage=True)
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
