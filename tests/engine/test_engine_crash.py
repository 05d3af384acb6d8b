"""Crash behaviour: fault-inject a single shard's device — the healthy
siblings reopen cleanly, the failing shard raises a typed error naming
it, and a save torn between shard commits reopens at the manifest.  A
shard killed mid-session reopens at the generation the manifest records
for it, and no save, reshard or open writes a base or a marker."""

import dataclasses
import json
import random

import pytest

from repro.cli import main as run_cli
from repro.core import Rect, SWSTConfig, SWSTIndex
from repro.engine import (SerialExecutor, ShardedEngine, ShardOpenError,
                          WorkerEngine, plan_recovery, reshard)
from repro.storage import UnsupportedFormatError
from tests.storage.fault import InjectedFault, per_path_device_factory


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


def kill_mid_session(path, config, generation):
    """A mid-session crash on one shard file: the buffer pool evicts
    uncommitted pages into it, then the process dies."""
    small = dataclasses.replace(config, buffer_capacity=2)
    shard = SWSTIndex.open(path, small, generation=generation)
    t = shard.now + 1
    for oid in range(200):
        shard.report(1000 + oid, (oid * 7) % 100, (oid * 11) % 100, t)
    assert shard.stats.physical_writes > 0  # evictions reached the file
    shard.abort()


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
        path = tmp_path / "index.d"
        build_saved_engine(path, config)
        oracle = state(path, config)
        recorded = recorded_gens(path)
        # Crash shard-002's device at its next write: save() commits
        # shards 0 and 1, then fails on shard 2 before the manifest flip.
        faulty = dataclasses.replace(
            config,
            device_factory=per_path_device_factory("shard-002",
                                                   fail_write=1))
        eng = ShardedEngine.open(path, faulty, executor=SerialExecutor())
        try:
            t = eng.now
            for oid in range(20):
                eng.report(oid, (oid * 13) % 100, (oid * 29) % 100, t)
            with pytest.raises(OSError):
                eng.save()
        finally:
            # After a failed save, close releases every shard as a crash
            # would (no flush to fail on the dead device).
            eng.close()
        # The plan names the two commits the flip never reached, and
        # reopening leaves them behind: exactly the pre-save state.
        plan = plan_recovery(path, config)
        assert [shard.uncommitted for shard in plan.shards] == [
            recorded[0] + 1, recorded[1] + 1, None]
        assert recorded_gens(path) == recorded
        assert run_cli(["scrub", str(path)]) == 0
        for _ in range(2):
            assert state(path, config) == oracle

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


def leftovers(path):
    """Files no protocol step may leave: bases, markers, temp files."""
    return sorted(str(file.relative_to(path)) for file in path.rglob("*")
                  if file.name.endswith((".base", ".prepare.json", ".tmp")))


class TestShadowPaging:
    """One committed copy per shard: the page file itself, opened at the
    generation the manifest records."""

    def test_killed_shard_reopens_at_its_recorded_generation(
            self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        build_saved_engine(path, config)
        oracle = state(path, config)
        kill_mid_session(path / "shard-001.pages", config,
                         recorded_gens(path)[1])
        before = file_bytes(path)
        plan = plan_recovery(path, config)
        assert [shard.describe() for shard in plan.shards] == [
            f"open generation {gen}, no WAL" for gen in recorded_gens(path)]
        assert state(path, config) == oracle
        after = file_bytes(path)
        for name in ("shard-000.pages", "shard-002.pages", "engine.json"):
            assert after[path / name] == before[path / name], name
        assert state(path, config) == oracle

    def test_no_protocol_step_leaves_a_base_or_a_marker(self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        build_saved_engine(path, config)
        save_more(path, config)
        reshard(str(path), 4, config)
        with WorkerEngine.open(path, make_config(n_shards=4)) as eng:
            eng.advance_time(eng.now + 1)
            eng.save()
        assert leftovers(path) == []
        assert sorted(file.name for file in path.rglob("*.pages")) == [
            f"shard-{sid:03d}.pages" for sid in range(4)]

    def test_old_format_shard_file_is_refused_typed_and_untouched(
            self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        build_saved_engine(path, config)
        shard = path / "shard-001.pages"
        blob = bytearray(shard.read_bytes())
        blob[:8] = b"SWSTDV2\x00"       # a format-v2 superblock magic
        shard.write_bytes(bytes(blob))
        before = file_bytes(path)
        with pytest.raises(ShardOpenError) as excinfo:
            ShardedEngine.open(path, config, executor=SerialExecutor())
        assert excinfo.value.shard_id == 1
        assert isinstance(excinfo.value.__cause__, UnsupportedFormatError)
        assert run_cli(["scrub", str(path)]) == 1
        assert file_bytes(path) == before
