"""ShardedEngine persistence: directory layout, save/open roundtrip,
manifest validation."""

import json
import os
import random

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import EngineError, SerialExecutor, ShardedEngine
from repro.engine.recovery import RESET, open_shard, plan_shard
from tests.storage.fault import FaultInjectingFileOps


def make_config(n_shards=3, **overrides):
    params = dict(window=200, slide=20, x_partitions=4, y_partitions=4,
                  d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                  page_size=512, n_shards=n_shards)
    params.update(overrides)
    return SWSTConfig(**params)


class R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


def random_reports(count, seed=1):
    rng = random.Random(seed)
    t = 0
    reports = []
    for _ in range(count):
        t += rng.choice([0, 1, 1, 2])
        reports.append(R(rng.randrange(25), rng.randrange(100),
                         rng.randrange(100), t))
    return reports


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


class TestDirectoryLayout:
    def test_build_creates_manifest_and_shard_files(self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        with ShardedEngine(config, path, executor=SerialExecutor()) as eng:
            eng.extend(random_reports(100))
            eng.save()
        names = sorted(os.listdir(path))
        # One page file per shard and nothing else: no base copy, no
        # save marker.
        assert names == ["engine.json", "shard-000.pages",
                         "shard-001.pages", "shard-002.pages"]
        manifest = json.loads((path / "engine.json").read_text())
        assert manifest["format"] == 2
        assert manifest["n_shards"] == 3
        assert manifest["epoch"] == 1  # one save() = one epoch commit
        assert manifest["generation"] == 0  # shard files at the root
        # One committed header generation recorded per shard.
        assert len(manifest["shards"]) == 3
        assert all(isinstance(g, int) and g >= 1
                   for g in manifest["shards"])

    def test_engine_path_must_be_directory(self, tmp_path):
        file_path = tmp_path / "plain.pages"
        file_path.write_text("not a directory")
        with pytest.raises(EngineError):
            ShardedEngine(make_config(), file_path,
                          executor=SerialExecutor())


class TestRoundtrip:
    def test_save_open_preserves_everything(self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        reports = random_reports(400)
        with ShardedEngine(config, path, executor=SerialExecutor()) as eng:
            eng.extend(reports)
            eng.set_retention(3, 40)
            expected_entries = sorted(entry_key(e) for e in eng.scan())
            expected_current = eng.current_objects()
            expected_now = eng.now
            eng.save()
        with ShardedEngine.open(path, config,
                                executor=SerialExecutor()) as eng:
            assert eng.now == expected_now
            assert eng.current_objects() == expected_current
            assert sorted(entry_key(e) for e in eng.scan()) == \
                expected_entries
            assert eng.retention_of(3) == 40
            eng.check_integrity()
            result = eng.query_interval(config.space, 0, expected_now + 1)
            stored = set(expected_entries)
            assert result.entries
            assert all(entry_key(e) in stored for e in result)

    def test_current_mirror_rebuilt_on_open(self, tmp_path):
        config = make_config()
        path = tmp_path / "index.d"
        with ShardedEngine(config, path, executor=SerialExecutor()) as eng:
            eng.report(1, 5, 5, 0)
            eng.report(1, 95, 95, 10)
            eng.save()
            expected_mirror = dict(eng._cur)
        with ShardedEngine.open(path, config,
                                executor=SerialExecutor()) as eng:
            assert eng._cur == expected_mirror
            # The reopened engine can keep running the current protocol.
            eng.report(1, 50, 50, 20)
            assert eng.current_objects() == {1: (50, 50, 20)}

    def test_shard_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "index.d"
        with ShardedEngine(make_config(n_shards=3), path,
                           executor=SerialExecutor()) as eng:
            eng.save()
        with pytest.raises(EngineError, match="n_shards"):
            ShardedEngine.open(path, make_config(n_shards=2),
                               executor=SerialExecutor())
        with pytest.raises(EngineError, match="n_shards"):
            ShardedEngine(make_config(n_shards=2), path,
                          executor=SerialExecutor())

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(EngineError, match="manifest"):
            ShardedEngine.open(tmp_path / "nothing.d", make_config())


class TestOpenShard:
    def test_garbage_never_committed_file_is_reset_through_file_ops(
            self, tmp_path):
        """A shard the manifest records at generation 0 is reset to a
        fresh file, whatever its file holds — and the seam sees the
        truncation, like every other file change a shard open makes."""
        path = tmp_path / "shard-000.pages"
        path.write_bytes(b"not a page file" * 64)
        ops = FaultInjectingFileOps()
        plan, _ = plan_shard(str(tmp_path), 0, 0, 0)
        assert plan.pages == RESET
        shard = open_shard(plan, make_config(n_shards=1), ops, str(tmp_path))
        try:
            assert len(shard) == 0
        finally:
            shard.close()
        assert ops.ops == [("truncate_file", str(path))]
