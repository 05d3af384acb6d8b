"""Directory-level scrub: manifest validation, per-shard sweeps at the
recorded generation, generation cross-checks, and staged debris."""

import json
import random

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import (EngineError, SerialExecutor, ShardedEngine,
                          scrub_directory)
from repro.storage import FilePageDevice, UnsupportedFormatError
from tests.storage.fault import FaultInjectingPageDevice

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


@pytest.fixture
def saved_dir(tmp_path):
    path = tmp_path / "index.d"
    rng = random.Random(21)
    t = 0
    reports = []
    for _ in range(200):
        t += rng.choice([0, 1, 1, 2])
        reports.append(R(rng.randrange(25), rng.randrange(100),
                         rng.randrange(100), t))
    with ShardedEngine(make_config(), path,
                       executor=SerialExecutor()) as eng:
        eng.extend(reports)
        eng.save()
    return path


class TestCleanDirectory:
    def test_clean_directory_is_ok(self, saved_dir):
        report = scrub_directory(saved_dir)
        assert report.ok
        assert report.manifest_ok
        assert report.problems == []
        assert len(report.reports) == N_SHARDS
        assert all(shard.ok for shard in report.reports)
        assert "directory verdict: clean" in report.render()

    def test_render_names_every_shard_file(self, saved_dir):
        rendered = scrub_directory(saved_dir).render()
        for shard_id in range(N_SHARDS):
            assert f"shard-{shard_id:03d}.pages" in rendered


class TestProblems:
    def test_bit_flip_in_one_shard_fails_the_directory(self, saved_dir):
        shard = saved_dir / "shard-001.pages"
        device = FaultInjectingPageDevice(FilePageDevice(shard, 512))
        device.flip_stored_bit(device.page_count() - 1, 9, 0x20)
        device.close()
        report = scrub_directory(saved_dir)
        assert not report.ok
        assert report.manifest_ok  # manifest itself is intact
        # The sweep still covers every shard; exactly one is corrupt.
        assert len(report.reports) == N_SHARDS
        assert sum(1 for shard in report.reports if not shard.ok) == 1
        assert "CORRUPT" in report.render()

    def test_missing_shard_file_is_reported(self, saved_dir):
        (saved_dir / "shard-002.pages").unlink()
        report = scrub_directory(saved_dir)
        assert not report.ok
        assert any("shard-002.pages is missing" in problem
                   for problem in report.problems)
        # The surviving shards were still swept.
        assert len(report.reports) == N_SHARDS - 1

    def test_unreadable_manifest_is_reported(self, saved_dir):
        (saved_dir / "engine.json").write_text("{not json")
        report = scrub_directory(saved_dir)
        assert not report.manifest_ok
        assert not report.ok
        # Without a manifest the sweep falls back to globbing: the
        # shard files themselves still get verified.
        assert len(report.reports) == N_SHARDS

    @pytest.mark.parametrize("rewrite, cause", [
        (lambda manifest: {"format": 1, "n_shards": N_SHARDS},
         UnsupportedFormatError),
        (lambda manifest: {key: value for key, value in manifest.items()
                           if key != "generation"},
         type(None)),
    ], ids=["retired-format", "no-generation"])
    def test_retired_manifest_shapes_are_refused(self, saved_dir, rewrite,
                                                 cause):
        manifest_path = saved_dir / "engine.json"
        manifest_path.write_text(
            json.dumps(rewrite(json.loads(manifest_path.read_text()))))
        before = manifest_path.read_bytes()
        report = scrub_directory(saved_dir)
        assert not report.manifest_ok
        assert not report.ok
        with pytest.raises(EngineError) as excinfo:
            ShardedEngine.open(saved_dir, make_config(),
                               executor=SerialExecutor())
        assert type(excinfo.value.__cause__) is cause
        assert manifest_path.read_bytes() == before

    def test_shard_behind_manifest_generation(self, saved_dir):
        manifest_path = saved_dir / "engine.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"] = [gen + 10 for gen in manifest["shards"]]
        manifest_path.write_text(json.dumps(manifest) + "\n")
        report = scrub_directory(saved_dir)
        assert not report.ok
        assert all("behind the manifest" in problem
                   for problem in report.problems)
        assert len(report.problems) == N_SHARDS


def tear_save(path):
    """Crash shard-002's device mid-save, leaving a torn epoch behind."""
    import dataclasses

    from tests.storage.fault import per_path_device_factory

    faulty = dataclasses.replace(
        make_config(),
        device_factory=per_path_device_factory("shard-002", fail_write=1))
    eng = ShardedEngine.open(path, faulty, executor=SerialExecutor())
    try:
        t = eng.now
        for oid in range(20):
            eng.report(oid, (oid * 13) % 100, (oid * 29) % 100, t)
        with pytest.raises(OSError):
            eng.save()
    finally:
        # After a failed save, close releases the shard the save did not
        # reach as a crash would (no flush to fail on the dead device).
        eng.close()


class TestTornEpochClassification:
    def test_torn_epoch_is_recoverable_at_the_manifest(self, saved_dir):
        manifest = json.loads((saved_dir / "engine.json").read_text())
        tear_save(saved_dir)
        report = scrub_directory(saved_dir)
        # Every shard still holds the generation the manifest records:
        # the tear is a clean scrub whose plan names the two commits the
        # flip never reached, swept at the recorded generations.
        assert report.ok
        assert [shard.uncommitted for shard in report.plan.shards] == [
            manifest["shards"][0] + 1, manifest["shards"][1] + 1, None]
        assert [shard.generation for shard in report.reports] \
            == manifest["shards"]
        assert "drop uncommitted generation" in report.render()
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            eng.check_integrity()
            assert eng.epoch == manifest["epoch"]


class TestGenerations:
    def test_resharded_directory_scrubs_clean(self, saved_dir):
        from repro.engine import reshard

        reshard(saved_dir, 5, make_config())
        report = scrub_directory(saved_dir)
        assert report.ok
        assert len(report.reports) == 5
        assert "gen-001" in report.reports[0].path

    def test_staged_generation_debris_is_a_note(self, saved_dir):
        (saved_dir / "gen-007").mkdir()
        report = scrub_directory(saved_dir)
        assert report.ok
        assert any("gen-007" in note and "crashed reshard" in note
                   for note in report.notes)
