"""Worker-kill crash matrix: SIGKILL the pool at scripted points.

The warm-worker durability claim: every *acknowledged* mutation
survives any worker death, because acknowledgement happens only after
the WAL group commit, and a restarted worker replays its log (plus the
coordinator re-delivers exactly the non-durable suffix of a batch whose
acknowledgement the crash swallowed).  The matrix proves it against a
no-crash oracle:

* the oracle runs the whole workload fault-free;
* each victim runs the same workload with a scripted SIGKILL —
  before/after the WAL commit, after apply, during restart *replay*,
  during ``save()``, during the post-save checkpoint, or via an
  injected WAL-device failure — on a chosen shard, armed through
  :class:`~tests.engine.worker_faults.WorkerFaults` (the worker runs
  the shipped code; the kill wraps the function it sits in);
* the driver re-drives a chunk whose dispatch crashed (re-reporting a
  position at the same timestamp is a correction, not a new entry);
* the victim's final state, its reopened state, and a
  ``ShardedEngine`` interop open of the saved directory must all equal
  the oracle exactly.

The workload deliberately crosses ``w_max`` window boundaries so kills
land around slides as well as plain ingest.
"""

import dataclasses
import json
import random

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import (EngineError, SerialExecutor, ShardedEngine,
                          WorkerCrashError, WorkerEngine)

from .worker_faults import WorkerFaults

N_SHARDS = 3


def make_config():
    return SWSTConfig(window=100, slide=20, x_partitions=4, y_partitions=4,
                      d_max=40, duration_interval=10,
                      space=Rect(0, 0, 99, 99), page_size=512,
                      n_shards=N_SHARDS)


class R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


def workload(seed, count, t0=0):
    rng = random.Random(seed)
    t = t0
    reports = []
    for _ in range(count):
        t += rng.choice([0, 1, 1, 2])
        reports.append(R(rng.randrange(15), rng.randrange(100),
                         rng.randrange(100), t))
    return reports


#: Three chunked phases; w_max = 119, so the stream crosses two window
#: boundaries and every victim sees at least one slide.
PHASE_1 = lambda: workload(11, 120)            # noqa: E731
PHASE_2 = lambda: workload(12, 120, t0=130)    # noqa: E731
PHASE_3 = lambda: workload(13, 80, t0=260)     # noqa: E731

CHUNK = 16


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


def state_of(engine):
    config = engine.config
    q_lo, q_hi = config.queriable_period(engine.now)
    full = engine.query_interval(config.space, q_lo, q_hi)
    sub = engine.query_interval(Rect(20, 20, 70, 70), q_lo, q_hi)
    return {
        "now": engine.now,
        "len": len(engine),
        "scan": sorted(entry_key(e) for e in engine.scan()),
        "full": sorted(entry_key(e) for e in full),
        "sub": sorted(entry_key(e) for e in sub),
    }


def drive(engine, reports, max_crashes=8):
    """Feed ``reports`` chunk by chunk, re-driving crashed chunks.

    After a crash the engine resynchronises; everything the crashed
    dispatch acknowledged (or re-delivered on restart) is already in,
    so the re-drive submits only the chunk's tail from the settled
    clock on.  Reports exactly *at* the clock are re-sent — a
    re-report at the same timestamp is a position correction, which
    makes the overlap idempotent.
    """
    crashes = 0
    sent = 0
    while sent < len(reports):
        chunk = [r for r in reports[sent:sent + CHUNK]
                 if r.t >= engine.now]
        try:
            if chunk:
                engine.extend(chunk, batch_size=CHUNK)
            sent += CHUNK
        except WorkerCrashError:
            crashes += 1
            if crashes > max_crashes:
                raise
            try:
                # Settle: resync the mirror and raise the coordinator
                # clock to whatever the restarted workers replayed, so
                # the next filter drops everything already applied.
                engine.advance_time(engine.now)
            except WorkerCrashError:
                crashes += 1
    return crashes


@pytest.fixture
def faults(monkeypatch):
    return WorkerFaults(monkeypatch)


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """Fault-free run: state after phase 2 + save, and after phase 3."""
    config = make_config()
    path = str(tmp_path_factory.mktemp("oracle") / "oracle.d")
    with WorkerEngine(config, path) as eng:
        drive(eng, PHASE_1())
        drive(eng, PHASE_2())
        eng.save()
        saved = state_of(eng)
        drive(eng, PHASE_3())
        final = state_of(eng)
    return {"saved": saved, "final": final}


def run_victim(path, faults, arms_at):
    """Run the full workload; ``arms_at[phase]`` arms (shard, script)
    pairs by killing the shard so its respawn takes the script.

    Returns (engine-final-state, crash-count).  The engine is closed.
    """
    config = make_config()
    crashes = 0

    def arm(phase_index):
        for sid, script in arms_at.get(phase_index, ()):
            faults.arm(sid, **script)
            eng.pool.kill(sid)

    with WorkerEngine(config, path) as eng:
        for phase_index, phase in enumerate((PHASE_1, PHASE_2)):
            arm(phase_index)
            crashes += drive(eng, phase())
        eng.save()
        arm(2)
        crashes += drive(eng, PHASE_3())
        final = state_of(eng)
    return final, crashes


def spawn_deltas(engine, before):
    """Launches per shard since ``before`` (a ``spawn_counts`` copy)."""
    return [now - then for now, then in zip(engine.pool.spawn_counts,
                                            before)]


def reopened_state(path):
    config = make_config()
    with WorkerEngine.open(path, config) as eng:
        return state_of(eng)


INGEST_KILLS = [
    {"kill_before_commit": 2},   # batch lost pre-fsync: full redelivery
    {"kill_after_commit": 2},    # durable but unapplied: replay applies
    {"kill_after_apply": 2},     # applied but unacknowledged
    {"kill_before_commit": 1},   # first post-restart batch
    {"kill_after_apply": 1},
]


class TestIngestKillMatrix:
    @pytest.mark.parametrize("spec", INGEST_KILLS,
                             ids=[f"{k}={v}" for s in INGEST_KILLS
                                  for k, v in s.items()])
    @pytest.mark.parametrize("victim_shard", [0, 1])
    def test_kill_during_ingest_converges_to_oracle(
            self, tmp_path, oracle, faults, spec, victim_shard):
        path = str(tmp_path / "victim.d")
        final, crashes = run_victim(
            path, faults, {1: [(victim_shard, spec)]})
        assert crashes >= 1, "the scripted kill never fired"
        assert final == oracle["final"]
        assert reopened_state(path) == oracle["final"]

    def test_kill_during_slide_phase(self, tmp_path, oracle, faults):
        # Phase 3 starts past the second w_max boundary: the kill lands
        # on a batch that carries a window slide.
        path = str(tmp_path / "victim.d")
        final, crashes = run_victim(
            path, faults, {2: [(1, {"kill_after_commit": 1})]})
        assert crashes >= 1
        assert final == oracle["final"]
        assert reopened_state(path) == oracle["final"]

    def test_two_shards_killed_in_the_same_phase(self, tmp_path, oracle,
                                                 faults):
        path = str(tmp_path / "victim.d")
        final, crashes = run_victim(
            path, faults, {1: [(0, {"kill_after_apply": 1}),
                               (2, {"kill_before_commit": 2})]})
        assert crashes >= 2
        assert final == oracle["final"]


class TestReplayKill:
    def test_kill_during_restart_replay(self, tmp_path, oracle, faults):
        """The restart itself dies mid-WAL-replay; the supervisor's
        retry spawns again and the second recovery must still be exact."""
        config = make_config()
        path = str(tmp_path / "victim.d")
        with WorkerEngine(config, path) as eng:
            drive(eng, PHASE_1())
            drive(eng, PHASE_2())
            # Shard 1 holds a long epoch-0 WAL; kill it, then make its
            # *next* incarnation die after replaying one record.
            faults.arm(1, kill_at_replay=1)
            eng.pool.kill(1)
            eng.save()
            drive(eng, PHASE_3())
            assert eng.pool.spawn_counts[1] >= 3  # initial + 2 restarts
            assert state_of(eng) == oracle["final"]


class TestSaveKills:
    def test_kill_during_worker_save_then_retry(self, tmp_path, oracle,
                                                faults):
        config = make_config()
        path = str(tmp_path / "victim.d")
        with WorkerEngine(config, path) as eng:
            drive(eng, PHASE_1())
            drive(eng, PHASE_2())
            faults.arm(1, kill_at_save=True)
            eng.pool.kill(1)
            spawns = list(eng.pool.spawn_counts)
            with pytest.raises(WorkerCrashError):
                eng.save()
            # The failed save healed the directory; state is intact and
            # a retried save commits.
            assert state_of(eng) == oracle["saved"]
            # The armed incarnation died in its save: shard 1 came back
            # twice, its siblings once (the abort kills every worker).
            assert spawn_deltas(eng, spawns) == [1, 2, 1]
            eng.save()
            assert state_of(eng) == oracle["saved"]
            drive(eng, PHASE_3())
            assert state_of(eng) == oracle["final"]
        assert reopened_state(path) == oracle["final"]

    def test_kill_after_worker_save_commit(self, tmp_path, oracle, faults):
        config = make_config()
        path = str(tmp_path / "victim.d")
        with WorkerEngine(config, path) as eng:
            drive(eng, PHASE_1())
            drive(eng, PHASE_2())
            faults.arm(0, kill_after_save=True)
            eng.pool.kill(0)
            spawns = list(eng.pool.spawn_counts)
            with pytest.raises(WorkerCrashError):
                eng.save()
            assert state_of(eng) == oracle["saved"]
            assert spawn_deltas(eng, spawns) == [2, 1, 1]
            eng.save()
            drive(eng, PHASE_3())
            assert state_of(eng) == oracle["final"]

    def test_kill_during_checkpoint_is_absorbed(self, tmp_path, oracle,
                                                faults):
        """The epoch is committed before checkpoints run; a checkpoint
        kill costs a restart, never data."""
        config = make_config()
        path = str(tmp_path / "victim.d")
        with WorkerEngine(config, path) as eng:
            drive(eng, PHASE_1())
            drive(eng, PHASE_2())
            faults.arm(1, kill_at_checkpoint=True)
            eng.pool.kill(1)
            spawns = list(eng.pool.spawn_counts)
            eng.save()  # checkpoint failures are absorbed
            assert state_of(eng) == oracle["saved"]
            # The armed incarnation died at its checkpoint and restarted.
            assert spawn_deltas(eng, spawns) == [0, 2, 0]
            drive(eng, PHASE_3())
            assert state_of(eng) == oracle["final"]
        assert reopened_state(path) == oracle["final"]


class TestWalDeviceFaults:
    def test_failed_wal_commit_fsync_is_a_clean_crash(self, tmp_path,
                                                      oracle, faults):
        """An injected fsync failure on the WAL barrier downs the
        worker pre-acknowledgement; recovery treats it like any kill."""
        # Fsync ordinal 1: an epoch-0 respawn opens its shard with no
        # file op, so the first fsync is the first batch's WAL barrier.
        path = str(tmp_path / "victim.d")
        final, crashes = run_victim(
            path, faults,
            {1: [(1, {"wal_fsync_errors": {1: OSError("barrier")}})]})
        assert crashes >= 1
        assert final == oracle["final"]
        assert reopened_state(path) == oracle["final"]

    @pytest.mark.parametrize("script", [
        # Op 3 is the first batch's barrier fsync: the append reached
        # the file, the barrier never ran, nothing was acknowledged.
        {"wal_fail_op": 3},
        # Op 2 is the first batch's append: it fails outright.
        {"wal_op_errors": {2: OSError("append")}},
    ], ids=["wal_fail_op=3", "wal_op_errors=2"])
    def test_failed_wal_file_op_is_a_clean_crash(self, tmp_path, oracle,
                                                 faults, script):
        path = str(tmp_path / "victim.d")
        final, crashes = run_victim(path, faults, {1: [(1, script)]})
        assert crashes >= 1
        assert final == oracle["final"]
        assert reopened_state(path) == oracle["final"]

    def test_short_wal_append_tears_only_the_unacked_tail(self, tmp_path,
                                                          oracle, faults):
        # Op ordinal 2: an epoch-0 respawn resets its never-committed
        # page file to empty (op 1 truncates it), so 2 is the first WAL
        # append.
        path = str(tmp_path / "victim.d")
        final, crashes = run_victim(
            path, faults, {1: [(1, {"wal_short_writes": {2: 9}})]})
        assert crashes >= 1
        assert final == oracle["final"]


class TestInterop:
    def test_sharded_engine_reads_a_saved_worker_directory(self, tmp_path,
                                                           oracle):
        """After save(), the directory is a valid ShardedEngine
        directory; queries agree byte for byte (WALs are additive)."""
        config = make_config()
        path = str(tmp_path / "victim.d")
        with WorkerEngine(config, path) as eng:
            drive(eng, PHASE_1())
            drive(eng, PHASE_2())
            eng.save()
        with ShardedEngine.open(path, config,
                                executor=SerialExecutor()) as eng:
            assert state_of(eng) == oracle["saved"]

    def test_sharded_engine_refuses_unsaved_worker_writes(self, tmp_path,
                                                          oracle):
        """Writes acknowledged into the WALs after the last save live
        nowhere else: the in-process open refuses the directory instead
        of serving (and, on its next save, making permanent) the saved
        epoch without them."""
        config = make_config()
        path = tmp_path / "victim.d"
        with WorkerEngine(config, str(path)) as eng:
            drive(eng, PHASE_1())
            drive(eng, PHASE_2())
            eng.save()
            drive(eng, PHASE_3())
        before = {file: file.read_bytes()
                  for file in path.rglob("*") if file.is_file()}
        with pytest.raises(EngineError, match="WorkerEngine and save"):
            ShardedEngine.open(str(path), config, executor=SerialExecutor())
        assert {file: file.read_bytes() for file in path.rglob("*")
                if file.is_file()} == before
        assert reopened_state(str(path)) == oracle["final"]


class TestShadowPaging:
    def test_evicting_session_reopens_at_the_manifest_and_replays(
            self, tmp_path, oracle):
        """A tiny buffer pool makes the session evict pages into every
        page file; a worker stops like a crash, so the page files keep
        the generation the manifest records and each WAL replays its
        whole acknowledged tail over it — no copy, no restore."""
        config = make_config()
        path = tmp_path / "victim.d"
        with WorkerEngine(config, str(path)) as eng:
            drive(eng, PHASE_1())
            drive(eng, PHASE_2())
            eng.save()
        recorded = json.loads((path / "engine.json").read_text())["shards"]
        small = dataclasses.replace(config, buffer_capacity=2)
        with WorkerEngine.open(str(path), small) as eng:
            assert state_of(eng) == oracle["saved"]
            drive(eng, PHASE_3())
            assert sum(stats.physical_writes
                       for stats in eng.shard_stats()) > 0
        with WorkerEngine.open(str(path), config) as eng:
            assert [(shard.pages, shard.recorded, shard.wal)
                    for shard in eng.recovery.shards] == [
                ("open", gen, "replay") for gen in recorded]
            assert state_of(eng) == oracle["final"]
