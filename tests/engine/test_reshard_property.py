"""Property tests: resharding and torn-save recovery preserve state.

Random interleaved workloads (the PR 3 equivalence-oracle strategy)
drive two invariants:

* an ``n -> m`` reshard — any pair, including identity and repeated
  flips — changes *nothing* observable: every query result, the scan,
  the length and the clock come back identical;
* a save torn at a random shard commit recovers (every shard reopens at
  the generation the manifest records) to exactly the pre-save state.
"""

import dataclasses
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Rect, SWSTConfig
from repro.engine import SerialExecutor, ShardedEngine, reshard
from tests.storage.fault import crash_devices, per_path_device_factory


def make_config(n_shards):
    return SWSTConfig(window=200, slide=20, x_partitions=3, y_partitions=3,
                      d_max=40, duration_interval=10,
                      space=Rect(0, 0, 99, 99), page_size=512,
                      n_shards=n_shards)


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


# One workload step: (op, oid, x, y, time gap, duration).
op_strategy = st.tuples(
    st.sampled_from(["report", "insert", "close", "forget", "advance"]),
    st.integers(0, 5),
    st.integers(0, 99),
    st.integers(0, 99),
    st.one_of(st.integers(0, 6), st.integers(150, 500)),
    st.integers(1, 40),
)

query_strategy = st.lists(
    st.tuples(
        st.integers(0, 80), st.integers(0, 80),
        st.integers(1, 60), st.integers(1, 60),
        st.integers(0, 700), st.integers(0, 120),
        st.sampled_from([None, 50, 200]),
    ),
    min_size=1, max_size=8,
)


def apply_workload(target, ops, t0=0):
    t = t0
    for op, oid, x, y, gap, duration in ops:
        t += gap
        if op == "report":
            target.report(oid, x, y, t)
        elif op == "insert":
            target.insert(oid, x, y, t, duration)
        elif op == "close":
            try:
                target.close_object(oid, t)
            except ValueError:
                pass
        elif op == "forget":
            target.forget_object(oid)
        elif op == "advance":
            target.advance_time(t)
    return t


def observe(engine, queries):
    """Every query result plus the full physical state, keyed for
    equality."""
    record = {
        "now": engine.now,
        "len": len(engine),
        "scan": sorted(entry_key(e) for e in engine.scan()),
        "currents": dict(engine.current_objects()),
    }
    for index, (x, y, w, h, t_lo, span, window) in enumerate(queries):
        area = Rect(x, y, x + w, y + h)
        result = engine.query_interval(area, t_lo, t_lo + span, window)
        count, _ = engine.count_interval(area, t_lo, t_lo + span, window)
        record[f"q{index}"] = sorted(entry_key(e) for e in result.entries)
        record[f"c{index}"] = count
    return record


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(op_strategy, min_size=1, max_size=60),
       queries=query_strategy,
       old_n=st.sampled_from([1, 2, 4]),
       new_n=st.sampled_from([1, 3, 5, 9]))
def test_reshard_preserves_every_query_result(ops, queries, old_n, new_n):
    directory = tempfile.mkdtemp(prefix="reshard-prop-")
    try:
        path = f"{directory}/idx.d"
        with ShardedEngine(make_config(old_n), path,
                           executor=SerialExecutor()) as eng:
            apply_workload(eng, ops)
            eng.save()
            before = observe(eng, queries)
        report = reshard(path, new_n, make_config(new_n))
        assert report.old_n_shards == old_n
        assert report.new_n_shards == new_n
        with ShardedEngine.open(path, make_config(new_n),
                                executor=SerialExecutor()) as eng:
            eng.check_integrity()
            assert observe(eng, queries) == before
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(phase1=st.lists(op_strategy, min_size=1, max_size=40),
       phase2=st.lists(op_strategy, min_size=1, max_size=30),
       queries=query_strategy,
       kill_shard=st.integers(0, 2))
def test_torn_save_restores_presave_state(phase1, phase2, queries,
                                          kill_shard):
    n_shards = 3
    directory = tempfile.mkdtemp(prefix="snap-restore-prop-")
    try:
        path = f"{directory}/idx.d"
        with ShardedEngine(make_config(n_shards), path,
                           executor=SerialExecutor()) as eng:
            apply_workload(eng, phase1)
            eng.save()
            before = observe(eng, queries)
        devices = []
        faulty = dataclasses.replace(
            make_config(n_shards),
            device_factory=per_path_device_factory(
                "shard", registry=devices))
        eng = ShardedEngine.open(path, faulty, executor=SerialExecutor())
        try:
            apply_workload(eng, phase2, t0=eng.now + 1)
            device = devices[kill_shard]
            device.fail_write = device.writes_seen + 1
            try:
                eng.save()
            except OSError:
                pass
        finally:
            crash_devices(devices)
            try:
                eng.close()
            except (Exception, OSError):
                pass
        with ShardedEngine.open(path, make_config(n_shards),
                                executor=SerialExecutor()) as eng:
            eng.check_integrity()
            assert observe(eng, queries) == before
    finally:
        shutil.rmtree(directory, ignore_errors=True)
