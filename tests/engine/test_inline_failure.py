"""Failure semantics of the inline in-process fan-out.

``Executor.map`` without a deadline runs shard tasks one after the other
on the calling thread and stops at the first raise, so after a device
fault in shard *k* the shards after *k* have seen neither the batch nor
the ``advance_to``.  This suite pins what the coordinator does about
it: the fault surfaces typed, ``needs_resync`` is set, the next call
realigns the lockstep clock and the ``_cur`` mirror (finishing a
cross-shard hop that stopped between its insert and its finalisation),
and re-submitting the batch converges to the un-faulted state.  Reads
keep folding per-shard outcomes into breakers: one failing shard yields
a :class:`PartialResult` carrying the other shard's answer.
"""

import threading

import pytest

from repro.core import Rect, SWSTConfig
from repro.engine import (CircuitBreaker, PartialResult, RetryPolicy,
                          ShardedEngine)
from repro.storage import FilePageDevice
from tests.storage.fault import FaultInjectingPageDevice, InjectedFault

N_SHARDS = 2
BATCH = 64          # one /extend-sized batch
T_WARM, T_BATCH = 50, 60


class R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


def make_config(devices=None):
    """Two shards on real files; every device is wrapped (fault-free until
    armed) and collected in ``devices`` in shard order."""
    def factory(path, page_size):
        device = FaultInjectingPageDevice(FilePageDevice(path, page_size))
        if devices is not None:
            devices.append(device)
        return device

    # A two-page pool, so reads reach the device.
    return SWSTConfig(window=200, slide=20, x_partitions=4, y_partitions=4,
                      d_max=40, duration_interval=10,
                      space=Rect(0, 0, 99, 99), page_size=512,
                      buffer_capacity=2,
                      n_shards=N_SHARDS, device_factory=factory)


def spot_in_shard(engine, shard_id, k):
    """The ``k``-th distinct location owned by ``shard_id``."""
    spots = [(x, y) for x in range(0, 100, 7) for y in range(0, 100, 7)
             if engine.shard_map.shard_of_cell(
                 *engine.grid.cell_of(x, y)) == shard_id]
    return spots[k % len(spots)]


def warm_up(engine):
    """Objects 0..BATCH-1 report once at T_WARM, alternating shards."""
    engine.extend([R(oid, *spot_in_shard(engine, oid % N_SHARDS, oid),
                     T_WARM) for oid in range(BATCH)])


def hop_batch(engine):
    """One single-timestamp batch in which every object reports again:
    most stay in their shard, every fourth hops to the other one (so both
    hop directions occur, on either side of a failing shard)."""
    batch = []
    for oid in range(BATCH):
        home = oid % N_SHARDS
        dest = 1 - home if oid % 4 < 2 else home
        batch.append(R(oid, *spot_in_shard(engine, dest, oid + 3), T_BATCH))
    return batch


def state_of(engine):
    """Everything the convergence claim covers, in a comparable form."""
    entries = sorted((e.oid, e.x, e.y, e.s, -1 if e.d is None else e.d)
                     for shard in engine.shards for e in shard.scan())
    currents = [shard.current_objects() for shard in engine.shards]
    return entries, currents, dict(engine._cur), engine.now, \
        [shard.now for shard in engine.shards], len(engine)


@pytest.fixture
def oracle_state(tmp_path):
    with ShardedEngine(make_config(), tmp_path / "oracle.d",
                       executor="thread") as engine:
        warm_up(engine)
        engine.extend(hop_batch(engine))
        return state_of(engine)


def arm_read_fault(shard, device, nth_report):
    """Make the device refuse the first read of the ``nth_report``-th
    report ``shard`` ingests (cross-shard ops count: an ``OP_INSERT`` of a
    current entry takes the same path).

    A report is a delete and two inserts and is not failure-atomic, so
    the fault is placed where a refused read has mutated nothing yet: the
    caches are emptied first, which makes the report's first descent the
    next device read.  Transient — the device stays usable afterwards.
    """
    ingest = shard._ingest_report
    calls = []

    def armed(*args):
        calls.append(args)
        if len(calls) == nth_report:
            shard.pool.drop_cache()
            device.read_errors[device.reads_seen + 1] = \
                InjectedFault("injected mid-batch read fault")
        return ingest(*args)

    shard._ingest_report = armed


# Each shard sees 32 reports of the batch: 16 hop in as cross-shard ops
# (applied before the advance), 16 ride its cell-grouped run.
@pytest.mark.parametrize("nth_report", [5, 24], ids=["in-ops", "in-run"])
@pytest.mark.parametrize("faulty_shard", [0, 1])
def test_fault_mid_batch_resyncs_and_resubmission_converges(
        tmp_path, faulty_shard, nth_report, oracle_state):
    devices = []
    with ShardedEngine(make_config(devices), tmp_path / "faulty.d",
                       executor="thread") as engine:
        backend = engine._backend
        warm_up(engine)
        batch = hop_batch(engine)
        arm_read_fault(engine.shards[faulty_shard], devices[faulty_shard],
                       nth_report)

        with pytest.raises(InjectedFault):
            engine.extend(batch)
        assert not devices[faulty_shard].read_errors  # the fault fired

        assert backend.needs_resync
        assert backend.executor._pool is None
        clocks = [shard.now for shard in engine.shards]
        assert clocks[faulty_shard] == T_BATCH
        # Inline stops at the first raise: a shard after the failing one
        # saw neither the batch nor the advance.
        assert clocks[1] == (T_BATCH if faulty_shard == 1 else T_WARM)
        # The engine clock followed the dispatch (a shard did see it).
        assert engine.now == T_BATCH

        # The next call settles first: lockstep clock, mirror rebuilt
        # from the shards, no object current on two shards.
        engine.advance_time(T_BATCH)
        assert not backend.needs_resync
        assert [shard.now for shard in engine.shards] == [T_BATCH] * 2
        tables = [shard.current_objects() for shard in engine.shards]
        assert not set(tables[0]) & set(tables[1])
        assert engine._cur == {
            oid: (sid, *entry)
            for sid, table in enumerate(tables)
            for oid, entry in table.items()}
        for shard in engine.shards:
            shard.check_integrity()

        # Re-submitting the whole batch is idempotent where it landed
        # (same-timestamp correction) and completes it where it did not.
        engine.extend(batch)
        assert state_of(engine) == oracle_state
        for shard in engine.shards:
            shard.check_integrity()


@pytest.mark.parametrize("faulty_shard", [0, 1])
def test_query_folds_an_inline_failure_into_a_partial_result(
        tmp_path, faulty_shard):
    devices = []
    with ShardedEngine(make_config(devices), tmp_path / "reads.d",
                       executor="thread",
                       retry_policy=RetryPolicy(attempts=1),
                       breaker_factory=lambda: CircuitBreaker(
                           failure_threshold=1)) as engine:
        warm_up(engine)
        healthy = 1 - faulty_shard
        expected = sorted(e.oid for e in engine.shards[healthy].scan())
        devices[faulty_shard].crashed = True
        seen_threads = set()
        planned = engine.shards[healthy]._query_area_planned

        def spy(*args):
            seen_threads.add(threading.get_ident())
            return planned(*args)

        engine.shards[healthy]._query_area_planned = spy
        try:
            result = engine.query_interval(engine.config.space, 0, T_WARM,
                                           strict=False)
            assert isinstance(result, PartialResult)
            # The failing shard did not stop the other one's task...
            assert [f.shard_id for f in result.failures] == [faulty_shard]
            assert isinstance(result.failures[0].error, InjectedFault)
            assert sorted(e.oid for e in result.entries) == expected
            # ... which ran inline, and the outcome reached the breakers.
            assert seen_threads == {threading.get_ident()}
            assert engine._backend.executor._pool is None
            breakers = engine._backend.breakers
            assert breakers[faulty_shard].state == "open"
            assert breakers[healthy].state == "closed"
        finally:
            devices[faulty_shard].crashed = False
