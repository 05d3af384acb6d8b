"""The worker read wire: queries cross the pipe as temporal signatures.

A worker derives each query's plan from the ``(t_lo, t_hi, window,
clock)`` signature the coordinator sends.  These tests pin what that
must preserve and what it must refuse:

* backend parity (``WorkerEngine`` against ``ShardedEngine``) at the
  clocks where a plan of the wrong clock would answer differently —
  ``t_hi = now``, intervals straddling a slide, and ``k·Wmax`` for
  k = 3, 4, 6 — with identical entries and identical stats apart from
  ``plan_cache_hits`` (workers keep no plan cache);
* the clock fence: a worker pushed past the coordinator's clock refuses
  with ``ClockFenceError``, the failure arms ``needs_resync``, and the
  next call resynchronises and answers the oracle;
* an out-of-window query sends nothing, and no ``QueryPlan`` is ever
  pickled on the worker read path;
* backend reads are pipelined: every send precedes the first collect.
"""

import contextlib
import dataclasses
import os
import pickle
import random
import signal

import pytest

from repro.core import (QueryPlan, Rect, SWSTConfig, build_query_plan,
                        classify_interval)
from repro.engine import (ClockFenceError, PartialResult, RetryPolicy,
                          SerialExecutor, ShardedEngine, ShardQueryError,
                          WorkerEngine, WorkerPool)
from repro.engine.wal import OP_ADVANCE

N_SHARDS = 3
AREAS = [Rect(0, 0, 99, 99), Rect(10, 10, 60, 45), Rect(70, 5, 99, 99)]


def make_config(**overrides):
    params = dict(window=200, slide=20, x_partitions=4, y_partitions=4,
                  d_max=40, duration_interval=10, space=Rect(0, 0, 99, 99),
                  page_size=512, n_shards=N_SHARDS)
    params.update(overrides)
    return SWSTConfig(**params)


class R:
    def __init__(self, oid, x, y, t):
        self.oid, self.x, self.y, self.t = oid, x, y, t


def stream(seed, until, t0=0):
    rng = random.Random(seed)
    t, reports = t0, []
    while True:
        t += rng.choice([0, 1, 2, 5])
        if t > until:
            return reports
        reports.append(R(rng.randrange(20), rng.randrange(100),
                         rng.randrange(100), t))


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


def bare(stats):
    """Stats without ``plan_cache_hits`` (workers keep no plan cache)."""
    return dataclasses.replace(stats, plan_cache_hits=0)


def answer(result):
    """Entries (order-free) and stats, ``plan_cache_hits`` aside."""
    return sorted(map(entry_key, result.entries)), bare(result.stats)


@contextlib.contextmanager
def both_engines(tmp_path, config=None, **worker_seams):
    config = config or make_config()
    with ShardedEngine(config, executor=SerialExecutor()) as local, \
            WorkerEngine(config, str(tmp_path / "w.d"),
                         **worker_seams) as workers:
        yield local, workers


def advance_both(engines, reports, now):
    for engine in engines:
        engine.extend(reports)
        engine.advance_time(now)


def assert_same_answers(local, workers, t_lo, t_hi, window=None):
    for area in AREAS:
        assert answer(workers.query_interval(area, t_lo, t_hi, window)) \
            == answer(local.query_interval(area, t_lo, t_hi, window))
        w_count, w_stats = workers.count_interval(area, t_lo, t_hi, window)
        l_count, l_stats = local.count_interval(area, t_lo, t_hi, window)
        assert (w_count, bare(w_stats)) == (l_count, bare(l_stats))
    w_batch = workers.query_interval_many(AREAS, t_lo, t_hi, window)
    l_batch = local.query_interval_many(AREAS, t_lo, t_hi, window)
    assert [answer(r) for r in w_batch.results] == \
        [answer(r) for r in l_batch.results]
    assert bare(w_batch.stats) == bare(l_batch.stats)


def clock_queries(config, now):
    """Intervals at ``t_hi = now`` and straddling the last slide."""
    q_lo, _ = config.queriable_period(now)
    boundary = now // config.slide * config.slide
    return [(q_lo, now, None), (now, now, None), (now - 7, now, None),
            (now - 3, now, 50), (boundary - 5, min(boundary + 3, now), None),
            (boundary - 1, boundary, 50), (max(q_lo - 9, 0), q_lo + 4, None)]


class TestBackendParityAtClockBoundaries:
    def test_queries_at_now_and_across_slides(self, tmp_path):
        config = make_config()
        with both_engines(tmp_path, config) as engines:
            local, workers = engines
            t = 0
            for now in (57, 60, 61, 79, 80, 433, 440):
                advance_both(engines, stream(now, now, t0=t), now)
                t = now
                assert workers.now == local.now == now
                for t_lo, t_hi, window in clock_queries(config, now):
                    assert_same_answers(local, workers, t_lo, t_hi, window)

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_queries_across_k_wmax(self, tmp_path, k):
        config = make_config()
        w_max = config.w_max
        with both_engines(tmp_path, config) as engines:
            local, workers = engines
            t = 0
            for now in (k * w_max - 1, k * w_max, k * w_max + 1):
                advance_both(engines, stream(k + now, now, t0=t), now)
                t = now
                for t_lo, t_hi, window in clock_queries(config, now):
                    assert_same_answers(local, workers, t_lo, t_hi, window)
                assert_same_answers(local, workers, (k - 1) * w_max,
                                    k * w_max - 1)


class TestClockFence:
    @pytest.mark.parametrize("strict", [True, False])
    def test_worker_ahead_of_the_coordinator_fails_then_resyncs(
            self, tmp_path, strict):
        config = make_config()
        with both_engines(tmp_path, config,
                          retry_policy=RetryPolicy(attempts=1)) as engines:
            local, workers = engines
            advance_both(engines, stream(3, 300), 300)
            victim, ahead = 1, 300 + config.slide + 3
            workers.pool.request(victim, "apply", [(OP_ADVANCE, (ahead,))])
            q_lo, q_hi = config.queriable_period(workers.now)
            if strict:
                with pytest.raises(ShardQueryError) as excinfo:
                    workers.query_interval(config.space, q_lo, q_hi)
                assert excinfo.value.shard_id == victim
                assert isinstance(excinfo.value.__cause__, ClockFenceError)
            else:
                result = workers.query_interval(config.space, q_lo, q_hi,
                                                strict=False)
                assert isinstance(result, PartialResult)
                assert [f.shard_id for f in result.failures] == [victim]
                assert isinstance(result.failures[0].error, ClockFenceError)
                assert result.stats.degraded
            assert workers._backend.needs_resync
            # The next call resynchronises first: every shard and the
            # coordinator move to the worker's clock, and the answers
            # are the oracle's at that clock.
            local.advance_time(ahead)
            for t_lo, t_hi, window in clock_queries(config, ahead):
                assert_same_answers(local, workers, t_lo, t_hi, window)
            assert workers.now == ahead
            assert not workers._backend.needs_resync
            workers.check_integrity()


@pytest.fixture()
def send_spy(monkeypatch):
    """Records every ``WorkerPool.send`` / ``collect`` as (op, shard)."""
    calls = []
    send, collect = WorkerPool.send, WorkerPool.collect

    def spy_send(self, shard_id, frame):
        calls.append(("send", shard_id))
        return send(self, shard_id, frame)

    def spy_collect(self, shard_id, timeout=None):
        calls.append(("collect", shard_id))
        return collect(self, shard_id, timeout)

    monkeypatch.setattr(WorkerPool, "send", spy_send)
    monkeypatch.setattr(WorkerPool, "collect", spy_collect)
    return calls


class TestNothingButTheQuestionIsSent:
    def test_out_of_window_query_sends_nothing(self, tmp_path, send_spy):
        config = make_config()
        with both_engines(tmp_path, config) as engines:
            local, workers = engines
            advance_both(engines, stream(4, 700), 700)
            q_lo, _ = config.queriable_period(workers.now)
            assert q_lo > 10
            del send_spy[:]
            for t_lo, t_hi, window in ((0, q_lo - 1, None),
                                       (q_lo - 9, q_lo - 1, 50)):
                assert_same_answers(local, workers, t_lo, t_hi, window)
                assert not workers.query_interval(
                    config.space, t_lo, t_hi, window).entries
            assert send_spy == []

    def test_no_query_plan_is_pickled(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("QueryPlan pickled on the worker path")

        monkeypatch.setattr(QueryPlan, "__reduce__", refuse)
        config = make_config()
        plan = build_query_plan(config, 100,
                                classify_interval(config, 100, 40, 100),
                                40, 100, None)
        with pytest.raises(AssertionError, match="QueryPlan pickled"):
            pickle.dumps(plan)
        with both_engines(tmp_path, config) as engines:
            local, workers = engines
            advance_both(engines, stream(5, 250), 250)
            for t_lo, t_hi, window in clock_queries(config, 250):
                assert_same_answers(local, workers, t_lo, t_hi, window)


class TestPipelinedRead:
    def test_every_send_precedes_the_first_collect(self, tmp_path,
                                                   send_spy):
        config = make_config()
        with WorkerEngine(config, str(tmp_path / "w.d")) as workers:
            workers.extend(stream(6, 150))
            for read in (workers.shard_stats, workers.node_count,
                         workers.current_objects, workers.__len__):
                del send_spy[:]
                read()
                assert send_spy == \
                    [("send", sid) for sid in range(N_SHARDS)] + \
                    [("collect", sid) for sid in range(N_SHARDS)]

    def test_answers_come_back_in_shard_order(self, tmp_path):
        config = make_config()
        with WorkerEngine(config, str(tmp_path / "w.d")) as workers:
            workers.extend(stream(7, 150))
            scans = workers._backend.read("scan")
            assert len(scans) == N_SHARDS
            assert sum(map(len, scans)) == len(workers) > 0
            for sid, entries in enumerate(scans):
                assert all(workers._shard_id_of(e.x, e.y) == sid
                           for e in entries)

    def test_sigkilled_worker_restarts_and_answers(self, tmp_path):
        config = make_config()
        with WorkerEngine(config, str(tmp_path / "w.d")) as workers:
            workers.extend(stream(8, 150))
            before = (len(workers), workers.current_objects(),
                      workers.node_count())
            victim = 2
            process = workers.pool._handles[victim].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(5.0)
            assert (len(workers), workers.current_objects(),
                    workers.node_count()) == before
            assert workers.pool.spawn_counts[victim] == 2
            workers.check_integrity()
