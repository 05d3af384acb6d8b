"""Degraded (``strict=False``) fan-out: partial results, typed failure
records, breaker recovery, retry transparency, and close() aggregation."""

import contextlib
import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Rect, SWSTConfig
from repro.engine import (CircuitBreaker, CircuitOpenError, EngineCloseError,
                          PartialResult, RetryPolicy, SerialExecutor,
                          ShardQueryError, ShardedEngine)
from tests.storage.fault import InjectedFault, per_path_device_factory

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


def workload(seed=11, count=300, t0=0):
    rng = random.Random(seed)
    t = t0
    reports = []
    for _ in range(count):
        t += rng.choice([0, 1, 1, 2])
        reports.append(R(rng.randrange(25), rng.randrange(100),
                         rng.randrange(100), t))
    return reports


def entry_key(entry):
    return (entry.oid, entry.x, entry.y, entry.s,
            -1 if entry.d is None else entry.d)


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("degraded") / "index.d"
    with ShardedEngine(make_config(), path,
                       executor=SerialExecutor()) as eng:
        eng.extend(workload())
        eng.save()
    return path


def open_with_crashed_shard(path, shard_id, **engine_kwargs):
    """Open the directory, then crash ``shard_id``'s device in place.

    The shard's two-page pool is emptied first, so every query actually
    touches the (crashed) device instead of being served from memory.
    """
    devices = []
    config = dataclasses.replace(
        make_config(buffer_capacity=2),
        device_factory=per_path_device_factory(
            f"shard-{shard_id:03d}", registry=devices))
    eng = ShardedEngine.open(path, config, executor=SerialExecutor(),
                             **engine_kwargs)
    (device,) = devices
    eng.shards[shard_id].pool.drop_cache()
    device.crashed = True
    return eng, device


def close_quietly(eng):
    with contextlib.suppress(OSError, EngineCloseError):
        eng.close()


class TestStrictMode:
    def test_strict_raises_typed_error_naming_the_shard(self, saved_dir):
        eng, _ = open_with_crashed_shard(
            saved_dir, 1, retry_policy=RetryPolicy(attempts=1))
        try:
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            with pytest.raises(ShardQueryError) as excinfo:
                eng.query_interval(eng.config.space, q_lo, q_hi)
            assert excinfo.value.shard_id == 1
            assert "shard-001" in excinfo.value.path
            assert isinstance(excinfo.value.__cause__, InjectedFault)
        finally:
            close_quietly(eng)

    def test_retry_recovers_single_transient_fault(self, saved_dir):
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            oracle = sorted(entry_key(e) for e in eng.query_interval(
                eng.config.space, q_lo, q_hi))
        devices = []
        config = dataclasses.replace(
            make_config(buffer_capacity=2),
            device_factory=per_path_device_factory("shard-001",
                                                   registry=devices))
        with ShardedEngine.open(saved_dir, config,
                                executor=SerialExecutor()) as eng:
            (device,) = devices
            device.read_errors[device.reads_seen + 1] = InjectedFault(
                "transient read fault")
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            result = eng.query_interval(eng.config.space, q_lo, q_hi)
            # The default policy retried past the fault: the strict
            # result is complete and bit-identical to the healthy run.
            assert sorted(entry_key(e) for e in result) == oracle
            assert not result.stats.degraded
            assert not device.read_errors  # the fault fired


class TestDegradedMode:
    def test_partial_result_lists_failure_and_sets_degraded(self,
                                                            saved_dir):
        eng, _ = open_with_crashed_shard(
            saved_dir, 2, retry_policy=RetryPolicy(attempts=1))
        try:
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            result = eng.query_interval(eng.config.space, q_lo, q_hi,
                                        strict=False)
            assert isinstance(result, PartialResult)
            assert not result.complete
            assert result.stats.degraded
            assert [f.shard_id for f in result.failures] == [2]
            assert isinstance(result.failures[0].error, InjectedFault)
            assert len(result) > 0  # surviving shards still answered
        finally:
            close_quietly(eng)

    def test_degraded_count_is_partial(self, saved_dir):
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            full, _ = eng.count_interval(eng.config.space, q_lo, q_hi)
        eng, _ = open_with_crashed_shard(
            saved_dir, 0, retry_policy=RetryPolicy(attempts=1))
        try:
            partial, stats = eng.count_interval(eng.config.space,
                                                q_lo, q_hi, strict=False)
            assert partial < full
            assert stats.degraded
        finally:
            close_quietly(eng)

    def test_degraded_knn_still_ranks_survivors(self, saved_dir):
        eng, _ = open_with_crashed_shard(
            saved_dir, 1, retry_policy=RetryPolicy(attempts=1))
        try:
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            result = eng.query_knn(50, 50, 5, q_lo, q_hi, strict=False)
            assert isinstance(result, PartialResult)
            assert [f.shard_id for f in result.failures] == [1]
            assert len(result) == 5
        finally:
            close_quietly(eng)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shard_id=st.integers(min_value=0, max_value=N_SHARDS - 1),
           x_lo=st.integers(min_value=0, max_value=99),
           y_lo=st.integers(min_value=0, max_value=99),
           dx=st.integers(min_value=0, max_value=99),
           dy=st.integers(min_value=0, max_value=99))
    def test_partial_equals_union_of_surviving_shards(self, saved_dir,
                                                      shard_id, x_lo,
                                                      y_lo, dx, dy):
        """strict=False == the union of the surviving shards' strict
        results: the failed shard's (disjoint) contribution is exactly
        what is missing, nothing else changes."""
        area = Rect(x_lo, y_lo, min(99, x_lo + dx), min(99, y_lo + dy))
        with ShardedEngine.open(saved_dir, make_config(),
                                executor=SerialExecutor()) as eng:
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            full = eng.query_interval(area, q_lo, q_hi)
            surviving = sorted(
                entry_key(e) for e in full
                if eng._shard_id_of(e.x, e.y) != shard_id)
        eng, _ = open_with_crashed_shard(
            saved_dir, shard_id, retry_policy=RetryPolicy(attempts=1))
        try:
            result = eng.query_interval(area, q_lo, q_hi, strict=False)
            assert sorted(entry_key(e) for e in result) == surviving
            failed = [f.shard_id for f in result.failures]
            assert failed in ([], [shard_id])  # [] if area missed it
        finally:
            close_quietly(eng)


class TestBreakerIntegration:
    def test_breaker_trips_then_recovers_after_cooldown(self, saved_dir):
        eng, device = open_with_crashed_shard(
            saved_dir, 1,
            retry_policy=RetryPolicy(attempts=1),
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1,
                                                   cooldown=2.0))
        try:
            q_lo, q_hi = eng.config.queriable_period(eng.now)
            area = eng.config.space

            # 1st query: dispatched, fails, trips the breaker.
            first = eng.query_interval(area, q_lo, q_hi, strict=False)
            assert isinstance(first.failures[0].error, InjectedFault)
            assert eng.breakers[1].state == "open"

            # While open the shard is skipped without any dispatch.
            second = eng.query_interval(area, q_lo, q_hi, strict=False)
            assert isinstance(second.failures[0].error, CircuitOpenError)
            assert second.failures[0].error.shard_id == 1

            # The fault clears; after the cooldown the breaker lets a
            # probe through, it succeeds, and service is fully restored.
            device.crashed = False
            for _ in range(4):
                last = eng.query_interval(area, q_lo, q_hi, strict=False)
            assert last.complete
            assert not last.stats.degraded
            assert eng.breakers[1].state == "closed"
        finally:
            close_quietly(eng)


class TestCloseAggregation:
    def test_multiple_close_failures_are_aggregated(self, tmp_path):
        path = tmp_path / "index.d"
        with ShardedEngine(make_config(), path,
                           executor=SerialExecutor()) as eng:
            eng.extend(workload(seed=5, count=120))
            eng.save()
        devices = []
        config = dataclasses.replace(
            make_config(),
            device_factory=per_path_device_factory("shard",
                                                   registry=devices))
        eng = ShardedEngine.open(path, config, executor=SerialExecutor())
        assert len(devices) == N_SHARDS
        # Write every shard and save (a close with unsaved changes would
        # save first, and fail once); a close after it commits nothing,
        # so fail two devices' release instead: both failures must
        # surface.
        eng.extend(workload(seed=7, count=60, t0=eng.now))
        eng.save()

        def failing(close):
            def release():
                close()
                raise InjectedFault("device release failed")
            return release

        for device in devices[:2]:
            device.close = failing(device.close)
        with pytest.raises(EngineCloseError) as excinfo:
            eng.close()
        assert len(excinfo.value.errors) == 2
        assert all(isinstance(err, InjectedFault)
                   for err in excinfo.value.errors)
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        # The healthy shard still closed; a second close is a no-op.
        eng.close()

    def test_single_close_failure_propagates_unwrapped(self, tmp_path):
        path = tmp_path / "index.d"
        with ShardedEngine(make_config(), path,
                           executor=SerialExecutor()) as eng:
            eng.extend(workload(seed=6, count=120))
            eng.save()
        devices = []
        config = dataclasses.replace(
            make_config(),
            device_factory=per_path_device_factory("shard-001",
                                                   registry=devices))
        eng = ShardedEngine.open(path, config, executor=SerialExecutor())
        eng.extend(workload(seed=7, count=60, t0=eng.now))
        devices[0].crashed = True
        with pytest.raises(InjectedFault):
            eng.close()
