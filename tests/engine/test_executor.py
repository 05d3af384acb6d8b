"""Executor implementations: ordering, errors, lifecycle, spec parsing."""

import threading
from concurrent.futures import Future

import pytest

from repro.engine import (Executor, SerialExecutor, ThreadedExecutor,
                          resolve_executor)


class TestSerialExecutor:
    def test_preserves_order(self):
        ex = SerialExecutor()
        assert ex.map(lambda n: n * n, [3, 1, 2]) == [9, 1, 4]
        ex.close()

    def test_propagates_exception(self):
        ex = SerialExecutor()
        with pytest.raises(ZeroDivisionError):
            ex.map(lambda n: 1 // n, [1, 0, 2])
        ex.close()


class TestThreadedExecutor:
    def test_preserves_order(self):
        ex = ThreadedExecutor(max_workers=2)
        try:
            assert ex.map(lambda n: n + 10, list(range(8))) == \
                [n + 10 for n in range(8)]
        finally:
            ex.close()

    def test_single_item_runs_inline_without_pool(self):
        ex = ThreadedExecutor(max_workers=2)
        try:
            assert ex.map(lambda n: n * 2, [21]) == [42]
            assert ex._pool is None
        finally:
            ex.close()

    def test_map_without_deadline_runs_inline_without_pool(self):
        ex = ThreadedExecutor(max_workers=2)
        try:
            idents = []

            def task(n):
                idents.append(threading.get_ident())
                return n * 2

            assert ex.map(task, iter([21, 4, 9])) == [42, 8, 18]
            assert idents == [threading.get_ident()] * 3
            assert ex._pool is None
        finally:
            ex.close()

    def test_inline_map_stops_at_the_first_exception(self):
        ex = ThreadedExecutor(max_workers=2)
        try:
            started = []

            def task(n):
                started.append(n)
                if n == 1:
                    raise ValueError("boom")
                return n

            with pytest.raises(ValueError, match="boom"):
                ex.map(task, [0, 1, 2])
            assert started == [0, 1]
            assert ex._pool is None
        finally:
            ex.close()

    def test_submit_returns_a_future_from_a_pool_thread(self):
        ex = ThreadedExecutor(max_workers=1)
        try:
            future = ex.submit(threading.get_ident)
            assert isinstance(future, Future)
            assert future.result(timeout=30.0) != threading.get_ident()
            assert ex._pool is not None
        finally:
            ex.close()

    def test_propagates_first_exception(self):
        ex = ThreadedExecutor(max_workers=2)
        try:
            with pytest.raises(ValueError, match="boom"):
                ex.map(lambda n: (_ for _ in ()).throw(ValueError("boom"))
                       if n == 1 else n, [0, 1, 2])
        finally:
            ex.close()

    def test_close_is_idempotent(self):
        ex = ThreadedExecutor()
        ex.submit(lambda: None).result(timeout=30.0)
        ex.close()
        ex.close()

    def test_satisfies_protocol(self):
        assert isinstance(ThreadedExecutor(), Executor)
        assert isinstance(SerialExecutor(), Executor)


class TestResolveExecutor:
    def test_serial(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)

    def test_thread_with_workers(self):
        ex = resolve_executor("thread:3")
        assert isinstance(ex, ThreadedExecutor)
        assert ex._max_workers == 3

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            resolve_executor("fiber")
        # The process lane is gone: multi-process shards are the warm
        # worker pool's job, not an executor's.
        with pytest.raises(ValueError):
            resolve_executor("process")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            resolve_executor("thread:0")
        with pytest.raises(ValueError):
            resolve_executor("thread:abc")

    def test_serial_takes_no_worker_count(self):
        with pytest.raises(ValueError):
            resolve_executor("serial:2")
