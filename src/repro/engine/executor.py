"""Worker-pool abstraction for per-shard scatter-gather.

The engine fans operations out over its shards through a minimal
:class:`Executor` protocol — ``map`` (with an optional per-task
deadline) plus ``close`` — so the execution strategy is pluggable:

* :class:`SerialExecutor` runs tasks inline (deterministic, zero
  overhead; the right choice for tests and one-shard engines).
* :class:`ThreadedExecutor` (the default) runs tasks on a thread pool.
  The shard hot path is buffer-pool IO plus C-level ``struct``/``zlib``
  work, and shards share no mutable state, so threads overlap shard IO
  and, on free-threaded builds, shard CPU as well.

Both preserve input order in their results and propagate the first
raised exception.  Multi-process execution is not an executor: shards
that should run in their own processes are served by the warm worker
pool (:mod:`repro.engine.worker`), which keeps them writable.

Per-task deadlines: ``map(fn, items, timeout=...)`` bounds how long the
caller waits for each task.  The thread pool enforces it when *gathering*
(``future.result(timeout)``) and converts an overrun into a typed
:class:`~repro.engine.errors.TaskTimeoutError` naming the input index.
The task itself is not preempted — an abandoned worker may still hold
its shard, which is why the engine treats timeouts as non-retryable.
``SerialExecutor`` runs inline and cannot enforce a deadline; it ignores
``timeout`` (documented, not an error, so one-shard engines keep
working unchanged).
"""

from __future__ import annotations

import os
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Protocol,
                    Sequence, runtime_checkable)

from .errors import TaskTimeoutError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from concurrent.futures import Future, ThreadPoolExecutor


@runtime_checkable
class Executor(Protocol):
    """Minimal worker-pool protocol used by the engine."""

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            timeout: float | None = None) -> list[Any]:
        """Apply ``fn`` to every item, returning results in input order.

        ``timeout`` is a per-task deadline in seconds; a task overrunning
        it raises :class:`TaskTimeoutError` (best effort — inline
        executors cannot enforce it).
        """
        ...  # pragma: no cover - protocol

    def submit(self, fn: Callable[[], Any]) -> "Future[Any]":
        """Run one zero-argument task, returning its future.

        The asynchronous serving facade bridges these futures into
        ``asyncio`` (``asyncio.wrap_future``), so blocking engine calls
        ride the same pluggable pool as the scatter-gather fan-out.
        ``SerialExecutor`` runs the task inline and returns an
        already-resolved future (deterministic tests).
        """
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release pool resources; the executor is unusable afterwards."""
        ...  # pragma: no cover - protocol


def _gather(futures: "Sequence[Future[Any]]",
            timeout: float | None) -> list[Any]:
    """Collect future results in submission order with per-task deadlines.

    ``future.result()`` re-raises the task's exception; remaining futures
    are awaited by the pool's ``shutdown(wait=True)`` on close.  A
    deadline overrun is converted to :class:`TaskTimeoutError` carrying
    the input index, so callers can map it back to a shard.
    """
    from concurrent.futures import TimeoutError as FuturesTimeout

    results = []
    for index, future in enumerate(futures):
        try:
            results.append(future.result(timeout=timeout))
        except FuturesTimeout:
            raise TaskTimeoutError(index, timeout or 0.0) from None
    return results


class SerialExecutor:
    """Run every task inline on the calling thread.

    Inline execution cannot be preempted, so the ``timeout`` parameter
    is accepted for protocol compatibility and ignored.
    """

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            timeout: float | None = None) -> list[Any]:
        return [fn(item) for item in items]

    def submit(self, fn: Callable[[], Any]) -> "Future[Any]":
        from concurrent.futures import Future

        future: Future[Any] = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn())
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def close(self) -> None:
        pass


class ThreadedExecutor:
    """Thread-pool executor (the engine default).

    The pool is created lazily on first use, so an engine that only ever
    touches one shard per operation never spawns a thread.  Single-item
    maps run inline — unless a deadline is set, which forces the pool so
    the deadline is enforceable.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            workers = self._max_workers
            if workers is None:
                workers = min(32, (os.cpu_count() or 1) + 4)
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="swst-shard")
        return self._pool

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            timeout: float | None = None) -> list[Any]:
        work: Sequence[Any] = list(items)
        if len(work) <= 1 and timeout is None:
            return [fn(item) for item in work]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in work]
        return _gather(futures, timeout)

    def submit(self, fn: Callable[[], Any]) -> "Future[Any]":
        return self._ensure_pool().submit(fn)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def resolve_executor(spec: str) -> SerialExecutor | ThreadedExecutor:
    """Build an executor from a CLI-style spec.

    Accepted forms: ``serial``, ``thread``, ``thread:N`` (N = worker
    count).
    """
    kind, _, arg = spec.partition(":")
    workers = int(arg) if arg else None
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    if kind == "serial":
        if arg:
            raise ValueError("serial executor takes no worker count")
        return SerialExecutor()
    if kind == "thread":
        return ThreadedExecutor(max_workers=workers)
    raise ValueError(f"unknown executor spec {spec!r} "
                     f"(expected serial | thread[:N])")
