"""Executor seam for per-shard scatter-gather.

The engine runs per-shard work through a minimal :class:`Executor`
protocol — ``map``, ``submit`` and ``close``:

* :class:`SerialExecutor` (the default) runs every task inline on the
  calling thread.
* :class:`ThreadedExecutor` runs ``map`` inline too and backs ``submit``
  with a thread pool (the asyncio serving bridge).  Shard work is Python
  bytecode: under the GIL the pool ran shard tasks back to back and
  added a hand-off per shard per batch (13-20% of ingest client time;
  the same build did 17.9k reports/s on one vCPU against 12.5k on two),
  so the pool exists for ``submit``, not for speed.

Both preserve input order in their results and propagate the first
raised exception; items after it never start.  There is no per-task
deadline: an inline task cannot be preempted, and a pooled one that
overran would still hold its shard.  Shards that should run in parallel
are served by the warm worker pool (:mod:`repro.engine.worker`).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Iterable, Protocol,
                    runtime_checkable)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from concurrent.futures import Future, ThreadPoolExecutor


@runtime_checkable
class Executor(Protocol):
    """Minimal worker-pool protocol used by the engine."""

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item, returning results in input order."""
        ...  # pragma: no cover - protocol

    def submit(self, fn: Callable[[], Any]) -> "Future[Any]":
        """Run one zero-argument task, returning its future.

        The asynchronous serving facade bridges these futures into
        ``asyncio`` (``asyncio.wrap_future``), so blocking engine calls
        ride the same pluggable seam as the per-shard fan-out.
        ``SerialExecutor`` runs the task inline and returns an
        already-resolved future (deterministic tests).
        """
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release pool resources; the executor is unusable afterwards."""
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """Run every task inline on the calling thread."""

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> list[Any]:
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
    """Inline ``map``; a lazily created thread pool for ``submit``.

    An engine alone never spawns a thread — only the serving facade
    submits.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> list[Any]:
        return [fn(item) for item in items]

    def submit(self, fn: Callable[[], Any]) -> "Future[Any]":
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self._max_workers,
                thread_name_prefix="swst-shard")
        return self._pool.submit(fn)

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
