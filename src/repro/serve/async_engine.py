"""Asyncio facade over the sharded engine: the serving data plane.

:class:`AsyncEngine` bridges the blocking engine API
(:class:`~repro.engine.Coordinator`, in-process or warm-worker) into
``asyncio`` through the engine layer's :class:`~repro.engine.Executor`
seam (``submit`` + ``asyncio.wrap_future``), with the concurrency
contract the stack below actually supports:

* **One engine call at a time.**  The SWST stack is explicitly *not*
  thread-safe for concurrent callers (buffer-pool LRU state, the plan
  cache, and circuit-breaker accounting are all unlocked), so every
  call through the facade holds one internal mutex.  Request-level
  concurrency comes from *coalescing* — many queries share one
  ``query_interval_many`` call — not from racing engine calls (and not
  from the in-process shard fan-out, which runs inline under the GIL).
* **Reads share, mutations serialize.**  Read requests hold the read
  side of the :class:`~repro.serve.gate.SlideGate`, so any number can
  be in flight (admitted, queued, coalescing) between slides.
  Mutations take the exclusive side, forming the single-writer ingest
  lane: FIFO, one at a time, preserving the report stream's timestamp
  monotonicity whatever the HTTP-level interleaving.
* **The slide is a barrier.**  ``advance_time`` is just a writer, so
  acquiring the exclusive side *is* the barrier: in-flight reads drain,
  the slide runs, parked requests release.  No extra machinery.

The facade borrows the engine — closing the facade shuts down its own
executor (if owned) but leaves the engine to its owner (the server's
``ExitStack``).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Iterable, TypeVar

from ..core.records import Rect, ReportLike
from ..core.results import MultiQueryResult, QueryResult, QueryStats
from ..engine.engine import Coordinator
from ..engine.errors import ReshardInProgressError
from ..engine.executor import Executor, ThreadedExecutor
from ..engine.reshard import GenerationBuild, ReshardReport
from .errors import ServeClosedError
from .gate import SlideGate
from .stats import ServeStats

T = TypeVar("T")


class AsyncEngine:
    """Async facade over one engine (in-process or warm-worker).

    Args:
        engine: the engine to serve.  The facade *borrows* it — the
            caller owns open/close.
        executor: pool the blocking calls run on, via the Executor
            seam's ``submit``.  Defaults to an owned
            :class:`~repro.engine.ThreadedExecutor` with
            ``max_workers`` threads.
        max_workers: size of the owned default pool.  More than one
            thread only helps overlap a detached straggler (a call
            whose waiter gave up on its deadline) with the next call;
            engine calls themselves are mutually exclusive.
        stats: shared serving counters; a fresh block if omitted.
    """

    def __init__(self, engine: Coordinator, *,
                 executor: Executor | None = None, max_workers: int = 2,
                 stats: ServeStats | None = None) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._engine = engine
        if executor is None:
            self._executor: Executor = ThreadedExecutor(
                max_workers=max_workers)
            self._owns_executor = True
        else:
            self._executor = executor
            self._owns_executor = False
        self._gate = SlideGate()
        self._mutex = threading.Lock()
        self._stats = stats if stats is not None else ServeStats()
        self._closed = False
        # Online-reshard state: the facade borrows the engine it was
        # built around, but *owns* any engine it swapped in itself.
        self._owns_engine = False
        self._resharding = False
        #: Catch-up journal: while a reshard's background build runs,
        #: every mutation applied to the live engine is also recorded
        #: here and replayed into the new generation before the flip.
        #: Touched only on pool threads under ``_mutex``.
        self._journal: list[tuple[str, tuple[Any, ...]]] | None = None

    # -- introspection ---------------------------------------------------------

    @property
    def engine(self) -> Coordinator:
        """The wrapped engine (borrowed, not owned)."""
        return self._engine

    @property
    def gate(self) -> SlideGate:
        """The slide barrier (read side = queries, write side = lane)."""
        return self._gate

    @property
    def stats(self) -> ServeStats:
        """Shared serving counters."""
        return self._stats

    @property
    def now(self) -> int:
        """Engine stream time (unsynchronised snapshot, diagnostics)."""
        return int(self._engine.now)

    def _check_open(self) -> None:
        if self._closed:
            raise ServeClosedError("serving facade is closed")

    # -- the bridge ------------------------------------------------------------

    async def _run(self, fn: Callable[[], T]) -> T:
        """Run one blocking engine call on the pool, mutually excluded.

        The mutex is taken *inside* the pool thread so the event loop
        never blocks on it; the submitted callable mutates nothing it
        closes over, so results come back only through the future.
        """
        mutex = self._mutex

        def call() -> T:
            with mutex:
                return fn()

        return await asyncio.wrap_future(self._executor.submit(call))

    async def read(self, fn: Callable[[], T]) -> T:
        """Run a read-only engine call under the gate's shared side."""
        self._check_open()
        async with self._gate.read():
            return await self._run(fn)

    async def write(self, fn: Callable[[], T]) -> T:
        """Run a mutating engine call on the single-writer lane."""
        self._check_open()
        async with self._gate.write():
            return await self._run(fn)

    # -- queries (read side) ---------------------------------------------------

    async def query_interval(self, area: Rect, t_lo: int, t_hi: int,
                             window: int | None = None, *,
                             strict: bool = True) -> QueryResult:
        # Every closure resolves ``self._engine`` *inside* the pool
        # thread (under the mutex), never at call-build time: an online
        # reshard may swap the engine while this request waits its turn.
        return await self.read(
            lambda: self._engine.query_interval(area, t_lo, t_hi, window,
                                                strict=strict))

    async def query_interval_many(self, areas: Iterable[Rect], t_lo: int,
                                  t_hi: int, window: int | None = None, *,
                                  strict: bool = True) -> MultiQueryResult:
        areas = list(areas)
        return await self.read(
            lambda: self._engine.query_interval_many(areas, t_lo, t_hi,
                                                     window, strict=strict))

    async def count_interval(self, area: Rect, t_lo: int, t_hi: int,
                             window: int | None = None, *,
                             strict: bool = True) -> tuple[int, QueryStats]:
        return await self.read(
            lambda: self._engine.count_interval(area, t_lo, t_hi, window,
                                                strict=strict))

    async def query_knn(self, x: int, y: int, k: int, t_lo: int,
                        t_hi: int | None = None,
                        window: int | None = None, *,
                        strict: bool = True) -> QueryResult:
        return await self.read(
            lambda: self._engine.query_knn(x, y, k, t_lo, t_hi, window,
                                           strict=strict))

    # -- mutations (single-writer lane) ----------------------------------------

    def _mutate(self, name: str, *args: Any) -> Callable[[], Any]:
        """Closure applying one mutation and journaling it if it took.

        Runs on a pool thread under the mutex; the journal append comes
        *after* the engine call, so a rejected mutation is never
        replayed into a resharding build.
        """
        def op() -> Any:
            result = getattr(self._engine, name)(*args)
            if self._journal is not None:
                self._journal.append((name, args))
            return result

        return op

    async def insert(self, oid: int, x: int, y: int, s: int,
                     d: int | None = None) -> None:
        await self.write(self._mutate("insert", oid, x, y, s, d))
        self._stats.mutations += 1
        self._stats.ingested_reports += 1

    async def report(self, oid: int, x: int, y: int, t: int) -> None:
        await self.insert(oid, x, y, t, None)

    async def extend(self, reports: Iterable[ReportLike]) -> int:
        batch = list(reports)
        count = int(await self.write(self._mutate("extend", batch)))
        self._stats.mutations += 1
        self._stats.ingested_reports += count
        return count

    async def close_object(self, oid: int, t: int) -> bool:
        closed = bool(await self.write(
            self._mutate("close_object", oid, t)))
        self._stats.mutations += 1
        return closed

    async def advance_time(self, now: int) -> None:
        """Slide barrier: drain in-flight reads, slide, release.

        ``now`` is a watermark: the engine moves to ``max(clock, now)``,
        compared inside the write lane so no mutation can interleave.
        A ``now`` behind the clock slides and journals nothing.
        """
        slide = self._mutate("advance_time", now)

        def op() -> bool:
            if now < self._engine.now:
                return False
            slide()
            return True

        if await self.write(op):
            self._stats.slides += 1

    async def save(self) -> None:
        """Whole-directory save, exclusive like any other mutation.

        Refused while a reshard is in flight: the reshard's own commit
        is the next epoch flip, and a concurrent save would race it for
        the manifest (and invalidate the frozen staging copies).
        """
        if self._resharding:
            raise ReshardInProgressError(
                "a reshard is in flight; its commit is the next epoch "
                "flip — retry save() after it completes")
        await self.write(lambda: self._engine.save())
        self._stats.saves += 1

    # -- online reshard --------------------------------------------------------

    async def reshard(self, new_n_shards: int) -> ReshardReport:
        """Reshard the served directory while continuing to serve.

        Three-phase protocol over the slide gate:

        1. **Freeze** (exclusive): checkpoint (``save()``), validate the
           reshard preconditions, stage the source copies
           (:meth:`GenerationBuild.stage`), install the catch-up
           journal.  Bounded work — one save plus one file copy per
           shard.
        2. **Build** (off-gate): stream the frozen copies into the new
           generation on a pool thread.  Reads and writes run normally
           throughout; every mutation is journaled.
        3. **Flip** (exclusive): replay the journal into the new
           generation, commit the generation flip, swap the served
           engine, abort the old one.

        A failure before the manifest flip uninstalls the journal and
        aborts the build; the old generation keeps serving untouched.
        A failure after it still aborts the old engine, so nothing
        saves the dropped generation over the flip.
        """
        self._check_open()
        if self._resharding:
            raise ReshardInProgressError(
                "a reshard is already in flight; retry after it "
                "completes")
        self._resharding = True
        try:
            async with self._gate.write():
                build = await self._run(
                    lambda: self._freeze_reshard(new_n_shards))
            try:
                await asyncio.wrap_future(self._executor.submit(build.build))
                async with self._gate.write():
                    report = await self._run(
                        lambda: self._flip_reshard(build))
            except BaseException:
                def drop() -> None:
                    self._journal = None
                    build.abort()

                await self._run(drop)
                raise
        finally:
            self._resharding = False
        self._stats.reshards += 1
        return report

    def _freeze_reshard(self, new_n_shards: int) -> GenerationBuild:
        """Phase 1 body (pool thread, exclusive): checkpoint + stage."""
        engine = self._engine
        engine.save()
        build = GenerationBuild(engine.directory, new_n_shards,
                                engine.config, file_ops=engine.file_ops)
        build.stage()
        self._journal = []
        return build

    def _flip_reshard(self, build: GenerationBuild) -> ReshardReport:
        """Phase 3 body (pool thread, exclusive): replay, flip, swap."""
        journal, self._journal = self._journal, None
        target = build.engine
        for name, args in journal or ():
            getattr(target, name)(*args)
        old = self._engine
        try:
            report = build.commit()
            # The build's engine only carried the data across; what
            # serves the new generation is the old engine's kind
            # (in-process or worker pool), reopened around the new
            # shard layout.
            build.close()
            self._engine = old.reopen(report.new_n_shards)
            self._owns_engine = True
        finally:
            # Once the manifest names the new generation the old engine
            # is aborted, not closed, whatever failed after the flip: the
            # writes it absorbed since the freeze live in the new
            # generation, and its save would commit the dropped one over
            # the flip.  If it was borrowed, its owner (the server's exit
            # stack) still calls close() at shutdown, a no-op once
            # aborted.  If the reopen failed, the facade serves nothing
            # more until a restart opens the new generation.
            if build.flipped:
                old.abort()
        return report

    # -- lifecycle -------------------------------------------------------------

    async def drain(self) -> None:
        """Wait out every in-flight engine call (a no-op writer pass)."""
        async with self._gate.write():
            pass

    def close(self) -> None:
        """Stop accepting work and shut down the owned pool.

        Synchronous so it slots into the server's ``ExitStack``; the
        borrowed engine is left open for its owner — but an engine the
        facade swapped in itself (online reshard) is the facade's to
        close.  Safe to call more than once.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_executor:
            self._executor.close()
        if self._owns_engine:
            self._engine.close()
