"""Request coalescing: concurrent queries sharing a temporal signature
become one batched engine call.

PR 6 made ``query_interval_many`` evaluate a whole rectangle list with
one compiled plan and one level-wise descent per (cell, tree) — and a
plan is a function of exactly the temporal signature ``(t_lo, t_hi,
window)``.  The coalescer exploits that alignment at the front door:
query requests arriving concurrently with the same signature are parked
in a per-signature bucket; when the bucket reaches ``max_batch`` or its
linger window expires, the whole bucket flushes as one
``query_interval_many`` call and each request receives its own
rectangle's result (per-rect entries and failure attribution are
*exactly* what the scalar call would have produced — PR 6's equivalence
guarantee, re-proven for this path by the serving test suite).

Within a flush, *identical* rectangles are additionally collapsed: the
engine call receives each distinct rectangle once and the per-rect
result fans back out to every request that asked for it (classic
request collapsing, the dashboard case of many clients polling the same
tile).  This is sound precisely because ``query_interval_many``
guarantees per-rect results equal to the scalar call's — two requests
for the same rectangle under the same signature cannot be told apart by
their responses.

Strictness is demuxed per request: the batch always runs degraded
(``strict=False``) so one failed shard cannot poison the other
requests; a request that asked for strict semantics and whose rectangle
overlaps a failed shard gets the same typed
:class:`~repro.engine.errors.ShardQueryError` the scalar strict path
raises, while degraded requests receive their
:class:`~repro.engine.PartialResult` untouched.

Determinism seams (R002): the linger timer is injectable — the default
schedules on the event loop (``loop.call_later``); a ``max_linger`` of
``0`` flushes on the next loop tick, which still merges everything
submitted in the current tick.  No wall clock is read here.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Protocol

from ..core.records import Rect
from ..core.results import QueryResult
from ..engine.errors import ShardQueryError
from .async_engine import AsyncEngine
from .stats import ServeStats

#: A bucket key: the query's temporal signature (one plan per bucket).
Signature = tuple[int, int, int | None]


class TimerHandle(Protocol):
    """What the injectable timer seam must return."""

    def cancel(self) -> None: ...  # pragma: no cover - protocol


#: Timer seam: ``(delay_seconds, callback) -> handle``.
Timer = Callable[[float, Callable[[], None]], TimerHandle]


class _Pending:
    """One parked query request."""

    __slots__ = ("area", "strict", "future")

    def __init__(self, area: Rect, strict: bool,
                 future: "asyncio.Future[QueryResult]") -> None:
        self.area = area
        self.strict = strict
        self.future = future


class _Bucket:
    """Requests parked under one temporal signature."""

    __slots__ = ("pending", "timer")

    def __init__(self) -> None:
        self.pending: list[_Pending] = []
        self.timer: TimerHandle | None = None


class Coalescer:
    """Batches same-signature interval queries into one engine call.

    Args:
        engine: the async facade the flushes run through.
        stats: shared serving counters.
        max_batch: flush a bucket as soon as it holds this many
            requests.  ``1`` (or less) disables coalescing entirely —
            every request takes the scalar ``query_interval`` path (the
            uncoalesced A/B baseline).
        max_linger: seconds a bucket may wait for company before
            flushing.  ``0`` flushes on the next event-loop tick.
        timer: injectable linger scheduler (tests drive flushes by
            hand); defaults to ``loop.call_later``.
    """

    def __init__(self, engine: AsyncEngine, stats: ServeStats, *,
                 max_batch: int = 64, max_linger: float = 0.0,
                 timer: Timer | None = None) -> None:
        if max_linger < 0:
            raise ValueError(f"max_linger must be >= 0, got {max_linger}")
        self._engine = engine
        self._stats = stats
        self._max_batch = max_batch
        self._max_linger = max_linger
        self._timer = timer
        self._buckets: dict[Signature, _Bucket] = {}
        self._inflight: set[asyncio.Task[None]] = set()

    @property
    def enabled(self) -> bool:
        """False when ``max_batch <= 1`` (scalar pass-through mode)."""
        return self._max_batch > 1

    @property
    def pending_requests(self) -> int:
        """Requests currently parked across all buckets."""
        return sum(len(b.pending) for b in self._buckets.values())

    # -- the front door --------------------------------------------------------

    async def query_interval(self, area: Rect, t_lo: int, t_hi: int,
                             window: int | None = None, *,
                             strict: bool = True) -> QueryResult:
        """Scalar-shaped query; batched under the covers when enabled."""
        self._stats.queries += 1
        if not self.enabled:
            self._stats.engine_query_calls += 1
            return await self._engine.query_interval(
                area, t_lo, t_hi, window, strict=strict)
        signature: Signature = (t_lo, t_hi, window)
        bucket = self._buckets.get(signature)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[signature] = bucket
            self._schedule_flush(signature, bucket)
        future: asyncio.Future[QueryResult] = \
            asyncio.get_running_loop().create_future()
        bucket.pending.append(_Pending(area, strict, future))
        if len(bucket.pending) >= self._max_batch:
            self._flush(signature)
        return await future

    # -- flushing --------------------------------------------------------------

    def _schedule_flush(self, signature: Signature,
                        bucket: _Bucket) -> None:
        loop = asyncio.get_running_loop()
        if self._max_linger <= 0:
            # Next tick: everything submitted in *this* tick coalesces,
            # nothing waits longer than one loop iteration.
            loop.call_soon(self._flush, signature)
            return
        timer: Timer = self._timer if self._timer is not None \
            else loop.call_later
        bucket.timer = timer(self._max_linger,
                             lambda: self._flush(signature))

    def _flush(self, signature: Signature) -> None:
        """Detach one bucket and evaluate it as a task (idempotent)."""
        bucket = self._buckets.pop(signature, None)
        if bucket is None or not bucket.pending:
            return
        if bucket.timer is not None:
            bucket.timer.cancel()
        task = asyncio.get_running_loop().create_task(
            self._run_batch(signature, bucket.pending))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, signature: Signature,
                         pending: list[_Pending]) -> None:
        t_lo, t_hi, window = signature
        self._stats.engine_query_calls += 1
        if len(pending) > 1:
            self._stats.coalesced_batches += 1
            self._stats.coalesced_requests += len(pending)
        # Collapse identical rectangles: the engine sees each distinct
        # rect once; ``slots`` maps every request back to its result.
        areas: list[Rect] = []
        index_of: dict[tuple[int, int, int, int], int] = {}
        slots: list[int] = []
        for request in pending:
            key = (request.area.x_lo, request.area.y_lo,
                   request.area.x_hi, request.area.y_hi)
            slot = index_of.get(key)
            if slot is None:
                slot = len(areas)
                index_of[key] = slot
                areas.append(request.area)
            slots.append(slot)
        self._stats.collapsed_requests += len(pending) - len(areas)
        try:
            batch = await self._engine.query_interval_many(
                areas, t_lo, t_hi, window, strict=False)
        except Exception as exc:
            # Whatever failed the batch fails every request in it —
            # a waiter that already gave up (cancelled deadline) is
            # skipped, never silently dropped.
            for request in pending:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        for request, slot in zip(pending, slots, strict=True):
            result = batch.results[slot]
            if request.future.done():
                continue
            failures = list(getattr(result, "failures", ()))
            if failures and request.strict:
                first = failures[0]
                request.future.set_exception(ShardQueryError(
                    first.shard_id, first.path, first.error))
            else:
                request.future.set_result(result)

    # -- lifecycle -------------------------------------------------------------

    async def drain(self) -> None:
        """Flush every bucket and wait for in-flight batches (shutdown)."""
        for signature in list(self._buckets):
            self._flush(signature)
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)

    def stats_view(self) -> dict[str, Any]:
        """Live gauges for ``/stats``."""
        return {"coalesce_pending": self.pending_requests,
                "coalesce_buckets": len(self._buckets),
                "coalesce_enabled": self.enabled}
