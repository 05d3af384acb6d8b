"""Admission control: a bounded in-flight window with typed rejection.

The serving layer never queues unboundedly.  At most ``capacity``
requests may be in flight at once — admitted, lingering in the
coalescer, parked behind a slide, or executing on the engine pool.
Request ``capacity + 1`` is refused *before* any work happens with a
typed :class:`~repro.serve.errors.Overloaded` carrying the observed
depth and a suggested retry delay, which the HTTP layer turns into a
``503`` with a ``Retry-After`` header.  Refusing early keeps the
overload signal cheap (no parsing beyond the route, no engine work) and
keeps queue depth — and therefore queueing delay — bounded by
construction.

The retry hint can be jittered to de-synchronise retrying clients; the
randomness comes through an injected ``rng`` seam (a ``random.Random``
instance wired in at the CLI edge), never from module-level state, so
the serving layer stays deterministic under test (invariant R002).
"""

from __future__ import annotations

import contextlib
from typing import AsyncIterator, Callable

from .errors import Overloaded
from .stats import ServeStats


class AdmissionController:
    """Bounded admission window over the serving request stream.

    Args:
        capacity: maximum requests in flight at once (> 0).
        stats: shared serving counters (queue-depth gauge lives there).
        retry_after: base client back-off hint, in seconds, attached to
            rejections.
        rng: optional ``() -> float in [0, 1)`` seam; when present the
            hint becomes ``retry_after * (1 + rng())`` so rejected
            clients do not retry in lockstep.
    """

    def __init__(self, capacity: int, stats: ServeStats, *,
                 retry_after: float = 0.05,
                 rng: Callable[[], float] | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._stats = stats
        self._retry_after = retry_after
        self._rng = rng

    @property
    def capacity(self) -> int:
        return self._capacity

    def _retry_hint(self) -> float:
        if self._rng is None:
            return self._retry_after
        return self._retry_after * (1.0 + self._rng())

    def try_admit(self) -> None:
        """Take one admission slot or raise :class:`Overloaded`.

        Pair every successful call with :meth:`release` (or use
        :meth:`admit`, which does it structurally).
        """
        depth = self._stats.queue_depth
        if depth >= self._capacity:
            self._stats.overload_rejections += 1
            raise Overloaded(depth, self._capacity, self._retry_hint())
        self._stats.enter_queue()

    def release(self) -> None:
        """Give back one admission slot."""
        self._stats.leave_queue()

    @contextlib.asynccontextmanager
    async def admit(self) -> AsyncIterator[None]:
        """Hold one admission slot for the duration of a request."""
        self.try_admit()
        try:
            yield
        finally:
            self.release()
