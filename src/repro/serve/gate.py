"""The slide barrier: a write-preferring async reader-writer gate.

Queries hold the *read* side of the gate while they execute, so any
number of read requests can be in flight between window slides.  A
mutation — an insert, a batch extend, and above all ``advance_time``
(the slide itself) — takes the *write* side, which is exclusive and
write-preferring:

* **idle** — no writer active or waiting; readers are admitted freely.
* **draining** — a writer queued up.  New readers are parked (they keep
  their admission slots but do not reach the engine) while the in-flight
  readers finish.  Parked readers cannot starve the writer because
  nothing new enters the read side.
* **exclusive** — the drain completed; exactly one writer runs.  Queued
  writers are granted in FIFO order (the single-writer ingest lane —
  mutations execute in arrival order, preserving the stream's timestamp
  monotonicity), then every parked reader is released at once.

Deadlock-freedom with a full admission queue: the gate is *independent*
of the admission queue.  A writer only ever waits for already-running
readers (which finish on their own), never for queued work; queued
readers wait for the writer but hold nothing the writer needs.  The
barrier therefore always completes, even when admission is saturated —
the soak test exercises exactly this interleaving.

The gate is purely ``asyncio``-side state: every method must be called
from the event-loop thread, and no wall clock is involved (invariant
R002 — the serving layer is deterministic given a task schedule).
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
from typing import AsyncIterator


class SlideGate:
    """Write-preferring reader-writer gate for the serving facade.

    Readers share; writers are exclusive, FIFO among themselves, and
    preferred over new readers (a pending slide drains the read side
    instead of waiting behind an endless reader stream).
    """

    def __init__(self) -> None:
        self._readers = 0
        self._writer = False
        self._read_waiters: collections.deque[asyncio.Future[None]] = \
            collections.deque()
        self._write_waiters: collections.deque[asyncio.Future[None]] = \
            collections.deque()

    # -- observability ---------------------------------------------------------

    @property
    def active_readers(self) -> int:
        """Readers currently holding the gate."""
        return self._readers

    @property
    def waiting_readers(self) -> int:
        """Readers parked behind a pending or active writer."""
        return len(self._read_waiters)

    @property
    def writer_active(self) -> bool:
        """True while the exclusive side is held."""
        return self._writer

    @property
    def state(self) -> str:
        """Barrier state: ``idle`` | ``draining`` | ``exclusive``."""
        if self._writer:
            return "exclusive"
        if self._write_waiters:
            return "draining"
        return "idle"

    # -- scheduling ------------------------------------------------------------

    def _wake(self) -> None:
        """Grant the gate to whoever is next.

        Writers first (FIFO), and only once the read side is drained;
        with no writer pending, every parked reader is released.
        """
        if self._writer:
            return
        while self._write_waiters and self._write_waiters[0].cancelled():
            self._write_waiters.popleft()
        if self._write_waiters:
            if self._readers == 0:
                waiter = self._write_waiters.popleft()
                self._writer = True
                waiter.set_result(None)
            return
        while self._read_waiters:
            waiter = self._read_waiters.popleft()
            if not waiter.cancelled():
                self._readers += 1
                waiter.set_result(None)

    # -- read side -------------------------------------------------------------

    async def acquire_read(self) -> None:
        """Join the read side; parks while a writer is pending/active."""
        if not self._writer and not self._write_waiters:
            self._readers += 1
            return
        waiter: asyncio.Future[None] = \
            asyncio.get_running_loop().create_future()
        self._read_waiters.append(waiter)
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                # Granted between resolution and resumption: give the
                # grant back so the drain accounting stays exact.
                self.release_read()
            else:
                with contextlib.suppress(ValueError):
                    self._read_waiters.remove(waiter)
            raise

    def release_read(self) -> None:
        """Leave the read side; the last reader out completes a drain."""
        if self._readers <= 0:
            raise AssertionError("release_read() without a matching "
                                 "acquire_read()")
        self._readers -= 1
        if self._readers == 0:
            self._wake()

    @contextlib.asynccontextmanager
    async def read(self) -> AsyncIterator[None]:
        await self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- write side ------------------------------------------------------------

    async def acquire_write(self) -> None:
        """Queue for the exclusive side (FIFO); returns once granted."""
        waiter: asyncio.Future[None] = \
            asyncio.get_running_loop().create_future()
        self._write_waiters.append(waiter)
        self._wake()
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                # Granted but abandoned: release so the gate moves on.
                self.release_write()
            else:
                with contextlib.suppress(ValueError):
                    self._write_waiters.remove(waiter)
                self._wake()
            raise

    def release_write(self) -> None:
        """Release the exclusive side; wakes the next writer or all
        parked readers."""
        if not self._writer:
            raise AssertionError("release_write() without a matching "
                                 "acquire_write()")
        self._writer = False
        self._wake()

    @contextlib.asynccontextmanager
    async def write(self) -> AsyncIterator[None]:
        await self.acquire_write()
        try:
            yield
        finally:
            self.release_write()
