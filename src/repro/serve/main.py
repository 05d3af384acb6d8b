"""Server assembly: options -> engine -> app -> listening socket.

``repro serve`` lands here.  :func:`serve` builds the whole stack —
engine (sharded or warm-worker), async facade, application, HTTP
adapter — inside one ``AsyncExitStack`` so a failure at *any* stage of
startup (bad directory, torn epoch, port in use) unwinds every resource
already acquired: the socket closes, in-flight work drains, the facade
shuts its pool, the engine closes.  The same stack runs the shutdown
path, so "startup failed halfway" and "clean shutdown" are literally
the same code.

Determinism seams stop at this edge: :class:`ServeOptions` carries the
``rng`` (retry-hint jitter) and ``timer`` (coalescer linger) callables;
``repro.cli`` wires real ``random``/event-loop timers into them, and
tests wire fakes.  The ``serve`` package itself never reads a clock.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from ..core.config import SWSTConfig
from ..engine import RetryPolicy, open_engine
from .app import ServeApp
from .async_engine import AsyncEngine
from .coalesce import Timer
from .http import HttpServer, render_curl_examples
from .stats import ServeStats


@dataclass
class ServeOptions:
    """Everything ``repro serve`` needs to assemble a server.

    Attributes:
        index: engine directory to open (or create when ``create``).
        config: index parameters (must match the directory when
            opening).
        create: build a fresh directory instead of opening one.
        workers: run shards in warm worker processes (WAL-durable)
            instead of in-process.
        executor: in-process executor spec (``serial`` | ``thread[:N]``,
            not a speed setting); ignored with ``workers``.
        host, port: bind address (port ``0`` = pick a free one).
        capacity: admission bound (concurrent data-plane requests).
        max_batch: coalescer flush threshold (``1`` disables).
        max_linger: coalescer linger window, seconds.
        request_timeout: default per-request deadline, seconds
            (``None`` = no default deadline).
        retry_policy: shard retry policy, wired at the CLI edge.
        rng: retry-hint jitter seam (``() -> float in [0, 1)``).
        timer: coalescer linger-timer seam.
        pool_workers: threads bridging blocking engine calls.
    """

    index: str
    config: SWSTConfig = field(default_factory=SWSTConfig)
    create: bool = False
    workers: bool = False
    executor: str = "serial"
    host: str = "127.0.0.1"
    port: int = 0
    capacity: int = 64
    max_batch: int = 64
    max_linger: float = 0.0
    request_timeout: float | None = None
    retry_policy: RetryPolicy | None = None
    rng: Callable[[], float] | None = None
    timer: Timer | None = None
    pool_workers: int = 2


async def serve(options: ServeOptions, *,
                ready: Callable[[HttpServer, ServeApp],
                                Awaitable[None] | None] | None = None,
                shutdown: asyncio.Event | None = None,
                echo: Callable[[str], None] = print) -> ServeStats:
    """Run the server until ``shutdown`` is set (or forever).

    Args:
        options: the assembly recipe.
        ready: awaited (or called) once the socket is listening —
            tests use it to learn the bound port and drive traffic.
        shutdown: event that ends the serve loop; ``None`` serves
            until cancelled.
        echo: where startup lines go (quiet tests pass a sink).

    Returns the final counters (handy for tests and the bench client).
    """
    if shutdown is None:
        shutdown = asyncio.Event()
    with contextlib.ExitStack() as stack:
        engine = stack.enter_context(open_engine(
            options.index, options.config, create=options.create,
            workers=options.workers, executor=options.executor,
            retry_policy=options.retry_policy))
        facade = AsyncEngine(engine, max_workers=options.pool_workers)
        stack.callback(facade.close)
        app = ServeApp(facade, capacity=options.capacity,
                       max_batch=options.max_batch,
                       max_linger=options.max_linger,
                       request_timeout=options.request_timeout,
                       rng=options.rng, timer=options.timer)
        server = HttpServer(app, host=options.host, port=options.port)
        await server.start()
        try:
            echo(f"serving {options.index} on {server.address} "
                 f"(capacity={options.capacity}, "
                 f"max_batch={options.max_batch})")
            for line in render_curl_examples(server.address):
                echo(f"  {line}")
            if ready is not None:
                maybe = ready(server, app)
                if maybe is not None:
                    await maybe
            await shutdown.wait()
        finally:
            # Stop the listener first (no new connections), then let
            # lingering batches and engine calls finish before the
            # ExitStack closes the facade and the engine underneath.
            await server.aclose()
            await app.drain()
        return app.stats


def run(options: ServeOptions) -> int:
    """Blocking entry point for the CLI: serve until SIGTERM/SIGINT.

    Both signals set the ``shutdown`` event, so the server leaves
    through the same ``ExitStack`` unwinding as any other exit — the
    listener closes, in-flight work drains, worker processes are
    stopped — instead of dying with its children still running.
    """
    async def main() -> None:
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, shutdown.set)
        await serve(options, shutdown=shutdown)

    asyncio.run(main())
    return 0
