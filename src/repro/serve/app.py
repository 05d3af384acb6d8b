"""The serving application: routing, admission, deadlines, error model.

:class:`ServeApp` is the transport-independent core of the front end.
It wires the three serving mechanisms around one
:class:`~repro.serve.async_engine.AsyncEngine`:

* every data-plane request passes **admission control** first (typed
  ``Overloaded`` rejection at the bound; the control plane is exempt so
  slides and health probes work under saturation);
* scalar queries pass through the **coalescer**;
* the handler body runs under the request's **deadline**
  (``X-Deadline`` header, else the server default) — on expiry the
  waiter gets a 504 while any engine call already executing completes
  server-side unobserved (the executor layer's deadline contract).

Failure model (every row tested):

    ==========================  ======  ===================================
    condition                   status  body / headers
    ==========================  ======  ===================================
    malformed request           400     ``error: bad_request`` + detail
    unknown path                404     ``error: not_found``
    wrong method on known path  405     ``error: method_not_allowed``
    degraded (partial) result   206     payload + ``degraded: true``
    admission queue full        503     ``error: overloaded``,
                                        ``Retry-After`` header
    reshard already in flight   409     ``error: reshard_in_progress``
    server closing              503     ``error: closed``
    deadline elapsed            504     ``error: deadline_exceeded``
    strict shard failure        500     ``error: shard_failure`` + shard
    any other failure           500     ``error: internal`` + type name
    ==========================  ======  ===================================
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

from ..engine.errors import (EngineClosedError, ReshardInProgressError,
                             ShardQueryError)
from .admission import AdmissionController
from .async_engine import AsyncEngine
from .coalesce import Coalescer, Timer
from .errors import (BadRequest, DeadlineExceeded, Overloaded,
                     ServeClosedError)
from .routers import ROUTES, UNGATED
from .stats import ServeStats
from .wire import Request, Response, result_json

Handler = Callable[["ServeApp", Request], Awaitable[Response]]


class ServeApp:
    """Routing core of the serving front end (no sockets in here).

    Args:
        engine: the async facade to serve (borrowed).
        capacity: admission bound — data-plane requests in flight.
        max_batch: coalescer flush threshold; ``1`` disables
            coalescing (the A/B baseline the benchmark compares).
        max_linger: coalescer linger window in seconds (``0`` = one
            event-loop tick).
        request_timeout: default per-request deadline in seconds;
            ``None`` means no deadline unless the client sends
            ``X-Deadline``.
        retry_after: base back-off hint attached to 503 rejections.
        rng: optional jitter seam for the back-off hint
            (``() -> float in [0, 1)``), injected at the CLI edge.
        timer: optional linger-timer seam for the coalescer.
    """

    def __init__(self, engine: AsyncEngine, *, capacity: int = 64,
                 max_batch: int = 64, max_linger: float = 0.0,
                 request_timeout: float | None = None,
                 retry_after: float = 0.05,
                 rng: Callable[[], float] | None = None,
                 timer: Timer | None = None) -> None:
        self.engine = engine
        self.stats: ServeStats = engine.stats
        self.coalescer = Coalescer(engine, self.stats,
                                   max_batch=max_batch,
                                   max_linger=max_linger, timer=timer)
        self.admission = AdmissionController(capacity, self.stats,
                                             retry_after=retry_after,
                                             rng=rng)
        self.request_timeout = request_timeout
        #: The recovery plan the served engine opened with (``None`` for
        #: an engine a constructor built), as ``/stats`` shows it.
        plan = engine.engine.recovery
        self.recovery = plan.summary() if plan is not None else None
        self._routes: dict[tuple[str, str], Handler] = {
            (method, path): handler for method, path, handler in ROUTES}
        self._paths = {path for _, path, _ in ROUTES}

    # -- shared response helpers -----------------------------------------------

    def query_response(self, result: Any) -> Response:
        """Entries + stats; 206 when the result is partial."""
        payload = result_json(result)
        if payload["degraded"]:
            self.stats.degraded_responses += 1
            return Response(206, payload)
        return Response(200, payload)

    def stats_snapshot(self) -> dict[str, Any]:
        """Counters plus live gauges (gate, coalescer, admission) and
        the recovery plan the server opened with."""
        snapshot = self.stats.snapshot()
        snapshot["gate"] = self.engine.gate.state
        snapshot["recovery"] = self.recovery
        snapshot["admission_capacity"] = self.admission.capacity
        snapshot.update(self.coalescer.stats_view())
        return snapshot

    # -- dispatch --------------------------------------------------------------

    async def _dispatch(self, handler: Handler,
                        request: Request) -> Response:
        deadline = request.deadline(self.request_timeout)
        if deadline is None:
            return await handler(self, request)
        try:
            return await asyncio.wait_for(handler(self, request),
                                          deadline)
        except asyncio.TimeoutError:
            raise DeadlineExceeded(deadline) from None

    async def handle(self, request: Request) -> Response:
        """Route one request through admission, deadline, and the
        error model; always returns a :class:`Response`."""
        self.stats.requests_total += 1
        try:
            handler = self._routes.get((request.method, request.path))
            if handler is None:
                if request.path in self._paths:
                    response = Response(
                        405, {"error": "method_not_allowed",
                              "detail": f"{request.method} not "
                                        f"allowed on {request.path}"})
                else:
                    response = Response(
                        404, {"error": "not_found",
                              "detail": request.path})
            elif (request.method, request.path) in UNGATED:
                response = await self._dispatch(handler, request)
            else:
                async with self.admission.admit():
                    response = await self._dispatch(handler, request)
        except Overloaded as exc:
            response = Response(
                503, {"error": "overloaded", "depth": exc.depth,
                      "capacity": exc.capacity,
                      "retry_after": exc.retry_after},
                {"Retry-After": f"{exc.retry_after:.3f}"})
        except DeadlineExceeded as exc:
            self.stats.deadline_rejections += 1
            response = Response(
                504, {"error": "deadline_exceeded",
                      "timeout": exc.timeout})
        except BadRequest as exc:
            self.stats.bad_requests += 1
            response = Response(400, {"error": "bad_request",
                                      "detail": str(exc)})
        except ShardQueryError as exc:
            self.stats.strict_failures += 1
            response = Response(
                500, {"error": "shard_failure",
                      "shard_id": exc.shard_id, "path": exc.path,
                      "detail": str(exc)})
        except ReshardInProgressError as exc:
            response = Response(409, {"error": "reshard_in_progress",
                                      "detail": str(exc)})
        except (ServeClosedError, EngineClosedError) as exc:
            response = Response(503, {"error": "closed",
                                      "detail": str(exc)})
        except Exception as exc:
            # Anything else — engine invariant violations, bad domain
            # values the wire checks missed, circuit-open strict paths,
            # an OSError from a full disk mid-commit — is a server
            # error, reported by type so clients can tell them apart
            # without parsing prose.  The connection stays up.
            response = Response(
                500, {"error": "internal",
                      "type": type(exc).__name__, "detail": str(exc)})
        self.stats.responses_total += 1
        return response

    # -- lifecycle -------------------------------------------------------------

    async def drain(self) -> None:
        """Flush the coalescer and wait out in-flight engine calls."""
        await self.coalescer.drain()
        await self.engine.drain()
