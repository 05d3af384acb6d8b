"""Asynchronous serving front end over the sharded SWST engine.

The serve package turns one :class:`~repro.engine.ShardedEngine` (or
warm-worker :class:`~repro.engine.WorkerEngine`) into a network
service with the paper's sliding-window semantics preserved end to
end:

* :class:`AsyncEngine` — asyncio facade bridging blocking engine calls
  through the Executor seam; reads share a
  :class:`~repro.serve.gate.SlideGate`, mutations run on a
  single-writer FIFO lane, and ``advance_time`` *is* the slide barrier.
* :class:`Coalescer` — concurrent queries sharing a temporal signature
  merge into one single-plan ``query_interval_many`` call with
  per-request demultiplexing (strictness included).
* :class:`AdmissionController` — a bounded in-flight window with typed
  :class:`Overloaded` rejection and jittered retry hints.
* :class:`ServeApp` + :class:`HttpServer` — stdlib-only HTTP/JSON
  routing (insert/report/close/extend, query/count/knn scalar and
  batch, slide/save, ``/healthz``, ``/stats``) with per-request
  deadlines and 206-style degraded responses.

``repro serve`` (see :mod:`repro.cli`) assembles the stack via
:func:`~repro.serve.main.serve`; ``docs/internals.md`` documents the
coalescing window semantics, the slide-barrier state machine, and the
failure model.
"""

from .admission import AdmissionController
from .app import ServeApp
from .async_engine import AsyncEngine
from .coalesce import Coalescer
from .errors import (BadRequest, DeadlineExceeded, Overloaded,
                     ServeClosedError, ServeError)
from .gate import SlideGate
from .http import HttpServer
from .main import ServeOptions, run, serve
from .stats import ServeStats
from .wire import Request, Response, WireReport

__all__ = [
    "AdmissionController",
    "AsyncEngine",
    "BadRequest",
    "Coalescer",
    "DeadlineExceeded",
    "HttpServer",
    "Overloaded",
    "Request",
    "Response",
    "ServeApp",
    "ServeClosedError",
    "ServeError",
    "ServeOptions",
    "ServeStats",
    "SlideGate",
    "WireReport",
    "run",
    "serve",
]
