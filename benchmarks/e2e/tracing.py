"""Timing shims around the layers' callables, installed from outside.

``server.py`` calls :func:`install` before it builds the stack.  Every
callable in :data:`PATCHES` is replaced by a shim that times the call
and attributes it to its layer; nothing under ``src/`` changes.  Two
records are kept, both in memory until a dump:

* per span name and thread: ``[count, total_ns, self_ns]``, where self
  time is the span's duration minus the spans opened inside it in the
  same context (``contextvars``: the same thread, or the same asyncio
  task);
* for the coarse spans (``keep=True``: O(1) per request), one tuple
  ``(id, parent, name, start_ns, end_ns, request_id, thread)`` each,
  so thread and pipe hops can be linked by time containment afterwards
  (:mod:`.layers`).  Clocks are ``perf_counter_ns`` = CLOCK_MONOTONIC,
  which worker processes share.

SIGUSR1 makes every process of the deployment write what it has to
``<trace_dir>/dump-<pid>-<seq>.json``; the harness sends it at phase
boundaries and before any SIGKILL, so spans survive the crash test.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import itertools
import json
import os
import signal
import threading
import time
from typing import Any, Callable

_now = time.perf_counter_ns

#: The open span of the current context: [child_ns, kept_id, request_id].
_frame: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "bench_frame", default=None)


class Tracer:
    """Span aggregates and kept spans of one process."""

    def __init__(self) -> None:
        self.trace_dir = ""
        self.seq = 0
        self._local = threading.local()
        self._accs: list[tuple[int, dict[str, list[int]]]] = []
        self._lock = threading.Lock()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)

    def reset_after_fork(self) -> None:
        """A forked worker starts its own record."""
        self.seq = 0
        self._local = threading.local()
        self._accs = []
        del self.spans[:]       # in place: the shims hold this list

    def acc(self) -> dict[str, list[int]]:
        """This thread's aggregates: name -> [count, total_ns, self_ns]
        (counters use slot 0 only)."""
        try:
            return self._local.acc
        except AttributeError:
            acc: dict[str, list[int]] = {}
            self._local.acc = acc
            with self._lock:
                self._accs.append((threading.get_ident(), acc))
            return acc

    def count(self, name: str, amount: int = 1) -> None:
        acc = self.acc()
        cell = acc.get(name)
        if cell is None:
            acc[name] = [amount, 0, 0]
        else:
            cell[0] += amount

    def by_thread(self) -> dict[str, dict[str, list[int]]]:
        """Cumulative aggregates, one block per thread that ran a shim."""
        with self._lock:
            accs = list(self._accs)
        return {str(ident): {name: list(cell)
                             for name, cell in list(acc.items())}
                for ident, acc in accs}

    # -- shims ----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any], *, keep: bool = False,
             root: bool = False,
             after: Callable[..., None] | None = None,
             accesses: str = "") -> Callable[..., Any]:
        """A shim around ``fn`` (sync or coroutine function).

        ``after(tracer, result, args)`` harvests counts from a call;
        ``accesses`` names a counter that receives the node accesses
        (``IOStats`` logical reads + writes) the call made on
        ``args[0].pool`` — exact, whatever else the server is doing."""
        tracer = self
        get, put, reset = _frame.get, _frame.set, _frame.reset
        spans, ids, rids = self.spans, self._ids, self._rids
        thread_id = threading.get_ident

        def close(frame: list, parent: list | None, t0: int,
                  t1: int) -> None:
            dt = t1 - t0
            if parent is not None:
                parent[0] += dt
            acc = tracer.acc()
            cell = acc.get(name)
            if cell is None:
                acc[name] = [1, dt, dt - frame[0]]
            else:
                cell[0] += 1
                cell[1] += dt
                cell[2] += dt - frame[0]
            if keep:
                spans.append((frame[1], parent[1] if parent else 0, name,
                              t0, t1, frame[2], thread_id()))

        def open_frame(parent: list | None) -> list:
            kept_id = next(ids) if keep else (parent[1] if parent else 0)
            rid = next(rids) if root else (parent[2] if parent else 0)
            return [0, kept_id, rid]

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def ashim(*args: Any, **kwargs: Any) -> Any:
                parent = get()
                frame = open_frame(parent)
                token = put(frame)
                t0 = _now()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    t1 = _now()
                    reset(token)
                    close(frame, parent, t0, t1)
                if after is not None:
                    after(tracer, result, args)
                return result
            return ashim

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            parent = get()
            frame = open_frame(parent)
            token = put(frame)
            if accesses:
                io = args[0].pool.stats
                before = io.logical_reads + io.logical_writes
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                reset(token)
                close(frame, parent, t0, t1)
            if accesses:
                tracer.count(accesses, io.logical_reads
                             + io.logical_writes - before)
            if after is not None:
                after(tracer, result, args)
            return result
        return shim

    # -- dumps ----------------------------------------------------------------

    def dump(self, extra: dict[str, Any] | None = None) -> None:
        """Write and forget everything recorded since the last dump
        (aggregates stay cumulative; spans are handed over)."""
        spans = self.spans[:]
        del self.spans[:len(spans)]
        self.seq += 1
        record = {"pid": os.getpid(), "seq": self.seq,
                  "agg": self.by_thread(), "spans": spans}
        record.update(extra or {})
        path = os.path.join(self.trace_dir,
                            f"dump-{os.getpid()}-{self.seq}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(record, handle)
        os.replace(path + ".tmp", path)


TRACER = Tracer()


# -- harvest hooks: counts taken where the work happens -----------------------


def _after_lookup(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("#plan.miss" if result is None else "#plan.hit")


def _after_query(tracer: Tracer, result: Any, args: tuple) -> None:
    """Engine-level query: QueryStats and result sizes."""
    stats = result.stats
    results = getattr(result, "results", None)
    entries = (sum(len(r.entries) for r in results)
               if results is not None else len(result.entries))
    tracer.count("#query.rects",
                 len(results) if results is not None else 1)
    tracer.count("#query.entries", entries)
    for field in ("candidates", "refined_out", "key_ranges",
                  "columns_examined", "spatial_cells"):
        tracer.count(f"#query.{field}", getattr(stats, field))


def _after_extend(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("#extend.reports", int(result))


def _after_drop_window(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("#drop.pages_freed", int(result))


def _after_spawn(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("#worker.spawns")
    tracer.count("#wal.replayed", int(result.get("replayed", 0)))


def _after_split(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("#keys.split", len(result))


def _after_search(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("#multisearch.ranges", len(args[1]))


#: (module, class or "", attribute, span name, options).  The span name's
#: prefix up to the last dot-free word is its layer: see ``LAYER_OF``.
#: Underscore names are listed where they are the real boundary the
#: engine calls a shard through (README, "Layer map").
PATCHES: tuple[tuple[str, str, str, str, dict], ...] = (
    # serve
    ("repro.serve.app", "ServeApp", "handle", "serve.app.handle",
     {"keep": True, "root": True}),
    ("repro.serve.admission", "AdmissionController", "try_admit",
     "serve.app.admit", {}),
    ("repro.serve.http", "", "_encode_response", "serve.http.encode", {}),
    ("repro.serve.wire", "Request", "json", "serve.wire.decode", {}),
    ("repro.serve.routers.ingest", "", "parse_reports",
     "serve.wire.decode_reports", {}),
    ("repro.serve.app", "", "result_json", "serve.wire.encode", {}),
    ("repro.serve.routers.query", "", "result_json", "serve.wire.encode",
     {}),
    ("repro.serve.coalesce", "Coalescer", "query_interval",
     "serve.coalesce.query", {}),
    ("repro.serve.gate", "SlideGate", "acquire_read",
     "serve.gate.read_wait", {}),
    ("repro.serve.gate", "SlideGate", "acquire_write",
     "serve.gate.write_wait", {}),
    *((("repro.serve.async_engine", "AsyncEngine", attr,
        f"serve.async_engine.{attr}", {"keep": True}))
      for attr in ("extend", "advance_time", "save", "query_interval",
                   "query_interval_many")),
    # engine (in-process coordinator)
    ("repro.engine.engine", "ShardedEngine", "extend",
     "engine.engine.extend", {"keep": True, "after": _after_extend}),
    ("repro.engine.engine", "ShardedEngine", "advance_time",
     "engine.engine.advance_time", {"keep": True}),
    ("repro.engine.engine", "ShardedEngine", "save",
     "engine.engine.save", {"keep": True}),
    ("repro.engine.engine", "ShardedEngine", "query_interval",
     "engine.engine.query", {"keep": True, "after": _after_query}),
    ("repro.engine.engine", "ShardedEngine", "query_interval_many",
     "engine.engine.query", {"keep": True, "after": _after_query}),
    ("repro.engine.executor", "ThreadedExecutor", "map",
     "engine.executor.map", {"keep": True}),
    # engine (worker coordinator, pipes, WAL)
    ("repro.engine.worker", "WorkerEngine", "extend",
     "engine.worker.extend", {"keep": True, "after": _after_extend}),
    ("repro.engine.worker", "WorkerEngine", "advance_time",
     "engine.worker.advance_time", {"keep": True}),
    ("repro.engine.worker", "WorkerEngine", "save",
     "engine.worker.save", {"keep": True}),
    ("repro.engine.worker", "WorkerEngine", "query_interval",
     "engine.worker.query", {"keep": True, "after": _after_query}),
    ("repro.engine.worker", "WorkerEngine", "query_interval_many",
     "engine.worker.query", {"keep": True, "after": _after_query}),
    ("repro.engine.worker", "WorkerPool", "send",
     "engine.worker.pipe_send", {"keep": True}),
    ("repro.engine.worker", "WorkerPool", "collect",
     "engine.worker.pipe_collect", {"keep": True}),
    ("repro.engine.worker", "WorkerPool", "spawn",
     "engine.worker.spawn", {"after": _after_spawn}),
    ("repro.engine.wal", "WalWriter", "log", "engine.wal.append", {}),
    ("repro.engine.wal", "WalWriter", "commit", "engine.wal.fsync", {}),
    # core
    ("repro.core.index", "SWSTIndex", "_ingest_run_reports",
     "core.index.ingest", {"keep": True}),
    ("repro.core.index", "SWSTIndex", "insert", "core.index.ingest", {}),
    ("repro.core.index", "SWSTIndex", "_query_area_planned",
     "core.index.query",
     {"keep": True, "accesses": "#query.node_accesses"}),
    ("repro.core.index", "SWSTIndex", "_query_area_planned_many",
     "core.index.query",
     {"keep": True, "accesses": "#query.node_accesses"}),
    ("repro.core.index", "SWSTIndex", "advance_time",
     "core.index.advance_time", {}),
    ("repro.core.index", "SWSTIndex", "_drop_window",
     "core.index.drop_window", {"keep": True,
                                "after": _after_drop_window}),
    ("repro.core.index", "SWSTIndex", "save", "core.index.save", {}),
    ("repro.core.index", "", "build_query_plan", "core.plan.build", {}),
    ("repro.engine.engine", "", "build_query_plan", "core.plan.build", {}),
    ("repro.engine.worker", "", "build_query_plan", "core.plan.build", {}),
    ("repro.core.index", "", "classify_interval", "core.plan.classify",
     {}),
    ("repro.engine.engine", "", "classify_interval", "core.plan.classify",
     {}),
    ("repro.engine.worker", "", "classify_interval", "core.plan.classify",
     {}),
    ("repro.core.plan", "PlanCache", "lookup", "core.plan.lookup",
     {"after": _after_lookup}),
    ("repro.core.keys", "KeyCodec", "encode", "core.keys.encode", {}),
    ("repro.core.keys", "KeyCodec", "encode_many", "core.keys.encode", {}),
    ("repro.core.keys", "KeyCodec", "split_many", "core.keys.split",
     {"after": _after_split}),
    # btree
    ("repro.core.index", "", "multi_range_search",
     "btree.multisearch.search", {"after": _after_search}),
    ("repro.btree.tree", "BPlusTree", "insert", "btree.tree.insert", {}),
    ("repro.btree.tree", "BPlusTree", "delete", "btree.tree.delete", {}),
    ("repro.btree.tree", "BPlusTree", "drop", "btree.tree.drop", {}),
    # storage
    ("repro.storage.buffer", "BufferPool", "fetch_node",
     "storage.buffer.fetch_node", {}),
    ("repro.storage.buffer", "BufferPool", "flush",
     "storage.buffer.flush", {}),
    ("repro.storage.pager", "Pager", "sync", "storage.pager.sync", {}),
    ("repro.storage.page", "FilePageDevice", "read",
     "storage.page.read", {}),
    ("repro.storage.page", "FilePageDevice", "write",
     "storage.page.write", {}),
    ("repro.storage.page", "FilePageDevice", "sync",
     "storage.page.sync", {}),
)


def layer_of(span_name: str) -> str:
    """``serve.app.handle`` -> ``serve.app``."""
    return span_name.rsplit(".", 1)[0]


def patch_all(tracer: Tracer) -> None:
    for module_name, class_name, attr, span_name, options in PATCHES:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        setattr(owner, attr,
                tracer.wrap(span_name, getattr(owner, attr), **options))


# -- worker processes ---------------------------------------------------------


class _TimedConnection:
    """Pipe proxy in a worker: one kept span per request served, from
    the message's arrival to the reply's departure."""

    def __init__(self, conn: Any, tracer: Tracer) -> None:
        self._conn = conn
        self._tracer = tracer
        self._t0 = 0
        self._token: contextvars.Token | None = None
        self._frame: list | None = None

    def recv(self) -> Any:
        message = self._conn.recv()
        self._t0 = _now()
        self._frame = [0, next(self._tracer._ids), 0]
        self._token = _frame.set(self._frame)
        return message

    def send(self, obj: Any) -> None:
        self._conn.send(obj)
        if self._token is None or self._frame is None:
            return
        t1 = _now()
        _frame.reset(self._token)
        self._token = None
        dt = t1 - self._t0
        acc = self._tracer.acc()
        cell = acc.setdefault("engine.worker.serve", [0, 0, 0])
        cell[0] += 1
        cell[1] += dt
        cell[2] += dt - self._frame[0]
        self._tracer.spans.append(
            (self._frame[1], 0, "engine.worker.serve", self._t0, t1, 0,
             threading.get_ident()))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._conn, name)


def _wrap_worker_main(tracer: Tracer,
                      worker_main: Callable[..., None]
                      ) -> Callable[..., None]:
    def traced_worker_main(shard_id: int, directory: str, config: Any,
                           conn: Any, *rest: Any) -> None:
        tracer.reset_after_fork()
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGUSR1, lambda *_: tracer.dump())
        worker_main(shard_id, directory, config,
                    _TimedConnection(conn, tracer), *rest)
    return traced_worker_main


# -- entry point --------------------------------------------------------------


def install(trace_dir: str) -> Callable[[Any, Any], None]:
    """Patch the layers; returns the ``ready`` callback for ``serve()``
    that arms the SIGUSR1 dump on the running loop."""
    tracer = TRACER
    tracer.trace_dir = trace_dir
    os.makedirs(trace_dir, exist_ok=True)
    # Until the loop is up, a stray SIGUSR1 must not be fatal.
    signal.signal(signal.SIGUSR1, lambda *_: None)
    patch_all(tracer)
    worker = importlib.import_module("repro.engine.worker")
    worker._worker_main = _wrap_worker_main(tracer, worker._worker_main)

    def ready(server: Any, app: Any) -> None:
        loop = asyncio.get_running_loop()
        pending: set[asyncio.Task] = set()

        async def dump() -> None:
            facade = app.engine

            def engine_counters() -> dict[str, Any]:
                engine = facade.engine
                shard_stats = getattr(engine, "shard_stats", None)
                return {
                    "io": vars(engine.stats),
                    "shard_io": [vars(s) for s in shard_stats()]
                    if shard_stats else [],
                    "entries": len(engine),
                }

            extra = await facade.read(engine_counters)
            extra["serve"] = app.stats_snapshot()
            tracer.dump(extra)

        def on_signal() -> None:
            task = loop.create_task(dump())
            pending.add(task)
            task.add_done_callback(pending.discard)

        loop.add_signal_handler(signal.SIGUSR1, on_signal)

    return ready
