"""Warm worker pool: per-shard processes, WAL durability, supervision.

:class:`WorkerEngine` is the engine
:class:`~repro.engine.engine.Coordinator` over a
:class:`WorkerBackend`: one long-lived **worker process per shard**
(shard -> worker affinity) that holds its shard's
:class:`~repro.core.index.SWSTIndex` open read-write across tasks.  The
coordinator never touches shard internals; it routes operations,
mirrors just enough state to validate and route (the current-entry
table and the clock), and ships each shard a batch of
:mod:`~repro.engine.wal` ops.

**Durability.**  A worker acknowledges a mutation batch only after the
ops are appended to the shard's write-ahead log and fsynced (one fsync
per batch — group commit) *and* applied to the in-memory index.  The
page file only gains a generation at epoch commits (``WorkerEngine.
save()``, the coordinator's two-phase COMMIT/FLIP protocol), and keeps
the generation the manifest records intact in between; between commits
the WAL is the durable record.  A worker
therefore *always* shuts its shard down with
:meth:`~repro.core.index.SWSTIndex.abort` — a graceful stop and a
SIGKILL leave the same on-disk state, and restart recovery is one code
path, not two.

**I/O.**  A worker does all its file I/O — WAL appends, fsyncs and
resets — through the
:class:`~repro.storage.fileops.FileOps` its engine was given, handed
over at the fork.  There are no fault hooks here: tests kill a worker
by wrapping, before the fork, the functions it inherits.

**Recovery (worker start).**  :meth:`WorkerBackend.start` forks every
worker before it collects any handshake (in shard order), so the
shards' recoveries overlap; a restart of one shard is unchanged.  Each
worker plans its own shard and executes the plan
(:func:`_recover_shard`; the rules are the per-shard table under
"Two-phase epoch commit" in ``docs/internals.md``): open the page file
at the generation the manifest records, then replay the WAL, decoded
once, or reset a stale one.  The ready
handshake reports the shard's plan, with its replayed and torn counts.

**Supervision.**  The backend detects worker death three ways: the
pipe reports EOF (process exited or was SIGKILLed), a request overruns
the ``heartbeat_timeout`` deadline (poison task — the worker is then
killed), or a spawn reports a fatal error.  Dead workers are restarted
under the engine's :class:`~repro.engine.retry.RetryPolicy` with a
per-shard :class:`~repro.engine.retry.CircuitBreaker` gating the
attempts; a restart replays the WAL tail, so every acknowledged write
survives.  Queries retry across restarts; **mutations never retry**
(the caller cannot know whether the batch was fsynced before the crash
— re-submitting position reports is idempotent and converges, but the
engine will not guess).  ``strict=False`` queries degrade to
:class:`~repro.engine.engine.PartialResult` while a shard is
mid-restart or its breaker is open.  A worker whose coordinator dies
sees EOF on its pipe and exits on its own.

**Reads.**  A request is one pickled ``(kind, payload)`` frame; a
fan-out encodes it once and writes the same bytes to every target
pipe, and :meth:`WorkerBackend.read` sends to every worker before it
collects the first answer.  A planned query ships its question, not its
plan: the ``"planned"`` request carries ``(method, subject, (t_lo,
t_hi, window, clock))`` and the worker derives the plan itself
(:func:`~repro.engine.engine.read_shard`: ``classify_interval`` →
``build_query_plan`` → the index's ``_*_planned`` entry point).  The
signature's clock is a fence: a worker whose shard sits at another
clock answers :class:`~repro.engine.errors.ClockFenceError` — that
shard fails and the coordinator resynchronises before its next call —
and never answers from a plan of another window.  Answers come back as
:class:`~repro.core.results.QueryResult` objects whose entries pickle
as one packed blob of ``RECORD_SIZE``-byte records (the page payload
layout, ``d = None`` as the ``CURRENT_DURATION`` sentinel).

**Epoch commit.**  The coordinator's ``save()`` saves every shard
(in-worker ``SWSTIndex.save``), flips the manifest, then checkpoints
each worker (retain the new generation, reset the WAL to the new
epoch).  A failure before the flip kills every worker, and each
respawn recovers as ``open()`` would, so no worker can keep
acknowledging into a stale-epoch WAL: each reopens at the generation
the manifest still records, and its WAL — still at the old epoch —
replays the whole acknowledged tail over it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import pickle
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Sequence

from ..core.config import SWSTConfig
from ..core.index import SWSTIndex
# Re-exported for harnesses that instrument plan derivation per engine
# module; workers derive their plans through ``.engine.read_shard``.
from ..core.overlap import classify_interval as classify_interval
from ..core.plan import QueryPlan, build_query_plan as build_query_plan
from ..core.records import ReportLike
from ..storage.fileops import DURABLE_FILE_OPS, FileOps
from .engine import (SHARD_FAILURE_ERRORS, Coordinator, FanOut, Signature,
                     prepare_directory, read_shard, shard_file_path)
from .errors import (CircuitOpenError, ClockFenceError, EngineError,
                     ShardFailure, WorkerCrashError, WorkerRecoveryError)
from .recovery import (MANIFEST_NAME, REPLAY, ShardPlan, generation_dir,
                       load_manifest, open_shard, plan_directory,
                       plan_shard)
from .retry import CircuitBreaker, RetryPolicy
from .wal import (OP_ADVANCE, Op, WalWriter, apply_op, apply_record,
                  run_op, wal_file_name)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext

#: Per-op errors a worker survives (reported, connection stays up).
_RECOVERABLE_OP_ERRORS = (ValueError, KeyError, AssertionError,
                          ClockFenceError)

_ERR_TYPES: dict[str, type[Exception]] = {
    error.__name__: error for error in _RECOVERABLE_OP_ERRORS}


def _frame(kind: str, payload: Any = None) -> bytes:
    """One request as the bytes :meth:`WorkerPool.send` writes: a
    fan-out encodes once and sends the same frame to every target."""
    return pickle.dumps((kind, payload), pickle.HIGHEST_PROTOCOL)


def _mp_context() -> "BaseContext":
    """Fork where available (configs need no pickling), default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# -- worker process ----------------------------------------------------------


def _recover_shard(shard_id: int, directory: str, config: SWSTConfig,
                   fops: FileOps, generation: int
                   ) -> tuple[SWSTIndex, WalWriter, ShardPlan]:
    """Plan one shard (:func:`~repro.engine.recovery.plan_shard`) and
    execute the plan: open the page file at its recorded generation,
    then replay the WAL (decoded once, by the plan) or reset it.

    Returns ``(shard, wal_writer, plan)``.  A planned refusal raises its
    :class:`~repro.engine.errors.ShardOpenError` or
    :class:`~repro.engine.errors.WalCorruptError` before any file is
    touched (terminal — restarting again cannot help).
    """
    gen_dir = generation_dir(directory, generation)
    wal_path = os.path.join(gen_dir, wal_file_name(shard_id))
    manifest = load_manifest(os.path.join(directory, MANIFEST_NAME))
    epoch: int = manifest["epoch"]
    plan, scan = plan_shard(gen_dir, shard_id, manifest["shards"][shard_id],
                            epoch)
    shard = open_shard(plan, config, fops, gen_dir)
    try:
        if plan.wal == REPLAY:
            assert scan is not None
            writer, _ = WalWriter.resume(wal_path, fops, scan)
            for record in scan.records:
                apply_record(shard, record)
        else:
            writer = WalWriter.reset(wal_path, fops, epoch=epoch)
    except BaseException:
        shard.abort()
        raise
    return shard, writer, plan


def _apply_batch(shard: SWSTIndex, writer: WalWriter,
                 batch: list[Op]) -> list[Any]:
    """Log, group-commit, then apply one mutation batch.

    The acknowledgement the caller sends after this returns is the
    durability barrier: everything here is fsynced and applied, or the
    worker died and nothing was acknowledged.
    """
    for op, args in batch:
        writer.log(op, args)
    writer.commit()
    return [apply_op(shard, op, args) for op, args in batch]


def _checkpoint(shard_id: int, shard: SWSTIndex, directory: str,
                fops: FileOps, epoch: int, generation: int) -> WalWriter:
    """Retain the generation the manifest now records, reset the WAL."""
    shard.pager.retain()
    return WalWriter.reset(
        os.path.join(generation_dir(directory, generation),
                     wal_file_name(shard_id)), fops, epoch=epoch)


def _exit_fatal(conn: "Connection", exc: BaseException) -> NoReturn:
    """Report ``exc`` to the coordinator (best effort) and die."""
    with contextlib.suppress(OSError, ValueError):
        conn.send(("fatal", (type(exc).__name__, str(exc))))
    os._exit(3)


def _worker_main(shard_id: int, directory: str, config: SWSTConfig,
                 conn: "Connection", fops: FileOps, generation: int = 0,
                 inherited: Sequence["Connection"] = ()) -> None:
    """Entry point of one warm worker process.

    ``fops`` is the engine's durable-file seam, for all the worker's
    file I/O.  ``inherited`` are the coordinator-side pipe ends a forked child
    carries along (its own and its earlier siblings'): they are closed
    first thing, so that the coordinator's death — however abrupt —
    reaches this worker as EOF on ``conn`` instead of being masked by
    the worker's own copy of the other end.
    """
    for parent_end in inherited:
        parent_end.close()
    try:
        shard, writer, plan = _recover_shard(shard_id, directory, config,
                                             fops, generation)
    except BaseException as exc:
        _exit_fatal(conn, exc)
    conn.send(("ready", {"now": shard.now,
                         "current": shard.current_objects(),
                         "replayed": plan.replayed, "torn": plan.torn,
                         "plan": plan, "next_seq": writer.next_seq}))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Coordinator is gone; leave crash-equivalent state behind.
            shard.abort()
            os._exit(0)
        kind, payload = message
        try:
            if kind == "apply":
                value: Any = (_apply_batch(shard, writer, payload),
                              writer.next_seq)
            elif kind == "save":
                shard.save()
                value = shard.pager.generation
            elif kind == "checkpoint":
                writer = _checkpoint(shard_id, shard, directory, fops,
                                     payload, generation)
                value = writer.next_seq
            elif kind == "stop":
                conn.send(("ok", None))
                shard.abort()
                conn.close()
                os._exit(0)
            else:
                value = read_shard(shard, kind, payload)
        except _RECOVERABLE_OP_ERRORS as exc:
            conn.send(("err", (type(exc).__name__, str(exc))))
            continue
        except BaseException as exc:
            # Anything else (storage corruption, a failed WAL write) is
            # fatal: the WAL/page state may be half-written, so the only
            # safe continuation is a restart-and-replay.
            _exit_fatal(conn, exc)
        conn.send(("ok", value))


# -- coordinator side --------------------------------------------------------


@dataclasses.dataclass
class _Handle:
    """Coordinator-side record of one live worker.

    ``pending`` counts sent-but-uncollected requests: when a pipelined
    fan-out aborts between its send and collect loops, the orphaned
    responses stay queued in the pipe and must be drained before the
    next request, or they would be mis-read as that request's answer.
    """

    process: Any
    conn: "Connection"
    pending: int = 0
    #: Set once :meth:`WorkerPool.spawn` collected the ready handshake.
    ready: bool = False


class WorkerPool:
    """Supervised pool of per-shard worker processes.

    Owns process lifecycle only: launch (fork, no wait), spawn (the
    WAL recovery handshake), synchronous request/response over a
    private pipe, heartbeat deadlines, kill and graceful stop.  Restart *policy* — retries,
    breakers, engine resynchronisation — lives in
    :class:`WorkerEngine`, which records outcomes on the gathering side
    (nothing here mutates engine state from a task).

    Args:
        directory: the engine's shard directory.
        config: shared index configuration.
        fops: the engine's durable-file seam, handed to every worker
            it forks (WAL I/O).
        heartbeat_timeout: seconds a request (or a spawn handshake) may
            take before the worker is declared dead and killed; ``None``
            waits forever.
        generation: manifest generation whose shard files the workers
            serve (see :func:`~repro.engine.engine.generation_dir`);
            the engine updates it from the manifest before any spawn.
    """

    def __init__(self, directory: str, config: SWSTConfig, fops: FileOps,
                 *, heartbeat_timeout: float | None = None,
                 generation: int = 0) -> None:
        self.directory = directory
        self.config = config
        self.fops = fops
        self.heartbeat_timeout = heartbeat_timeout
        self.generation = generation
        self.spawn_counts = [0] * config.n_shards
        self._handles: dict[int, _Handle] = {}
        self._ctx = _mp_context()

    def alive(self, shard_id: int) -> bool:
        """A worker that has handshaken and not died since."""
        handle = self._handles.get(shard_id)
        return handle is not None and handle.ready \
            and handle.process.is_alive()

    def launch(self, shard_id: int) -> None:
        """Fork one worker without waiting: it recovers while the caller
        launches its siblings, and :meth:`spawn` collects its handshake."""
        handle = self._handles.get(shard_id)
        if handle is not None and handle.process.is_alive():
            raise EngineError(f"worker {shard_id} is already running")
        self._discard(shard_id)
        # The pipe is created immediately before the fork and the child
        # end closed right after, so no later-forked sibling inherits
        # it — EOF on the parent end then reliably signals death.  The
        # other direction needs the child's help: it is handed every
        # parent end it inherits and closes them before serving.
        parent_conn, child_conn = self._ctx.Pipe()
        inherited = [parent_conn,
                     *(handle.conn for handle in self._handles.values())]
        process = self._ctx.Process(
            target=_worker_main,
            args=(shard_id, self.directory, self.config, child_conn,
                  self.fops, self.generation, inherited),
            daemon=True, name=f"swst-shard-{shard_id}")
        process.start()
        child_conn.close()
        self._handles[shard_id] = _Handle(process, parent_conn)
        self.spawn_counts[shard_id] += 1

    def spawn(self, shard_id: int) -> dict[str, Any]:
        """Start (or restart) one worker; returns its ready info.

        Collects the handshake of a worker :meth:`launch` forked, or
        launches one first.  A worker sends it after WAL recovery, so a
        returned worker is fully caught up to its acknowledged state.
        """
        handle = self._handles.get(shard_id)
        if handle is None or handle.ready:
            self.launch(shard_id)
            handle = self._handles[shard_id]
        tag, value = self._recv(shard_id, handle)
        if tag == "fatal":
            self._discard(shard_id)
            name, detail = value
            if name in ("ShardOpenError", "WalCorruptError"):
                raise WorkerRecoveryError(shard_id, f"{name}: {detail}")
            raise WorkerCrashError(shard_id,
                                   f"failed to start: {name}: {detail}")
        if tag != "ready":
            self._discard(shard_id)
            raise WorkerCrashError(shard_id,
                                   f"unexpected handshake {tag!r}")
        handle.ready = True
        info: dict[str, Any] = value
        return info

    def send(self, shard_id: int, frame: bytes) -> None:
        """Queue one request (a :func:`_frame`); pair with :meth:`collect`."""
        self.drain(shard_id)
        handle = self._handles.get(shard_id)
        if handle is None:
            raise WorkerCrashError(shard_id, "no running worker")
        try:
            handle.conn.send_bytes(frame)
        except (OSError, ValueError) as exc:
            raise self._crashed(shard_id, repr(exc)) from exc
        handle.pending += 1

    def collect(self, shard_id: int,
                timeout: float | None = None) -> Any:
        """Receive one response; raises typed errors on failure/death."""
        handle = self._handles.get(shard_id)
        if handle is None:
            raise WorkerCrashError(shard_id, "no running worker")
        tag, value = self._recv(shard_id, handle, timeout)
        handle.pending = max(0, handle.pending - 1)
        if tag == "ok":
            return value
        if tag == "err":
            name, detail = value
            raise _ERR_TYPES.get(name, EngineError)(detail)
        self._discard(shard_id)
        name, detail = value
        raise WorkerCrashError(shard_id, f"fatal: {name}: {detail}")

    def pending(self, shard_id: int) -> int:
        """Sent-but-uncollected requests queued at one worker."""
        handle = self._handles.get(shard_id)
        return handle.pending if handle is not None else 0

    def drain(self, shard_id: int) -> None:
        """Discard responses orphaned by an aborted pipelined fan-out."""
        while True:
            handle = self._handles.get(shard_id)
            if handle is None or handle.pending == 0:
                return
            try:
                self.collect(shard_id)
            except (EngineError, ValueError, KeyError, AssertionError):
                # A crash reaps the handle (loop exits); per-op errors
                # just consumed one orphaned response.
                continue

    def request(self, shard_id: int, kind: str, payload: Any = None,
                timeout: float | None = None) -> Any:
        """Synchronous round trip: :meth:`send` + :meth:`collect`."""
        self.send(shard_id, _frame(kind, payload))
        return self.collect(shard_id, timeout)

    def _recv(self, shard_id: int, handle: _Handle,
              timeout: float | None = None) -> tuple[str, Any]:
        deadline = timeout if timeout is not None else self.heartbeat_timeout
        try:
            if deadline is not None and not handle.conn.poll(deadline):
                self.kill(shard_id)
                raise WorkerCrashError(
                    shard_id, f"no response within {deadline}s "
                              f"(heartbeat deadline); worker killed")
            message: tuple[str, Any] = handle.conn.recv()
            return message
        except (EOFError, OSError) as exc:
            raise self._crashed(shard_id, repr(exc)) from exc

    def _crashed(self, shard_id: int, detail: str) -> WorkerCrashError:
        """Reap a dead worker and build its typed error."""
        handle = self._handles.get(shard_id)
        exitcode = None
        if handle is not None:
            handle.process.join(1.0)
            if handle.process.is_alive():  # pipe broke, process wedged
                handle.process.kill()
                handle.process.join(5.0)
            exitcode = handle.process.exitcode
        self._discard(shard_id)
        return WorkerCrashError(shard_id,
                                f"worker died (exit code {exitcode}): "
                                f"{detail}")

    def kill(self, shard_id: int) -> None:
        """SIGKILL one worker and reap it (heartbeat overrun, save abort)."""
        handle = self._handles.get(shard_id)
        if handle is None:
            return
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(5.0)
        self._discard(shard_id)

    def kill_all(self) -> None:
        for shard_id in list(self._handles):
            self.kill(shard_id)

    def stop(self, shard_id: int) -> None:
        """Graceful stop: the worker aborts its shard and exits cleanly."""
        handle = self._handles.get(shard_id)
        if handle is None:
            return
        try:
            handle.conn.send(("stop", None))
            # Ack then exit; a bounded wait so a wedged worker cannot
            # hang close() (it is killed below instead).
            handle.conn.poll(5.0)
        except (EOFError, OSError):
            pass
        handle.process.join(5.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(5.0)
        self._discard(shard_id)

    def stop_all(self) -> list[BaseException]:
        errors: list[BaseException] = []
        for shard_id in list(self._handles):
            try:
                self.stop(shard_id)
            except BaseException as exc:
                errors.append(exc)
        return errors

    def _discard(self, shard_id: int) -> None:
        handle = self._handles.pop(shard_id, None)
        if handle is not None:
            with contextlib.suppress(OSError):
                handle.conn.close()


class WorkerBackend:
    """Shards as supervised warm worker processes behind per-shard WALs.

    The :class:`~repro.engine.engine.ShardBackend` over a
    :class:`WorkerPool`: op batches travel the pipes (pipelined send,
    then collect — one WAL group commit per shard per dispatch), dead
    workers restart under the retry policy with a per-shard breaker
    gating the attempts, and a dispatch whose acknowledgement a crash
    swallowed is re-delivered seq-exactly.  Recovery executes the plan
    of :mod:`repro.engine.recovery`, the directory half here and each
    shard's half in its worker.  The seams are :class:`WorkerEngine`'s,
    documented there.
    """

    epoch_commit = True
    #: A close never saves: every acknowledged op is already in a WAL.
    unsaved = False

    def __init__(self, config: SWSTConfig, directory: str, *,
                 retry_policy: RetryPolicy | None = None,
                 breaker_factory: Callable[[], CircuitBreaker] | None
                 = CircuitBreaker,
                 heartbeat_timeout: float | None = None,
                 file_ops: FileOps | None = None) -> None:
        self.config = config
        self.directory = directory
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy()
        #: The same policy, also retrying across worker deaths (each
        #: retry restarts the worker and replays its WAL first).
        self._restart_policy = dataclasses.replace(
            self.retry_policy,
            retryable=(*self.retry_policy.retryable, WorkerCrashError))
        self.breakers: list[CircuitBreaker | None] = [
            breaker_factory() if breaker_factory is not None else None
            for _ in range(config.n_shards)]
        self.fops: FileOps = file_ops if file_ops is not None \
            else DURABLE_FILE_OPS
        self.pool = WorkerPool(directory, config, self.fops,
                               heartbeat_timeout=heartbeat_timeout)
        #: The lockstep clock every worker should sit at: what a
        #: restarted worker is caught up to (or found ahead of).
        self.clock = 0
        self._shard_clocks = [0] * config.n_shards
        #: Per-shard expected WAL cursor (mirrors the worker's
        #: ``writer.next_seq`` after the last acknowledged request).
        self._next_seq = [0] * config.n_shards
        #: sid -> (seq cursor before the send, op batch) for a dispatch
        #: whose acknowledgement was lost to a worker crash.  Compared
        #: against the restarted worker's replayed cursor to re-deliver
        #: exactly the records that never became durable.
        self._inflight: dict[int, tuple[int, list[Op]]] = {}
        #: Each shard's plan, as its worker's last handshake reported it.
        self.shard_plans: dict[int, ShardPlan] = {}
        self.needs_resync = False

    @property
    def n_shards(self) -> int:
        return self.config.n_shards

    def start(self, manifest: dict[str, Any]) -> None:
        """Launch every worker against ``manifest``'s generation, then
        collect the handshakes in shard order: the WAL replays overlap,
        and each handshake is the first attempt of its restart policy."""
        self.pool.generation = manifest["generation"]
        try:
            for shard_id in range(self.n_shards):
                self.pool.launch(shard_id)
            for shard_id in range(self.n_shards):
                self._ensure(shard_id)
        except BaseException:
            self.pool.kill_all()
            raise

    def shard_path(self, shard_id: int) -> str:
        return shard_file_path(self.directory, self.pool.generation,
                               shard_id)

    # -- supervision ----------------------------------------------------------

    def _ensure(self, shard_id: int) -> None:
        """Make sure one worker is running, restarting under the policy.

        Restart outcomes feed the shard's circuit breaker: while the
        breaker is open the shard is failed fast with a typed
        :class:`CircuitOpenError` (no spawn attempted), which is what
        lets ``strict=False`` queries degrade instead of blocking on a
        crash-looping worker.
        """
        if self.pool.alive(shard_id):
            return
        breaker = self.breakers[shard_id]
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(shard_id)
        try:
            info = self._restart_policy.call(
                lambda: self.pool.spawn(shard_id))
        except BaseException:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        self._absorb_ready(shard_id, info)

    def _absorb_ready(self, shard_id: int, info: dict[str, Any]) -> None:
        """Catch a restarted worker up to its acknowledged state.

        If a dispatch to this shard lost its acknowledgement to the
        crash, the replayed WAL cursor tells exactly how much of that
        batch became durable before the worker died; the non-durable
        suffix is re-delivered here, record for record, so the shard
        converges on precisely the state the no-crash run would have
        reached (sub-batch order is preserved, nothing double-applies).

        The coordinator's mirror is deliberately NOT touched here: it
        is write-through and may legitimately run *ahead* of the worker
        by exactly the ops a caller is about to dispatch.  Wholesale
        rebuilds happen only in :meth:`resync`, where every in-flight
        batch has been settled first.
        """
        self._next_seq[shard_id] = info["next_seq"]
        self.shard_plans[shard_id] = info["plan"]
        worker_now: int = info["now"]
        inflight = self._inflight.pop(shard_id, None)
        if inflight is not None:
            base, batch = inflight
            durable = max(0, min(len(batch), info["next_seq"] - base))
            suffix = batch[durable:]
            if suffix:
                # Track the redelivery itself: if this request crashes
                # too, the next restart re-derives the remaining tail.
                self._inflight[shard_id] = (self._next_seq[shard_id],
                                            suffix)
                _, next_seq = self.pool.request(shard_id, "apply", suffix)
                del self._inflight[shard_id]
                self._next_seq[shard_id] = next_seq
                state = self.pool.request(shard_id, "state")
                worker_now = state["now"]
        self._shard_clocks[shard_id] = worker_now
        if worker_now > self.clock:
            # The worker replayed acknowledged-but-unreported ops from
            # an in-flight batch; siblings (and the coordinator) must
            # catch up before the next fan-out sees a mixed window
            # boundary.
            self.clock = worker_now
            self.needs_resync = True
        elif worker_now < self.clock:
            _, next_seq = self.pool.request(
                shard_id, "apply", [(OP_ADVANCE, (self.clock,))])
            self._next_seq[shard_id] = next_seq
            self._shard_clocks[shard_id] = self.clock

    # -- the protocol ----------------------------------------------------------

    def apply(self, ops: dict[int, list[Op]],
              runs: dict[int, list[ReportLike]],
              advance_to: int | None) -> dict[int, list[Any]]:
        """Ship op batches to their shards; one group commit per shard.

        Mutations are never retried: on a worker crash the batch's
        acknowledgement state is unknown, so the backend marks itself
        for resynchronisation and raises the typed error.  (The
        workload can safely re-submit position reports — replay of a
        half-applied report stream converges because a re-report at the
        same timestamp is a position correction, not a new entry.)
        """
        batches = {sid: list(shard_ops) for sid, shard_ops in ops.items()}
        for sid, run in runs.items():
            assert advance_to is not None
            batches.setdefault(sid, []).append(run_op(advance_to, run))
        if advance_to is not None:
            for sid in range(self.n_shards):
                if self._shard_clocks[sid] < advance_to:
                    batches.setdefault(sid, [])
        targets = sorted(batches)
        # Restart dead targets *before* moving the lockstep clock: a
        # restart's catch-up advance realigns the worker to the
        # pre-batch clock, and the batch's own ops (which may reference
        # times below ``advance_to``) then apply on top of it in order.
        for sid in targets:
            self._ensure(sid)
        if advance_to is not None:
            self.clock = max(self.clock, advance_to)
            for sid in targets:
                batches[sid].append((OP_ADVANCE, (advance_to,)))
        try:
            for sid in targets:
                self._inflight[sid] = (self._next_seq[sid], batches[sid])
                self.pool.send(sid, _frame("apply", batches[sid]))
            results: dict[int, list[Any]] = {}
            for sid in targets:
                results[sid], self._next_seq[sid] = self.pool.collect(sid)
                del self._inflight[sid]
                if advance_to is not None:
                    self._shard_clocks[sid] = advance_to
        except BaseException:
            self.needs_resync = True
            raise
        return results

    def query(self, shard_ids: list[int], method: str,
              args: tuple[Any, ...]) -> FanOut:
        return self._scatter(shard_ids, _frame("query", (method, args)))

    def query_planned(self, shard_ids: list[int], method: str,
                      subject: Any, signature: Signature,
                      resolve: Callable[[], QueryPlan]) -> FanOut:
        """Ship the question, not the plan: each worker derives the plan
        from ``signature`` (``resolve`` is never called), and a worker
        off the signature's clock fails its shard with
        :class:`ClockFenceError` and arms :attr:`needs_resync`."""
        return self._scatter(shard_ids,
                             _frame("planned", (method, subject, signature)))

    def _scatter(self, shard_ids: list[int], frame: bytes) -> FanOut:
        """Round one pipelines ``frame`` over every reachable worker;
        shards whose worker crashed mid-round are retried serially
        under the retry policy (each retry restarts the worker and
        replays its WAL first).  Shards that cannot come back — open
        breaker, terminal recovery failure, retries exhausted, clock
        fence — become typed :class:`ShardFailure` records."""
        successes: list[tuple[int, Any]] = []
        failures: list[ShardFailure] = []
        retriable: list[tuple[int, BaseException]] = []
        sent: list[int] = []
        for sid in shard_ids:
            try:
                self._ensure(sid)
                self.pool.send(sid, frame)
                sent.append(sid)
            except WorkerCrashError as exc:
                retriable.append((sid, exc))
            except SHARD_FAILURE_ERRORS as exc:
                failures.append(ShardFailure(sid, self.shard_path(sid), exc))
        for sid in sent:
            try:
                successes.append((sid, self.pool.collect(sid)))
            except WorkerCrashError as exc:
                retriable.append((sid, exc))
            except SHARD_FAILURE_ERRORS as exc:
                failures.append(ShardFailure(sid, self.shard_path(sid), exc))
        for sid, first_error in retriable:
            def attempt(sid: int = sid) -> Any:
                self._ensure(sid)
                self.pool.send(sid, frame)
                return self.pool.collect(sid)

            try:
                successes.append((sid, self._restart_policy.call(attempt)))
            except SHARD_FAILURE_ERRORS as exc:
                exc.__context__ = first_error
                failures.append(ShardFailure(sid, self.shard_path(sid), exc))
        if any(isinstance(f.error, ClockFenceError) for f in failures):
            self.needs_resync = True
        successes.sort(key=lambda item: item[0])
        return successes, failures

    def read(self, kind: str, payload: Any = None) -> list[Any]:
        """Every send (restarting dead workers first) precedes the first
        collect; answers in shard order."""
        frame = _frame(kind, payload)
        for sid in range(self.n_shards):
            self._ensure(sid)
            self.pool.send(sid, frame)
        return [self.pool.collect(sid) for sid in range(self.n_shards)]

    def resync(self) -> list[dict[str, Any]]:
        """Restart dead workers, settle in-flight batches, fetch states."""
        self.needs_resync = False
        try:
            for shard_id in range(self.n_shards):
                # Settle a sent-but-uncollected batch on a still-live
                # worker first: its acknowledgement is queued in the
                # pipe and carries the WAL cursor — discarding it would
                # corrupt the durable-suffix accounting.
                if shard_id in self._inflight \
                        and self.pool.alive(shard_id) \
                        and self.pool.pending(shard_id):
                    try:
                        _, self._next_seq[shard_id] = \
                            self.pool.collect(shard_id)
                        del self._inflight[shard_id]
                    except WorkerCrashError:
                        pass  # dead after all; _ensure redelivers
            states: list[dict[str, Any]] = self.read("state")
        except BaseException:
            self.needs_resync = True
            raise
        self._shard_clocks = [state["now"] for state in states]
        self.clock = max(self.clock, *self._shard_clocks)
        return states

    def commit(self) -> list[int]:
        """Restart dead workers first (each replays its WAL), then save
        every shard in order."""
        for sid in range(self.n_shards):
            self._ensure(sid)
        return [self.pool.request(sid, "save")
                for sid in range(self.n_shards)]

    def abort_commit(self) -> dict[str, Any]:
        """Kill every worker and adopt the manifest on disk — a worker
        must never keep acknowledging writes into a WAL of a superseded
        epoch.  Each respawn then plans and recovers its own shard at
        the generation that manifest records."""
        self.pool.kill_all()
        manifest = load_manifest(os.path.join(self.directory,
                                              MANIFEST_NAME))
        self.pool.generation = manifest["generation"]
        self.needs_resync = True
        return manifest

    def after_flip(self, epoch: int) -> None:
        """Checkpoint each worker: retain the new generation, reset the
        WAL to ``epoch``."""
        for sid in range(self.n_shards):
            try:
                self._next_seq[sid] = self.pool.request(
                    sid, "checkpoint", epoch)
            except WorkerCrashError:
                # The worker died before checkpointing: its WAL is now
                # one epoch stale and will be reset on respawn; nothing
                # acknowledged is at risk (the epoch commit holds it).
                self.needs_resync = True

    def close(self) -> list[BaseException]:
        """Graceful stop: shards abort, WALs stay (nothing is lost —
        every acknowledged op is in the WALs and ``open()`` replays
        them)."""
        return self.pool.stop_all()


class WorkerEngine(Coordinator):
    """The coordinator over warm worker processes (:class:`WorkerBackend`).

    Same surface as :class:`~repro.engine.engine.ShardedEngine` — it
    *is* the same coordinator — but every shard lives in its own
    process and every acknowledged mutation is WAL-durable.  A saved
    directory is interchangeable with ``ShardedEngine``'s (same
    manifest and page files; the ``.wal`` files are additive,
    and ``ShardedEngine.open`` refuses WALs holding records it cannot
    replay).

    Always disk-backed: the WAL discipline has no meaning in memory.
    ``retry_policy`` bounds worker restart attempts (and query retries
    across restarts), one ``breaker_factory`` breaker per shard gates
    them; ``heartbeat_timeout`` is the :class:`WorkerPool`'s;
    ``file_ops`` is the durable filesystem seam of the manifest
    protocol and of every worker's WAL I/O.
    """

    _backend: WorkerBackend

    def __init__(self, config: SWSTConfig | None = None,
                 path: str | os.PathLike[str] | None = None, *,
                 retry_policy: RetryPolicy | None = None,
                 breaker_factory: Callable[[], CircuitBreaker] | None
                 = CircuitBreaker,
                 heartbeat_timeout: float | None = None,
                 file_ops: FileOps | None = None) -> None:
        if path is None:
            raise EngineError("a warm-worker engine is always disk-backed; "
                              "pass a directory path")
        config = config if config is not None else SWSTConfig()
        fops = file_ops if file_ops is not None else DURABLE_FILE_OPS
        directory = os.fspath(path)
        manifest = prepare_directory(directory, config.n_shards, fops)
        backend = WorkerBackend(
            config, directory, retry_policy=retry_policy,
            breaker_factory=breaker_factory,
            heartbeat_timeout=heartbeat_timeout, file_ops=fops)
        backend.start(manifest)
        super().__init__(config, backend, directory, manifest, fops)

    @classmethod
    def open(cls, path: str | os.PathLike[str], config: SWSTConfig, *,
             retry_policy: RetryPolicy | None = None,
             breaker_factory: Callable[[], CircuitBreaker] | None
             = CircuitBreaker,
             heartbeat_timeout: float | None = None,
             file_ops: FileOps | None = None) -> "WorkerEngine":
        """Re-open a shard directory: plan its directory half
        (:func:`~repro.engine.recovery.plan_directory`, refusing what it
        refuses), then spawn one worker per shard, each planning and
        recovering its own shard (:func:`_recover_shard`) side by side.
        The plan kept as :attr:`recovery` is the directory's, with the
        shard plans the workers reported.
        """
        fops = file_ops if file_ops is not None else DURABLE_FILE_OPS
        plan = plan_directory(path, config)
        if plan.error is not None:
            raise plan.error
        manifest = plan.manifest
        assert manifest is not None
        backend = WorkerBackend(
            config, plan.directory, retry_policy=retry_policy,
            breaker_factory=breaker_factory,
            heartbeat_timeout=heartbeat_timeout, file_ops=fops)
        backend.start(manifest)
        engine = cls._adopt(config, backend, plan.directory, manifest, fops)
        engine.recovery = dataclasses.replace(plan, shards=tuple(
            backend.shard_plans[sid] for sid in range(config.n_shards)))
        return engine

    def reopen(self, n_shards: int) -> "WorkerEngine":
        assert self._dir is not None
        return WorkerEngine.open(
            self._dir, dataclasses.replace(self.config, n_shards=n_shards),
            retry_policy=self._backend.retry_policy,
            heartbeat_timeout=self.pool.heartbeat_timeout,
            file_ops=self._fops)

    @property
    def pool(self) -> WorkerPool:
        """The supervised worker pool (diagnostics and kills)."""
        return self._backend.pool
