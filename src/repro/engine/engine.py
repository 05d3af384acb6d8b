"""Sharded scatter-gather engine: one coordinator over a shard backend.

The engine partitions the spatial grid's cell space across
``config.n_shards`` independent :class:`~repro.core.index.SWSTIndex`
shards — each with its own page file, pager and buffer pool — using
the deterministic :class:`~repro.engine.sharding.GridShardMap`.  The
SWST layers share nothing between spatial cells, so sharding needs
exactly one piece of cross-shard logic — the current-entry protocol
(finalise an object's previous ``ND`` entry wherever it lives, then
insert the new one) — plus lockstep slides and a merge.  A single-shard
engine degenerates to byte-identical behaviour (entries, results,
logical node accesses) of a plain ``SWSTIndex`` fed the same stream.

:class:`Coordinator` owns everything that does not depend on *where* a
shard runs: routing, validation, ``extend`` chunking and ``Wmax``-epoch
run splitting, the current-entry mirror and the cross-shard planning
(in the :mod:`~repro.engine.wal` op vocabulary), the engine-level plan
cache, every query and its merge, and the skeleton of ``save()``.  It
reaches the shards through the narrow :class:`ShardBackend` protocol,
which has exactly two implementations: :class:`InProcessBackend` (live
``SWSTIndex`` objects, work fanned out over an
:class:`~repro.engine.executor.Executor`; :class:`ShardedEngine` is the
coordinator over it) and :class:`~repro.engine.worker.WorkerBackend`
(one warm worker process per shard behind a write-ahead log;
:class:`~repro.engine.worker.WorkerEngine`).

On disk an engine is a *directory*::

    index.d/
      engine.json          # manifest: {"format": 2, "n_shards": N,
      shard-000.pages      #            "epoch": E, "shards": [gen...],
      shard-001.pages      #            "generation": G}
      ...                  # one shadow-paged page file per shard; it
                           # keeps the generation E recorded intact
      shard-000.wal        # worker backend only: ops since epoch E
      gen-001/             # the same files for manifest generation 1
                           # (resharded directories; generation 0 lives
                           # at the directory root)

**Two-phase epoch commit.**  ``save()`` makes the whole directory one
atomic unit: every shard commits a new page-file generation, then the
manifest FLIP names them all (see :meth:`Coordinator.save`).  A shard's
pager never overwrites the generation the manifest records, so until
the flip lands that generation is still whole on disk; after it, each
shard retains its new one.  ``open()`` on either backend executes one
read-only :class:`~repro.engine.recovery.RecoveryPlan`: every shard
opens at the generation the manifest records; the table of outcomes
and typed errors is under "Two-phase epoch commit" in
``docs/internals.md``.
A pre-epoch ``"format": 1`` manifest is refused with
:class:`~repro.storage.errors.UnsupportedFormatError` (chained under the
:class:`EngineError` every manifest failure raises).

**Generations.**  ``repro.engine.reshard`` rewrites a saved directory
to a different shard count side-by-side under ``gen-<G>/`` and flips
the manifest atomically; ``generation`` in the manifest names the
subdirectory the live shard files inhabit (0 is the directory root).

**Resilient fan-out.**  Read-only fan-out runs under the engine's
:class:`~repro.engine.retry.RetryPolicy` and per-shard
:class:`~repro.engine.retry.CircuitBreaker` accounting, applied by the
backend (what counts as a shard failure differs between a page device
and a worker process).  ``strict=True`` (default) raises a typed
:class:`~repro.engine.errors.ShardQueryError` naming the first failed
shard; ``strict=False`` returns a :class:`PartialResult` with the
surviving shards' entries plus one typed
:class:`~repro.engine.errors.ShardFailure` per failed shard.
"""

from __future__ import annotations

import dataclasses
import os
from typing import (Any, Callable, Iterable, Iterator, Protocol, TypeVar)

from ..core.config import SWSTConfig
from ..core.grid import SpatialGrid
from ..core.index import SWSTIndex
from ..core.overlap import classify_interval
from ..core.plan import QueryPlan, build_query_plan
from ..core.records import Entry, Rect, ReportLike
from ..core.results import MultiQueryResult, QueryResult, QueryStats
from ..storage.errors import StorageError
from ..storage.fileops import DURABLE_FILE_OPS, FileOps
from ..storage.pager import MEMORY
from ..storage.stats import IOStats
from .errors import (CircuitOpenError, ClockFenceError, EngineClosedError,
                     EngineCloseError, EngineError, ShardFailure,
                     ShardQueryError)
from .executor import Executor, resolve_executor
from .recovery import (MANIFEST_FORMAT, MANIFEST_NAME, RecoveryPlan,
                       generation_dir, load_manifest, open_shard,
                       plan_recovery, shard_file_name, write_json_atomic)
from .retry import CircuitBreaker, RetryPolicy
from .sharding import GridShardMap
from .wal import (NONE_ARG, OP_CLOSE, OP_DELETE, OP_FORGET, OP_INSERT,
                  OP_RETAIN, Op, apply_op)

#: Per-shard failures a degraded fan-out absorbs into ``ShardFailure``
#: records: storage-layer corruption/IO, raw OS errors, and the engine's
#: own typed errors (open circuit breakers, dead workers).
SHARD_FAILURE_ERRORS = (StorageError, OSError, EngineError)


_E = TypeVar("_E", bound="Coordinator")

#: A query's temporal signature ``(t_lo, t_hi, window, clock)``.
Signature = tuple[int, int, int | None, int]
#: A backend query's outcome: ``(shard_id, answer)`` successes in shard
#: order, one typed failure per shard that could not answer.
FanOut = tuple[list[tuple[int, Any]], list[ShardFailure]]


def shard_file_path(directory: str | None, generation: int,
                    shard_id: int) -> str:
    """Page-file path of one shard (``":memory:"`` without a directory)."""
    if directory is None:
        return MEMORY
    return os.path.join(generation_dir(directory, generation),
                        shard_file_name(shard_id))


def load_checked_manifest(directory: str, n_shards: int) -> dict[str, Any]:
    """Load ``directory``'s manifest, refusing a shard-count mismatch."""
    manifest = load_manifest(os.path.join(directory, MANIFEST_NAME))
    if manifest["n_shards"] != n_shards:
        raise EngineError(
            f"directory {directory!r} holds {manifest['n_shards']} "
            f"shards but config.n_shards is {n_shards}")
    return manifest


def _fresh_manifest(n_shards: int) -> dict[str, Any]:
    return {"format": MANIFEST_FORMAT, "n_shards": n_shards, "epoch": 0,
            "shards": [0] * n_shards, "generation": 0}


def prepare_directory(directory: str, n_shards: int,
                      fops: FileOps) -> dict[str, Any]:
    """Create (or adopt) an engine directory for a constructor.

    Returns the manifest the new engine starts from: the existing one
    when the directory was saved before, else a freshly written epoch-0
    manifest.
    """
    if os.path.exists(directory) and not os.path.isdir(directory):
        raise EngineError(f"engine path {directory!r} exists and is "
                          f"not a directory")
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        return load_checked_manifest(directory, n_shards)
    manifest = _fresh_manifest(n_shards)
    write_json_atomic(fops, directory, manifest_path, manifest)
    return manifest


@dataclasses.dataclass
class PartialResult(QueryResult):
    """A degraded (``strict=False``) query result.

    Carries the merged entries and statistics of the shards that
    answered, plus one typed :class:`ShardFailure` per shard that did
    not.  ``stats.degraded`` is True iff ``failures`` is non-empty.
    """

    failures: list[ShardFailure] = dataclasses.field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True if every dispatched shard answered (no failures)."""
        return not self.failures


# -- the shard seam ----------------------------------------------------------


def read_shard(shard: SWSTIndex, kind: str, payload: Any = None) -> Any:
    """Answer one read request against a live shard.

    The shard-side half of :meth:`ShardBackend.read` and
    :meth:`ShardBackend.query`: the in-process backend calls it
    directly, a worker process calls it for every request that is not a
    mutation or a commit step — one vocabulary, wherever the shard
    runs.  A ``"planned"`` request is a query sent as its temporal
    signature (:meth:`ShardBackend.query_planned`): the shard refuses a
    clock it does not hold (:class:`ClockFenceError`), derives the plan
    itself and runs one of the index's ``_*_planned`` entry points.
    """
    if kind == "planned":
        method, subject, (t_lo, t_hi, window, clock) = payload
        if shard.now != clock:
            raise ClockFenceError(f"shard at {shard.now}, query at {clock}")
        columns = classify_interval(shard.config, clock, t_lo, t_hi, window)
        return getattr(shard, method)(subject, build_query_plan(
            shard.config, clock, columns, t_lo, t_hi, window))
    if kind == "query":
        method, args = payload
        return getattr(shard, method)(*args)
    if kind == "state":
        return {"now": shard.now, "current": shard.current_objects()}
    if kind == "scan":
        return list(shard.scan())
    if kind == "len":
        return len(shard)
    if kind == "stats":
        return shard.stats.snapshot()
    raise ValueError(f"unknown shard request {kind!r}")


class ShardBackend(Protocol):
    """Where the shards run: everything the coordinator asks of them.

    Attributes:
        breakers: per-shard circuit breakers (``None`` when disabled);
            the backend decides what counts as a shard failure.
        epoch_commit: False when ``save()`` has nothing to make atomic
            (memory-backed shards).
        needs_resync: set by the backend whenever the coordinator's
            mirror can no longer be trusted — a dispatch failed
            part-way, a recovered shard came back ahead of the engine
            clock, a commit was aborted.  The coordinator calls
            :meth:`resync` before its next operation.
    """

    breakers: list[CircuitBreaker | None]
    needs_resync: bool

    @property
    def epoch_commit(self) -> bool: ...  # pragma: no cover - protocol

    @property
    def unsaved(self) -> bool:
        """True if a close would drop changes ``save()`` keeps: disk
        shards changed since the last save.  Workers answer False —
        their WALs already hold every acknowledged op."""
        ...  # pragma: no cover - protocol

    def apply(self, ops: dict[int, list[Op]],
              runs: dict[int, list[ReportLike]],
              advance_to: int | None) -> dict[int, list[Any]]:
        """Apply one planned mutation; returns per-op results by shard.

        Per shard, in order: its ``ops``, an advance to ``advance_to``
        (every shard ends there, touched or not), its report run.
        Never retried.  A failure before any shard was touched leaves
        ``needs_resync`` unset; any later failure sets it.
        """
        ...  # pragma: no cover - protocol

    def query(self, shard_ids: list[int], method: str,
              args: tuple[Any, ...]) -> FanOut:
        """Scatter one read-only index method over ``shard_ids`` under
        the retry policy and breakers: ``(shard_id, result)`` successes
        in shard order, one typed failure per shard that cannot answer."""
        ...  # pragma: no cover - protocol

    def query_planned(self, shard_ids: list[int], method: str,
                      subject: Any, signature: Signature,
                      resolve: Callable[[], QueryPlan]) -> FanOut:
        """:meth:`query` of ``method(subject, plan)``; the plan is a pure
        function of ``signature``.  In-process shards share the one
        object ``resolve()`` returns; a worker is sent the signature and
        derives its own (the ``"planned"`` :func:`read_shard` kind)."""
        ...  # pragma: no cover - protocol

    def read(self, kind: str, payload: Any = None) -> list[Any]:
        """One strict :func:`read_shard` round over every shard."""
        ...  # pragma: no cover - protocol

    def resync(self) -> list[dict[str, Any]]:
        """Settle every shard (restart dead workers, collect in-flight
        acknowledgements), clear ``needs_resync``, return the
        ``"state"`` reads."""
        ...  # pragma: no cover - protocol

    def commit(self) -> list[int]:
        """Save every shard; returns the committed header generations."""
        ...  # pragma: no cover - protocol

    def abort_commit(self) -> dict[str, Any]:
        """A step of the epoch commit failed with the process alive:
        settle the shards on the manifest now on disk, which it
        returns."""
        ...  # pragma: no cover - protocol

    def after_flip(self, epoch: int) -> None:
        """Post-commit hook, once the manifest names ``epoch``: every
        shard retains the generation it just committed."""
        ...  # pragma: no cover - protocol

    def close(self) -> list[BaseException]:
        """Release every shard; returns (never raises) what went wrong."""
        ...  # pragma: no cover - protocol


def _guarded_call(policy: RetryPolicy,
                  fn: Callable[[], Any]) -> tuple[str, Any]:
    """Run ``fn`` under ``policy``; return ``("ok", result)`` or
    ``("err", exception)``.

    Outcome tuples keep fan-out task callables free of shared-state
    mutation: the backend folds outcomes into circuit breaker state on
    the gathering side, never inside the task.
    """
    try:
        return ("ok", policy.call(fn))
    except SHARD_FAILURE_ERRORS as exc:
        return ("err", exc)


class InProcessBackend:
    """Shards as live :class:`SWSTIndex` objects in this process.

    Op batches are applied directly — the same
    :func:`~repro.engine.wal.apply_op` a WAL replay runs, with no
    encoding in between — and per-shard work goes through the
    executor seam.  The seams are :class:`ShardedEngine`'s, documented
    there; ``directory`` is ``None`` for memory devices and
    ``generation`` names the manifest generation whose shard files are
    served.
    """

    def __init__(self, config: SWSTConfig, directory: str | None,
                 generation: int = 0, *,
                 executor: Executor | str | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker_factory: Callable[[], CircuitBreaker] | None
                 = CircuitBreaker,
                 file_ops: FileOps | None = None) -> None:
        self.config = config
        self.directory = directory
        self.generation = generation
        #: The ``executor`` argument as given — what a reopen passes on.
        self.executor_arg = executor
        self.owns_executor = executor is None or isinstance(executor, str)
        if executor is None:
            executor = "serial"
        self.executor: Executor = resolve_executor(executor) \
            if isinstance(executor, str) else executor
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy()
        self.breakers: list[CircuitBreaker | None] = [
            breaker_factory() if breaker_factory is not None else None
            for _ in range(config.n_shards)]
        self.fops: FileOps = file_ops if file_ops is not None \
            else DURABLE_FILE_OPS
        self.shards: list[SWSTIndex] = []
        self.needs_resync = False

    @classmethod
    def create(cls, config: SWSTConfig, directory: str | None,
               manifest: dict[str, Any], **seams: Any) -> "InProcessBackend":
        """Fresh (or re-adopted) shard files under ``manifest``."""
        backend = cls(config, directory, manifest["generation"], **seams)
        try:
            for shard_id in range(config.n_shards):
                backend.shards.append(SWSTIndex(
                    config, backend.shard_path(shard_id),
                    generation=None if directory is None
                    else manifest["shards"][shard_id]))
        except BaseException:
            backend.close()
            raise
        return backend

    @classmethod
    def recover(cls, plan: RecoveryPlan, config: SWSTConfig,
                **seams: Any) -> "InProcessBackend":
        """Execute every shard's part of a recovery plan (the table
        under "Two-phase epoch commit" in ``docs/internals.md``) and
        check that together they sit at one clock."""
        assert plan.manifest is not None
        backend = cls(config, plan.directory, plan.manifest["generation"],
                      **seams)
        gen_dir = generation_dir(plan.directory, backend.generation)
        try:
            for shard in plan.shards:
                backend.shards.append(
                    open_shard(shard, config, backend.fops, gen_dir))
            clocks = {shard.now for shard in backend.shards}
            if len(clocks) > 1:
                raise EngineError(
                    f"shard clocks disagree under manifest epoch "
                    f"{plan.manifest['epoch']}: {sorted(clocks)}; the "
                    f"directory mixes copies of different epochs "
                    f"(restore from backup)")
        except BaseException:
            backend.close()
            raise
        return backend

    def shard_path(self, shard_id: int) -> str:
        return shard_file_path(self.directory, self.generation, shard_id)

    @property
    def epoch_commit(self) -> bool:
        return self.directory is not None

    @property
    def unsaved(self) -> bool:
        return self.epoch_commit and any(shard.unsaved
                                         for shard in self.shards)

    # -- the protocol ----------------------------------------------------------

    def apply(self, ops: dict[int, list[Op]],
              runs: dict[int, list[ReportLike]],
              advance_to: int | None) -> dict[int, list[Any]]:
        shards = self.shards
        targets = set(ops) | set(runs)
        if advance_to is not None:
            targets.update(sid for sid, shard in enumerate(shards)
                           if shard.now < advance_to)

        def task(sid: int) -> list[Any]:
            shard = shards[sid]
            results = [apply_op(shard, op, args)
                       for op, args in ops.get(sid, ())]
            if advance_to is not None:
                shard.advance_time(advance_to)
            run = runs.get(sid)
            if run:
                shard._ingest_run_reports(run)
            return results

        # Ingestion mutates, so it never retries and ignores the breaker
        # state: a half-applied batch must surface, not be papered over.
        order = sorted(targets)
        try:
            return dict(zip(order, self.executor.map(task, order),
                            strict=True))
        except BaseException:
            self.needs_resync = True
            raise

    def query(self, shard_ids: list[int], method: str,
              args: tuple[Any, ...]) -> FanOut:
        """Every dispatched task runs under the retry policy; outcomes
        are folded into the per-shard circuit breakers here on the
        gathering side (executor callables never mutate shared state).
        Shards whose breaker is open are failed up front (typed
        :class:`CircuitOpenError`, no dispatch)."""
        dispatch: list[int] = []
        failures: list[ShardFailure] = []
        for sid in shard_ids:
            breaker = self.breakers[sid]
            if breaker is not None and not breaker.allow():
                failures.append(ShardFailure(
                    sid, self.shard_path(sid), CircuitOpenError(sid)))
            else:
                dispatch.append(sid)
        if not dispatch:
            return [], failures
        policy = self.retry_policy
        shards = self.shards

        def task(sid: int) -> tuple[str, Any]:
            return _guarded_call(
                policy, lambda: getattr(shards[sid], method)(*args))

        outcomes = self.executor.map(task, dispatch)
        successes: list[tuple[int, Any]] = []
        for sid, (tag, value) in zip(dispatch, outcomes, strict=True):
            breaker = self.breakers[sid]
            if tag == "ok":
                if breaker is not None:
                    breaker.record_success()
                successes.append((sid, value))
            else:
                if breaker is not None:
                    breaker.record_failure()
                failures.append(ShardFailure(
                    sid, self.shard_path(sid), value))
        return successes, failures

    def query_planned(self, shard_ids: list[int], method: str,
                      subject: Any, signature: Signature,
                      resolve: Callable[[], QueryPlan]) -> FanOut:
        """One plan for the whole fan-out: every shard task, retries
        included, evaluates the same object."""
        return self.query(shard_ids, method, (subject, resolve()))

    def read(self, kind: str, payload: Any = None) -> list[Any]:
        return [read_shard(shard, kind, payload) for shard in self.shards]

    def resync(self) -> list[dict[str, Any]]:
        self.needs_resync = False
        return self.read("state")

    def commit(self) -> list[int]:
        for shard in self.shards:
            shard.save()
        return [shard.pager.generation for shard in self.shards]

    def abort_commit(self) -> dict[str, Any]:
        """Keep whatever the manifest now names.  Shards whose commit
        the manifest does not name keep retaining the generation it
        does, so calling ``save()`` again is safe; if the flip did land
        (a failure after the rename), they retain their new one."""
        assert self.directory is not None
        manifest = load_manifest(os.path.join(self.directory,
                                              MANIFEST_NAME))
        if manifest["shards"] == [shard.pager.generation
                                  for shard in self.shards]:
            self.after_flip(manifest["epoch"])
        return manifest

    def after_flip(self, epoch: int) -> None:
        for shard in self.shards:
            shard.pager.retain()

    def close(self) -> list[BaseException]:
        """Release every shard and (if owned) the executor.

        Shards are released as by a crash (``SWSTIndex.abort``): a page
        file keeps the generation its last flip retained, never a
        per-shard save.  The coordinator saves the whole epoch first
        when it can.  Every resource is closed even if an earlier one
        fails.
        """
        closers: list[Callable[[], None]] = [shard.abort
                                             for shard in self.shards]
        if self.owns_executor:
            closers.append(self.executor.close)
        errors: list[BaseException] = []
        for close in closers:
            try:
                close()
            except BaseException as exc:
                errors.append(exc)
        return errors


# -- the coordinator ---------------------------------------------------------


class Coordinator:
    """Scatter-gather front end over ``config.n_shards`` SWST shards.

    Everything backend-independent lives here; the two public engines
    (:class:`ShardedEngine`, :class:`~repro.engine.worker.WorkerEngine`)
    only decide how the backend is built.  The surface is the
    ``SWSTIndex`` one — queries (``query_timeslice``,
    ``query_interval[_many]``, ``count_interval``, ``query_knn``) and
    ingestion (``insert``, ``report``, ``extend``, ``close_object``,
    ``delete``, ``forget_object``, ``set_retention``,
    ``advance_time``).  Not
    thread-safe for concurrent callers; internal parallelism only ever
    touches disjoint shards.

    The coordinator never looks inside a shard.  To route the
    current-entry protocol it keeps a *mirror* of the live current
    entries, written through as mutations are planned and rebuilt from
    the shards' own tables whenever the backend reports that a dispatch
    may not have landed (``needs_resync``).

    Args:
        config: index parameters; ``config.n_shards`` fixes the shard
            count.
        backend: the (already built or recovered) shards.
        directory: shard directory, ``None`` for an in-memory engine.
        manifest: what the backend was built from or recovered to
            (epoch and generation are adopted from it).
        file_ops: durable filesystem seam for the manifest protocol.
    """

    def __init__(self, config: SWSTConfig, backend: ShardBackend,
                 directory: str | None, manifest: dict[str, Any],
                 file_ops: FileOps) -> None:
        self.config = config
        self.grid = SpatialGrid(config.space, config.x_partitions,
                                config.y_partitions)
        self.shard_map = GridShardMap(config.x_partitions,
                                      config.y_partitions, config.n_shards)
        self._backend = backend
        self._dir = directory
        self._fops = file_ops
        self._epoch: int = manifest["epoch"]
        self._generation: int = manifest["generation"]
        #: oid -> (home shard, x, y, s) mirror of live current entries.
        self._cur: dict[int, tuple[int, int, int, int]] = {}
        self._clock = 0
        self._closed = False
        self._save_failed = False
        #: The :class:`~repro.engine.recovery.RecoveryPlan` ``open()``
        #: executed (``None`` for an engine a constructor built).
        self.recovery: RecoveryPlan | None = None
        try:
            self._resync()
        except BaseException:
            # Best effort: a shard whose close fails must not mask the
            # original init/open error.
            self._closed = True
            backend.close()
            raise

    @classmethod
    def _adopt(cls: type[_E], *args: Any, **kwargs: Any) -> _E:
        """Alternate-constructor plumbing: a ``cls`` instance around an
        existing backend, bypassing ``cls.__init__`` (which builds one)."""
        engine = cls.__new__(cls)
        Coordinator.__init__(engine, *args, **kwargs)
        return engine

    def reopen(self, n_shards: int) -> "Coordinator":
        """Open this engine's directory again at ``n_shards`` shards.

        Same engine kind, retry policy and seams — what an online
        reshard swaps in once the generation flip has landed.  The
        caller still owns ``self`` and must :meth:`abort` it, not close
        it: a close would save the dropped generation over the flip.
        """
        raise NotImplementedError

    # -- directory layout -----------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.config.n_shards

    @property
    def directory(self) -> str | None:
        """Shard directory path (``None`` for an in-memory engine)."""
        return self._dir

    @property
    def file_ops(self) -> FileOps:
        """The durable filesystem seam this engine writes through."""
        return self._fops

    @property
    def epoch(self) -> int:
        """Manifest epoch of the last whole-directory save (0 = never)."""
        return self._epoch

    @property
    def generation(self) -> int:
        """Manifest generation the live shard files inhabit (0 = root)."""
        return self._generation

    def shard_path(self, shard_id: int) -> str:
        """Page-file path of one shard (``":memory:"`` when memory-backed)."""
        return shard_file_path(self._dir, self._generation, shard_id)

    # -- properties ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current stream time τ (shared by every shard)."""
        return self._clock

    def __len__(self) -> int:
        """Physically stored entries across every shard."""
        self._check_open()
        total: int = sum(self._backend.read("len"))
        return total

    @property
    def breakers(self) -> tuple[CircuitBreaker | None, ...]:
        """Per-shard circuit breakers, in shard-id order (diagnostics)."""
        return tuple(self._backend.breakers)

    def shard_stats(self) -> list[IOStats]:
        """Per-shard IO counter snapshots, in shard-id order."""
        self._check_open()
        stats: list[IOStats] = self._backend.read("stats")
        return stats

    @property
    def stats(self) -> IOStats:
        """Aggregate IO counters across every shard (a fresh snapshot).

        Unlike ``SWSTIndex.stats`` this is not a live object — call again
        for updated totals.  ``snapshot()``/``diff()`` work as usual, so
        the engine drops into harness code written for a single index.
        """
        total = IOStats()
        for snap in self.shard_stats():
            for name in vars(snap):
                setattr(total, name,
                        getattr(total, name) + getattr(snap, name))
        return total

    def node_count(self) -> int:
        """Total B+ tree pages across every shard."""
        self._check_open()
        total: int = sum(self._backend.read("query", ("node_count", ())))
        return total

    def current_objects(self) -> dict[int, tuple[int, int, int]]:
        """Merged current-entry table: oid -> (x, y, s)."""
        self._check_open()
        merged: dict[int, tuple[int, int, int]] = {}
        for state in self._backend.read("state"):
            merged.update(state["current"])
        return merged

    # -- routing and the current-entry mirror ----------------------------------

    def _shard_id_of(self, x: int, y: int) -> int:
        cx, cy = self.grid.cell_of(x, y)
        return self.shard_map.shard_of_cell(cx, cy)

    def _shards_for_area(self, area: Rect) -> list[int]:
        """Sorted ids of the shards owning cells that overlap ``area``."""
        ids: set[int] = set()
        for cell in self.grid.overlapping_cells(area):
            ids.add(self.shard_map.shard_of_cell(cell.cx, cell.cy))
            if len(ids) == self.n_shards:
                break
        return sorted(ids)

    def _live_cur(self, oid: int,
                  at: int) -> tuple[int, int, int, int] | None:
        """The mirror's current entry for ``oid`` if still live at ``at``.

        Applies the same liveness rule the shards' window drop does (an
        entry whose start window has been dropped by the time the clock
        reaches ``at`` is gone), so the mirror never routes a
        finalisation at a record the shard already discarded.
        """
        cur = self._cur.get(oid)
        if cur is not None and cur[3] // self.config.w_max \
                < at // self.config.w_max - 1:
            return None
        return cur

    def _plan_current(self, ops: dict[int, list[Op]], oid: int, x: int,
                      y: int, s: int, dest: int) -> None:
        """Plan one current insert: the cross-shard current-entry protocol.

        Mirrors the single-index protocol exactly.  The destination
        shard's own ``insert`` finalises a previous current entry *it*
        holds; when the previous entry lives on another shard, that
        shard gets the finalisation first — a close at the new report's
        time, or, for a re-report at the same timestamp (a position
        correction), a delete of the entry being replaced.
        """
        cur = self._live_cur(oid, s)
        if cur is not None and cur[0] != dest:
            home, px, py, ps = cur
            ops.setdefault(home, []).append(
                (OP_DELETE, (oid, px, py, ps, NONE_ARG)) if ps == s
                else (OP_CLOSE, (oid, s)))
        ops.setdefault(dest, []).append(
            (OP_INSERT, (oid, x, y, s, NONE_ARG)))
        self._cur[oid] = (dest, x, y, s)

    def _dispatch(self, ops: dict[int, list[Op]],
                  runs: dict[int, list[ReportLike]] | None = None,
                  advance_to: int | None = None) -> dict[int, list[Any]]:
        """Hand one planned mutation to the backend, then move the clock.

        The engine clock follows the dispatch whenever any shard may
        have seen it (success, or a failure the backend flagged for
        resync); a dispatch refused before anything was sent leaves the
        clock alone, so the caller can simply retry.
        """
        sent = False
        try:
            results = self._backend.apply(ops, runs or {}, advance_to)
            sent = True
            return results
        finally:
            if advance_to is not None and advance_to > self._clock \
                    and (sent or self._backend.needs_resync):
                self._clock = advance_to

    def _resync(self) -> None:
        """Re-derive the mirror and clock from the shards themselves.

        Runs at construction/open and after any mutation dispatch that
        may not have landed everywhere.  Straggler clocks are realigned
        through a regular (for workers: logged) advance.
        """
        states = self._backend.resync()
        clock = max(self._clock, *(state["now"] for state in states))
        self._clock = clock
        self._cur.clear()
        repairs: dict[int, list[Op]] = {}
        for shard_id, state in enumerate(states):
            for oid, (x, y, s) in state["current"].items():
                keep = (shard_id, x, y, s)
                other = self._cur.get(oid)
                if other is not None:
                    # A hop whose dispatch stopped between its insert and
                    # the finalisation at its home (shards apply in order,
                    # so on equal timestamps the lower one's is newer):
                    # finish it the way ``_plan_current`` planned it.
                    keep, (home, px, py, ps) = \
                        (other, keep) if other[3] >= s else (keep, other)
                    repairs.setdefault(home, []).append(
                        (OP_DELETE, (oid, px, py, ps, NONE_ARG))
                        if ps == keep[3] else (OP_CLOSE, (oid, keep[3])))
                self._cur[oid] = keep
        if repairs or any(state["now"] < clock for state in states):
            self._backend.apply(repairs, {}, clock)

    def _settled(self) -> None:
        """Resync first if the last dispatch may not have landed."""
        self._check_open()
        if self._backend.needs_resync:
            self._resync()

    # -- insertion and updates -------------------------------------------------

    def insert(self, oid: int, x: int, y: int, s: int,
               d: int | None = None) -> None:
        """Insert an entry; ``d=None`` inserts a *current* entry.

        Same contract as :meth:`SWSTIndex.insert` — ordered stream, one
        live current entry per object — with routing and the cross-shard
        current protocol handled by the engine.
        """
        self._settled()
        if not self.config.space.contains(x, y):
            raise ValueError(f"location ({x}, {y}) outside the spatial "
                             f"domain {self.config.space}")
        if s < self._clock:
            raise ValueError(f"out-of-order start timestamp {s} < current "
                             f"time {self._clock}")
        if d is not None and d < 1:
            raise ValueError(f"duration must be >= 1, got {d}")
        dest = self._shard_id_of(x, y)
        ops: dict[int, list[Op]] = {}
        if d is not None:
            ops[dest] = [(OP_INSERT, (oid, x, y, s, d))]
        else:
            self._plan_current(ops, oid, x, y, s, dest)
        self._dispatch(ops, advance_to=s)

    def report(self, oid: int, x: int, y: int, t: int) -> None:
        """Position report of a moving object (alias of a current insert)."""
        self.insert(oid, x, y, t, None)

    def extend(self, reports: Iterable[ReportLike],
               batch_size: int = 1024) -> int:
        """Batched ingestion: split per shard, one dispatch per run.

        Reports are consumed in chunks of ``batch_size``; each chunk is
        validated, split into ``Wmax``-epoch runs (window drops only
        fire at epoch boundaries), and every run is partitioned by
        destination shard.  Objects whose reports stay within one shard
        ride one cell-grouped batch per shard (the same path as
        :meth:`SWSTIndex.extend`); objects whose current entry hops
        between shards take the cross-shard protocol.  One backend
        dispatch per run: workers apply it in parallel, shards here in turn.

        Returns the number of reports ingested.
        """
        self._settled()
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        count = 0
        batch: list[ReportLike] = []
        for report in reports:
            batch.append(report)
            if len(batch) >= batch_size:
                count += self._extend_batch(batch)
                batch.clear()
        if batch:
            count += self._extend_batch(batch)
        return count

    def _extend_batch(self, batch: list[ReportLike]) -> int:
        clock = self._clock
        for report in batch:
            if not self.config.space.contains(report.x, report.y):
                raise ValueError(f"location ({report.x}, {report.y}) outside "
                                 f"the spatial domain {self.config.space}")
            if report.t < clock:
                raise ValueError(f"out-of-order start timestamp {report.t} "
                                 f"< current time {clock}")
            clock = report.t
        w_max = self.config.w_max
        start = 0
        for idx in range(1, len(batch) + 1):
            if idx == len(batch) \
                    or batch[idx].t // w_max != batch[start].t // w_max:
                self._ingest_run(batch[start:idx])
                start = idx
        return len(batch)

    def _ingest_run(self, run: list[ReportLike]) -> None:
        """One epoch run as per-shard work: cross-shard ops, local runs.

        An object is shard-local when its live home (if any) and every
        destination cell of its reports in this run agree on one shard;
        local reports ride the shard's batched run.  The rest take the
        decomposed cross-shard protocol in stream order — the backend
        applies those ops *before* the advance, so each op's internal
        clock bump is monotone (reports of distinct objects commute
        within a run).
        """
        t_max = run[-1].t
        dests = [self._shard_id_of(report.x, report.y) for report in run]
        touched: dict[int, set[int]] = {}
        for report, dest in zip(run, dests, strict=True):
            touched.setdefault(report.oid, set()).add(dest)
        cross_shard: set[int] = set()
        for oid, shard_ids in touched.items():
            cur = self._live_cur(oid, t_max)
            if len(shard_ids) > 1 \
                    or (cur is not None and cur[0] not in shard_ids):
                cross_shard.add(oid)
        ops: dict[int, list[Op]] = {}
        runs: dict[int, list[ReportLike]] = {}
        for report, dest in zip(run, dests, strict=True):
            if report.oid in cross_shard:
                self._plan_current(ops, report.oid, report.x, report.y,
                                   report.t, dest)
            else:
                runs.setdefault(dest, []).append(report)
                self._cur[report.oid] = (dest, report.x, report.y,
                                         report.t)
        self._dispatch(ops, runs, advance_to=t_max)

    def close_object(self, oid: int, t: int) -> bool:
        """Finalise an object's current entry at end time ``t``."""
        self._settled()
        if t < self._clock:
            raise ValueError(f"clock cannot move backwards "
                             f"({t} < {self._clock})")
        cur = self._live_cur(oid, t)
        if cur is None:
            self._dispatch({}, advance_to=t)
            return False
        if t <= cur[3]:
            # Fail validation before anything is planned, exactly as
            # the shard itself would refuse — the mirror entry stays.
            raise ValueError(f"object {oid} cannot be finalised at {t} "
                             f"<= its current start {cur[3]}")
        home = cur[0]
        del self._cur[oid]
        results = self._dispatch({home: [(OP_CLOSE, (oid, t))]},
                                 advance_to=t)
        closed: bool = results[home][0]
        return closed

    def delete(self, oid: int, x: int, y: int, s: int,
               d: int | None = None) -> bool:
        """Delete one specific entry from the shard owning its cell."""
        self._settled()
        sid = self._shard_id_of(x, y)
        results = self._dispatch(
            {sid: [(OP_DELETE,
                    (oid, x, y, s, NONE_ARG if d is None else d))]})
        deleted: bool = results[sid][0]
        if deleted and d is None and self._cur.get(oid) == (sid, x, y, s):
            del self._cur[oid]
        return deleted

    def set_retention(self, oid: int, retention: int | None) -> None:
        """Per-object retention override, applied to every shard."""
        self._settled()
        if retention is not None \
                and not 1 <= retention <= self.config.window:
            raise ValueError(
                f"retention must be in [1, W={self.config.window}], "
                f"got {retention}")
        arg = NONE_ARG if retention is None else retention
        self._dispatch({sid: [(OP_RETAIN, (oid, arg))]
                        for sid in range(self.n_shards)})

    def retention_of(self, oid: int) -> int:
        """The object's retention time (defaults to the window size)."""
        self._check_open()
        retention: int = self._backend.read(
            "query", ("retention_of", (oid,)))[0]
        return retention

    def forget_object(self, oid: int) -> int:
        """Delete every queriable entry of one object across all shards."""
        self._settled()
        results = self._dispatch({sid: [(OP_FORGET, (oid,))]
                                  for sid in range(self.n_shards)})
        self._cur.pop(oid, None)
        deleted: int = sum(shard_results[0]
                           for shard_results in results.values())
        return deleted

    # -- coordinated sliding window --------------------------------------------

    def advance_time(self, now: int) -> None:
        """Advance every shard's clock in lockstep.

        Drop epochs are a pure function of the clock, so advancing all
        shards to the same time makes the wholesale tree drop fire
        consistently across the pool — a query fanning out immediately
        afterwards sees the same window boundary on every shard.
        """
        self._settled()
        if now < self._clock:
            raise ValueError(f"clock cannot move backwards "
                             f"({now} < {self._clock})")
        if now > self._clock:
            self._dispatch({}, advance_to=now)

    # -- queries ---------------------------------------------------------------

    def _plan_for(self, t_lo: int, t_hi: int,
                  window: int | None) -> QueryPlan:
        """Derive the plan an in-process fan-out shares.

        Temporal classification and the plan depend only on (config,
        clock, interval) — shared by every shard in lockstep — so the
        engine derives the plan **once** per fan-out and sends out only
        the per-cell search.  Nothing is cached: traffic almost never
        repeats a signature within one slide (``docs/internals.md``,
        "Query plan lifecycle").  The same immutable plan object goes to
        every in-process shard task, including *retried* tasks: a retry
        re-enters ``_query_area_planned`` with the original plan instead
        of re-deriving it, so retries cannot skew the classification
        work or double-derive state.  Worker shards never see it: each
        derives its own from the signature (:meth:`_planned`).  Only
        called once a column qualifies.
        """
        columns = classify_interval(self.config, self._clock, t_lo, t_hi,
                                    window)
        return build_query_plan(self.config, self._clock, columns, t_lo,
                                t_hi, window)

    def _planned(self, shard_ids: list[int], t_lo: int, t_hi: int,
                 window: int | None, method: str, subject: Any,
                 strict: bool) -> FanOut:
        """Fan ``method(subject, plan)`` out under the query's temporal
        signature; nothing to do (``[], []``) when no shard qualifies or
        no start time can (``min(q_hi, t_hi) < q_lo`` — exactly the case
        where ``classify_interval`` finds no column — and nothing is
        sent).  The backend gets the signature with a resolver for the
        plan: in-process shards share the one :meth:`_plan_for` returns,
        worker shards derive theirs, fenced on the signature's clock.
        """
        q_lo, q_hi = self.config.queriable_period(self._clock, window)
        if not shard_ids or min(q_hi, t_hi) < q_lo:
            return [], []
        successes, failures = self._backend.query_planned(
            shard_ids, method, subject, (t_lo, t_hi, window, self._clock),
            lambda: self._plan_for(t_lo, t_hi, window))
        self._strict(failures, strict)
        return successes, failures

    @staticmethod
    def _degrade(result: QueryResult, failures: list[ShardFailure]) -> None:
        """Record the shards a ``strict=False`` result is missing."""
        if failures:
            assert isinstance(result, PartialResult)
            result.failures.extend(failures)
            result.stats.degraded = True

    @staticmethod
    def _strict(failures: list[ShardFailure], strict: bool) -> None:
        """Strict mode: surface the first shard failure as a typed error."""
        if failures and strict:
            failure = failures[0]
            raise ShardQueryError(failure.shard_id, failure.path,
                                  failure.error) from failure.error

    def _check_interval(self, t_lo: int, t_hi: int | None,
                        window: int | None) -> None:
        """Validate a query's temporal arguments against a settled clock
        (the plan derived next must be for the clock the shards hold)."""
        self._settled()
        if t_hi is not None and t_hi < t_lo:
            raise ValueError(f"empty query interval [{t_lo}, {t_hi}]")
        self.config.queriable_period(self._clock, window)  # validate window

    def query_timeslice(self, area: Rect, t: int,
                        window: int | None = None, *,
                        strict: bool = True) -> QueryResult:
        """All entries within ``area`` valid at timestamp ``t``."""
        return self.query_interval(area, t, t, window, strict=strict)

    def query_interval(self, area: Rect, t_lo: int, t_hi: int,
                       window: int | None = None, *,
                       strict: bool = True) -> QueryResult:
        """Scatter-gather interval query over the overlapping shards.

        ``strict=True`` (default) raises :class:`ShardQueryError` if any
        shard fails after retries; ``strict=False`` returns a
        :class:`PartialResult` covering the surviving shards, with the
        failures listed and ``stats.degraded`` set.
        """
        self._check_interval(t_lo, t_hi, window)
        merged = QueryResult() if strict else PartialResult()
        successes, failures = self._planned(
            self._shards_for_area(area), t_lo, t_hi, window,
            "_query_area_planned", area, strict)
        for _, result in successes:
            merged.merge(result)
        self._degrade(merged, failures)
        return merged

    def query_interval_many(self, areas: Iterable[Rect], t_lo: int,
                            t_hi: int, window: int | None = None, *,
                            strict: bool = True) -> MultiQueryResult:
        """Batched multi-rectangle scatter-gather interval query.

        Equivalent to one :meth:`query_interval` per rectangle, but the
        whole batch shares one plan and one fan-out: every overlapping
        shard receives the full rectangle list and evaluates it with
        shared per-cell descents
        (:meth:`SWSTIndex._query_area_planned_many`).

        With ``strict=False`` the per-rectangle results are
        :class:`PartialResult` objects; a failed shard is attributed to
        exactly the rectangles whose area it overlaps (other rectangles
        stay complete).

        Node accesses of shared descents belong to the batch, not to a
        rectangle: they are reported once, on the batch ``stats``.  A
        batch of exactly one rectangle has nothing to share, so that
        rectangle's result carries the figure too (the paper's metric
        then reaches a coalescing front end's single-query clients).
        """
        self._check_interval(t_lo, t_hi, window)
        areas = list(areas)
        results: list[QueryResult] = [
            QueryResult() if strict else PartialResult() for _ in areas]
        batch = MultiQueryResult(results=results)
        if not areas:
            return batch
        rect_shards = [self._shards_for_area(area) for area in areas]
        successes, failures = self._planned(
            sorted({sid for sids in rect_shards for sid in sids}), t_lo,
            t_hi, window, "_query_area_planned_many", areas, strict)
        for _, shard_batch in successes:
            for result, shard_result in zip(results, shard_batch.results,
                                            strict=True):
                result.merge(shard_result)
            batch.stats.merge(shard_batch.stats)
        if len(results) == 1:
            results[0].stats.node_accesses = batch.stats.node_accesses
        for result, sids in zip(results, rect_shards, strict=True):
            self._degrade(result, [failure for failure in failures
                                   if failure.shard_id in sids])
        batch.stats.degraded = bool(failures)
        return batch

    def count_interval(self, area: Rect, t_lo: int, t_hi: int,
                       window: int | None = None, *,
                       strict: bool = True) -> tuple[int, QueryStats]:
        """Count qualifying entries without materialising them.

        With ``strict=False`` a failed shard is simply absent from the
        count (``stats.degraded`` is set); callers needing the per-shard
        failure details should use :meth:`query_interval`.
        """
        self._check_interval(t_lo, t_hi, window)
        total = 0
        stats = QueryStats()
        successes, failures = self._planned(
            self._shards_for_area(area), t_lo, t_hi, window,
            "_count_area_planned", area, strict)
        for _, (count, shard_stats) in successes:
            total += count
            stats.merge(shard_stats)
        stats.degraded = bool(failures)
        return total, stats

    def query_knn(self, x: int, y: int, k: int, t_lo: int,
                  t_hi: int | None = None,
                  window: int | None = None, *,
                  strict: bool = True) -> QueryResult:
        """K nearest entries: every shard returns its local top-k, the
        engine keeps the global k best (ties by object id and start)."""
        self._check_interval(t_lo, t_hi, window)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not self.config.space.contains(x, y):
            raise ValueError(f"query point ({x}, {y}) outside the domain")
        merged = QueryResult() if strict else PartialResult()
        candidates: list[tuple[tuple[int, int, int], Entry]] = []
        successes, failures = self._backend.query(
            list(range(self.n_shards)), "query_knn",
            (x, y, k, t_lo, t_hi, window))
        self._strict(failures, strict)
        for _, result in successes:
            merged.stats.merge(result.stats)
            for entry in result.entries:
                dist2 = (entry.x - x) ** 2 + (entry.y - y) ** 2
                candidates.append(((dist2, entry.oid, entry.s), entry))
        candidates.sort(key=lambda item: item[0])
        merged.entries.extend(entry for _, entry in candidates[:k])
        self._degrade(merged, failures)
        return merged

    # -- introspection ---------------------------------------------------------

    def scan(self) -> Iterator[Entry]:
        """Yield every physically stored entry (diagnostics/tests only)."""
        self._check_open()
        for entries in self._backend.read("scan"):
            yield from entries

    def check_integrity(self) -> None:
        """Per-shard invariants plus the engine's own placement invariants."""
        self._settled()
        self._backend.read("query", ("check_integrity", ()))
        states = self._backend.read("state")
        for shard_id, (state, entries) in enumerate(
                zip(states, self._backend.read("scan"), strict=True)):
            if state["now"] != self._clock:
                raise AssertionError(
                    f"shard {shard_id} clock {state['now']} != engine "
                    f"clock {self._clock}")
            for entry in entries:
                owner = self._shard_id_of(entry.x, entry.y)
                if owner != shard_id:
                    raise AssertionError(
                        f"entry {entry} stored in shard {shard_id}, its "
                        f"cell is owned by shard {owner}")
            for oid in state["current"]:
                home = self._cur.get(oid, (None,))[0]
                if home != shard_id:
                    raise AssertionError(
                        f"object {oid} current in shard {shard_id} but "
                        f"the engine's mirror says {home}")

    # -- persistence -----------------------------------------------------------

    def save(self) -> None:
        """Persist the whole directory as one two-phase epoch commit.

        Protocol (each file step durable: fsync + directory fsync):

        1. **COMMIT** — save every shard, in shard order: each commits a
           new page-file generation beside the one the manifest records,
           which stays whole on disk.
        2. **FLIP** — atomically rewrite the manifest with the new epoch
           and the committed generations.  This rename is the commit
           point of the whole directory.
        3. The backend's post-commit hook: every shard retains its new
           generation; workers also reset their WALs to the new epoch.

        A crash before the flip lands leaves the old manifest, and every
        shard reopens at the generation it names; there is nothing to
        finish or undo.  A *failure* with the process still alive hands
        the shards back to the backend (``abort_commit``, which settles
        them on whatever manifest is on disk) and re-raises; calling
        ``save()`` again is safe.  Memory-backed engines skip the
        protocol and save each shard directly.
        """
        self._settled()
        backend = self._backend
        if not backend.epoch_commit:
            backend.commit()
            return
        assert self._dir is not None
        next_epoch = self._epoch + 1
        try:
            gens = backend.commit()
            write_json_atomic(
                self._fops, self._dir,
                os.path.join(self._dir, MANIFEST_NAME),
                {"format": MANIFEST_FORMAT, "n_shards": self.n_shards,
                 "epoch": next_epoch, "shards": gens,
                 "generation": self._generation})
        except BaseException:
            self._save_failed = True
            self._epoch = backend.abort_commit()["epoch"]
            raise
        self._save_failed = False
        self._epoch = next_epoch
        backend.after_flip(next_epoch)

    # -- lifecycle -------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosedError("engine is closed")

    def close(self) -> None:
        """Save if needed, then release every shard (and whatever else
        the backend owns).

        A disk-backed in-process engine with changes since its last save
        saves first, as one two-phase :meth:`save` — never shard by
        shard.  Workers stop as ever: their WALs hold every acknowledged
        op.  If that save fails, or the last one did, the shards are
        released as by a crash (``open()`` reopens at the manifest) and
        any error is raised.

        Every resource is closed even if an earlier one fails.  A single
        failure re-raises as itself; several raise an
        :class:`EngineCloseError` aggregate listing all of them (first
        chained as ``__cause__``), so no error is silently dropped.
        """
        if self._closed:
            return
        errors: list[BaseException] = []
        if self._backend.unsaved and not self._save_failed:
            try:
                self.save()
            except BaseException as exc:
                errors.append(exc)
        self._release(errors)

    def abort(self) -> None:
        """Release every shard without saving — what a crash leaves
        (``open()`` reopens at the manifest).  For an engine whose
        directory has moved on, as after an online reshard's flip."""
        if not self._closed:
            self._release([])

    def _release(self, errors: list[BaseException]) -> None:
        self._closed = True
        errors += self._backend.close()
        if len(errors) == 1:
            raise errors[0]
        if errors:
            raise EngineCloseError(errors) from errors[0]

    def __enter__(self: _E) -> _E:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ShardedEngine(Coordinator):
    """The coordinator over in-process shards (:class:`InProcessBackend`).

    Args:
        config: index parameters; ``config.n_shards`` fixes the shard
            count (the default config is a single shard).
        path: shard directory, or ``":memory:"`` (default) for an
            all-in-memory engine (each shard on its own memory device).
        executor: what runs per-shard work.  A caller-supplied
            :class:`~repro.engine.executor.Executor` is *borrowed*
            (``close()`` leaves it running); a spec string (``serial``
            | ``thread[:N]``) or the default — inline
            (:class:`~repro.engine.executor.SerialExecutor`) — is owned
            and shut down with the engine.
        retry_policy: per-shard retry policy for read-only query
            fan-out; defaults to ``RetryPolicy()`` (3 deterministic
            immediate attempts).  Pass ``RetryPolicy(attempts=1)`` to
            disable retries.
        breaker_factory: builds one circuit breaker per shard;
            defaults to :class:`~repro.engine.retry.CircuitBreaker`
            with its deterministic attempt-counting clock.  Pass
            ``None`` to disable breakers entirely.
        file_ops: durable filesystem seam for the manifest protocol;
            tests substitute a fault-injecting implementation.

    A disk-backed engine's shard files never overwrite the generation
    the manifest records, so a save torn between shard commits, or a
    crash mid-session, reopens at the manifest on ``open()`` (the
    recovery table in ``docs/internals.md``).
    """

    _backend: InProcessBackend

    def __init__(self, config: SWSTConfig | None = None,
                 path: str | os.PathLike[str] = MEMORY,
                 executor: Executor | str | None = None, *,
                 retry_policy: RetryPolicy | None = None,
                 breaker_factory: Callable[[], CircuitBreaker] | None
                 = CircuitBreaker,
                 file_ops: FileOps | None = None) -> None:
        config = config if config is not None else SWSTConfig()
        fops = file_ops if file_ops is not None else DURABLE_FILE_OPS
        directory = None if os.fspath(path) == MEMORY else os.fspath(path)
        manifest = _fresh_manifest(config.n_shards) if directory is None \
            else prepare_directory(directory, config.n_shards, fops)
        backend = InProcessBackend.create(
            config, directory, manifest, executor=executor,
            retry_policy=retry_policy, breaker_factory=breaker_factory,
            file_ops=fops)
        super().__init__(config, backend, directory, manifest, fops)

    @classmethod
    def open(cls, path: str | os.PathLike[str], config: SWSTConfig,
             executor: Executor | str | None = None, *,
             retry_policy: RetryPolicy | None = None,
             breaker_factory: Callable[[], CircuitBreaker] | None
             = CircuitBreaker,
             file_ops: FileOps | None = None) -> "ShardedEngine":
        """Re-open a saved shard directory: plan its recovery
        (:func:`~repro.engine.recovery.plan_recovery`), refuse — touching
        no file — whatever the plan refuses or a replay of acknowledged
        WAL records it would need, else open every shard at the
        generation the manifest records."""
        fops = file_ops if file_ops is not None else DURABLE_FILE_OPS
        plan = plan_recovery(path, config)
        refusal = plan.refusal or plan.in_process_refusal()
        if refusal is not None:
            raise refusal
        assert plan.manifest is not None
        backend = InProcessBackend.recover(
            plan, config, executor=executor, retry_policy=retry_policy,
            breaker_factory=breaker_factory, file_ops=fops)
        engine = cls._adopt(config, backend, plan.directory, plan.manifest,
                            fops)
        engine.recovery = plan
        return engine

    def reopen(self, n_shards: int) -> "ShardedEngine":
        assert self._dir is not None
        backend = self._backend
        return ShardedEngine.open(
            self._dir, dataclasses.replace(self.config, n_shards=n_shards),
            executor=backend.executor_arg,
            retry_policy=backend.retry_policy, file_ops=self._fops)

    @property
    def shards(self) -> tuple[SWSTIndex, ...]:
        """The shard indexes, in shard-id order (diagnostics/tests)."""
        return tuple(self._backend.shards)
