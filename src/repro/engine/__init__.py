"""Sharded scatter-gather engine over independent SWST index shards.

The engine layer scales the single-file SWST index out to a pool of
independent shards: :class:`GridShardMap` assigns every spatial grid cell
to exactly one shard, and one :class:`Coordinator` routes inserts, fans
queries out, merges the per-shard results and statistics, and
coordinates the sliding-window drop epoch across the pool.  Persistence
is a two-phase epoch commit (``save()`` is atomic for the whole
directory); query fan-out is resilient (:class:`RetryPolicy`, per-shard
:class:`CircuitBreaker`, degraded :class:`PartialResult` mode).  Where
the shards run is the coordinator's backend: :class:`ShardedEngine`
keeps them in-process (work runs inline through an :class:`Executor`),
:class:`WorkerEngine` runs every shard in a long-lived worker *process*
fed through a per-shard write-ahead log, so acknowledged writes survive
worker crashes (the supervisor restarts the worker and replays the WAL
tail).  :func:`open_engine` picks between them; both open a directory
by executing one read-only :func:`plan_recovery`.  See
``docs/internals.md`` (engine layer, failure model) for the design.
"""

from __future__ import annotations

import os

from ..core.config import SWSTConfig
from .engine import (Coordinator, PartialResult, ShardBackend, ShardedEngine,
                     load_manifest)
from .errors import (CircuitOpenError, ClockFenceError, EngineClosedError,
                     EngineCloseError, EngineError, ReshardError,
                     ReshardInProgressError, ShardFailure,
                     ShardOpenError, ShardQueryError, WalCorruptError,
                     WalError, WorkerCrashError, WorkerRecoveryError)
from .executor import (Executor, SerialExecutor, ThreadedExecutor,
                       resolve_executor)
from .recovery import RecoveryPlan, ShardPlan, plan_recovery
from .reshard import GenerationBuild, ReshardReport, reshard
from .retry import CircuitBreaker, RetryPolicy
from .scrub import DirectoryScrubReport, scrub_directory
from .sharding import GridShardMap
from .wal import (WalReport, WalScan, WalWriter, read_wal, replay,
                  wal_file_name)
from .worker import WorkerEngine, WorkerPool


def open_engine(path: str | os.PathLike[str], config: SWSTConfig, *,
                create: bool = False, workers: bool = False,
                executor: str = "serial",
                retry_policy: RetryPolicy | None = None) -> Coordinator:
    """Open (or, with ``create``, build) the engine directory ``path``.

    The one place that turns deployment choices into an engine:
    ``workers`` selects warm worker processes behind write-ahead logs
    (:class:`WorkerEngine`), otherwise the shards run in-process
    (:class:`ShardedEngine`), inline behind the ``executor`` spec
    (``serial`` | ``thread[:N]``), which the engine owns.  Either
    way the result is a :class:`Coordinator`; close it (or use it as a
    context manager) to release everything.
    """
    if workers:
        if create:
            return WorkerEngine(config, path, retry_policy=retry_policy)
        return WorkerEngine.open(path, config, retry_policy=retry_policy)
    if create:
        return ShardedEngine(config, path, executor=executor,
                             retry_policy=retry_policy)
    return ShardedEngine.open(path, config, executor=executor,
                              retry_policy=retry_policy)


__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "ClockFenceError",
    "Coordinator",
    "DirectoryScrubReport",
    "EngineCloseError",
    "EngineClosedError",
    "EngineError",
    "Executor",
    "GenerationBuild",
    "GridShardMap",
    "PartialResult",
    "RecoveryPlan",
    "ReshardError",
    "ReshardInProgressError",
    "ReshardReport",
    "RetryPolicy",
    "SerialExecutor",
    "ShardBackend",
    "ShardFailure",
    "ShardOpenError",
    "ShardPlan",
    "ShardQueryError",
    "ShardedEngine",
    "ThreadedExecutor",
    "WalCorruptError",
    "WalError",
    "WalReport",
    "WalScan",
    "WalWriter",
    "WorkerCrashError",
    "WorkerEngine",
    "WorkerPool",
    "WorkerRecoveryError",
    "load_manifest",
    "open_engine",
    "plan_recovery",
    "read_wal",
    "replay",
    "reshard",
    "resolve_executor",
    "scrub_directory",
    "wal_file_name",
]
