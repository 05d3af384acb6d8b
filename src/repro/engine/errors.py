"""Exception types of the sharded engine layer.

The engine sits above the storage layer, so its failures get their own
small hierarchy rooted at :class:`EngineError`:

* :class:`ShardOpenError` — one shard of a directory failed to open
  (carries the shard id and page-file path).
* :class:`ShardQueryError` — a strict-mode query fan-out failed on one
  shard after the retry policy was exhausted; names the shard.
* :class:`CircuitOpenError` — a shard was skipped because its circuit
  breaker is open (no request was dispatched at all).
* :class:`ClockFenceError` — a worker shard refused a query signed with
  a clock other than its own.
* :class:`EngineCloseError` — aggregate raised when *several* resources
  fail during :meth:`ShardedEngine.close`; every underlying error is
  kept (``errors`` attribute plus exception notes), none are dropped.
* :class:`EngineClosedError` — use-after-close.

:class:`ShardFailure` is not an exception: it is the typed per-shard
failure record carried by degraded (``strict=False``) query results.
"""

from __future__ import annotations

import dataclasses


class EngineError(Exception):
    """Base class for sharded-engine failures."""


class ShardOpenError(EngineError):
    """One shard of an engine directory failed to open.

    Attributes:
        shard_id: index of the failing shard in the cell->shard map.
        path: page-file path of the failing shard.
    """

    def __init__(self, shard_id: int, path: str, cause: Exception) -> None:
        super().__init__(f"shard {shard_id} ({path}) failed to open: "
                         f"{cause}")
        self.shard_id = shard_id
        self.path = path


class ShardQueryError(EngineError):
    """A strict-mode query failed on one shard (retries exhausted).

    Attributes:
        shard_id: index of the failing shard.
        path: page-file path of the failing shard.
    """

    def __init__(self, shard_id: int, path: str,
                 cause: BaseException) -> None:
        super().__init__(f"query failed on shard {shard_id} ({path}): "
                         f"{cause!r}")
        self.shard_id = shard_id
        self.path = path


class CircuitOpenError(EngineError):
    """A shard was skipped because its circuit breaker is open.

    Attributes:
        shard_id: index of the skipped shard.
    """

    def __init__(self, shard_id: int) -> None:
        super().__init__(f"circuit breaker for shard {shard_id} is open; "
                         f"shard skipped without dispatch")
        self.shard_id = shard_id


class ClockFenceError(EngineError):
    """A shard refused a query whose signature carries another clock.

    A worker derives each query's plan from the temporal signature the
    coordinator sends, and the plan is a function of the clock: a shard
    that moved apart from the coordinator's clock would answer another
    window.  It refuses instead; the shard fails (``ShardFailure``) and
    the coordinator resynchronises before its next call.
    """


class EngineCloseError(EngineError):
    """Multiple resources failed while closing the engine.

    The first failure is chained as ``__cause__``; every failure
    (including the first) is listed in ``errors`` and attached as an
    exception note, so no error is silently dropped.

    Attributes:
        errors: all close failures, in the order they occurred.
    """

    def __init__(self, errors: list[BaseException]) -> None:
        super().__init__(f"{len(errors)} resources failed to close: "
                         + "; ".join(repr(exc) for exc in errors))
        self.errors = list(errors)
        for exc in errors:
            self.add_note(f"close failure: {exc!r}")


class EngineClosedError(EngineError):
    """An operation was attempted on a closed engine."""


class ReshardError(EngineError):
    """A directory cannot be resharded in its current state.

    Raised before anything is written: the directory has never been
    saved, holds an unresolved save marker, or its write-ahead logs
    carry acknowledged records that only a checkpoint (``save()``)
    would fold into the page files — resharding from the page files
    alone would silently drop them.
    """


class ReshardInProgressError(ReshardError):
    """A second reshard (or a save) raced an in-flight online reshard.

    The serving layer runs at most one reshard at a time and parks
    ``save()`` while one is running — the reshard's own commit is the
    epoch flip, and a concurrent save would race it for the manifest.
    """


class WalError(EngineError):
    """Base class for write-ahead-log failures."""


class WalCorruptError(WalError):
    """A WAL file is unreadable beyond normal torn-tail truncation.

    A torn *tail* (short or CRC-bad final record) is expected after a
    crash and silently truncated on resume; this error is for damage
    replay cannot step over: a bad magic/header, a corrupt record in the
    *middle* of the acknowledged prefix, or a WAL claiming a future
    epoch the manifest never committed.

    Attributes:
        path: the damaged WAL file.
    """

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"write-ahead log {path} is corrupt: {reason}")
        self.path = path
        self.reason = reason


class WorkerCrashError(EngineError):
    """A warm worker process died (exit, kill, or heartbeat overrun).

    Raised by the supervisor when a request cannot be completed because
    the owning worker's process is gone or unresponsive.  Retryable for
    read-only queries (the supervisor restarts the worker and replays
    its WAL first); never retried for mutations — the caller cannot
    know whether the op was fsynced before the crash, so the engine
    reports it and lets the crash matrix's replay rules decide.

    Attributes:
        shard_id: shard whose worker died.
        detail: what the supervisor observed (exit code, deadline, ...).
    """

    def __init__(self, shard_id: int, detail: str) -> None:
        super().__init__(f"worker for shard {shard_id} crashed: {detail}")
        self.shard_id = shard_id
        self.detail = detail


class WorkerRecoveryError(EngineError):
    """A worker could not rebuild its shard from base + WAL on start.

    Terminal for the shard (restarting again cannot help): the page
    file is unrecoverable and its base fails the base rule (the
    worker's :class:`ShardOpenError`), or the WAL is corrupt beyond its
    tail.

    Attributes:
        shard_id: the unrecoverable shard.
    """

    def __init__(self, shard_id: int, detail: str) -> None:
        super().__init__(f"worker for shard {shard_id} cannot recover: "
                         f"{detail}")
        self.shard_id = shard_id
        self.detail = detail


@dataclasses.dataclass(frozen=True)
class ShardFailure:
    """Typed record of one shard's failure during a degraded query.

    Attributes:
        shard_id: index of the failed shard.
        path: page-file path of the failed shard.
        error: the exception that exhausted the retry policy (a
            :class:`CircuitOpenError` if the shard was never
            dispatched).
    """

    shard_id: int
    path: str
    error: BaseException

    def __str__(self) -> str:
        return f"shard {self.shard_id} ({self.path}): {self.error!r}"
