"""Fault a forked worker by wrapping the functions it inherits.

Worker processes run production code only; ``repro.engine.worker``
has no fault hooks.  :class:`WorkerFaults` monkeypatches, in the test
process and before a worker forks, the function each kill point sits
in.  The fork inherits the wrappers, so a kill lands at the same
program point as the shipped code's own steps:

======================  ==============================  =====================
script key              wrapped function                when it fires
======================  ==============================  =====================
``kill_before_commit``  ``WalWriter.commit``            before the call
``kill_after_commit``   ``WalWriter.commit``            after the call
``kill_after_apply``    ``worker._apply_batch``         after the call
``hang_at_apply``       ``worker._apply_batch``         hangs before the call
``kill_at_replay``      ``worker.apply_record``         at the Nth record
``kill_at_ready``       ``worker._recover_shard``       after it returns
``kill_at_save``        ``SWSTIndex.save``              before the call
``kill_after_save``     ``SWSTIndex.save``              after the call
``kill_at_checkpoint``  ``worker._checkpoint``          before the call
``wal_fail_op``, ...    ``_worker_main``'s ``fops``     wrapped in
                                                        ``FaultInjectingFileOps``
======================  ==============================  =====================

The ``*_commit`` / ``*_apply`` keys take the 1-based ordinal of the
``apply`` request within one worker incarnation; ``kill_at_replay``
the count of replayed WAL records; the others ``True``.  The four
``wal_*`` keys are ``FaultInjectingFileOps``' ``fail_op``,
``op_errors``, ``short_writes`` and ``fsync_errors``, counted from the
worker's first file op.

``WorkerPool.launch`` is wrapped too: a launch takes its shard's
script out of :attr:`WorkerFaults.armed` (unless it was armed
``persistent``) and the forked worker keeps it, so an arm reaches only
the next incarnation of its shard — or every incarnation until
:meth:`WorkerFaults.disarm`.  Each wrapper checks the shard (its id,
or the WAL or page file it works on) and never fires in the test
runner's own process.  Needs the ``fork`` start method; skips
elsewhere.
"""

from __future__ import annotations

import os
import re
import signal
from typing import Any

import pytest

from repro.core.index import SWSTIndex
from repro.engine import worker
from repro.engine.wal import WalWriter
from tests.storage.fault import FaultInjectingFileOps

#: ``wal_*`` script key -> ``FaultInjectingFileOps`` keyword.
WAL_KEYS = {"wal_fail_op": "fail_op", "wal_op_errors": "op_errors",
            "wal_short_writes": "short_writes",
            "wal_fsync_errors": "fsync_errors"}

_SHARD_FILE = re.compile(r"shard-(\d+)\.")


def _die() -> None:
    """Die exactly as a SIGKILL from outside would."""
    os.kill(os.getpid(), signal.SIGKILL)


def _shard_of(path: str) -> int | None:
    match = _SHARD_FILE.match(os.path.basename(path))
    return int(match.group(1)) if match else None


def _page_file(index: SWSTIndex) -> str:
    return getattr(index.pager._device, "path", "")


class WorkerFaults:
    """Per-shard fault scripts for forked workers (see module docstring).

    ``armed`` maps shard id -> script, as the next launch of that
    shard will take it.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        if worker._mp_context().get_start_method() != "fork":
            pytest.skip("faulting a worker needs the fork start method")
        self.armed: dict[int, dict[str, Any]] = {}
        self._runner = os.getpid()
        #: Parent side, only while ``launch`` forks: what the child takes.
        self._forking: tuple[int, dict[str, Any]] | None = None
        #: Child side: this worker's shard, script and counters.
        self._shard: int | None = None
        self._script: dict[str, Any] = {}
        self._batches = 0
        self._replayed = 0
        self._install(monkeypatch)

    def arm(self, shard_id: int, *, persistent: bool = False,
            **script: Any) -> None:
        """Script the next incarnation (every one if ``persistent``)."""
        self.armed[shard_id] = dict(script, persistent=persistent)

    def disarm(self, shard_id: int) -> None:
        """Drop one shard's script (heals a persistent crash loop)."""
        self.armed.pop(shard_id, None)

    def _due(self, key: str, shard: int | str, at: Any = True) -> bool:
        """``key`` fires now: in a worker, on its shard, at ``at``."""
        if os.getpid() == self._runner or self._script.get(key) != at:
            return False
        sid = shard if isinstance(shard, int) else _shard_of(shard)
        return sid == self._shard

    def _install(self, monkeypatch: pytest.MonkeyPatch) -> None:
        launch = worker.WorkerPool.launch
        worker_main = worker._worker_main
        recover_shard = worker._recover_shard
        apply_batch = worker._apply_batch
        apply_record = worker.apply_record
        checkpoint = worker._checkpoint
        commit = WalWriter.commit
        save = SWSTIndex.save

        def wrapped_launch(pool: worker.WorkerPool, shard_id: int) -> None:
            script = self.armed.get(shard_id, {})
            if not script.get("persistent"):
                self.armed.pop(shard_id, None)
            self._forking = (shard_id, script)
            try:
                launch(pool, shard_id)
            finally:
                self._forking = None

        def wrapped_worker_main(shard_id: int, directory: str, config: Any,
                                conn: Any, fops: Any,
                                *rest: Any) -> None:
            forking = self._forking
            if os.getpid() != self._runner and forking is not None \
                    and forking[0] == shard_id:
                self._shard, self._script = forking
                self._batches = self._replayed = 0
                wal = {arg: self._script[key]
                       for key, arg in WAL_KEYS.items()
                       if key in self._script}
                if wal:
                    fops = FaultInjectingFileOps(fops, **wal)
            worker_main(shard_id, directory, config, conn, fops, *rest)

        def wrapped_recover_shard(shard_id: int, *args: Any) -> Any:
            recovered = recover_shard(shard_id, *args)
            if self._due("kill_at_ready", shard_id):
                _die()
            return recovered

        def wrapped_apply_batch(shard: SWSTIndex, writer: WalWriter,
                                batch: Any) -> Any:
            self._batches += 1
            if self._due("hang_at_apply", writer.path, self._batches):
                signal.pause()  # poison task: never answers
            results = apply_batch(shard, writer, batch)
            if self._due("kill_after_apply", writer.path, self._batches):
                _die()
            return results

        def wrapped_apply_record(shard: SWSTIndex, record: Any) -> None:
            apply_record(shard, record)
            self._replayed += 1
            if self._due("kill_at_replay", _page_file(shard),
                         self._replayed):
                _die()

        def wrapped_checkpoint(shard_id: int, *args: Any) -> Any:
            if self._due("kill_at_checkpoint", shard_id):
                _die()
            return checkpoint(shard_id, *args)

        def wrapped_commit(writer: WalWriter) -> None:
            if self._due("kill_before_commit", writer.path, self._batches):
                _die()
            commit(writer)
            if self._due("kill_after_commit", writer.path, self._batches):
                _die()

        def wrapped_save(index: SWSTIndex) -> None:
            if self._due("kill_at_save", _page_file(index)):
                _die()
            save(index)
            if self._due("kill_after_save", _page_file(index)):
                _die()

        monkeypatch.setattr(worker.WorkerPool, "launch", wrapped_launch)
        monkeypatch.setattr(worker, "_worker_main", wrapped_worker_main)
        monkeypatch.setattr(worker, "_recover_shard", wrapped_recover_shard)
        monkeypatch.setattr(worker, "_apply_batch", wrapped_apply_batch)
        monkeypatch.setattr(worker, "apply_record", wrapped_apply_record)
        monkeypatch.setattr(worker, "_checkpoint", wrapped_checkpoint)
        monkeypatch.setattr(WalWriter, "commit", wrapped_commit)
        monkeypatch.setattr(SWSTIndex, "save", wrapped_save)
